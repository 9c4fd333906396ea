import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzkit.errors import ScalarModeError
from gkzkit.lattice import ParameterVector, validate_config
from gkzkit.laurent import (LaurentPoly, TwistedDerivations, apply_D, build_f,
                            build_f_symbolic, toric_derivative)
from gkzkit.window import ConeSupport, HalfSupport
from oracles import brute_facets, divide_exact


def mono(u, c=1):
    return LaurentPoly.monomial(u, Fraction(c))


def test_build_f_examples():
    cfg = validate_config([(1,), (2,)])
    f = build_f(cfg, [3, 5])
    assert f == mono((1,), 3) + mono((2,), 5)

    cfg3 = validate_config([(0, 1), (1, 1), (-1, 1)])
    f = build_f_symbolic(cfg3)
    # lambda_j x^(a_j) is the key a_j + e_j
    assert f == LaurentPoly(2, {(0, 1, 1, 0, 0): 1, (1, 1, 0, 1, 0): 1,
                                (-1, 1, 0, 0, 1): 1}, nlam=3)

    assert build_f(validate_config([(1,)]), [0]).is_zero()


def test_ring_examples():
    x = mono((1,))
    one = LaurentPoly.one(1)
    assert (x + one) * (x - one) == mono((2,)) - one
    p = mono((3,), 7) + mono((-2,), 5)
    assert p + LaurentPoly.zero(1) == p
    assert mono((-1,)) * mono((1,)) == one


def test_mode_mismatch_raises():
    cfg = validate_config([(1,)])
    sym = build_f_symbolic(cfg)
    rat = build_f(cfg, [2])
    with pytest.raises(ScalarModeError):
        _ = sym + rat
    with pytest.raises(ScalarModeError):
        _ = sym * rat
    with pytest.raises(ScalarModeError):
        apply_D(TwistedDerivations(ParameterVector.of("1/2"), sym), 1, rat)
    with pytest.raises(ScalarModeError):
        _ = sym + LaurentPoly(2, {(1, 0): 1})  # keys of the same width


coeff_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def poly_st(n):
    return st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * n), coeff_st, max_size=4
    ).map(lambda d: LaurentPoly(n, d))


@settings(max_examples=80, deadline=None)
@given(p=poly_st(2), q=poly_st(2), r=poly_st(2))
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(p=poly_st(2), q=poly_st(2))
def test_toric_derivative_leibniz(p, q):
    for i in (1, 2):
        lhs = toric_derivative(i, p * q)
        rhs = toric_derivative(i, p) * q + p * toric_derivative(i, q)
        assert lhs == rhs


def test_toric_derivative_examples():
    p = mono((2, -1))
    assert toric_derivative(1, p) == mono((2, -1), 2)
    assert toric_derivative(1, LaurentPoly.one(1)).is_zero()
    assert toric_derivative(1, mono((-3,))) == mono((-3,), -3)


def test_apply_D_examples():
    cfg = validate_config([(1,)])
    alpha = ParameterVector.of("1/2")
    dd = TwistedDerivations(alpha, build_f(cfg, [2]))
    assert apply_D(dd, 1, LaurentPoly.one(1)) == \
        LaurentPoly(1, {(0,): Fraction(1, 2), (1,): 2})
    assert apply_D(dd, 1, LaurentPoly.zero(1)).is_zero()
    assert apply_D(dd, 1, mono((-1,))) == \
        LaurentPoly(1, {(-1,): Fraction(-1, 2), (0,): 2})


def test_apply_D_commutes():
    cfg = validate_config([(0, 1), (1, 1), (-1, 1)])
    alpha = ParameterVector.of("1/3", "1/5")
    dd = TwistedDerivations(alpha, build_f_symbolic(cfg))
    rng = random.Random(3)
    for _ in range(20):
        terms = {}
        for _ in range(3):
            u = (rng.randint(-2, 2), rng.randint(-2, 2))
            e = tuple(rng.randint(0, 1) for _ in range(3))
            terms[u + e] = Fraction(rng.randint(-5, 5))
        xi = LaurentPoly(2, terms, nlam=3)
        d12 = apply_D(dd, 1, apply_D(dd, 2, xi))
        d21 = apply_D(dd, 2, apply_D(dd, 1, xi))
        assert d12 == d21


def test_apply_D_stability_under_closed_supports():
    cfg = validate_config([(0, 1), (1, 1), (-1, 1)])
    alpha = ParameterVector.of("1/3", "1/5")
    dd = TwistedDerivations(alpha, build_f(cfg, [1, 2, 3]))
    for S in (ConeSupport(cfg), HalfSupport(2)):
        for u in itertools.product(range(-3, 4), repeat=2):
            if not S.contains(u):
                continue
            # closed: every point shift of a member is a member
            for a in cfg.points:
                assert S.contains(tuple(x + y for x, y in zip(u, a))), (S.name, u, a)
            for i in (1, 2):
                image = apply_D(dd, i, mono(u))
                assert all(S.contains(w) for w in image.terms), (S.name, u, i)


def test_cone_support_matches_bounded_enumeration():
    # (points, box, coefficient bound of the normal scan); U0 is the lattice
    # points of the real cone, so membership is every brute-force facet
    # normal being >= 0; the last four cones have lineality
    cases = [([(1,), (2,)], 4, 2), ([(0, 1), (1, 1), (-1, 1)], 4, 3),
             ([(2,), (3,)], 4, 2),
             ([(1, 0), (-1, 0), (0, 2), (1, 3)], 3, 3),
             ([(1, 0), (0, 1), (-1, -1)], 4, 3), ([(1,), (-1,)], 4, 2),
             ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, -1)], 2, 3)]
    for points, box, coeff_bound in cases:
        cfg = validate_config(points)
        S = ConeSupport(cfg)
        normals = brute_facets(list(cfg.points), coeff_bound)
        for u in itertools.product(range(-box, box + 1), repeat=cfg.n):
            want = all(sum(c * x for c, x in zip(f, u)) >= 0 for f in normals)
            assert S.contains(u) == want, (points, u)
    # the saturation of N.A: 1 is not a sum of 2s and 3s, and no point of
    # the row y = 1 is a sum of the four points, but both lie in the cone
    assert ConeSupport(validate_config([(2,), (3,)])).contains((1,))
    lineal = ConeSupport(validate_config([(1, 0), (-1, 0), (0, 2), (1, 3)]))
    assert all(lineal.contains((x, 1)) for x in range(-3, 4))


def test_divide_exact():
    g = mono((1,)) + mono((-1,)) + LaurentPoly.one(1)
    p = g * (mono((2,), 3) + mono((0,), -7))
    q = divide_exact(p, g)
    assert q == mono((2,), 3) + mono((0,), -7)
    assert divide_exact(p + LaurentPoly.one(1), g) is None
    assert divide_exact(LaurentPoly.zero(1), g).is_zero()


@settings(max_examples=50, deadline=None)
@given(p=poly_st(2), q=poly_st(2))
def test_divide_exact_roundtrip(p, q):
    if q.is_zero():
        return
    prod = p * q
    got = divide_exact(prod, q)
    assert got == p


int_poly_st = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                              st.integers(-4, 4), max_size=4).map(
    lambda d: LaurentPoly(2, d))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(p=int_poly_st, q=int_poly_st)
def test_divide_exact_on_integer_coefficients_stays_exact(p, q):
    # int / int is a float, and 1/3 as a float is an inexact Fraction: the
    # quotient of integer operands must be exact
    x, one = LaurentPoly.monomial((1, 0)), LaurentPoly.one(2)
    cases = [((x + one) * (x + one), (x + one).scalar_mul(3))]  # quotient (x + 1)/3
    if not q.is_zero():
        cases.append((p * q, q))
    for dividend, divisor in cases:
        assert all(type(c) is int for c in dividend.terms.values())
        got = divide_exact(dividend, divisor)
        assert all(type(c) in (int, Fraction) for c in got.terms.values())
        assert got * divisor == dividend
    assert divide_exact(*cases[0]) == (x + one).scalar_mul(Fraction(1, 3))


def test_json_rejects_floats():
    import pytest as _pytest
    from gkzkit.jsonio import load_config, parse_fraction

    with _pytest.raises(ValueError):
        parse_fraction(0.5)
    with _pytest.raises(ValueError):
        parse_fraction("0.5")
    with _pytest.raises(ValueError):
        load_config('{"points": [[1.0]]}')


def test_laurent_poly_rejects_float_coefficients():
    # a float would become its binary value (1 / 3 is not Fraction(1, 3)),
    # so it is refused; a string is still read exactly
    for c in (0.5, 1 / 3):
        with pytest.raises(TypeError, match="float coefficient"):
            LaurentPoly(1, {(1,): c})
        with pytest.raises(TypeError, match="float coefficient"):
            LaurentPoly.monomial((0, 1), c)
    assert LaurentPoly(1, {(1,): "1/3"}).terms == {(1,): Fraction(1, 3)}
    assert LaurentPoly(1, {(1,): "0"}).is_zero()
