import random
from fractions import Fraction

import pytest

from gkzkit.errors import NotARelationError
from gkzkit.lattice import ParameterVector, relation_lattice, validate_config
from gkzkit.laurent import LaurentPoly
from gkzkit.weyl import (WeylElement, box_operator, box_shift,
                         check_commutation, check_phi_intertwines,
                         check_phi_kills_box, euler_operator, lambda_derivative,
                         phi_map, weyl_mul)
from oracles import apply_box_to_lambda_poly

D = WeylElement.partial
L = WeylElement.lam


def test_weyl_mul_examples():
    # d1 . l1 = l1 d1 + 1
    got = weyl_mul(D(1, 1), L(1, 1))
    assert got == WeylElement(1, {((1,), (1,)): 1, ((0,), (0,)): 1})
    # d1^2 . l1 = l1 d1^2 + 2 d1
    d1sq = weyl_mul(D(1, 1), D(1, 1))
    got = weyl_mul(d1sq, L(1, 1))
    assert got == WeylElement(1, {((1,), (2,)): 1, ((0,), (1,)): 2})
    # already ordered
    got = weyl_mul(L(1, 2), D(1, 2))
    assert got == WeylElement(2, {((1, 0), (1, 0)): 1})


def random_weyl(rng, nvars, terms=3, deg=3):
    data = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        b = tuple(rng.randint(0, deg) for _ in range(nvars))
        data[(e, b)] = Fraction(rng.randint(-4, 4))
    return WeylElement(nvars, data)


def test_weyl_mul_associative():
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        a = random_weyl(rng, nvars)
        b = random_weyl(rng, nvars)
        c = random_weyl(rng, nvars)
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


def test_box_operator_examples():
    cfg = validate_config([(1,), (2,)])
    box = box_operator(cfg, (2, -1))
    assert box == WeylElement(2, {((0, 0), (2, 0)): 1, ((0, 0), (0, 1)): -1})
    assert box_operator(cfg, (0, 0)).is_zero()
    bessel = validate_config([(1,), (-1,)])
    box = box_operator(bessel, (1, 1))
    assert box == WeylElement(2, {((0, 0), (1, 1)): 1, ((0, 0), (0, 0)): -1})
    with pytest.raises(NotARelationError):
        box_operator(cfg, (1, 1))


def test_euler_operator_examples():
    cfg = validate_config([(1,), (2,)])
    z = euler_operator(cfg, 1, ParameterVector.of("1/2"))
    assert z == WeylElement(2, {
        ((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 2,
        ((0, 0), (0, 0)): Fraction(-1, 2)})
    cfg2 = validate_config([(1, 0), (0, 1), (1, 1)])
    z = euler_operator(cfg2, 2, ParameterVector.of(0, 0))
    assert z == WeylElement(3, {
        ((0, 1, 0), (0, 1, 0)): 1, ((0, 0, 1), (0, 0, 1)): 1})


def test_euler_operators_commute():
    for points in ([(0, 1), (1, 1), (-1, 1)],
                   [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]):
        cfg = validate_config(points)
        alpha = ParameterVector.of(*[Fraction(1, k + 2) for k in range(cfg.n)])
        zs = [euler_operator(cfg, i, alpha) for i in range(1, cfg.n + 1)]
        for a in zs:
            for b in zs:
                assert weyl_mul(a, b) == weyl_mul(b, a)


def test_check_commutation_examples():
    cfg = validate_config([(1,), (2,)])
    res = check_commutation(cfg, (2, -1), 1, ParameterVector.of("1/2"))
    assert res.ok
    # the shift by the positive part of the relation is 2, so the shifted
    # parameter sits at 1/2 - 2
    assert res.beta.entries == (Fraction(-3, 2),)
    res0 = check_commutation(cfg, (0, 0), 1, ParameterVector.of("1/2"))
    assert res0.ok and res0.beta.entries == (Fraction(1, 2),)

    gauss = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    alpha = ParameterVector.of("1/2", "1/3", "1/5")
    for i in (1, 2, 3):
        assert check_commutation(gauss, (1, 1, -1, -1), i, alpha).ok


def test_check_commutation_all_builtin_relations():
    from gkzkit.catalog import builtin_alpha, builtin_config, builtin_names
    for name in builtin_names():
        cfg = builtin_config(name)
        alpha = builtin_alpha(name)
        for l in relation_lattice(cfg).basis:
            for i in range(1, cfg.n + 1):
                assert check_commutation(cfg, l, i, alpha).ok, (name, l, i)


def test_perturbed_beta_fails():
    cfg = validate_config([(1,), (2,)])
    alpha = ParameterVector.of("1/2")
    shift = box_shift(cfg, (2, -1))
    bad_beta = ParameterVector(tuple(a - s + 1 for a, s in
                                     zip(alpha.entries, shift)))
    res = check_commutation(cfg, (2, -1), 1, alpha, beta=bad_beta)
    assert not res.ok
    assert not res.residual.is_zero()


def test_phi_map_examples():
    cfg = validate_config([(1,), (2,)])
    w = weyl_mul(weyl_mul(D(1, 2), D(1, 2)), D(2, 2))
    # keys (u, e) of lambda^e x^u: del_1^2 del_2 maps to x^4
    assert phi_map(w, cfg) == LaurentPoly.monomial((4,), nlam=2)
    for l in [(2, -1), (4, -2)]:
        assert phi_map(box_operator(cfg, l), cfg).is_zero()
    c1 = validate_config([(1,)])
    got = phi_map(weyl_mul(L(1, 1), D(1, 1)), c1)
    assert got == LaurentPoly(1, {(1, 1): 1}, nlam=1)


def test_phi_kills_boxes_for_left_multiples():
    from gkzkit.catalog import builtin_alpha, builtin_config, builtin_names
    rng = random.Random(9)
    for name in builtin_names():
        cfg = builtin_config(name)
        for l in relation_lattice(cfg).basis:
            for _ in range(5):
                t = random_weyl(rng, cfg.N, terms=2, deg=2)
                assert check_phi_kills_box(cfg, t, l), (name, l)


def test_phi_intertwines_examples():
    c1 = validate_config([(1,)])
    alpha = ParameterVector.of("1/2")
    # derivative monomial: both sides equal (3/2) x + lambda x^2
    w = D(1, 1)
    assert check_phi_intertwines(w, 1, alpha, c1)
    lhs = phi_map(weyl_mul(w, euler_operator(c1, 1, alpha.negate())), c1)
    want = LaurentPoly(1, {(1, 0): Fraction(3, 2), (2, 1): 1}, nlam=1)
    assert lhs == want
    assert check_phi_intertwines(WeylElement.zero(1), 1, alpha, c1)


def test_lambda_derivative():
    c1 = validate_config([(1,)])
    p = phi_map(weyl_mul(L(1, 1), weyl_mul(L(1, 1), D(1, 1))), c1)
    got = lambda_derivative(p, 1)
    # d/dlambda (lambda^2 x) = 2 lambda x
    assert got == LaurentPoly(1, {(1, 1): 2}, nlam=1)


def test_apply_box_to_lambda_poly_matches_phi_route():
    cfg = validate_config([(1,), (2,)])
    box = box_operator(cfg, (2, -1))
    poly = {(3, 1): Fraction(5), (0, 2): Fraction(-2)}
    got = apply_box_to_lambda_poly(box.terms, poly)
    # (d1^2 - d2) applied to 5 l1^3 l2 - 2 l2^2 is 30 l1 l2 - 5 l1^3 + 4 l2
    for l1 in range(1, 4):
        for l2 in range(1, 4):
            value = sum(c * l1 ** e1 * l2 ** e2 for (e1, e2), c in got.items())
            assert value == 30 * l1 * l2 - 5 * l1 ** 3 + 4 * l2

