import itertools
import random
from fractions import Fraction

import pytest

from gkzkit import verify, weyl
from gkzkit.catalog import builtin_alpha, builtin_config
from gkzkit.errors import NotARelationError
from gkzkit.lattice import ParameterVector, relation_lattice, validate_config
from gkzkit.laurent import LaurentPoly
from gkzkit.verify import _del_monomials
from gkzkit.weyl import (PhiTables, WeylElement, box_operator, box_shift,
                         check_commutation, check_phi_intertwines,
                         check_phi_kills_box, euler_operator, lambda_derivative,
                         phi_map, weyl_mul)
import oracles
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



def test_weyl_mul_matches_the_product_over_q():
    rng = random.Random(23)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        a = random_weyl(rng, nvars)
        b = random_weyl(rng, nvars).scale(Fraction(rng.randint(1, 5), rng.randint(1, 4)))
        got = weyl_mul(a, b)
        assert got == oracles.weyl_mul(a, b)
        assert all(c for c in got.terms.values())
    # integer coefficients stay ints
    a = WeylElement(a.nvars, {k: int(c) for k, c in a.terms.items()})
    assert all(type(c) is int for c in weyl_mul(a, a).terms.values())


def lambda_carrying(N: int) -> list[WeylElement]:
    """lambda^e del^b with e in {0, 1, 2}^N, |e| <= 2, and b in {0, 1}^N."""
    return [WeylElement.monomial(e, b)
            for e in itertools.product(range(3), repeat=N) if sum(e) <= 2
            for b in itertools.product(range(2), repeat=N)]


def dropping_the_factor(p: LaurentPoly, j: int) -> LaurentPoly:
    """A faulty parameter derivative: lowers the exponent of lambda_j but
    keeps the coefficient, dropping the factor u[k]."""
    k = p.n + j - 1
    return LaurentPoly._of(p.n, {u[:k] + (u[k] - 1,) + u[k + 1:]: c
                                 for u, c in p.terms.items() if u[k]}, p.nlam)


@pytest.mark.parametrize("name, count", [("trinomial", 80), ("gauss", 240)])
def test_identity_b_needs_lambda_carrying_elements(name, count, monkeypatch):
    # the battery's del-monomials carry no lambda, so del_j w never commutes
    # past a lambda and identity (b) reduces to the additivity of phi; a
    # parameter derivative that drops its factor passes them all, and the
    # elements that carry lambda^e with an exponent 2 catch it
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    tables = PhiTables(cfg, alpha)
    battery = [(w, i) for w in _del_monomials(cfg.N, 3) for i in range(1, cfg.n + 1)]
    elements = lambda_carrying(cfg.N)
    assert len(elements) == count
    inputs = [(w, i) for w in elements for i in range(1, cfg.n + 1)]
    assert all(check_phi_intertwines(w, i, alpha, cfg, tables) for w, i in battery + inputs)
    monkeypatch.setattr(weyl, "lambda_derivative", dropping_the_factor)
    assert all(check_phi_intertwines(w, i, alpha, cfg, tables) for w, i in battery)
    assert not all(check_phi_intertwines(w, i, alpha, cfg, tables) for w, i in inputs)


@pytest.mark.parametrize("name", ["cusp", "trinomial", "gauss"])
def test_phi_intertwines_matches_the_check_over_q(name, monkeypatch):
    # the integer tables and the former check over Q reach the same verdict
    # on every lambda-carrying element and on random elements, some with
    # fractional coefficients, for the right parameter derivative and for
    # the faulty one
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    tables = PhiTables(cfg, alpha)
    assert all(type(c) is int for op in tables.euler for c in op.values())
    rng = random.Random(31)
    elements = lambda_carrying(cfg.N) + [
        random_weyl(rng, cfg.N, terms=3, deg=2).scale(Fraction(1, rng.randint(1, 3)))
        for _ in range(20)]
    for faulty in (False, True):
        if faulty:
            monkeypatch.setattr(weyl, "lambda_derivative", dropping_the_factor)
            monkeypatch.setattr(oracles, "lambda_derivative", dropping_the_factor)
        verdicts = [(check_phi_intertwines(w, i, alpha, cfg, tables),
                     check_phi_intertwines(w, i, alpha, cfg),
                     oracles.check_phi_intertwines(w, i, alpha, cfg))
                    for w in elements for i in range(1, cfg.n + 1)]
        assert all(len(set(v)) == 1 for v in verdicts)
        assert any(v[0] for v in verdicts)
        assert all(v[0] for v in verdicts) is not faulty


def test_phi_intertwines_keeps_its_argument_checks():
    cfg, alpha = builtin_config("cusp"), builtin_alpha("cusp")
    for i in (0, 2):
        with pytest.raises(ValueError, match="index out of range"):
            check_phi_intertwines(D(1, 2), i, alpha, cfg, PhiTables(cfg, alpha))
    with pytest.raises(ValueError, match="parameter count"):
        check_phi_intertwines(D(1, 3), 1, alpha, cfg)


def test_battery_builds_the_phi_tables_once(monkeypatch):
    built, passed = [], []

    def building(*args):
        built.append(PhiTables(*args))
        return built[-1]

    def recording(w, i, alpha, config, tables=None):
        passed.append(tables)
        return check_phi_intertwines(w, i, alpha, config, tables)
    monkeypatch.setattr(verify, "PhiTables", building)
    monkeypatch.setattr(verify, "check_phi_intertwines", recording)
    report = verify.run_battery(builtin_config("gauss"), builtin_alpha("gauss"))
    check = next(c for c in report.checks if c.name == "phi_intertwines")
    assert check.ok and check.samples == len(passed) == 105
    assert len(built) == 1 and all(tables is built[0] for tables in passed)
