import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzkit import hypersurface
from gkzkit.catalog import builtin_alpha, builtin_config
from gkzkit.derham import (LogForm, _form, clearing_scale, enumerate_monomial_forms,
                           principal_lattice, wedge_insert)
from gkzkit.errors import PochhammerPoleError, StructureError
from gkzkit.hypersurface import (ComplementTables, SplitForm, UForm,
                                 _derivations_by_parts, _same_form, build_g,
                                 check_gamma_chain_map, check_split_matches_nabla,
                                 d_h, d_v, gamma, kernel_equals_dv_image,
                                 pochhammer, tilde_nabla)
from gkzkit.lattice import (ParameterVector, apply_unimodular, find_unimodular_normalizer,
                            normalize_structure, normalized_volume, validate_config)
from gkzkit.laurent import LaurentPoly, _add_scaled, build_f, toric_derivative
from gkzkit.linalg import RationalEchelon
from gkzkit.verify import BatteryReport, CheckResult, run_battery
from gkzkit.window import (FullSupport, HalfSupport, cohomology_U_dim, random_specialization,
                           top_cohomology_dim, window_generators, window_pair)
import oracles
from oracles import (LocalizedElement, centered_box, gamma_per_monomial,
                     tilde_nabla_per_piece, u_quotient_dim)
from oracles import kernel_equals_dv_image as kernel_equals_dv_image_over_q

TRI = builtin_config("trinomial")
ALPHA = builtin_alpha("trinomial")
LAM1 = [Fraction(1), Fraction(1), Fraction(1)]
LAMR = [Fraction(3, 7), Fraction(5, 11), Fraction(2, 9)]
PLANE2 = [(0, 1), (1, 1), (-1, 1), (2, 1)]
PYRAMID = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def loc_mono(g, u, m=0, c=1):
    return LocalizedElement(g, LaurentPoly.monomial(u, Fraction(c)), m)


def u_mono(g, u, m=0, c=1, idx=()):
    """c x^u dx_idx/x_idx / g^m on the complement of g = 0."""
    return UForm(g, LogForm.from_monomial(u, idx, g.n, Fraction(c)), m)


def g_power(g, k):
    out = LaurentPoly.one(g.n)
    for _ in range(k):
        out = out * g
    return out


def same(a: UForm, b: UForm) -> bool:
    """a and b are one form on the complement of one g (``_same_form``)."""
    return a.g == b.g and _same_form(a, b, lambda k: g_power(a.g, k))


def lowest_terms(omega: UForm) -> dict:
    """The nonzero components of omega, each in lowest g-terms."""
    return {idx: LocalizedElement(omega.g, p, omega.gpow)
            for idx, p in omega.num.components.items()}


def over_one_power(g, degree: int, comps: dict) -> UForm:
    """The form with the components comps, each a LocalizedElement, put over
    their largest power of g."""
    M = max([0] + [e.gpow for e in comps.values()])
    return UForm(g, LogForm(g.n, degree, {idx: e.num * g_power(g, M - e.gpow)
                                          for idx, e in comps.items()}), M)


def test_pochhammer_values_and_poles():
    a = Fraction(1, 5)
    assert pochhammer(a, 0) == 1
    assert pochhammer(a, 1) == a
    assert pochhammer(a, 3) == a * (a + 1) * (a + 2)
    assert pochhammer(a, -1) == 1 / (a - 1)
    assert pochhammer(a, -2) == 1 / ((a - 1) * (a - 2))
    with pytest.raises(PochhammerPoleError):
        pochhammer(Fraction(2), -3)


@settings(max_examples=40, deadline=None)
@given(num=st.integers(-9, 9), den=st.integers(1, 7), m=st.integers(-5, 5))
def test_pochhammer_recurrence(num, den, m):
    a = Fraction(num, den)
    try:
        lhs = pochhammer(a, m + 1)
        rhs = pochhammer(a, m) * (a + m)
    except PochhammerPoleError:
        return
    assert lhs == rhs


def test_localized_normalization():
    g = build_g(TRI, LAM1)
    e = LocalizedElement(g, g * LaurentPoly.monomial((2,)), 3)
    assert e.gpow == 2 and e.num == LaurentPoly.monomial((2,))
    # negative powers fold into the numerator
    e = LocalizedElement(g, LaurentPoly.one(1), -2)
    assert e.gpow == 0 and e.num == g * g
    z = LocalizedElement(g, LaurentPoly.zero(1), 5)
    assert z.is_zero() and z.gpow == 0
    s = loc_mono(g, (1,), 2) + loc_mono(g, (1,), 2, -1)
    assert s.is_zero()


def test_localized_arithmetic_against_evaluation():
    g = build_g(TRI, LAMR)
    rng = random.Random(3)

    def ev(e, x):
        num = sum(c * x ** u[0] for u, c in e.num.terms.items())
        gv = sum(c * x ** u[0] for u, c in g.terms.items())
        return num / gv ** e.gpow

    for _ in range(30):
        a = loc_mono(g, (rng.randint(-2, 2),), rng.randint(0, 2),
                     rng.randint(-3, 3))
        b = loc_mono(g, (rng.randint(-2, 2),), rng.randint(0, 2),
                     rng.randint(-3, 3))
        x = Fraction(rng.randint(2, 7), rng.randint(8, 11))
        assert ev(a + b, x) == ev(a, x) + ev(b, x)
        # quotient-rule derivative at the sample point via a formal check:
        # compare against the derivative of the numerator/denominator form
        d = a.toric_derivative(1)
        # exact rational derivative: x d/dx of num/g^m equals
        # (x num' g - m x num g') / g^{m+1}; evaluate both sides exactly
        num_d = sum(c * u[0] * x ** u[0] for u, c in a.num.terms.items())
        g_d = sum(c * u[0] * x ** u[0] for u, c in g.terms.items())
        gv = sum(c * x ** u[0] for u, c in g.terms.items())
        want = (num_d * gv - a.gpow * g_d *
                sum(c * x ** u[0] for u, c in a.num.terms.items())) / gv ** (a.gpow + 1)
        assert ev(d, x) == want


def test_uform_compares_numerators_at_the_larger_power():
    g = build_g(TRI, LAMR)
    num = LogForm(1, 1, {(1,): LaurentPoly.monomial((2,), 3) + LaurentPoly.one(1)})
    num_g = LogForm(1, 1, {(1,): num.components[(1,)] * g})
    for m in (-1, 0, 2):
        assert same(UForm(g, num_g, m + 1), UForm(g, num, m))
        assert same(UForm(g, num, m), UForm(g, num_g, m + 1))
        assert not same(UForm(g, num.mul_monomial((1,)), m), UForm(g, num, m))
        assert not same(UForm(g, num, m + 1), UForm(g, num, m))
    # another degree or another g is another form
    assert not same(UForm(g, LogForm.zero(1, 0), 0), UForm(g, LogForm.zero(1, 1), 0))
    assert not same(UForm(build_g(TRI, LAM1), num, 0), UForm(g, num, 0))
    zero = UForm(g, LogForm.zero(1, 1), 5)
    assert zero.is_zero() and same(zero, UForm(g, LogForm.zero(1, 1), 0))
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        UForm(LaurentPoly.zero(1), num, 0)
    with pytest.raises(ValueError, match="different tori"):
        UForm(g, LogForm.zero(2, 0), 0)


def test_tilde_nabla_matches_hand_example():
    g = build_g(TRI, LAM1)
    tables = ComplementTables(ALPHA, g)
    got = tilde_nabla(tables, u_mono(g, (0,)))
    # alpha_1 dx1/x1 minus alpha_2 (x - 1/x)/g dx1/x1, over the common
    # denominator g
    num = LaurentPoly(1, {(-1,): Fraction(8, 15), (0,): Fraction(1, 3),
                          (1,): Fraction(2, 15)})
    assert (got.num, got.gpow) == (LogForm(1, 1, {(1,): num}), 1)
    assert tilde_nabla(tables, UForm(g, LogForm.zero(1, 0), 0)).is_zero()
    with pytest.raises(ValueError, match="one more entry"):
        ComplementTables(ParameterVector.of("1/3"), g)


def test_tilde_nabla_squares_to_zero():
    cfgs = [(TRI, ALPHA, LAMR)]
    gauss = builtin_config("gauss")
    cfg_h, alpha_h, _ = normalize_structure(gauss, builtin_alpha("gauss"))
    cfgs.append((cfg_h, alpha_h, [Fraction(2), Fraction(3, 2), Fraction(5, 3),
                                  Fraction(7, 4)]))
    for cfg, alpha, lam in cfgs:
        g = build_g(cfg, lam)
        tables = ComplementTables(alpha, g)
        rng = random.Random(7)
        for _ in range(10):
            omega = u_mono(g, tuple(rng.randint(-2, 2) for _ in range(g.n)),
                           rng.randint(0, 2), rng.randint(-3, 3))
            assert tilde_nabla(tables, tilde_nabla(tables, omega)).is_zero()


def test_split_boundaries_and_injectivity():
    g = build_g(TRI, LAM1)
    part0 = LogForm.from_monomial((1, 0), (), 2)
    part1 = LogForm.from_monomial((0, 2), (1,), 2)
    D = _derivations_by_parts(ALPHA, g, 1)
    assert d_h(D, part0).degree == 1 and d_h(D, part1).degree == 2
    # the vertical boundary is injective on the half-Laurent row
    for u in itertools.product(range(-2, 3), range(0, 3)):
        for idx in [(), (1,)]:
            assert not d_v(D, LogForm.from_monomial(u, idx, 2)).is_zero(), (u, idx)
    assert d_v(D, LogForm.zero(2, 0)).is_zero()


def test_total_complex_consistency():
    samples = []
    for u in itertools.product(range(-1, 2), repeat=2):
        for idx in [(), (1,), (2,), (1, 2)]:
            samples.append(LogForm.from_monomial(u, idx, 2))
    assert check_split_matches_nabla(TRI, ALPHA, LAM1, samples)


SPLIT_CONFIGS = {"trinomial": builtin_config("trinomial"),
                 "gauss": builtin_config("gauss"),
                 "plane2": validate_config(PLANE2)}
FRACTIONS = st.fractions(-4, 4, max_denominator=9).filter(lambda q: q.denominator > 1)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(SPLIT_CONFIGS)), data=st.data())
def test_scaled_split_check_reaches_the_unscaled_verdict(name, data):
    cfg = SPLIT_CONFIGS[name]
    n = cfg.n
    alpha = ParameterVector(tuple(data.draw(FRACTIONS) for _ in range(n)))
    cfg, alpha, _ = normalize_structure(cfg, alpha)
    lam = tuple(data.draw(FRACTIONS) for _ in range(cfg.N))
    forms = enumerate_monomial_forms(centered_box(n, 1), range(n + 1))
    # the constant 0-form moves in the first direction, where a wrong alpha shows
    samples = data.draw(st.lists(st.sampled_from(forms), max_size=12))
    samples.append(LogForm.from_monomial((0,) * n, (), n))
    d = clearing_scale(alpha, build_f(cfg, lam))
    assert d > 1
    # on integer samples the scaled boundaries have integer coefficients
    g = build_g(cfg, lam)
    D = _derivations_by_parts(alpha, g, d)
    for form in samples:
        part0 = hypersurface.split(form).part0
        for image in (d_h(D, part0), d_v(D, part0)):
            assert all(type(c) is int for p in image.components.values()
                       for c in p.terms.values())
    wrong = alpha.shift((1,) + (0,) * (n - 1))
    verdicts = []
    for scaled in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not scaled:
                patch.setattr(hypersurface, "clearing_scale", lambda alpha, f: 1)
            right = check_split_matches_nabla(cfg, alpha, lam, samples)
            # derivations built for the wrong alpha_1: of the two boundaries
            # only d_h, which moves in the first n-1 directions, sees it
            patch.setattr(hypersurface, "_derivations_by_parts",
                          lambda alpha, g, scale: _derivations_by_parts(wrong, g, scale))
            verdicts.append((right, check_split_matches_nabla(cfg, alpha, lam, samples)))
    assert verdicts == [(True, False), (True, False)]


def test_each_split_check_builds_the_derivations_once(monkeypatch):
    # the battery's samples on gauss, normalized: the derivations by parts
    # are built once per check and reach every d_h and d_v call
    cfg, alpha, _ = normalize_structure(builtin_config("gauss"), builtin_alpha("gauss"))
    lam = tuple(Fraction(k + 2, 2 * k + 1) for k in range(cfg.N))
    g = build_g(cfg, lam)
    splits = [SplitForm(LogForm.from_monomial(u + (m,), idx, cfg.n),
                        LogForm.from_monomial(u + (m,), idx, cfg.n))
              for u in principal_lattice(cfg.n - 1, 1)
              for m in range(3) for k in range(cfg.n)
              for idx in itertools.combinations(range(1, cfg.n), k)]
    forms = enumerate_monomial_forms(principal_lattice(cfg.n, 1), range(cfg.n + 1))
    built, passed = [], []

    def counting(*args):
        built.append(_derivations_by_parts(*args))
        return built[-1]

    def recording(boundary):
        def call(D, part):
            passed.append(D)
            return boundary(D, part)
        return call
    monkeypatch.setattr(hypersurface, "_derivations_by_parts", counting)
    monkeypatch.setattr(hypersurface, "d_h", recording(d_h))
    monkeypatch.setattr(hypersurface, "d_v", recording(d_v))
    for check, args in ((check_gamma_chain_map, (alpha, g, splits)),
                        (check_split_matches_nabla, (cfg, alpha, lam, forms))):
        built.clear()
        passed.clear()
        assert check(*args)
        assert len(built) == 1
        assert passed and all(derivations is built[0] for derivations in passed)


def test_split_form_keeps_its_validation():
    with pytest.raises(ValueError, match="different tori"):
        SplitForm(LogForm.zero(2, 0), LogForm.zero(3, 0))
    with pytest.raises(ValueError, match="avoid the last variable"):
        SplitForm(LogForm.from_monomial((0, 1), (2,), 2), LogForm.zero(2, 0))


def test_each_battery_report_owns_its_checks():
    first, second = BatteryReport(), BatteryReport()
    first.add(CheckResult("a", False, 1))
    assert not first.ok and second.ok and second.checks == []


def test_gamma_examples():
    g = build_g(TRI, LAM1)
    tables = ComplementTables(ALPHA, g)
    a2 = ALPHA.entries[1]
    got = gamma(tables, LogForm.from_monomial((3, 0), (), 2))
    assert same(got, u_mono(g, (3,)))
    got = gamma(tables, LogForm.from_monomial((3, 1), (), 2))
    assert same(got, u_mono(g, (3,), 1, -a2))
    # a negative last exponent multiplies the numerator by g instead
    got = gamma(tables, LogForm.from_monomial((3, -1), (), 2))
    want = LaurentPoly.monomial((3,), -1 / (a2 - 1)) * g
    assert (got.num, got.gpow) == (LogForm(1, 0, {(): want}), 0)
    # every term over the largest power of g, nothing divided out
    got = gamma(tables, LogForm(2, 0, {(): LaurentPoly(2, {(3, 1): 1, (0, -1): 1})}))
    want = (LaurentPoly.monomial((3,), -a2)
            + LaurentPoly.monomial((0,), -1 / (a2 - 1)) * g * g)
    assert (got.num, got.gpow) == (LogForm(1, 0, {(): want}), 1)
    with pytest.raises(PochhammerPoleError):
        gamma(ComplementTables(ParameterVector.of("1/3", 1), g),
              LogForm.from_monomial((3, -1), (), 2))
    with pytest.raises(ValueError, match="specialized"):
        gamma(tables, LogForm.from_monomial((3, 1), (), 2, nlam=1))


# the configurations of the verify goldens with last coordinate 1, at their
# golden parameters
GOLDEN_COMPLEMENTS = {"trinomial": ALPHA, "gauss": builtin_alpha("gauss"),
                      "plane2": ParameterVector.of("1/3", "-2/5"),
                      "pyramid": ParameterVector.of("1/2", "-1/3", "3/7")}
COMPLEMENT_CONFIGS = {**SPLIT_CONFIGS, "pyramid": validate_config(PYRAMID)}


def battery_gamma_case(name, alpha=None, exponents=None):
    """The parameter, g and split samples ``run_battery`` checks the
    comparison map on, for a configuration of COMPLEMENT_CONFIGS and, by
    default, its builtin parameter: x^(u', m) with u' in ``exponents``, by
    default S_1 = ``principal_lattice(n - 1, 1)``, and m in {0, 1, 2}."""
    config = COMPLEMENT_CONFIGS[name]
    config, alpha, _ = normalize_structure(
        config, builtin_alpha(name) if alpha is None else alpha)
    n = config.n
    if exponents is None:
        exponents = principal_lattice(n - 1, 1)
    g = build_g(config, [Fraction(k + 2, 2 * k + 1) for k in range(config.N)])
    splits = [SplitForm(LogForm.from_monomial(u + (m,), idx, n),
                        LogForm.from_monomial(u + (m,), idx, n))
              for u in exponents
              for m in range(3) for k in range(n)
              for idx in itertools.combinations(range(1, n), k)]
    return alpha, g, splits


def wrong_twists(alpha: ParameterVector) -> list[ParameterVector]:
    """alpha + e_1 and alpha + e_n."""
    n = alpha.n
    return [alpha.shift(tuple(int(i == k) for i in range(n))) for k in (0, n - 1)]


def twisted_by(wrong: ParameterVector, g: LaurentPoly):
    """tilde_nabla run on the parameter wrong, with tables of the same g and
    scale."""
    return lambda tables, omega: tilde_nabla(ComplementTables(wrong, g, tables.scale),
                                             omega)


@pytest.mark.parametrize("name", ["trinomial", "gauss"])
def test_gamma_chain_map_check_fails_for_a_wrong_twist(name, monkeypatch):
    # the check's complement differential run on alpha + e_1 or alpha + e_n
    # no longer intertwines
    alpha, g, splits = battery_gamma_case(name)
    verdicts = [check_gamma_chain_map(alpha, g, splits)]
    for wrong in wrong_twists(alpha):
        monkeypatch.setattr(hypersurface, "tilde_nabla", twisted_by(wrong, g))
        verdicts.append(check_gamma_chain_map(alpha, g, splits))
    assert verdicts == [True, False, False]


@pytest.mark.parametrize("name, alpha", [
    ("trinomial", None), ("gauss", None),
    ("plane2", ParameterVector.of("1/3", "-2/5")),
    # an integral last entry: the weights are integers before scaling
    ("plane2", ParameterVector.of("2/3", "3")),
])
def test_gamma_chain_map_check_matches_the_check_over_q(name, alpha, monkeypatch):
    # the integer check over h = L g and the former check over Q reach the
    # same verdicts on the battery's samples, and on a wrong twist
    alpha, g, splits = battery_gamma_case(name, alpha)
    assert clearing_scale(alpha, g) > 1
    assert check_gamma_chain_map(alpha, g, splits)
    assert oracles.check_gamma_chain_map(alpha, g, splits)
    over_q = oracles.tilde_nabla
    for wrong in wrong_twists(alpha):
        monkeypatch.setattr(hypersurface, "tilde_nabla", twisted_by(wrong, g))
        monkeypatch.setattr(oracles, "tilde_nabla", lambda _, g, omega, wrong=wrong:
                            over_q(wrong, g, omega))
        assert not check_gamma_chain_map(alpha, g, splits)
        assert not oracles.check_gamma_chain_map(alpha, g, splits)


def doubled_u(direction: int):
    """tilde_nabla with the u-coefficient of one direction i doubled: the
    extra term scale u_i num h over h^(m+1), 0 at u_i = 0."""
    def faulty(tables, omega):
        out = tilde_nabla(tables, omega)
        acc = {}
        for idx, num in omega.num.components.items():
            ins = wedge_insert(direction, idx)
            if ins is not None:
                sign, target = ins
                _add_scaled(acc.setdefault(target, {}),
                            toric_derivative(direction, num) * tables.h, sign * tables.scale)
        return UForm(tables.h, out.num + _form(out.num.n, out.num.degree, acc, 0), out.gpow)
    return faulty


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPLEMENTS))
def test_s1_splits_reach_the_verdicts_of_the_box(name):
    # at each m the residual of gamma d_h = tilde_nabla gamma is affine in
    # u' and gamma d_v = 0 does not involve u', so the battery's S_1 in u'
    # reaches the verdict of the box {-1, 0, 1}^(n-1) on the true maps and
    # on faults that keep that shape: a wrong alpha_i in the derivations by
    # parts, in each direction i, and a doubled u_i in tilde_nabla
    alpha = GOLDEN_COMPLEMENTS[name]
    n = alpha.n
    alpha, g, linear = battery_gamma_case(name, alpha)
    _, _, box = battery_gamma_case(name, alpha,
                                   list(itertools.product(range(-1, 2), repeat=n - 1)))
    assert (len(linear), len(box)) == ((12, 18) if n == 2 else (36, 108))
    faults = [(None, 0)] + [("alpha", i) for i in range(1, n + 1)] + [
        ("u", i) for i in range(1, n)]
    verdicts = []
    for kind, direction in faults:
        with pytest.MonkeyPatch.context() as patch:
            if kind == "alpha":
                wrong = alpha.shift(tuple(int(k == direction - 1) for k in range(n)))
                patch.setattr(hypersurface, "_derivations_by_parts",
                              lambda alpha, g, scale: _derivations_by_parts(wrong, g, scale))
            elif kind == "u":
                patch.setattr(hypersurface, "tilde_nabla", doubled_u(direction))
            verdict = check_gamma_chain_map(alpha, g, linear)
            assert verdict == check_gamma_chain_map(alpha, g, box), (kind, direction)
            verdicts.append(verdict)
    assert verdicts == [True] + [False] * (len(faults) - 1)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPLEMENTS))
def test_one_exponent_misses_the_doubled_u_that_s1_catches(name, monkeypatch):
    # the doubled u_1 adds a term that vanishes at u' = 0: {0}^(n-1) passes
    # it, and S_1 = {0, e_1, ..., e_(n-1)} fails it
    alpha, g, linear = battery_gamma_case(name, GOLDEN_COMPLEMENTS[name])
    _, _, origin = battery_gamma_case(name, alpha, [(0,) * (alpha.n - 1)])
    monkeypatch.setattr(hypersurface, "tilde_nabla", doubled_u(1))
    assert check_gamma_chain_map(alpha, g, origin)
    assert not check_gamma_chain_map(alpha, g, linear)


def test_complement_tables_write_the_unscaled_forms_over_h():
    # gamma and the differential over h = L g with integer coefficients are
    # the unscaled forms over g, the differential multiplied by L
    alpha, g, splits = battery_gamma_case("gauss")
    L = clearing_scale(alpha, g)
    tables = ComplementTables(alpha, g, L)
    for sf in splits:
        got = gamma(tables, sf.part1)
        want = oracles.gamma(alpha, g, sf.part1)
        assert all(type(c) is int for p in got.num.components.values()
                   for c in p.terms.values())
        # num / h^M is num / (L^M g^M)
        assert same(UForm(g, got.num.scale(Fraction(1, L ** got.gpow)), got.gpow), want)
        d_got = tilde_nabla(tables, got)
        d_want = oracles.tilde_nabla(alpha, g, want).num.scale(L)
        assert same(UForm(g, d_got.num.scale(Fraction(1, L ** d_got.gpow)), d_got.gpow),
                    UForm(g, d_want, want.gpow + 1))


def test_gamma_chain_map_check_sees_a_vertical_image_gamma_keeps():
    # at alpha_n = 1, d_v sends x_n^{-1} to g alone, as its own term has
    # weight u_n + alpha_n = 0, and gamma sends g / g^0 to a nonzero form;
    # from x_n^0 the vertical image 1 + x_n g maps to 1 - g / g = 0
    g = build_g(TRI, LAM1)
    alpha = ParameterVector.of("1/3", 1)
    empty = LogForm.zero(2, 0)
    for m, verdict in ((-1, False), (0, True)):
        part0 = LogForm.from_monomial((0, m), (), 2)
        assert check_gamma_chain_map(alpha, g, [SplitForm(part0, empty)]) is verdict


def test_gamma_chain_map_window():
    g = build_g(TRI, LAM1)
    samples = []
    for u1 in range(-2, 3):
        for m in range(0, 5):
            for idx in [(), (1,)]:
                samples.append(SplitForm(
                    LogForm.from_monomial((u1, m), idx, 2),
                    LogForm.from_monomial((u1, m), idx, 2)))
    assert check_gamma_chain_map(ALPHA, g, samples)


# configurations with the last-coordinate structure, each with its g in 1
# or 2 variables
COMPLEMENTS = [TRI, normalize_structure(builtin_config("gauss"), builtin_alpha("gauss"))[0],
               validate_config([(0, 1), (1, 1), (-1, 1), (2, 1)])]
SMALL_FRAC = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def comparison_cases(draw):
    """(alpha, g, part1, part0) on the dx_n/x_n row: g with nonzero Fraction
    coefficients, last exponents from -2 to 3, and a last parameter entry
    that is at times 1 or 2, a pole of the reciprocal rising factorial."""
    cfg = draw(st.sampled_from(COMPLEMENTS))
    n = cfg.n
    lam = [draw(SMALL_FRAC.filter(bool)) for _ in range(cfg.N)]
    alpha_n = draw(st.one_of(SMALL_FRAC, st.sampled_from([Fraction(1), Fraction(2)])))
    alpha = ParameterVector(tuple(draw(SMALL_FRAC) for _ in range(n - 1)) + (alpha_n,))
    k = draw(st.integers(0, n - 1))
    keys = st.tuples(*[st.integers(-2, 2)] * (n - 1), st.integers(-2, 3))

    def form():
        return LogForm(n, k, {idx: LaurentPoly(n, draw(st.dictionaries(
            keys, SMALL_FRAC, max_size=4)))
            for idx in itertools.combinations(range(1, n), k)})
    return alpha, build_g(cfg, lam), form(), form()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(comparison_cases())
def test_gamma_and_tilde_nabla_match_the_per_monomial_oracles(case):
    # part1 plus the vertical image of part0: gamma kills that image, so its
    # numerators cancel to zero, in part or in whole
    alpha, g, part1, part0 = case
    tables = ComplementTables(alpha, g)
    image = d_v(_derivations_by_parts(alpha, g, 1), part0)
    inputs = [part1 + image, image]
    try:
        want = [gamma_per_monomial(alpha, g, p) for p in inputs]
    except PochhammerPoleError as exc:
        with pytest.raises(PochhammerPoleError, match=f"^{re.escape(str(exc))}$"):
            [gamma(tables, p) for p in inputs]
        return
    got = [gamma(tables, p) for p in inputs]
    # each numerator component, brought to lowest g-terms, is the oracle's
    assert [lowest_terms(w) for w in got] == want
    # away from the poles; at last parameter entry a, d_v sends a monomial
    # with last exponent -a to g times one with last exponent 1 - a
    assert got[1].is_zero() or alpha.entries[-1] in (1, 2)
    # the differential on a gamma image and on its own image, which is zero
    d_got = tilde_nabla(tables, got[0])
    d_want = tilde_nabla_per_piece(alpha, g, want[0])
    assert lowest_terms(d_got) == d_want
    # the oracle's lowest terms over one power of g are the same form
    d_same = over_one_power(g, d_got.num.degree, d_want)
    assert same(d_same, d_got)
    dd = tilde_nabla(tables, d_same)
    assert lowest_terms(dd) == tilde_nabla_per_piece(alpha, g, d_want) == {}
    assert tilde_nabla(tables, d_got).is_zero()


def test_gamma_surjectivity_within_window():
    # every target monomial over g^M is hit when the last entry avoids
    # nonpositive integers
    tables = ComplementTables(ALPHA, build_g(TRI, LAMR))
    M = 3
    for u1 in range(-2, 3):
        got = gamma(tables, LogForm.from_monomial((u1, M), (), 2))
        assert got.gpow == M and not got.is_zero()


def test_kernel_equals_dv_image_and_pole_guard():
    g = build_g(TRI, LAMR)
    assert kernel_equals_dv_image(ALPHA, g, 3, 3)
    with pytest.raises(PochhammerPoleError):
        kernel_equals_dv_image(ParameterVector.of("1/3", 0), g, 2, 2)


# with the last-coordinate structure: trinomial, gauss after its unimodular
# normalization, plane2 (a 4-term g) and the square pyramid (g in 2 variables)
GAMMA_KERNEL_CONFIGS = [
    TRI,
    normalize_structure(builtin_config("gauss"), builtin_alpha("gauss"))[0],
    validate_config(PLANE2),
    validate_config([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
]


@st.composite
def gamma_kernel_cases(draw):
    """(alpha, g, u_bound, m_bound) on a configuration with the
    last-coordinate structure: lambda nonzero Fractions, alpha_n a
    non-integer or a positive integer."""
    cfg = draw(st.sampled_from(GAMMA_KERNEL_CONFIGS))
    lam = [draw(st.fractions(min_value=-3, max_value=3, max_denominator=7)
                .filter(bool)) for _ in range(cfg.N)]
    alpha_n = draw(st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=7)
        .filter(lambda a: a.denominator > 1),
        st.integers(1, 3).map(Fraction)))
    alpha = ParameterVector((Fraction(1, 3),) * (cfg.n - 1) + (alpha_n,))
    return alpha, build_g(cfg, lam), draw(st.integers(1, 2)), draw(st.integers(1, 3))


def _inserted(module, fn, *args):
    """fn(*args), and for each echelon it builds in module the vectors
    inserted into it, in order."""
    echelons = []

    class Recording(RationalEchelon):
        def __init__(self):
            super().__init__()
            self.vectors = []
            echelons.append(self.vectors)

        def insert(self, vec):
            self.vectors.append(vec)
            return super().insert(vec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "RationalEchelon", Recording)
        return fn(*args), echelons


def _proportional(a: dict, b: dict) -> bool:
    """b is a nonzero multiple of a."""
    a = {k: c for k, c in a.items() if c}
    b = {k: c for k, c in b.items() if c}
    ratios = {Fraction(b[k]) / a[k] for k in a} if a.keys() == b.keys() else set()
    return len(ratios) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gamma_kernel_cases())
def test_integer_gamma_kernel_matches_the_rational_oracle(case):
    # each gamma column, without its rising-factorial weight and over the
    # integer multiple of g, is a nonzero multiple of the rational one, so
    # the kernel dimension is the same.  The verdict alone reads True on
    # every case here, so the columns are compared one by one, against the
    # oracle's block of degree 0; the package builds no echelon of the
    # vertical rows (test_one_index_block_decides_every_gamma_kernel_degree)
    alpha, g, u_bound, m_bound = case
    got, (ours,) = _inserted(hypersurface, kernel_equals_dv_image, *case)
    want, (columns, _) = _inserted(oracles, kernel_equals_dv_image_over_q,
                                   alpha, g, 0, u_bound, m_bound)
    assert got == want
    # the oracle keys every column by the empty index tuple as well
    theirs = [{w: c for (w, _), c in vec.items()} for vec in columns]
    assert len(ours) == len(theirs)
    pairs = list(zip(ours, theirs))
    assert all(_proportional(a, b) for a, b in pairs)
    assert all(type(c) is int for vec, _ in pairs for c in vec.values())


def _rank(vectors) -> int:
    ech = RationalEchelon()
    for vec in vectors:
        ech.insert(vec)
    return ech.rank


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gamma_kernel_cases())
def test_one_index_block_decides_every_gamma_kernel_degree(case):
    # the package builds the gamma kernel's one block only: at each degree k
    # the oracle's kernel dimension and vertical rank are C(n', k) times
    # those of the one block at k = 0.  Each vertical generator has its own
    # nonzero entry at (u', m) and the rest at level m + 1, so the oracle's
    # rows rank as their count, which the package reads in place of a rank
    alpha, g, u_bound, m_bound = case
    dims = []
    for k in range(g.n + 1):
        verdict, (columns, rows) = _inserted(oracles, kernel_equals_dv_image_over_q,
                                             alpha, g, k, u_bound, m_bound)
        assert _rank(rows) == len(rows)
        dims.append((len(columns) - _rank(columns), len(rows), verdict))
    ker0, rank0, verdict0 = dims[0]
    assert dims == [(math.comb(g.n, k) * ker0, math.comb(g.n, k) * rank0, verdict0)
                    for k in range(g.n + 1)]
    assert verdict0 == kernel_equals_dv_image(*case)


def times(factor: tuple[LaurentPoly, int], omega: UForm) -> UForm:
    """A form on the complement times the function num / g^m, factor =
    (num, m), componentwise."""
    num, m = factor
    return UForm(omega.g, LogForm(omega.g.n, omega.num.degree,
                                  {idx: p * num for idx, p in omega.num.components.items()}),
                 omega.gpow + m)


def twist_iso_U_check(alpha, u, g, samples) -> bool:
    """Multiplication by x'^{u'} / g^{u_n} conjugates the shifted twist to the
    original twist on the complement: the isomorphism behind the pre-twist of
    the last parameter entry in cohomology_U_dim."""
    factor = (LaurentPoly.monomial(u[:-1]), u[-1])
    shifted, tables = ComplementTables(alpha.shift(u), g), ComplementTables(alpha, g)
    return all(same(times(factor, tilde_nabla(shifted, omega)),
                    tilde_nabla(tables, times(factor, omega))) for omega in samples)


def test_twist_iso_U():
    g = build_g(TRI, LAMR)
    samples = [u_mono(g, (1,), 1), u_mono(g, (0,), 0), u_mono(g, (-1,), 2, idx=(1,))]
    # (1, -1) multiplies by a negative power of g
    for u in ((0, 0), (0, 1), (1, 0), (1, -1), (-2, 2)):
        assert twist_iso_U_check(ALPHA, u, g, samples), u
    # composing a shift with its negative returns the original operator,
    # whether the inverse carries g^-1 or g in its numerator
    factor = (LaurentPoly.monomial((2,)), 1)
    one = u_mono(g, (0,))
    for inverse in ((LaurentPoly.monomial((-2,)), -1),
                    (LaurentPoly.monomial((-2,)) * g, 0)):
        assert same(times(inverse, times(factor, one)), one)


def test_structure_normalization():
    with pytest.raises(StructureError):
        build_g(validate_config([(1,), (2,)]), [1, 1])
    gauss = builtin_config("gauss")
    w_matrix = find_unimodular_normalizer(gauss)
    assert w_matrix is not None
    assert w_matrix[-1] == [1, 1, 1]
    cfg_h, alpha_h, changed = normalize_structure(gauss, builtin_alpha("gauss"))
    assert changed
    assert all(p[-1] == 1 for p in cfg_h.points)
    # no functional can hit value 1 on both 1 and 2
    assert find_unimodular_normalizer(validate_config([(1,), (2,)])) is None
    with pytest.raises(StructureError):
        normalize_structure(validate_config([(1,), (2,)]),
                            ParameterVector.of("1/2"))


def test_normalizer_completes_through_the_hermite_form():
    # the change of coordinates completes the solution w = (-1, 1) read off
    # the Hermite form; the Smith form of earlier releases completed it
    # differently and twisted the parameter to (1/5, 8/15).  The dimension
    # does not depend on the completion
    cfg = validate_config([(1, 0), (0, 1), (2, -1)])
    alpha = ParameterVector.of("1/3", "1/5")
    assert find_unimodular_normalizer(cfg) == [[-1, 0], [1, 1]]
    cfg_h, alpha_h, changed = normalize_structure(cfg, alpha)
    assert changed and cfg_h.points == ((-1, 1), (0, 1), (-2, 1))
    assert alpha_h.entries == (Fraction(-1, 3), Fraction(8, 15))
    rep = cohomology_U_dim(cfg, alpha, LAMR, 3)
    assert rep.stabilized and rep.dim == 2 and rep.alpha == alpha_h


def test_negated_trinomial_normalizes():
    # every point has last coordinate -1, so the normalizer must negate it
    cfg = validate_config([(0, -1), (1, -1), (-1, -1)])
    alpha = ParameterVector.of("1/3", "1/5")
    cfg_h, _, changed = normalize_structure(cfg, alpha)
    assert changed and all(p[-1] == 1 for p in cfg_h.points)
    rep = cohomology_U_dim(cfg, alpha, LAMR, 4)
    assert rep.stabilized and rep.dim == 2
    battery = run_battery(cfg, alpha)
    assert battery.ok and len(battery.checks) == 9


def test_cohomology_U_matches_torus_dim():
    rep = cohomology_U_dim(TRI, ALPHA, LAMR, 4)
    assert rep.stabilized and rep.dim == 2
    torus = top_cohomology_dim(TRI, ALPHA, LAMR, FullSupport(2), 4)
    assert torus.dim == rep.dim


def test_cohomology_U_refuses_the_specializations_the_torus_refuses():
    # lambda = 0 would make g identically zero, and the torus side refuses it
    for lam, message in (([0, 0, 0], "must be nonzero"), ([1, 0, 1], "must be nonzero"),
                         ([1, 1], "need 3 coefficients, got 2")):
        with pytest.raises(ValueError, match=message):
            cohomology_U_dim(TRI, ALPHA, lam, 3)
        with pytest.raises(ValueError, match=message):
            top_cohomology_dim(TRI, ALPHA, lam, FullSupport(2), 3)


def test_cohomology_U_pretwist_and_gauss():
    # integer last entry below 1 is shifted automatically
    alpha = ParameterVector.of("1/3", -2)
    rep = cohomology_U_dim(TRI, alpha, LAMR, 4)
    assert any("pre-twisted" in w for w in rep.warnings)
    assert rep.stabilized and rep.dim == 2

    gauss = builtin_config("gauss")
    lam = [Fraction(3, 7), Fraction(5, 11), Fraction(2, 9), Fraction(7, 13)]
    rep = cohomology_U_dim(gauss, builtin_alpha("gauss"), lam, 3)
    assert any("unimodular" in w for w in rep.warnings)
    assert rep.stabilized and rep.dim == 2


@pytest.mark.parametrize("points, alpha", [
    (TRI.points, ("1/3", "1/5")),
    (builtin_config("gauss").points, ("1/2", "1/3", "1/5")),
    (builtin_config("gauss").points, ("1/3", "1/5", "1/7")),
    ([(0, 1), (1, 1), (-1, 1), (2, 1)], ("1/3", "1/7")),
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], ("1/2", "1/3", "1/5")),
    # an integer last entry below 1 is pre-twisted
    (TRI.points, ("1/3", -2)),
])
def test_cohomology_U_matches_the_per_point_oracle(points, alpha):
    # the former complement-side loop, on the normalized configuration and
    # the pre-twisted parameter that cohomology_U_dim computes on
    config, alpha = validate_config(points), ParameterVector.of(*alpha)
    normal, twisted, _ = normalize_structure(config, alpha)
    last = twisted.entries[-1]
    if last.denominator == 1 and last < 1:
        twisted = twisted.shift((0,) * (config.n - 1) + (int(1 - last),))
    rng = random.Random(len(points))
    for _ in range(2):
        lam = [Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in points]
        g = build_g(normal, lam)
        for bound in (2, 4):
            rep = cohomology_U_dim(config, alpha, lam, bound)
            assert rep.dims == tuple(u_quotient_dim(normal, twisted, g, b)
                                     for b in (bound - 1, bound)), (lam, bound)


@pytest.mark.parametrize("points, volume", [
    ([(-2, -2, 1), (-2, 2, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1), (2, 2, 1)], 20),
    ([(-2, 0, 1), (0, -2, 1), (0, 2, 1), (1, 0, 1), (1, 2, 1), (2, -1, 1)], 19),
])
def test_cohomology_U_reads_the_volume_of_six_points(points, volume):
    # the numerator path took 23.0 s and 10.7 s on these at bound 4
    config = validate_config(points)
    lam = random_specialization(random.Random(1), config.N)
    rep = cohomology_U_dim(config, ParameterVector.of("1/3", "1/5", "1/7"), lam, 4)
    assert rep.dims == (volume, volume) and normalized_volume(config) == volume


@pytest.mark.parametrize("points, alpha", [
    (TRI.points, ("1/3", "1/5")),
    # an integer last entry, as the pre-twist leaves one
    (PLANE2, ("1/3", 1)),
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], ("1/2", "1/3", 3)),
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1), (2, 1, 1)], ("1/3", "1/5", "1/7")),
])
def test_complement_generators_rank_as_the_half_space_torus(points, alpha):
    # a generator on the complement is the torus one with the entries off
    # its own column scaled by -(m + alpha_n) (times e, for alpha_n = a / e);
    # the scaling changes no rank, and every g-relation e_u - sum_j lambda_j
    # e_{u+a_j} inside the window lies in the generators' span
    config = validate_config(points)
    lam = [Fraction(k + 3, 2 * k + 5) for k in range(config.N)]
    alpha = ParameterVector.of(*alpha)
    a, e = alpha.entries[-1].as_integer_ratio()
    windows = small, win = window_pair(config, HalfSupport(config.n), 3)
    torus, ech = top_cohomology_dim(config, alpha, lam, HalfSupport(config.n), 3), RationalEchelon()
    dims = []
    for w, gens in zip(windows, window_generators(windows, alpha, lam)):
        for col, vec in gens:
            off = -(win.points[col][-1] * e + a)
            ech.insert({k: c * (e if k == col else off) for k, c in vec.items()})
        dims.append(len(w.points) - ech.rank)
    assert tuple(dims) == torus.dims
    relations = 0
    for col, u in enumerate(win.points):
        targets = [win.index.get(tuple(map(sum, zip(u, p)))) for p in config.points]
        if None not in targets:
            row = {t: -v for t, v in zip(targets, lam)}
            row[col] = 1
            assert not ech.insert(oracles.cleared(row)), u
            relations += 1
    assert relations > 0


def test_minimal_two_point_case_matches():
    # valid two-point configuration with constant last coordinate: both the
    # torus side and the complement side give dimension 1
    cfg = validate_config([(1, 1), (0, 1)])
    alpha = ParameterVector.of("1/3", "1/7")
    lam = [Fraction(3, 5), Fraction(7, 11)]
    torus = top_cohomology_dim(cfg, alpha, lam, FullSupport(2), 4)
    assert torus.stabilized and torus.dim == 1
    rep = cohomology_U_dim(cfg, alpha, lam, 4)
    assert rep.stabilized and rep.dim == 1


def test_unimodular_transport_preserves_nonresonance():
    from gkzkit.lattice import is_nonresonant
    gauss = builtin_config("gauss")
    alpha = builtin_alpha("gauss")
    Q = find_unimodular_normalizer(gauss)
    cfg_h, alpha_h = apply_unimodular(gauss, alpha, Q)
    assert is_nonresonant(gauss, alpha).nonresonant \
        == is_nonresonant(cfg_h, alpha_h).nonresonant
