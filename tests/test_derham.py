import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gkzkit import derham, weyl
from gkzkit.catalog import builtin_alpha, builtin_config, builtin_names
from gkzkit.derham import (LogForm, check_complex, differentials,
                           enumerate_monomial_forms, homotopy_identity_check, nabla,
                           principal_lattice, twist_conjugation_check)
from gkzkit.errors import GkzError, NotStabilizedError, StructureError, VolumeMismatchError
from gkzkit.hypersurface import check_split_matches_nabla
from gkzkit.lattice import (FacetForm, ParameterVector, apply_unimodular, cone_facets,
                            is_nonresonant, normalize_structure, normalized_volume,
                            validate_config)
from gkzkit.laurent import (LaurentPoly, TwistedDerivations, apply_D, build_f,
                            build_f_symbolic, toric_derivative)
from gkzkit.verify import run_battery
from gkzkit.window import (CohomologyWindow, ConeSupport, FullSupport, HalfSupport,
                           RankReport, default_bound, generic_rank, quasi_iso_check,
                           require_stabilized, require_volume, top_cohomology_dim)
from oracles import (apply_D_by_parts, brute_newton_window, centered_box, contract,
                     dense_rank, ehrhart_volume, homotopy_identity_per_facet,
                     homotopy_rho, nabla_by_parts, shoelace_volume, specialize,
                     window_generators_per_window)

LAM3 = [Fraction(3, 7), Fraction(5, 11), Fraction(2, 9)]
LAM4 = LAM3 + [Fraction(7, 13)]


def test_nabla_example():
    cfg = validate_config([(1,)])
    alpha = ParameterVector.of("1/2")
    dd = TwistedDerivations(alpha, build_f(cfg, [2]))
    omega = LogForm.from_monomial((0,), (), 1)
    got = nabla(dd, omega)
    want = LogForm(1, 1, {(1,): LaurentPoly(1, {(0,): Fraction(1, 2), (1,): 2})})
    assert got == want
    assert nabla(dd, LogForm.zero(1, 0)).is_zero()
    assert nabla(dd, got).is_zero()  # top degree maps to zero


def test_check_complex_builtin_configs():
    for name in ("single", "cusp", "bessel", "trinomial", "gauss"):
        cfg = builtin_config(name)
        dd = battery_derivations(cfg, builtin_alpha(name))
        forms = enumerate_monomial_forms(centered_box(cfg.n, 2), range(cfg.n + 1), nlam=cfg.N)
        assert check_complex(dd, differentials(dd, forms)), name


def battery_derivations(cfg, alpha) -> TwistedDerivations:
    """The twisted derivations ``run_battery`` checks on: the symbolic f,
    scaled by the clearing scale."""
    f = build_f_symbolic(cfg)
    return TwistedDerivations(alpha, f, derham.clearing_scale(alpha, f))


def homotopy_check(facets, alpha, cfg, samples):
    """``homotopy_identity_check`` on the ``battery_derivations``, built at
    the call so that a patched table builder applies, and on the samples'
    first differentials, as ``run_battery`` takes them."""
    dd = battery_derivations(cfg, alpha)
    return homotopy_identity_check(facets, dd, samples, differentials(dd, samples))


@pytest.mark.parametrize("name", ["cusp", "trinomial", "gauss"])
def test_battery_takes_each_first_differential_once(monkeypatch, name):
    # nabla_squared and homotopy_identity share the differential of each
    # sample, so no form goes through nabla twice at the battery's alpha
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    seen = []

    def recording(derivations, omega, _nabla=derham.nabla):
        if derivations.alpha is alpha:
            seen.append(omega)
        return _nabla(derivations, omega)
    monkeypatch.setattr(derham, "nabla", recording)
    assert run_battery(cfg, alpha).ok
    # nabla_squared applies nabla twice to each form with exponent in S_2,
    # the homotopy check reads the first differentials of S_1 among them
    lattice = enumerate_monomial_forms(principal_lattice(cfg.n, 2), range(cfg.n + 1),
                                       nlam=cfg.N)
    assert seen[:len(lattice)] == lattice
    assert len(seen) >= 2 * len(lattice)
    assert len({id(omega) for omega in seen}) == len(seen)


def test_twist_conjugation_example():
    cfg = validate_config([(1,)])
    alpha = ParameterVector.of("1/2")
    dd = TwistedDerivations(alpha, build_f(cfg, [2]))
    samples = [LogForm.from_monomial((0,), (), 1),
               LogForm.from_monomial((2,), (1,), 1)]
    assert twist_conjugation_check(dd, (0,), samples)
    assert twist_conjugation_check(dd, (1,), samples)
    assert twist_conjugation_check(dd, (-3,), samples)


def test_homotopy_rho_examples():
    ell = FacetForm((1,))
    omega = LogForm.from_monomial((5,), (1,), 1)
    got = homotopy_rho(ell, omega)
    assert got == LogForm.from_monomial((5,), (), 1)
    assert homotopy_rho(ell, LogForm.from_monomial((5,), (), 1)).is_zero()

    ell2 = FacetForm((-1, 1))
    omega2 = LogForm.from_monomial((1, 2), (1, 2), 2)
    got = homotopy_rho(ell2, omega2)
    want = (LogForm.from_monomial((1, 2), (2,), 2).scale(-1)
            + LogForm.from_monomial((1, 2), (1,), 2).scale(-1))
    assert got == want


def test_homotopy_identity_example_hand():
    # single-point configuration: anticommutator on x^3 dx/x multiplies by
    # 7/2 and shifts once with the symbolic coefficient
    cfg = validate_config([(1,)])
    alpha = ParameterVector.of("1/2")
    ell = cone_facets(cfg)[0]
    omega = LogForm.from_monomial((3,), (1,), 1, nlam=1)
    f = build_f_symbolic(cfg)
    lhs = nabla(TwistedDerivations(alpha, f), homotopy_rho(ell, omega))
    # keys (u, e) of lambda^e x^u: (7/2) x^3 + lambda x^4
    want = LogForm(1, 1, {(1,): LaurentPoly(1, {(3, 0): Fraction(7, 2), (4, 1): 1},
                                            nlam=1)}, nlam=1)
    assert lhs == want
    assert homotopy_check([ell], alpha, cfg, [omega]) is None
    # on a specialized f each shift is weighted by its coefficient, 3/7 here
    dd = TwistedDerivations(alpha, build_f(cfg, [Fraction(3, 7)]))
    samples = [LogForm.from_monomial((u,), idx, 1) for u in (-1, 0, 1) for idx in ((), (1,))]
    assert homotopy_identity_check([ell], dd, samples, differentials(dd, samples)) is None


def test_homotopy_identity_all_builtins():
    for name in ("single", "cusp", "bessel", "trinomial", "gauss"):
        cfg = builtin_config(name)
        alpha = builtin_alpha(name)
        forms = enumerate_monomial_forms(centered_box(cfg.n, 2), range(cfg.n + 1), nlam=cfg.N)
        assert homotopy_check(cone_facets(cfg), alpha, cfg, forms) is None, name


def test_homotopy_identity_on_sums_of_monomial_forms():
    # forms with several components, whose index sets differ, so the check
    # combines the contractions against several unit forms per sample
    for name in ("trinomial", "gauss"):
        cfg = builtin_config(name)
        forms = enumerate_monomial_forms(centered_box(cfg.n, 1), range(cfg.n + 1), nlam=cfg.N)
        by_degree = {}
        for omega in forms:
            by_degree.setdefault(omega.degree, []).append(omega)
        sums = [group[k] + group[-1 - 2 * k].scale(3) + group[len(group) // 2]
                for group in by_degree.values() for k in range(len(group) // 3)]
        assert any(len(omega.components) > 1 for omega in sums)
        assert homotopy_check(cone_facets(cfg), builtin_alpha(name), cfg,
                              sums) is None, name


@pytest.mark.parametrize("name, calls", [
    # the differential of each sample below top degree: gauss has 1,000
    # samples, 875 below degree 3; trinomial 100 samples, 75 below degree 2.
    # The forms that drop one index of a sample go through the derivation
    # tables without a nabla call
    ("gauss", 875),
    ("trinomial", 75),
])
def test_homotopy_check_takes_nabla_once_per_sample(monkeypatch, name, calls):
    # the check reads the given differential of each sample below top degree
    # once, takes none of its own, and builds no derivation tables: it runs
    # on the ones it is given
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    dd = battery_derivations(cfg, alpha)
    forms = enumerate_monomial_forms(centered_box(cfg.n, 2), range(cfg.n + 1), nlam=cfg.N)
    built, applied, read = [], [], []

    class Reads(list):
        def __getitem__(self, k):
            read.append(k)
            return super().__getitem__(k)

    class Counting(TwistedDerivations):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    first = Reads(differentials(dd, forms))
    monkeypatch.setattr(derham, "TwistedDerivations", Counting)
    monkeypatch.setattr(derham, "nabla", lambda *args: applied.append(args))
    assert homotopy_identity_check(cone_facets(cfg), dd, forms, first) is None
    assert built == []
    assert applied == []
    assert sorted(read) == [k for k, omega in enumerate(forms) if omega.degree < cfg.n]
    assert len(read) == calls


def _wrong_tables(monkeypatch, directions, kind: str = "alpha") -> None:
    """Every TwistedDerivations built from now on has a wrong table in each
    of the directions: scale alpha_i off by one, or its first term of scale
    x_i df/dx_i doubled.  Then D_i is off by a nonzero multiplication M_i,
    and the homotopy residual of a facet ell is the sum of ell_i M_i omega:
    with one wrong direction it fails exactly on the facets with ell_i != 0."""
    build = TwistedDerivations.__init__

    def wrong(self, alpha, f, scale=1):
        build(self, alpha, f, scale)
        for i in directions:
            a, df = self.tables[i - 1]
            if kind == "alpha":
                a += 1
            else:
                (v, c), *rest = df
                df = [(v, 2 * c), *rest]
            self.tables[i - 1] = (a, df)
    monkeypatch.setattr(TwistedDerivations, "__init__", wrong)


@pytest.mark.parametrize("bad", [
    # (direction with a wrong table, the facets of gauss with a nonzero
    # coefficient there)
    (1, (2, 3)),
    (3, (1, 3)),
])
def test_homotopy_failure_reports_the_first_failing_facet(monkeypatch, bad):
    # a derivation table that is wrong in one direction fails the facets
    # listed: the facets before the first of them hold on every sample, it
    # is reported
    cfg = builtin_config("gauss")
    alpha = builtin_alpha("gauss")
    facets = cone_facets(cfg)
    direction, positions = bad
    wrong = [facets[k] for k in positions]
    assert wrong == [ell for ell in facets if ell.coeffs[direction - 1]]
    first = min(positions)
    _wrong_tables(monkeypatch, [direction])
    forms = enumerate_monomial_forms(centered_box(cfg.n, 2), range(cfg.n + 1), nlam=cfg.N)
    assert homotopy_check(facets, alpha, cfg, forms) == facets[first]
    right = [ell for ell in facets if ell not in wrong]
    assert homotopy_check(right, alpha, cfg, forms) is None
    check = next(c for c in run_battery(cfg, alpha).checks
                 if c.name == "homotopy_identity")
    assert not check.ok
    # the battery samples S_1 = {0, e_1, ..., e_n}, every facet before the
    # failing one on each of its forms
    linear = enumerate_monomial_forms(principal_lattice(cfg.n, 1), range(cfg.n + 1),
                                      nlam=cfg.N)
    assert check.samples == len(linear) * first
    assert check.detail == f"facet={facets[first].coeffs}"


@pytest.mark.parametrize("name", ["trinomial", "gauss", "cusp"])
def test_box_of_the_battery_cannot_shrink(monkeypatch, name):
    # the homotopy residual is affine in the exponent, so the one point 0
    # cannot decide it: D_1 with its u-coefficient doubled, (2 u_1 +
    # alpha_1) x^u plus the shifts, is a fault that is 0 at u_1 = 0,
    # invisible on {0}^n and caught on the battery's S_1 = {0, e_1, ...,
    # e_n}
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    facets = cone_facets(cfg)
    _doubled_u(monkeypatch, 1)
    verdicts = {c.name: c.ok for c in run_battery(cfg, alpha).checks}
    assert not verdicts["homotopy_identity"]
    origin = enumerate_monomial_forms(centered_box(cfg.n, 0), range(cfg.n + 1),
                                      nlam=cfg.N)
    assert homotopy_check(facets, alpha, cfg, origin) is None
    linear = enumerate_monomial_forms(principal_lattice(cfg.n, 1), range(cfg.n + 1),
                                      nlam=cfg.N)
    assert homotopy_check(facets, alpha, cfg, linear) is not None


def _doubled_u(monkeypatch, direction: int) -> None:
    """Every D_i applied from now on in the given direction has its
    u-coefficient doubled: (2 u_i + alpha_i) x^u plus the shifts."""
    def doubled(self, out, i, xi, sign=1, _add_to=TwistedDerivations.add_to):
        _add_to(self, out, i, xi, sign)
        if i == direction:
            for u, c in xi.terms.items():
                t = sign * c * u[i - 1] * self.scale
                out[u] = out[u] + t if u in out else t
    monkeypatch.setattr(TwistedDerivations, "add_to", doubled)


FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=5)


HOMOTOPY_CONFIGS = {name: builtin_config(name) for name in builtin_names()}
HOMOTOPY_CONFIGS["plane2"] = validate_config([(0, 1), (1, 1), (-1, 1), (2, 1)])
HOMOTOPY_CONFIGS["pyramid"] = validate_config([(0, 0, 1), (1, 0, 1), (0, 1, 1),
                                               (1, 1, 1)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(HOMOTOPY_CONFIGS)), data=st.data())
def test_homotopy_check_matches_the_per_facet_oracle(name, data):
    # the unit residuals combined per facet and the per-facet accumulation
    # reach the same facet: none on the true derivations, and the same one
    # with the tables of some directions wrong (patched into both).  With
    # one wrong direction, the facets with a nonzero coefficient there fail,
    # each alone, and the first of them is reported
    cfg = HOMOTOPY_CONFIGS[name]
    n = cfg.n
    facets = cone_facets(cfg)
    alpha = ParameterVector(tuple(data.draw(FRAC) for _ in range(n)))
    forms = enumerate_monomial_forms(centered_box(n, 1), range(n + 1), nlam=cfg.N)
    sums = [omega + forms[-1 - k].scale(2) for k, omega in enumerate(forms)
            if omega.degree == forms[-1 - k].degree]
    samples = data.draw(st.permutations(forms + sums))
    assert homotopy_check(facets, alpha, cfg, samples) is None
    assert homotopy_identity_per_facet(facets, alpha, cfg, samples) is None
    directions = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                                    unique=True))
    kind = data.draw(st.sampled_from(["alpha", "df"]))
    with pytest.MonkeyPatch.context() as patch:
        _wrong_tables(patch, directions, kind)
        got = homotopy_check(facets, alpha, cfg, samples)
        assert got == homotopy_identity_per_facet(facets, alpha, cfg, samples)
        if len(directions) == 1:
            failing = [ell for ell in facets if ell.coeffs[directions[0] - 1]]
            assert got == (failing[0] if failing else None)
            for ell in facets:
                alone = homotopy_check([ell], alpha, cfg, samples)
                assert (alone is not None) == (ell in failing)


BATTERY_ALPHAS = {name: builtin_alpha(name) for name in builtin_names()}
BATTERY_ALPHAS["plane2"] = ParameterVector.of("1/3", "-2/5")
BATTERY_ALPHAS["pyramid"] = ParameterVector.of("1/2", "-1/3", "3/7")


def box_verdicts(cfg, alpha) -> dict[str, tuple[bool, str]]:
    """The verdict and failure detail of each check ``run_battery`` decides
    on S_1 and S_2, taken instead on every monomial form with exponents in
    the box {-1, 0, 1}^n, which decides each residual by its degree in each
    coordinate, at most 2: the same derivations, twists, facets and lambda."""
    n, N = cfg.n, cfg.N
    dd = battery_derivations(cfg, alpha)
    forms = enumerate_monomial_forms(centered_box(n, 1), range(n + 1), nlam=N)
    first = differentials(dd, forms)
    out = {"nabla_squared": (check_complex(dd, first), "")}
    failed = homotopy_identity_check(cone_facets(cfg), dd, forms, first)
    out["homotopy_identity"] = ((True, "") if failed is None
                                else (False, f"facet={failed.coeffs}"))
    twists = [(1,) + (0,) * (n - 1)]
    if n >= 2:
        twists += [(0, -1) + (0,) * (n - 2), (1, 1) + (0,) * (n - 2)]
    small = [omega for omega in forms if omega.degree < min(n, 2)]
    wrong = [u for u in twists if not twist_conjugation_check(dd, u, small)]
    out["twist_conjugation"] = (not wrong, f"u={wrong[0]}" if wrong else "")
    if n >= 2:
        try:
            cfg_h, alpha_h, _ = normalize_structure(cfg, alpha)
        except StructureError:
            return out
        lam = tuple(Fraction(k + 2, 2 * k + 1) for k in range(N))
        specialized = enumerate_monomial_forms(centered_box(n, 1), range(n + 1))
        out["split_consistency"] = (
            check_split_matches_nabla(cfg_h, alpha_h, lam, specialized), "")
    return out


@pytest.mark.parametrize("name", sorted(HOMOTOPY_CONFIGS))
def test_battery_sample_sets_reach_the_verdicts_of_the_box(name):
    # S_2 for nabla_squared and S_1 for the other three checks reach the
    # box's verdict and failure detail on the true derivations and on
    # faults that keep each coefficient affine in u: a wrong alpha_i table
    # entry, a wrong shift weight, and a doubled u_i, in each direction i
    cfg, alpha = HOMOTOPY_CONFIGS[name], BATTERY_ALPHAS[name]
    faults = [(None, 0)] + [(kind, i) for kind in ("alpha", "df", "u")
                            for i in range(1, cfg.n + 1)]
    caught = set()
    for kind, direction in faults:
        with pytest.MonkeyPatch.context() as patch:
            if kind == "u":
                _doubled_u(patch, direction)
            elif kind:
                _wrong_tables(patch, [direction], kind)
            box = box_verdicts(cfg, alpha)
            got = {c.name: (c.ok, c.detail) for c in run_battery(cfg, alpha).checks
                   if c.name in box}
        assert got == box, (kind, direction)
        assert (kind is not None) or all(ok for ok, _ in box.values())
        caught |= {check for check, (ok, _) in box.items() if not ok}
    # every check fails under some fault, but nabla_squared in one
    # dimension, where nabla twice lands past the top degree, and the
    # homotopy check of a configuration without facets
    assert caught == set(box) - ({"nabla_squared"} if cfg.n == 1 else set()) - (
        set() if cone_facets(cfg) else {"homotopy_identity"}), caught


def test_homotopy_check_weights_the_unit_residuals(monkeypatch):
    # scale alpha_i off by one in both directions of trinomial: each unit
    # residual is omega itself, so the facet (-1, 1) holds and (1, 1) fails
    cfg, alpha = builtin_config("trinomial"), builtin_alpha("trinomial")
    facets = cone_facets(cfg)
    assert [ell.coeffs for ell in facets] == [(-1, 1), (1, 1)]
    forms = enumerate_monomial_forms(centered_box(cfg.n, 2), range(cfg.n + 1), nlam=cfg.N)
    _wrong_tables(monkeypatch, [1, 2])
    assert homotopy_check(facets, alpha, cfg, forms) == facets[1]
    assert homotopy_identity_per_facet(facets, alpha, cfg, forms) == facets[1]


@pytest.mark.parametrize("name", ["trinomial", "gauss"])
def test_homotopy_check_reads_alpha_off_the_derivations_not_their_tables(name):
    # derivations whose table entry for alpha_1 is off by one from their
    # alpha field: D_1 is off by a constant multiplication, which commutes
    # with every D_j, so nabla still squares to zero; the right-hand side,
    # read off alpha and f, no longer matches the differential on the facets
    # with a nonzero first coefficient
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    dd = battery_derivations(cfg, alpha)
    a, df = dd.tables[0]
    dd.tables[0] = (a + 1, df)
    facets = cone_facets(cfg)
    forms = enumerate_monomial_forms(centered_box(cfg.n, 1), range(cfg.n + 1), nlam=cfg.N)
    first = differentials(dd, forms)
    assert check_complex(dd, first)
    failing = [ell for ell in facets if ell.coeffs[0]]
    assert homotopy_identity_check(facets, dd, forms, first) == failing[0]


@st.composite
def derivation_cases(draw):
    """(i, alpha, f, xi, omega, cancel) with rational coefficients or two
    symbolic parameters; xi is a component of omega.

    When x_i df/dx_i has two terms, g_v x^v and g_w x^w, xi is at times
    g_w x^u - g_v x^(u + v - w), whose shifted terms cancel at cancel = u + v;
    with symbolic parameters u carries the lambda exponents of w, so those of
    u + v - w stay nonnegative.
    """
    n = draw(st.sampled_from([2, 3, 1]))
    nlam = draw(st.sampled_from([0, 2]))
    exps = st.tuples(*[st.integers(-2, 2)] * n, *[st.integers(0, 1)] * nlam)

    def poly(min_size=1):
        return LaurentPoly(n, draw(st.dictionaries(exps, FRAC, min_size=min_size,
                                                   max_size=3)), nlam)
    f = poly(min_size=2)
    i = draw(st.integers(1, n))
    alpha = ParameterVector(tuple(draw(FRAC) for _ in range(n)))
    g = toric_derivative(i, f)
    xi = poly()
    cancel = None
    if len(g.terms) >= 2 and draw(st.booleans()):
        v, w = draw(st.permutations(sorted(g.terms)))[:2]
        u = draw(exps)
        u = u[:n] + tuple(a + b for a, b in zip(u[n:], w[n:]))
        cancel = tuple(a + b for a, b in zip(u, v))
        xi = LaurentPoly(n, {u: g.terms[w],
                             tuple(a + b - c for a, b, c in zip(u, v, w)): -g.terms[v]},
                         nlam)
    # middle degrees first: there pieces of several components share a target
    k = draw(st.sampled_from(list(range(1, n)) + [0, n]))
    combos = list(itertools.combinations(range(1, n + 1), k))
    omega = LogForm(n, k, {idx: xi if m == 0 else poly()
                           for m, idx in enumerate(combos)}, nlam)
    return i, alpha, f, xi, omega, cancel


@settings(max_examples=120, deadline=None, derandomize=True)
@given(derivation_cases())
def test_one_pass_derivation_matches_by_parts(case):
    i, alpha, f, xi, omega, cancel = case
    if cancel is not None:
        assert cancel not in (toric_derivative(i, f) * xi).terms
    dd = TwistedDerivations(alpha, f)
    assert apply_D(dd, i, xi) == apply_D_by_parts(i, alpha, f, xi)
    for j in range(1, f.n + 1):
        for eta in omega.components.values():
            assert apply_D(dd, j, eta) == apply_D_by_parts(j, alpha, f, eta)
    assert nabla(dd, omega) == nabla_by_parts(alpha, f, omega)


def _denominator(values) -> int:
    return math.lcm(*(c.denominator for c in values))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(derivation_cases(), st.integers(1, 4))
def test_scaled_derivation_is_the_scaled_oracle(case, k):
    # scale d times the operator, for a d that clears the denominators of
    # alpha and f and for one that need not; with a clearing d, an integer
    # form (omega times the lcm of its denominators) maps to ints only
    i, alpha, f, xi, omega, _ = case
    clear = _denominator(alpha.entries + tuple(f.terms.values()))
    for d in (k, clear * k):
        dd = TwistedDerivations(alpha, f, d)
        assert apply_D(dd, i, xi) == apply_D_by_parts(i, alpha, f, xi).scalar_mul(d)
        assert nabla(dd, omega) == nabla_by_parts(alpha, f, omega).scale(d)
    m = _denominator(c for p in omega.components.values() for c in p.terms.values())
    omega_z = LogForm(omega.n, omega.degree, {
        idx: LaurentPoly(p.n, {u: int(c * m) for u, c in p.terms.items()}, p.nlam)
        for idx, p in omega.components.items()}, omega.nlam)
    d = clear * k
    dd = TwistedDerivations(alpha, f, d)
    image = nabla(dd, omega_z)
    assert image == nabla_by_parts(alpha, f, omega_z).scale(d)
    images = list(image.components.values())
    for j in range(1, f.n + 1):
        images += [apply_D(dd, j, eta) for eta in omega_z.components.values()]
    assert all(type(c) is int for p in images for c in p.terms.values())


def _canonical(p: LaurentPoly) -> bool:
    """Every key of p is a tuple of n + nlam ints and every coefficient a
    nonzero int or Fraction: what the constructor checks and what
    ``LaurentPoly._of`` trusts the package to build."""
    return all(type(u) is tuple and len(u) == p.n + p.nlam
               and all(type(x) is int for x in u)
               and type(c) in (int, Fraction) and c != 0
               for u, c in p.terms.items())


def _canonical_form(form: LogForm) -> bool:
    return all(len(idx) == form.degree and not p.is_zero() and p.nlam == form.nlam
               and _canonical(p) for idx, p in form.components.items())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(derivation_cases(), st.integers(-2, 2), FRAC, st.integers(1, 6))
def test_results_the_package_builds_are_canonical(case, s, c, d):
    # sums, products and derivations whose terms cancel, in part or in whole
    i, alpha, f, xi, omega, _ = case
    n = f.n
    dd, dd_d = TwistedDerivations(alpha, f), TwistedDerivations(alpha, f, d)
    polys = [apply_D(dd, i, xi), apply_D(dd_d, i, xi), xi + f,
             xi + (-xi), (xi + f) - f, f * xi, (f + xi) * (f - xi), xi.shift((s,) * n),
             xi.scalar_mul(c), xi.scalar_mul(0), toric_derivative(i, xi)]
    forms = [nabla(dd, omega), nabla(dd_d, omega), omega + omega.scale(-1),
             omega.scale(c), omega.mul_monomial((s,) * n),
             # built by the package's _form from a term map with cancellations
             contract([s + k for k in range(n)], omega)]
    assert all(_canonical(p) for p in polys)
    assert all(_canonical_form(w) for w in forms)
    assert polys[3].is_zero() and forms[2].is_zero()


@pytest.mark.parametrize("name", ["gauss", "trinomial"])
def test_scale_dropped_from_the_exponent_term_is_caught(monkeypatch, name):
    # d x_i d/dx_i lost to x_i d/dx_i, injected where the tables are built:
    # they keep d alpha_i and d x_i df/dx_i.  The mis-scaled derivations
    # still commute, so nabla squared vanishes, but the homotopy identity
    # and the twist conjugation fail
    cfg, alpha = builtin_config(name), builtin_alpha(name)
    assert derham.clearing_scale(alpha, build_f_symbolic(cfg)) > 1

    def misscaled(self, alpha, f, scale=1, _build=TwistedDerivations.__init__):
        _build(self, alpha, f, scale)
        self.scale = 1
    monkeypatch.setattr(TwistedDerivations, "__init__", misscaled)
    checks = {c.name: c for c in run_battery(cfg, alpha).checks}
    assert checks["nabla_squared"].ok
    assert not checks["homotopy_identity"].ok
    # the first twist, x_1, fails at once, so no twist counts as sampled
    twist = checks["twist_conjugation"]
    assert not twist.ok
    assert twist.detail == f"u={(1,) + (0,) * (cfg.n - 1)}"
    assert twist.samples == 0


@pytest.mark.parametrize("d, entries", [
    # on fewer coordinates the trailing entries are summed into the last one,
    # which keeps the lcm of the denominators
    (1, ("2", "-1", "3")),
    (7, ("1/7", "-3/7", "4/7")),
    (1001, ("5/7", "3/11", "2/13")),
])
def test_scaled_battery_reaches_the_unscaled_verdicts(monkeypatch, d, entries):
    values = [Fraction(e) for e in entries]
    for name in builtin_names():
        cfg = builtin_config(name)
        alpha = ParameterVector(tuple(values[:cfg.n - 1]) + (sum(values[cfg.n - 1:]),))
        assert derham.clearing_scale(alpha, build_f_symbolic(cfg)) == d
        scaled = run_battery(cfg, alpha).to_json()
        with monkeypatch.context() as patch:
            # the battery's torus checks run on the derivations of its PhiTables
            patch.setattr(weyl, "clearing_scale", lambda alpha, f: 1)
            assert run_battery(cfg, alpha).to_json() == scaled, name


@st.composite
def specialization_cases(draw):
    """(alpha, config, r, omega): a form whose coefficients carry lambda
    exponents, on a configuration of the unit vectors and up to two more
    points, and a nonzero specialization r of the parameters."""
    n = draw(st.integers(1, 3))
    units = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    extra = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=2,
                          unique=True))
    cfg = validate_config(draw(st.permutations(
        units + [a for a in extra if a not in units])))
    r = tuple(draw(FRAC.filter(bool)) for _ in range(cfg.N))
    alpha = ParameterVector(tuple(draw(FRAC) for _ in range(n)))
    keys = st.tuples(*[st.integers(-2, 2)] * n, *[st.integers(0, 2)] * cfg.N)
    k = draw(st.integers(0, n))
    omega = LogForm(n, k, {idx: LaurentPoly(n, draw(st.dictionaries(
        keys, FRAC, max_size=3)), cfg.N)
        for idx in itertools.combinations(range(1, n + 1), k)}, cfg.N)
    return alpha, cfg, r, omega


@settings(max_examples=100, deadline=None, derandomize=True)
@given(specialization_cases())
def test_specializing_lambda_commutes_with_the_symbolic_path(case):
    # a lambda exponent read as an x exponent (or the reverse) breaks this
    alpha, cfg, r, omega = case
    dd = TwistedDerivations(alpha, build_f_symbolic(cfg))
    dd_r = TwistedDerivations(alpha, build_f(cfg, r))
    for xi in omega.components.values():
        xi_r = LaurentPoly(cfg.n, specialize(xi.terms, r))
        for i in range(1, cfg.n + 1):
            got = specialize(apply_D(dd, i, xi).terms, r)
            assert got == apply_D(dd_r, i, xi_r).terms
    omega_r = LogForm(cfg.n, omega.degree, {
        idx: LaurentPoly(cfg.n, specialize(xi.terms, r))
        for idx, xi in omega.components.items()})
    got = {idx: specialize(p.terms, r)
           for idx, p in nabla(dd, omega).components.items()}
    want = nabla(dd_r, omega_r)
    assert {idx: t for idx, t in got.items() if t} == \
        {idx: p.terms for idx, p in want.components.items()}


def test_filtration_compatibility():
    # every term of the differential of a monomial form has facet value at
    # least that of the monomial
    for name in ("trinomial", "gauss"):
        cfg = builtin_config(name)
        dd = TwistedDerivations(builtin_alpha(name), build_f_symbolic(cfg))
        for ell in cone_facets(cfg):
            for u in itertools.product(range(-2, 3), repeat=cfg.n):
                p = ell.evaluate(u)
                omega = LogForm.from_monomial(u, (), cfg.n, nlam=cfg.N)
                image = nabla(dd, omega)
                for idx, poly in image.components.items():
                    for w in poly.terms:
                        assert ell.evaluate(w) >= p


def test_window_points_in_elimination_order():
    tri = builtin_config("trinomial")
    gauss = builtin_config("gauss")
    bessel = builtin_config("bessel")
    for cfg, support in ((tri, FullSupport(2)), (tri, ConeSupport(tri)),
                         (gauss, ConeSupport(gauss)), (bessel, FullSupport(1))):
        win = CohomologyWindow(cfg, support, 2)
        keys = [(win.weight(u), u) for u in win.points]
        assert keys and all(a < b for a, b in zip(keys, keys[1:])), support.name
        assert len(win.index) == len(win.points)
        assert all(win.points[k] == u for u, k in win.index.items())


def assert_newton_window(cfg, bound, coeff_bound=3):
    """The Z^n, R+ and U0 windows equal the brute-force Newton window, the
    R+ one its points with u_n >= 0."""
    points = list(cfg.points)
    window = brute_newton_window(points, bound, coeff_bound)
    full = CohomologyWindow(cfg, FullSupport(cfg.n), bound)
    assert set(full.points) == window, (points, bound)
    half = CohomologyWindow(cfg, HalfSupport(cfg.n), bound)
    assert set(half.points) == {u for u in window if u[-1] >= 0}, (points, bound)
    cone = CohomologyWindow(cfg, ConeSupport(cfg), bound)
    assert set(cone.points) == brute_newton_window(points, bound, coeff_bound,
                                                   cone_only=True), (points, bound)


def test_brute_newton_window_refuses_a_normal_bound_that_misses_a_facet():
    # the facet 2x + 3y <= 7 of Delta homogenizes to (-2, -3, 7); normals
    # scanned up to 3 or 6 miss it, and the window read off the rest is a
    # superset (81 and 23 points against 9)
    points = [(-2, 2), (-1, 3), (2, 1)]
    for coeff_bound in (3, 6):
        with pytest.raises(ValueError, match="raise coeff_bound"):
            brute_newton_window(points, 1, coeff_bound)
    window = CohomologyWindow(validate_config(points), FullSupport(2), 1)
    assert len(window.points) == 9
    assert brute_newton_window(points, 1, 7) == set(window.points)


@pytest.mark.parametrize("bound", range(1, 6))
@pytest.mark.parametrize("points, coeff_bound", [
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 3),
    ([(0, 1), (1, 1), (-1, 1), (2, 1)], 3),
    # N.A is not saturated; the facet 2x + 3y <= 7 of Delta needs normals
    # up to 7 in the oracle's homogenized search
    ([(-2, 2), (-1, 3), (2, 1)], 7),
    ([(1,), (-1,)], 3),                 # bessel: the cone is a line
    ([(0, 1), (1, 1), (0, 0)], 3),      # 0 among the points
])
def test_every_support_scan_box_holds_its_window(points, coeff_bound, bound):
    # each support scans its own box (Support.scan): up to B = 5 no window
    # point falls outside it
    assert_newton_window(validate_config(points), bound, coeff_bound)


def test_every_support_scan_box_holds_the_uneven_3d_window_at_bound_4():
    # B <= 3 is in test_uneven_3d_windows_match_brute_newton_window; at B = 4
    # the oracle alone takes about 0.7 s
    assert_newton_window(validate_config(
        [(-2, 2, 2), (-2, 1, -2), (2, 0, -2), (-2, -1, 1), (1, -1, -2)]), 4, 5)


def test_newton_window_on_builtins():
    for name in builtin_names():
        for b in (1, 2):
            assert_newton_window(builtin_config(name), b)


def test_cone_window_matches_brute_newton_window():
    for points in ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
                   [(0, 1), (1, 1), (-1, 1), (2, 1)], [(2,), (3,)],
                   [(1, 0, 1), (-1, 2, 1), (1, -1, -2), (1, 2, -1), (0, 0, 1)]):
        for b in (1, 2):
            assert_newton_window(validate_config(points), b)


@pytest.mark.parametrize("points, coeff_bound", [
    ([(-2, 2, 2), (-2, 1, -2), (2, 0, -2), (-2, -1, 1), (1, -1, -2)], 5),
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (2, 1, 1), (1, 2, 1),
      (-1, 2, 1), (-2, 1, 1), (0, 0, 1)], 3)])
def test_uneven_3d_windows_match_brute_newton_window(points, coeff_bound):
    # the scan box is B max|a|, far smaller than the oracle's vertex box
    for b in (1, 2, 3):
        assert_newton_window(validate_config(points), b, coeff_bound)


def test_lineality_window_matches_brute_newton_window():
    for points in ([(1,), (-1,)], [(1, 0), (-1, 0), (0, 1)],
                   [(1, 0), (0, 1), (-1, -1)], [(1, 0), (-1, 0), (0, 2), (1, 3)]):
        for b in (1, 2):
            assert_newton_window(validate_config(points), b)


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 2))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                           min_size=n, max_size=n + 2, unique=True))
    try:
        return validate_config(points)
    except GkzError:
        reject()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=small_configs())
def test_newton_window_matches_brute_oracle_on_small_configs(config):
    # a facet normal of the homogenized points is the cross product of two
    # (a, 1), whose entries are at most 2 * 2 * 2 = 8 in size
    for b in (1, 2):
        assert_newton_window(config, b, 8)


def dense_quotient_dim(config, alpha, lam, support, bound):
    """Dense-matrix reimplementation of the window quotient."""
    win = CohomologyWindow(config, support, bound)
    cols = [vec for _, vec in window_generators_per_window(win, alpha, lam)]
    rows = [[vec.get(k, Fraction(0)) for vec in cols]
            for k in range(len(win.points))]
    return len(win.points) - dense_rank(rows)


def test_top_cohomology_examples_and_dense_oracle():
    c1 = validate_config([(1,)])
    rep = top_cohomology_dim(c1, ParameterVector.of("1/2"), [1], FullSupport(1), 4)
    assert rep.stabilized and rep.dim == 1

    cusp = validate_config([(1,), (2,)])
    rep = top_cohomology_dim(cusp, ParameterVector.of("1/2"),
                             [Fraction(3, 7), Fraction(5, 11)], FullSupport(1), 4)
    assert rep.stabilized and rep.dim == 2

    tri = validate_config([(0, 1), (1, 1), (-1, 1)])
    alpha = ParameterVector.of("1/3", "1/5")
    rep = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 4)
    assert rep.stabilized and rep.dim == 2

    # independent dense elimination agrees on both supports
    for support in (FullSupport(2), ConeSupport(tri)):
        for b in (2, 3):
            got = dense_quotient_dim(tri, alpha, LAM3, support, b)
            assert got == 2, (support.name, b)


def test_top_cohomology_rejects_lambda_of_wrong_length():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    for lam in (LAM3[:2], LAM4):
        with pytest.raises(ValueError, match=f"need 3 coefficients, got {len(lam)}"):
            top_cohomology_dim(tri, alpha, lam, FullSupport(2), 2)


def test_gauss_dimension():
    gauss = builtin_config("gauss")
    alpha = builtin_alpha("gauss")
    rep = top_cohomology_dim(gauss, alpha, LAM4, FullSupport(3), 3)
    assert rep.stabilized and rep.dim == 2
    rep = top_cohomology_dim(gauss, alpha, LAM4, ConeSupport(gauss), 3)
    assert rep.stabilized and rep.dim == 2


def test_dimension_same_across_supports_including_W():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    supports = [FullSupport(2), ConeSupport(tri)]
    dims = [top_cohomology_dim(tri, alpha, LAM3, S, 4).dim for S in supports]
    assert dims == [2, 2]


def test_quasi_iso_and_warnings():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    full = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 4)
    cone = top_cohomology_dim(tri, alpha, LAM3, ConeSupport(tri), 4)
    kept = full.top[1]
    rows = {lead: dict(row) for lead, row in kept.rows.items()}
    q = quasi_iso_check(cone, full)
    assert q.verdict and q.surjective and q.dim_small == q.dim_big == 2
    # the check reduces in a copy: the report's echelon is left as it was
    assert kept.rows == rows and full.top[1] is kept

    # identical supports trivially agree
    full3 = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 3)
    q = quasi_iso_check(full3, full3)
    assert q.verdict

    # resonant parameter: computation proceeds with the flag set; at the
    # integer parameter 1 the inclusion genuinely fails surjectivity
    c1 = validate_config([(1,)])
    rep = top_cohomology_dim(c1, ParameterVector.of(0), [1], FullSupport(1), 4)
    assert rep.warnings and "resonant" in rep.warnings[0]
    one = ParameterVector.of(1)
    cone, full = (top_cohomology_dim(c1, one, [1], S, 4)
                  for S in (ConeSupport(c1), FullSupport(1)))
    q = quasi_iso_check(cone, full)
    assert not q.surjective and not q.verdict


def test_quasi_iso_rejects_supports_that_are_not_nested():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    full = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 3)
    cone = top_cohomology_dim(tri, alpha, LAM3, ConeSupport(tri), 3)
    with pytest.raises(ValueError, match="not inside"):
        quasi_iso_check(full, cone)


def changed(rep: RankReport, **changes) -> RankReport:
    """A copy of a report with the given fields changed; ``top`` is kept
    unless given."""
    values = {name: getattr(rep, name) for name in RankReport.__slots__}
    values.update(changes)
    return RankReport(**values)


def test_quasi_iso_rejects_reports_that_do_not_compare():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    full = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 4)
    cone = top_cohomology_dim(tri, alpha, LAM3, ConeSupport(tri), 3)
    with pytest.raises(ValueError, match="bounds 3 and 4"):
        quasi_iso_check(cone, full)
    # at one bound, reports at another parameter or specialization are refused
    cone = changed(cone, bound=4)
    with pytest.raises(ValueError, match="different parameters"):
        quasi_iso_check(changed(cone, alpha=alpha.shift((1, 0))), full)
    with pytest.raises(ValueError, match="different specializations"):
        quasi_iso_check(changed(cone, lam=tuple(reversed(full.lam))), full)
    unstable = changed(full, dims=(1, 2))
    with pytest.raises(NotStabilizedError) as err:
        quasi_iso_check(cone, unstable)
    assert err.value.dims == (1, 2)
    # a report built by hand carries no window to compare
    with pytest.raises(ValueError, match="without its window"):
        quasi_iso_check(changed(full, top=None), full)


def test_rank_report_compares_and_prints_without_its_window():
    tri = builtin_config("trinomial")
    rep = top_cohomology_dim(tri, builtin_alpha("trinomial"), LAM3, FullSupport(2), 3)
    bare = changed(rep, top=None)
    assert rep.top is not None and bare.top is None
    assert bare == rep and repr(bare) == repr(rep)
    assert repr(rep).startswith("RankReport(complex_id='torus/Z^n', alpha=")
    assert "top=" not in repr(rep)
    assert changed(rep, dims=(1, 2)) != rep


def test_twist_invariance_of_dimension():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    base = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 4).dim
    for u in ((1, 0), (0, -1), (1, 1)):
        shifted = alpha.shift(u)
        got = top_cohomology_dim(tri, shifted, LAM3, FullSupport(2), 4)
        assert require_stabilized(got).dim == base, u


def test_relabeling_and_unimodular_invariance():
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    base = top_cohomology_dim(tri, alpha, LAM3, FullSupport(2), 4).dim

    swapped = validate_config([(1, 0), (1, 1), (1, -1)])
    alpha_sw = ParameterVector.of("1/5", "1/3")
    lam_sw = LAM3
    got = top_cohomology_dim(swapped, alpha_sw, lam_sw, FullSupport(2), 4).dim
    assert got == base

    Q = [[1, 1], [0, 1]]
    cfg_q, alpha_q = apply_unimodular(tri, alpha, Q)
    got = top_cohomology_dim(cfg_q, alpha_q, LAM3, FullSupport(2), 4).dim
    assert got == base


def test_generic_rank_builds_one_echelon(monkeypatch):
    # one specialization, the first draw of the seed's generator, on one
    # echelon; the normalized volume confirms it in place of a second one
    from gkzkit import window
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    built = []
    init = window.RationalEchelon.__init__

    def counting(self):
        built.append(self)
        init(self)
    monkeypatch.setattr(window.RationalEchelon, "__init__", counting)
    rep = generic_rank(tri, alpha, FullSupport(2), 4, seed=5)
    assert rep.stabilized and rep.dim == normalized_volume(tri) == 2
    assert rep.warnings == () and len(built) == 1
    assert rep.lam == window.random_specialization(random.Random(5), tri.N)


def test_generic_rank_other_than_the_volume_raises(monkeypatch):
    from gkzkit import window
    tri = builtin_config("trinomial")
    torus_report = window._torus_report

    def reads_three(*args):
        return changed(torus_report(*args), dims=(3, 3))
    monkeypatch.setattr(window, "_torus_report", reads_three)
    with pytest.raises(VolumeMismatchError) as err:
        generic_rank(tri, builtin_alpha("trinomial"), FullSupport(2), 4)
    assert (err.value.dims, err.value.bound, err.value.volume) == ((3, 3), 4, 2)


def test_require_volume_passes_the_volume_only():
    # trinomial has volume 2: a stabilized reading of 2 passes as it is,
    # any other stabilized reading raises, and an unstable one is not
    # stabilized, whatever it reads
    tri = builtin_config("trinomial")
    alpha = builtin_alpha("trinomial")
    rep = RankReport("torus/Z^n", alpha, tuple(LAM3), 4, (2, 2))
    assert require_volume(tri, rep) is rep
    for dim in (0, 1, 3, 4):
        with pytest.raises(VolumeMismatchError) as err:
            require_volume(tri, changed(rep, dims=(dim, dim)))
        assert (err.value.dims, err.value.volume, err.value.complex_id) == (
            (dim, dim), 2, "torus/Z^n")
    with pytest.raises(NotStabilizedError) as err:
        require_volume(tri, changed(rep, dims=(1, 2)))
    assert err.value.complex_id == "torus/Z^n"


RESONANT_GRID = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2),
                 Fraction(1, 3)]


@pytest.mark.parametrize("points, cases", [
    ([(1,), (2,)], 4),
    ([(0, 1), (1, 1), (-1, 1)], 18),
    ([(0, 1), (1, 1), (-1, 1), (2, 1)], 21),
    # N.A is not saturated; U0 is the saturated cone
    ([(-2, 2), (-1, 3), (2, 1)], 21),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 12),
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 12),
])
def test_resonant_u0_reads_the_volume(points, cases):
    # every resonant alpha of the grid (the first 12 in 3-D) through
    # generic_rank on U0, which holds it to the volume: the top cohomology
    # on the cone does not depend on alpha (Adolphson-Sperber)
    config = validate_config(points)
    grid = [ParameterVector(a) for a in itertools.product(RESONANT_GRID, repeat=config.n)]
    resonant = [a for a in grid if not is_nonresonant(config, a).nonresonant]
    if config.n == 3:
        resonant = resonant[:12]
    assert len(resonant) == cases
    for alpha in resonant:
        rep = generic_rank(config, alpha, ConeSupport(config), default_bound(config.n))
        assert rep.dim == normalized_volume(config) and rep.warnings, alpha


@st.composite
def plane_configs(draw):
    points = draw(st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                           min_size=3, max_size=4, unique=True))
    try:
        return validate_config(points)
    except GkzError:
        reject()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(config=plane_configs())
def test_generic_rank_is_the_volume_in_the_plane(config):
    # a primitive facet normal (f1, f2) takes an integer value on (1/7, 1/11)
    # only when 7 | f1 and 11 | f2, which no normal of these points does;
    # U0 is the saturated cone, so it reads the volume even where N.A is
    # not saturated
    alpha = ParameterVector.of("1/7", "1/11")
    full = generic_rank(config, alpha, FullSupport(2), 4)
    cone = generic_rank(config, alpha, ConeSupport(config), 4)
    assert full.dim == cone.dim == shoelace_volume(config.points), config.points
    assert quasi_iso_check(cone, full).verdict, config.points


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=plane_configs())
def test_ehrhart_volume_is_the_shoelace_volume_in_the_plane(config):
    assert ehrhart_volume(config.points) == shoelace_volume(config.points), config.points


PINNED_VOLUMES = [
    (builtin_config("gauss").points, 2),
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 2),
    ([(0, 1), (1, 1), (-1, 1), (2, 1)], 3),
    ([(1, 0), (0, 1), (2, 3)], 5),
    # N.A is not saturated; the volume counts the lattice points of Delta
    ([(-2, 2), (-1, 3), (2, 1)], 11),
    # the ConeSupport docstring's configuration, whose facets need the
    # normal coefficient 9
    ([(2, 1, 1), (-1, 2, 1), (2, 2, -1), (3, 2, -1), (-2, 1, 0)], 27),
]


@pytest.mark.parametrize("points, volume", PINNED_VOLUMES)
def test_ehrhart_volume_reads_the_pinned_volumes(points, volume):
    assert ehrhart_volume(points) == volume


@pytest.mark.parametrize("points, volume", PINNED_VOLUMES + [
    *((builtin_config(name).points, volume) for name, volume
      in (("single", 1), ("cusp", 2), ("bessel", 2), ("trinomial", 2))),
    # an uneven 3-D configuration, not a pyramid over a lattice polygon
    ([(-2, 2, 2), (-2, 1, -2), (2, 0, -2), (-2, -1, 1), (1, -1, -2)], 63),
])
def test_normalized_volume_is_the_ehrhart_volume(points, volume):
    assert normalized_volume(validate_config(points)) == ehrhart_volume(points) == volume


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=plane_configs())
def test_normalized_volume_is_the_shoelace_volume_in_the_plane(config):
    assert normalized_volume(config) == shoelace_volume(config.points), config.points


@pytest.mark.parametrize("points, volume", [
    # the window quotients at one lambda read 2, 5, 7, 8, 8 and 5, 10, 10
    # at B = 1, 2, ...; the oracle's facet search takes seconds here
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -2, -1, -3)], 8),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, -1, 1, -2),
      (-1, 2, -2, 1)], 10),
])
def test_normalized_volume_in_four_dimensions(points, volume):
    assert normalized_volume(validate_config(points)) == volume


@st.composite
def space_configs(draw):
    points = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * 3),
                           min_size=4, max_size=5, unique=True))
    try:
        return validate_config(points)
    except GkzError:
        reject()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(config=space_configs())
def test_generic_rank_is_the_volume_in_space(config):
    # each draw's time is capped by the facets of Delta: a draw whose
    # facets need a normal coefficient above 4 is not taken.  No cone
    # facet normal, with coefficients at most 4, takes an integer value on
    # (1/7, 1/11, 1/13); the bound is n + 1 = 4
    try:
        volume = ehrhart_volume(config.points, max_coeff_bound=4)
    except ValueError:
        reject()
    alpha = ParameterVector.of("1/7", "1/11", "1/13")
    full = generic_rank(config, alpha, FullSupport(3), 4)
    cone = generic_rank(config, alpha, ConeSupport(config), 4)
    assert full.dims == cone.dims == (volume, volume), config.points
    assert quasi_iso_check(cone, full).verdict, config.points


def test_not_stabilized_surfaces():
    rep = type("R", (), {})()
    bad = top_cohomology_dim(builtin_config("cusp"), builtin_alpha("cusp"),
                             [Fraction(3, 7), Fraction(5, 11)], FullSupport(1), 4)
    # healthy case stabilizes; force the error path through the helper
    require_stabilized(bad)
    from gkzkit.window import RankReport
    fake = RankReport("t", builtin_alpha("cusp"), (Fraction(1),), 3, (3, 4))
    with pytest.raises(NotStabilizedError) as err:
        require_stabilized(fake)
    assert err.value.dims == (3, 4)
