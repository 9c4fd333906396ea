import itertools
import json
import pathlib
import random
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest

from gkzkit import modp
from gkzkit.catalog import BUILTIN_POINTS, builtin_alpha, builtin_config
from gkzkit.errors import NotGeneratingError, ResonantError, SkippedPrimeError
from gkzkit.intmat import matvec
from gkzkit.lattice import (ParameterVector, apply_unimodular, relation_lattice,
                            validate_config)
from gkzkit.linalg import ModpEchelon
from gkzkit.modp import (full_set_sweep, make_instance, modp_solution_dim,
                         recurrence_rows, solution_support)
from gkzkit.weyl import box_operator
from oracles import (all_recurrence_rows, apply_box_to_lambda_poly,
                     falling_product, lattice_points_in_box,
                     modp_recurrence_dim, relation_scan_killed_fibers)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PLANE2 = [(0, 1), (1, 1), (-1, 1), (2, 1)]
PYRAMID = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def rank_modp(rows, p):
    ech = ModpEchelon(p)
    for row in rows:
        ech.insert(row)
    return ech.rank


def all_rows_dim(inst, support, relations=None):
    """Nullspace dimension of every row of every relation on the support."""
    rows = all_recurrence_rows(inst, support, relations)
    return len(support) - rank_modp(rows, inst.p)


def random_configs(count, seed=8):
    """Configurations with n <= 3 and N - n <= 2 that generate Z^n, drawn
    from a fixed seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        points = {tuple(rng.randint(-2, 2) for _ in range(n))
                  for _ in range(n + rng.randint(1, 2))}
        points.discard((0,) * n)
        try:
            out.append(validate_config(sorted(points)))
        except (NotGeneratingError, ValueError):
            continue
    return out


def random_alpha(rng, n, p):
    """A parameter whose denominators avoid p."""
    dens = [d for d in (2, 3, 5, 7, 11, 13) if d != p]
    return ParameterVector.of(*(Fraction(rng.randint(1, 12), rng.choice(dens))
                                for _ in range(n)))


def test_solution_support_examples():
    c1 = validate_config([(1,)])
    inst = make_instance(c1, ParameterVector.of("1/2"), 5)
    assert solution_support(inst) == [(3,)]
    inst = make_instance(c1, ParameterVector.of(0), 5)
    assert solution_support(inst) == [(0,)]
    c2 = validate_config([(1, 0), (0, 1)])
    inst = make_instance(c2, ParameterVector.of("1/2", "1/3"), 7)
    assert solution_support(inst) == [(4, 5)]

    # brute scan of [0, p)^N for the congruence A v = alpha mod p
    configs = dict(BUILTIN_POINTS, plane2=PLANE2)
    for name, points in configs.items():
        cfg = validate_config(points)
        alphas = [ParameterVector.of(*(Fraction(i + 1, 11) for i in range(cfg.n)))]
        if name in BUILTIN_POINTS:
            alphas.append(builtin_alpha(name))
        for alpha, p in itertools.product(alphas, (2, 3, 5, 7)):
            try:
                inst = make_instance(cfg, alpha, p)
            except SkippedPrimeError:
                continue
            want = [v for v in itertools.product(range(p), repeat=cfg.N)
                    if all(sum(vj * a[i] for vj, a in zip(v, points)) % p == b
                           for i, b in enumerate(inst.alpha_bar))]
            assert solution_support(inst) == want, (name, alpha, p)


def test_support_size_is_prime_power():
    bessel = builtin_config("bessel")
    for p in (3, 5, 7):
        inst = make_instance(bessel, ParameterVector.of("1/2"), p)
        assert len(solution_support(inst)) == p ** (bessel.N - bessel.n)


def test_make_instance_skips_bad_primes():
    c1 = validate_config([(1,)])
    with pytest.raises(SkippedPrimeError):
        make_instance(c1, ParameterVector.of("1/2"), 2)
    for modulus in (-3, 0, 1, 4, 9, 15, 25, 49):
        with pytest.raises(ValueError, match="must be a prime"):
            make_instance(c1, ParameterVector.of("1/2"), modulus)


def test_lattice_points_in_box_match_brute_scan():
    for points in (BUILTIN_POINTS["gauss"], BUILTIN_POINTS["trinomial"], PLANE2):
        cfg = validate_config(points)
        lattice = relation_lattice(cfg)
        for b in range(4):
            brute = {v for v in itertools.product(range(-b, b + 1), repeat=cfg.N)
                     if any(v) and all(sum(vj * a[i] for vj, a in zip(v, points)) == 0
                                       for i in range(cfg.n))}
            got = lattice_points_in_box(lattice, b)
            assert len(got) * 2 == len(brute), (points, b)
            assert set(got) | {tuple(-x for x in l) for l in got} == brute


def test_forced_dimension_single_point():
    c1 = validate_config([(1,)])
    for alpha in ("1/2", "1/3", "2/5"):
        pv = ParameterVector.of(alpha)
        den = Fraction(alpha).denominator
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if den % p == 0:
                continue
            inst = make_instance(c1, pv, p)
            assert modp_solution_dim(inst) == 1, (alpha, p)
    inst = make_instance(c1, ParameterVector.of("1/2"), 5)
    assert all_rows_dim(inst, []) == 0
    assert recurrence_rows(inst, []) == []


def test_bessel_dimensions_match_oracle_and_fixture():
    bessel = builtin_config("bessel")
    fixture = json.loads((FIXTURES / "bessel_modp.json").read_text())
    basis = [tuple(l) for l in relation_lattice(bessel).basis]
    pv = ParameterVector.of("1/2")
    for row in fixture["dims"]:
        p = row["p"]
        inst = make_instance(bessel, pv, p)
        got = modp_solution_dim(inst)
        abar = inst.alpha_bar
        oracle = modp_recurrence_dim(list(bessel.points), basis, abar, p)
        assert got == oracle == row["dim"], p
        assert got <= fixture["rank"]


def test_recurrence_rows_match_weyl_oracle():
    # applying the box operator to a fully symbolic sum over the support and
    # matching coefficients reproduces the recurrence rows
    bessel = builtin_config("bessel")
    p = 5
    inst = make_instance(bessel, ParameterVector.of("1/2"), p)
    support = solution_support(inst)
    box = box_operator(bessel, (1, 1))
    rows = all_recurrence_rows(inst, support, relations=[(1, 1)])
    # oracle: separately apply the box to each basis monomial and read off
    # the column of each coefficient mod p
    by_w = {}
    for v in support:
        image = apply_box_to_lambda_poly(box.terms, {v: Fraction(1)})
        for w, c in image.items():
            num = c.numerator * pow(c.denominator, -1, p) % p
            if num:
                by_w.setdefault(w, {})[v] = num
    want = {tuple(sorted(row.items())) for row in by_w.values()}
    got = {tuple(sorted(row.items())) for row in rows}
    # rows are defined up to scaling; compare after normalizing leading 1
    def normalize(rowset):
        out = set()
        for row in rowset:
            row = dict(row)
            lead = min(row)
            inv = pow(row[lead], -1, p)
            out.add(tuple(sorted((k, (inv * v) % p) for k, v in row.items())))
        return out
    assert normalize(got) == normalize(want)


def test_box_restriction_no_information_loss():
    # appending a p-shifted copy of the support never increases the dimension
    bessel = builtin_config("bessel")
    for p in (3, 5, 7):
        inst = make_instance(bessel, ParameterVector.of("1/2"), p)
        base = solution_support(inst)
        d0 = all_rows_dim(inst, base)
        for j in range(bessel.N):
            shifted = [tuple(v[k] + (p if k == j else 0) for k in range(bessel.N))
                       for v in base]
            extended = sorted(set(base) | set(shifted))
            d1 = all_rows_dim(inst, extended)
            assert d1 <= d0, (p, j)


def normalized(rows, p):
    """Each row scaled to coefficient 1 at its smallest exponent."""
    out = set()
    for row in rows:
        inv = pow(row[min(row)], -1, p)
        out.add(tuple(sorted((k, (inv * c) % p) for k, c in row.items())))
    return out


def test_recurrence_rows_span_all_rows():
    # the fiber rows are rows of the full system, up to a nonzero scalar,
    # and they span it: their rank is that of the full system and of the union
    rng = random.Random(3)
    cases = [(validate_config(PLANE2), ParameterVector.of("1/3", "1/5"), 7),
             (builtin_config("gauss"), builtin_alpha("gauss"), 7)]
    for cfg in random_configs(12, seed=5):
        p = rng.choice([3, 5, 7])
        cases.append((cfg, random_alpha(rng, cfg.n, p), p))
    for cfg, alpha, p in cases:
        inst = make_instance(cfg, alpha, p)
        support = solution_support(inst)
        rows = recurrence_rows(inst, support)
        oracle = all_recurrence_rows(inst, support)
        assert len(rows) <= len(support)
        assert normalized(rows, p) <= normalized(oracle, p), (cfg.points, p)
        rank = rank_modp(rows, p)
        assert rank == rank_modp(oracle, p) == rank_modp(rows + oracle, p), (
            cfg.points, p)


def fiber_rows(inst, support, killed):
    """The rows recurrence_rows must emit, fiber by fiber in support order:
    a chain row for each pair of consecutive members, with the falling
    factorials (w+1)...(x) of w = min(x, y), then {v: 1} for the killed
    member v of a fiber that leaks."""
    p = inst.p
    matrix = inst.config.matrix()
    fibers = {}
    for v in support:
        fibers.setdefault(tuple(matvec(matrix, v)), []).append(v)

    def ratio(w, x):
        return prod(falling_product(a, b - a, p) for a, b in zip(w, x)) % p

    rows = []
    for key, members in fibers.items():
        for x, y in zip(members, members[1:]):
            w = tuple(map(min, x, y))
            rows.append({x: ratio(w, x), y: -ratio(w, y) % p})
        if key in killed:
            rows.append({killed[key]: 1})
    return rows


def test_lifted_fibers_kill_what_the_relation_scan_kills():
    # the lift of fibers by p finds a leaking member exactly when shifting
    # every member by every relation of sup norm below p does, and the row
    # names the member the scan finds first
    rng = random.Random(14)
    plane2 = validate_config(PLANE2)
    trinomial = builtin_config("trinomial")
    cases = [(plane2, ParameterVector.of("2/3", "-1/5"), p) for p in (17, 19, 23, 47)]
    cases += [(trinomial, builtin_alpha("trinomial"), p) for p in (29, 31, 37, 41, 43)]
    cases += [(builtin_config("bessel"), builtin_alpha("bessel"), p)
              for p in (3, 5, 7, 11, 13)]
    cases += [(validate_config(PYRAMID), ParameterVector.of("1/2", "1/3", "1/5"), p)
              for p in (7, 11, 13)]
    cases.append((validate_config([(1,), (5,)]), ParameterVector.of("1/2"), 3))
    for cfg in random_configs(12, seed=14):
        for p in (3, 5, 7, 11):
            cases.append((cfg, random_alpha(rng, cfg.n, p), p))
    kills = 0
    for cfg, alpha, p in cases:
        inst = make_instance(cfg, alpha, p)
        support = solution_support(inst)
        killed = relation_scan_killed_fibers(inst, support)
        assert recurrence_rows(inst, support) == fiber_rows(inst, support, killed), (
            cfg.points, alpha, p)
        kills += len(killed)
    assert kills > len(cases)


def test_modp_dim_matches_dense_oracle():
    rng = random.Random(11)
    configs = [builtin_config(name) for name in BUILTIN_POINTS]
    configs += [validate_config(PLANE2), validate_config(PYRAMID)]
    configs += random_configs(20)
    checked = 0
    for cfg in configs:
        basis = [tuple(l) for l in relation_lattice(cfg).basis]
        for p in (3, 5, 7, 11):
            # the dense oracle scans [0, p)^N once per relation
            if p ** cfg.N * (2 * p - 1) ** len(basis) > 400_000:
                continue
            inst = make_instance(cfg, random_alpha(rng, cfg.n, p), p)
            want = modp_recurrence_dim(list(cfg.points), basis, inst.alpha_bar, p)
            assert modp_solution_dim(inst) == want, (cfg.points, inst.alpha, p)
            checked += 1
    assert checked >= 60
    plane2 = validate_config(PLANE2)
    for p in (17, 19, 23):
        inst = make_instance(plane2, ParameterVector.of("2/3", "-1/5"), p)
        want = all_rows_dim(inst, solution_support(inst))
        assert modp_solution_dim(inst) == want, p


def test_long_relations_leave_dimension_unchanged():
    # relations with an entry of magnitude >= p give nonzero single-entry
    # rows, yet adding them does not change these dimensions.  With bound
    # N p every such row is present: bessel's relations beyond p repeat the
    # rows of (p, p), and on trinomial and plane2 (all points at height 1) a
    # relation with a row on the box has |l| <= (N - 1)(p - 1).
    cases = [(builtin_config("bessel"), builtin_alpha("bessel")),
             (builtin_config("trinomial"), builtin_alpha("trinomial")),
             (validate_config(PLANE2), ParameterVector.of("1/3", "1/5"))]
    for (cfg, alpha), p in itertools.product(cases, (7, 11, 13)):
        inst = make_instance(cfg, alpha, p)
        support = solution_support(inst)
        lattice = relation_lattice(cfg)
        long = [l for l in lattice_points_in_box(lattice, cfg.N * p)
                if max(map(abs, l)) >= p]
        assert any(all_recurrence_rows(inst, support, long)), (cfg.points, p)
        full = lattice_points_in_box(lattice, cfg.N * p)
        assert all_rows_dim(inst, support, full) == modp_solution_dim(inst), (
            cfg.points, p)
    # the invariance is not general: on [(1,), (5,)] the relation (-5, 1)
    # kills coefficients that no relation inside the box reaches
    cfg = validate_config([(1,), (5,)])
    inst = make_instance(cfg, ParameterVector.of("1/2"), 3)
    full = lattice_points_in_box(relation_lattice(cfg), 6 * 3)
    assert modp_solution_dim(inst) == 3
    assert all_rows_dim(inst, solution_support(inst), full) == 1


def test_invariance_under_permutation_and_unimodular():
    tri = builtin_config("trinomial")
    pv = ParameterVector.of("1/3", "1/5")
    perm = validate_config([(1, 1), (-1, 1), (0, 1)])
    for p in (7, 11):
        d = modp_solution_dim(make_instance(tri, pv, p))
        d_perm = modp_solution_dim(make_instance(perm, pv, p))
        assert d == d_perm
    # the shear changes denominators, so avoid primes dividing them
    Q = [[1, 1], [0, 1]]
    cfg_q, pv_q = apply_unimodular(tri, pv, Q)
    for p in (7, 11):
        d = modp_solution_dim(make_instance(tri, pv, p))
        d_q = modp_solution_dim(make_instance(cfg_q, pv_q, p))
        assert d == d_q


def test_full_set_sweep_reports():
    c1 = validate_config([(1,)])
    rep = full_set_sweep(c1, ParameterVector.of("1/2"),
                         [2, 3, 5, 7, 11, 13, 17, 19, 23])
    assert rep.rank == 1
    assert [r.p for r in rep.primes] == [3, 5, 7, 11, 13, 17, 19, 23]
    assert all(r.full and r.dim == 1 for r in rep.primes)
    assert rep.skipped == [(2, "2 divides the denominator of 1/2")]
    assert rep.verdict == "full for all tested good primes"

    rep = full_set_sweep(c1, ParameterVector.of("1/3"), [5, 7, 11, 13])
    assert all(r.full for r in rep.primes)

    bessel = builtin_config("bessel")
    rep = full_set_sweep(bessel, ParameterVector.of("1/2"),
                         [3, 5, 7, 11, 13, 17, 19, 23])
    assert rep.rank == 2
    assert all(r.dim <= 2 for r in rep.primes)
    assert rep.verdict.startswith("not full at")


def test_full_set_sweep_default_bound_follows_the_dimension(monkeypatch):
    # without a bound the sweep reads the rank where gkz modp does, at
    # max(4, n + 1): at bound 4 the four-dimensional pair reads 7, 8
    bounds = []

    def recording(config, alpha, support, bound, seed=0):
        bounds.append(bound)
        return SimpleNamespace(dim=8)
    monkeypatch.setattr(modp, "generic_rank", recording)
    four = validate_config([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                            (-1, -2, -1, -3)])
    full_set_sweep(four, ParameterVector.of("1/2", "1/3", "1/5", "1/7"), [11])
    full_set_sweep(builtin_config("trinomial"), builtin_alpha("trinomial"), [7])
    full_set_sweep(builtin_config("trinomial"), builtin_alpha("trinomial"), [7], bound=2)
    assert bounds == [5, 4, 2]


def test_full_set_sweep_needs_a_tested_prime():
    c1 = validate_config([(1,)])
    with pytest.raises(ValueError, match="prime list is empty"):
        full_set_sweep(c1, ParameterVector.of("1/6"), [])
    rep = full_set_sweep(c1, ParameterVector.of("1/6"), [2, 3])
    assert rep.primes == []
    assert [p for p, _ in rep.skipped] == [2, 3]
    assert rep.verdict == "no good prime tested"


def test_resonant_refused():
    c1 = validate_config([(1,)])
    with pytest.raises(ResonantError):
        full_set_sweep(c1, ParameterVector.of(3), [3, 5])


def test_dimension_never_exceeds_rank():
    for name, alpha in (("single", ("1/2",)), ("cusp", ("1/2",)),
                        ("trinomial", ("1/3", "1/5"))):
        cfg = builtin_config(name)
        pv = ParameterVector.of(*alpha)
        rep = full_set_sweep(cfg, pv, [3, 5, 7])
        for r in rep.primes:
            assert r.dim <= rep.rank
