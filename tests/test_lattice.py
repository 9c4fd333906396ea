import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzkit.errors import DuplicatePointError, NotGeneratingError
from gkzkit.lattice import (ParameterVector, cone_facets, is_nonresonant,
                            newton_polytope, relation_lattice, validate_config)
from oracles import brute_facets, minor_gcd, residue_subgroup_covers


def test_validate_examples():
    cfg = validate_config([(1,)])
    assert (cfg.n, cfg.N) == (1, 1)
    with pytest.raises(NotGeneratingError) as err:
        validate_config([(2,)])
    assert err.value.index == 2
    cfg = validate_config([(1, 0), (0, 1), (1, 1)])
    assert cfg.N == 3
    with pytest.raises(DuplicatePointError):
        validate_config([(1, 0), (1, 0)])
    with pytest.raises(NotGeneratingError) as err:
        validate_config([(1, 1)])
    assert err.value.index == 0


def test_validation_agrees_with_brute_force():
    rng = random.Random(11)
    cases = [[(2, 0), (0, 2)]]
    for _ in range(200):
        n = rng.randint(1, 3)
        N = rng.randint(1, 4)
        points = []
        seen = set()
        for _ in range(N):
            while True:
                p = tuple(rng.randint(-3, 3) for _ in range(n))
                if p not in seen:
                    seen.add(p)
                    points.append(p)
                    break
        cases.append(points)
    for points in cases:
        g = minor_gcd(points)
        try:
            validate_config(points)
            generated = True
        except NotGeneratingError as err:
            generated = False
            # the index [Z^n : ZA], not one invariant factor of the points
            assert err.index == g
        assert generated == (g == 1)
        # residue closure must match the invariant-factor picture modulus by modulus
        if generated:
            for m in (2, 3, 4, 5):
                assert residue_subgroup_covers(points, m)


def test_relation_lattice_examples():
    assert relation_lattice(validate_config([(1,)])).basis == ()
    basis = relation_lattice(validate_config([(1,), (2,)])).basis
    assert basis == ((2, -1),)
    gauss = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    assert relation_lattice(gauss).basis == ((1, 1, -1, -1),)
    # a basis of rank 2 read off the Hermite form; the Smith form of the
    # earlier releases gave (1, -2, 0, 1), (2, -1, -1, 0) for the same lattice
    plane2 = validate_config([(0, 1), (1, 1), (-1, 1), (2, 1)])
    assert relation_lattice(plane2).basis == ((2, -1, -1, 0), (3, -3, -1, 1))


def test_relation_lattice_annihilates():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 3)
        N = rng.randint(n, n + 3)
        points = set()
        while len(points) < N:
            points.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        points = sorted(points)
        try:
            cfg = validate_config(points)
        except NotGeneratingError:
            continue
        lattice = relation_lattice(cfg)
        assert lattice.rank == cfg.N - cfg.n
        for l in lattice.basis:
            for i in range(cfg.n):
                assert sum(l[j] * cfg.points[j][i] for j in range(cfg.N)) == 0


def test_cone_facets_examples():
    assert [f.coeffs for f in cone_facets(validate_config([(1,)]))] == [(1,)]
    assert cone_facets(validate_config([(1,), (-1,)])) == ()
    facets = {f.coeffs for f in cone_facets(validate_config([(0, 1), (1, 1), (-1, 1)]))}
    assert facets == {(-1, 1), (1, 1)}


def test_cone_facets_against_box_oracle():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        N = rng.randint(n, n + 2)
        points = set()
        while len(points) < N:
            points.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        points = sorted(points)
        try:
            cfg = validate_config(points)
        except NotGeneratingError:
            continue
        got = {f.coeffs for f in cone_facets(cfg)}
        want = brute_facets(points, 18)
        assert got == want, (points, got, want)


def test_facets_nonnegative_on_points_and_primitive():
    cfg = validate_config([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    from math import gcd
    for form in cone_facets(cfg):
        g = 0
        for c in form.coeffs:
            g = gcd(g, abs(c))
        assert g == 1
        for p in cfg.points:
            assert form.evaluate(p) >= 0
    # an interior point evaluates nonnegatively as well
    interior = tuple(sum(p[i] for p in cfg.points) for i in range(cfg.n))
    for form in cone_facets(cfg):
        assert form.evaluate(interior) >= 0


def test_newton_polytope_cache_hits_an_equal_config_built_separately():
    points = [(0, 1), (1, 1), (-1, 1), (2, 1)]
    first = newton_polytope(validate_config(points))
    hits = newton_polytope.cache_info().hits
    assert newton_polytope(validate_config(points)) is first
    assert newton_polytope.cache_info().hits == hits + 1


def test_is_nonresonant_examples():
    c1 = validate_config([(1,)])
    assert is_nonresonant(c1, ParameterVector.of("1/2")).nonresonant
    verdict = is_nonresonant(c1, ParameterVector.of(3))
    assert not verdict.nonresonant
    form, value = verdict.witness
    assert (form.coeffs, value) == ((1,), 3)

    c3 = validate_config([(0, 1), (1, 1), (-1, 1)])
    verdict = is_nonresonant(c3, ParameterVector.of("1/3", "1/5"))
    assert verdict.nonresonant and not verdict.vacuous

    bessel = validate_config([(1,), (-1,)])
    verdict = is_nonresonant(bessel, ParameterVector.of("7/2"))
    assert verdict.nonresonant and verdict.vacuous


@settings(max_examples=60, deadline=None)
@given(num=st.integers(-40, 40), den=st.integers(1, 12),
       shift=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_nonresonance_shift_invariance(num, den, shift):
    cfg = validate_config([(0, 1), (1, 1), (-1, 1)])
    alpha = ParameterVector((Fraction(num, den), Fraction(den, max(num, 1) + 41)))
    shifted = alpha.shift(shift)
    assert (is_nonresonant(cfg, alpha).nonresonant
            == is_nonresonant(cfg, shifted).nonresonant)
