"""The (B-1, B) window pair read off one scan and one elimination per
specialization gives the dimensions of the per-window path it replaced, and
each support scans only its own box."""

import random
from fractions import Fraction

import pytest

from gkzkit.catalog import builtin_config
from gkzkit.complement import cohomology_U_dim
from gkzkit.errors import NotGeneratingError
from gkzkit.lattice import (NewtonPolytope, ParameterVector, newton_polytope,
                            normalized_volume, validate_config)
from gkzkit.window import (CohomologyWindow, ConeSupport, FullSupport, top_cohomology_dim,
                           window_pair)

from oracles import torus_window_dims, u_window_dims

UNEVEN = [(-2, 2, 2), (-2, 1, -2), (2, 0, -2), (-2, -1, 1), (1, -1, -2)]

# points, the largest bound, and whether the complement side applies (the
# gauss points reach it by a unimodular change of coordinates)
CASES = {
    "gauss": (builtin_config("gauss").points, 4, True),
    "pyramid": ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], 4, True),
    "plane2": ([(0, 1), (1, 1), (-1, 1), (2, 1)], 5, True),
    "trinomial": (builtin_config("trinomial").points, 5, True),
    "not saturated": ([(-2, 2), (-1, 3), (2, 1)], 4, False),
    "volume 5": ([(1, 0), (0, 1), (2, 3)], 4, False),
    "uneven": (UNEVEN, 4, False),
}

ALPHAS = {"nonresonant": ("1/3", "1/5", "1/7"), "resonant": (1, 1, 1)}


def lambdas(count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """One integer specialization and one whose denominators are not 1."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(1, 9)) for _ in range(count)),
            tuple(Fraction(rng.randint(1, 40), rng.randint(2, 40)) for _ in range(count))]


@pytest.mark.parametrize("alpha_kind", sorted(ALPHAS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_window_pair_dims_match_the_per_window_oracle(name, alpha_kind):
    points, top, hypersurface = CASES[name]
    config = validate_config(points)
    alpha = ParameterVector.of(*ALPHAS[alpha_kind][:config.n])
    for lam in lambdas(config.N, len(points)):
        for bound in range(1, top + 1):
            for support in (FullSupport(config.n), ConeSupport(config)):
                got = top_cohomology_dim(config, alpha, lam, support, bound).dims
                want = torus_window_dims(config, alpha, lam, support, bound)
                assert got == want, (support.name, lam, bound)
            if hypersurface:
                got = cohomology_U_dim(config, alpha, lam, bound).dims
                assert got == u_window_dims(config, alpha, lam, bound), ("U", lam, bound)


def plane_draws(count: int, seed: int) -> list:
    """Configurations of 4 or 5 distinct points in [-2, 2]^2 x {1} that
    generate the lattice, each with a specialization."""
    rng = random.Random(seed)
    plane = [(x, y, 1) for x in range(-2, 3) for y in range(-2, 3)]
    draws = []
    while len(draws) < count:
        try:
            config = validate_config(rng.sample(plane, rng.randint(4, 5)))
        except NotGeneratingError:
            continue
        draws.append((config, [Fraction(rng.randint(1, 30), rng.randint(1, 30))
                               for _ in config.points]))
    return draws


def test_u_dims_match_the_per_window_oracle_on_seeded_draws():
    # the g-relations span the kernel of u -> x'^{u'} / g^m in every window
    # the numerators rank; at bound 3 every draw reads its volume (4 to 20)
    alpha = ParameterVector.of("1/3", "1/5", "1/7")
    for config, lam in plane_draws(20, 31):
        for bound in (2, 3):
            got = cohomology_U_dim(config, alpha, lam, bound).dims
            assert got == u_window_dims(config, alpha, lam, bound), (config.points, bound)
        assert got == (normalized_volume(config),) * 2, config.points


PYRAMID = CASES["pyramid"][0]


def counting(monkeypatch, owner, name: str) -> list:
    """Count the calls of owner.name, through its module or class binding."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("points, polytope_tests, cone_tests", [
    # the box of B Delta: [0, 4]^2 x [-4, 4] for gauss, [0, 4]^3 for the
    # pyramid; then 55 tests filter the B-1 window out of the B one.  The
    # sup-norm box of radius 4 made 9^3 + 55 = 784 tests and 91 cone tests.
    (builtin_config("gauss").points, 5 * 5 * 9 + 55, 71),
    (PYRAMID, 5 ** 3 + 55, 70),
])
def test_cone_window_pair_scans_the_box_of_b_delta(monkeypatch, points,
                                                   polytope_tests, cone_tests):
    config = validate_config(points)
    polytope = counting(monkeypatch, NewtonPolytope, "contains")
    cone = counting(monkeypatch, ConeSupport, "contains")
    small, top = window_pair(config, ConeSupport(config), 4)
    assert (len(small.points), len(top.points)) == (30, 55)
    assert (len(polytope), len(cone)) == (polytope_tests, cone_tests)


@pytest.mark.parametrize("name, bound", [("gauss", 2), ("trinomial", 3)])
def test_full_window_scans_the_sup_norm_box(monkeypatch, name, bound):
    config = builtin_config(name)
    polytope = counting(monkeypatch, NewtonPolytope, "contains")
    CohomologyWindow(config, FullSupport(config.n), bound)
    assert len(polytope) == (2 * bound * newton_polytope(config).radius + 1) ** config.n
