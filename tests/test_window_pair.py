"""The (B-1, B) window pair read off one scan and one elimination per
specialization gives the dimensions of the per-window path it replaced."""

import random
from fractions import Fraction

import pytest

from gkzkit.catalog import builtin_config
from gkzkit.complement import cohomology_U_dim
from gkzkit.lattice import ParameterVector, validate_config
from gkzkit.window import ConeSupport, FullSupport, top_cohomology_dim

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
