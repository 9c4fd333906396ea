"""The truncated top cohomology on the complement of a hypersurface g = 0.

For points of last coordinate 1 (after a unimodular change of coordinates
where one exists), f = x_n g.  Window elements over powers of g are read as
numerators over one power, ranked against the generators of ``window``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import StructureError
from .intmat import complete_primitive_vector, matvec, solve_integer
from .lattice import ParameterVector, PointConfig, validate_config
from .laurent import LaurentPoly, _add_scaled, build_f, int_if_integral

if TYPE_CHECKING:
    from .window import RankReport

IntVec = tuple[int, ...]


def check_structure(config: PointConfig) -> None:
    """Require last coordinate identically 1 on the configuration."""
    if any(p[-1] != 1 for p in config.points):
        raise StructureError("configuration does not have constant last coordinate 1")


def find_unimodular_normalizer(config: PointConfig) -> list[list[int]] | None:
    """A unimodular matrix Q with <last row of Q, a(j)> = 1 for every point,
    or None when no such lattice functional exists."""
    mat = [list(p) for p in config.points]  # N x n
    w = solve_integer(mat, [1] * config.N)
    if w is None:
        return None
    return complete_primitive_vector(w)


def apply_unimodular(config: PointConfig, alpha: ParameterVector,
                     Q: list[list[int]]) -> tuple[PointConfig, ParameterVector]:
    """Transform points and parameter together by the unimodular matrix Q."""
    new_points = [tuple(matvec(Q, list(p))) for p in config.points]
    new_alpha = ParameterVector(tuple(
        sum(Fraction(Q[i][k]) * alpha.entries[k] for k in range(config.n))
        for i in range(config.n)))
    return validate_config(new_points), new_alpha


def normalize_structure(config: PointConfig, alpha: ParameterVector
                        ) -> tuple[PointConfig, ParameterVector, bool]:
    """Return an equivalent configuration with last coordinate 1.

    Searches for a unimodular change of coordinates when the raw
    configuration fails the syntactic test; the flag reports whether a
    change was applied.
    """
    if all(p[-1] == 1 for p in config.points):
        return config, alpha, False
    Q = find_unimodular_normalizer(config)
    if Q is None:
        raise StructureError(
            "no lattice functional takes value 1 on every point")
    new_config, new_alpha = apply_unimodular(config, alpha, Q)
    check_structure(new_config)
    return new_config, new_alpha, True


def build_g(config: PointConfig, lam: Sequence) -> LaurentPoly:
    """Drop the last coordinate: the polynomial whose x_n-multiple is f.
    The points are distinct and all end in 1, so the keys stay distinct."""
    check_structure(config)
    f = build_f(config, lam)
    return LaurentPoly._of(config.n - 1, {u[:-1]: c for u, c in f.terms.items()})


def _powers(g: LaurentPoly, top: int) -> list[LaurentPoly]:
    """g^0, g^1, ..., g^top."""
    pows = [LaurentPoly.one(g.n)]
    for _ in range(top):
        pows.append(pows[-1] * g)
    return pows


def _cleared(g: LaurentPoly) -> tuple[int, LaurentPoly]:
    """c and the integral G = c g, for c the lcm of the denominators of g."""
    c = math.lcm(*(v.denominator for v in g.terms.values()))
    return c, LaurentPoly._of(g.n, {w: int_if_integral(v * c) for w, v in g.terms.items()})


def cohomology_U_dim(config: PointConfig, alpha: ParameterVector,
                     lam: Sequence, bound: int) -> RankReport:
    """Truncated dimension of the top cohomology on the complement of g = 0.

    Requires the last-coordinate structure (a unimodular normalization is
    applied automatically when available).  A last parameter entry that is a
    nonpositive integer is shifted to 1 beforehand; the shift is an
    isomorphism of the complex, so dimensions are unaffected.  As on the
    torus, lam needs one nonzero entry per point.

    The window elements are x'^{u'} / g^m for u = (u', m) in the window,
    m >= 0, read as numerators over the bound-B window's g^M in both
    windows: multiplying by a power of g is injective, as Laurent
    polynomials have no zero divisors, so the B-1 ranks are those over its
    own power.  With G = c g integral, the numerator c^m G^(M-m) x'^{u'} is
    c^M g^(M-m) x'^{u'}, one scale for all.  As D_n acts as the identity
    g / g^{m+1} = 1 / g^m, a generator is that of ``window_generators`` at
    u with each entry off u's own column scaled by -(m + alpha_n); with
    alpha_n = a / e, both scales are multiplied by e, so rows are integral.
    The quotient is the rank of the numerators minus that of the
    generators, each echelon read after the B-1 rows and after the rest.
    """
    # imported here, so the identity battery, which uses only the helpers
    # above, loads neither
    from .linalg import RationalEchelon
    from .window import (HalfSupport, RankReport, specialization, window_generators,
                         window_pair)

    lam = specialization(config, lam)
    warnings = []
    config, alpha, changed = normalize_structure(config, alpha)
    if changed:
        warnings.append("applied unimodular change of coordinates")
    alpha_n = alpha.entries[-1]
    if alpha_n.denominator == 1 and alpha_n < 1:
        shift = (0,) * (config.n - 1) + (int(1 - alpha_n),)
        alpha = alpha.shift(shift)
        warnings.append(f"pre-twisted last parameter entry by {shift[-1]}")
    windows = small, win = window_pair(config, HalfSupport(config.n), bound)
    a, e = alpha.entries[-1].as_integer_ratio()
    points = win.points
    M = max((pt[-1] for pt in points), default=0)
    c, G = _cleared(build_g(config, lam))
    G_pows = _powers(G, M)
    nums = [G_pows[M - pt[-1]].scalar_mul(c ** pt[-1]).shift(pt[:-1]) for pt in points]
    span_ech, gen_ech = RationalEchelon(), RationalEchelon()
    dims = []
    for cols, gens in zip(([win.index[u] for u in small.points],
                           [k for k, u in enumerate(points) if u not in small.index]),
                          window_generators(windows, alpha, lam)):
        for col in cols:
            span_ech.insert(nums[col].terms)
        for col, vec in gens:
            scale = -(points[col][-1] * e + a)
            out: dict[IntVec, int] = {}
            for key, coeff in vec.items():
                _add_scaled(out, nums[key], coeff * (e if key == col else scale))
            gen_ech.insert(out)
        dims.append(span_ech.rank - gen_ech.rank)
    return RankReport("U", alpha, lam, bound, tuple(dims), tuple(warnings))
