"""The truncated top cohomology on the complement of a hypersurface g = 0.

For points of last coordinate 1 (after a unimodular change of coordinates
where one exists), f = x_n g.  The window elements x'^{u'} / g^m rank as
the torus window of the half space m >= 0 does (``window``), with no power
of g: the comparison map's rising factorials carry one onto the other.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import StructureError
from .intmat import complete_primitive_vector, matvec, solve_integer
from .lattice import ParameterVector, PointConfig, validate_config

if TYPE_CHECKING:
    from .window import RankReport


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


def cohomology_U_dim(config: PointConfig, alpha: ParameterVector,
                     lam: Sequence, bound: int) -> RankReport:
    """Truncated dimension of the top cohomology on the complement of g = 0.

    Requires the last-coordinate structure (a unimodular normalization is
    applied automatically when available).  A last parameter entry that is a
    nonpositive integer is shifted to 1 beforehand; the shift is an
    isomorphism of the complex, so dimensions are unaffected.  As on the
    torus, lam needs one nonzero entry per point.

    The window elements are x'^{u'} / g^m for u = (u', m) in the window of
    the half space m >= 0.  As D_n acts as the identity g / g^{m+1} =
    1 / g^m, a generator is that of ``window_generators`` at u with each
    entry off u's own column scaled by -(m + alpha_n).  Every a_j ends in 1,
    so those entries lie at level m + 1, and scaling the columns of level m
    by (-1)^m / (alpha_n)_m, the inverse of the comparison map's weight
    (``hypersurface.ComplementTables``; nonzero after the pre-twist), makes
    each generator that of the torus at u.  So the generators have the rank
    of the torus window pair of the half space, read by the torus's one
    echelon (``window._torus_report``) as |window| - rank.

    That reading takes the x'^{u'} / g^m as independent.  Between them the
    relations g x'^{u'} / g^{m+1} = x'^{u'} / g^m, i.e. e_u - sum_j
    lambda_j e_{u+a_j}, hold wherever every u + a_j lies in the window, and
    each is the generator of D_n at u divided by m + alpha_n, so it adds
    nothing.  A relation outside their span, or a special lam, at which the
    generators' rank (polynomial entries in lam) can only drop, could only
    make the reading an over-count.  At a random lam and a nonresonant
    alpha the rank is the normalized volume, and ``rank --hypersurface``
    checks it (``window.require_volume``).
    """
    # imported here, so the identity battery, which uses only the
    # normalization above, loads no window code
    from .window import HalfSupport, RankReport, _torus_report, specialization, window_pair

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
    torus = _torus_report(alpha, lam, window_pair(config, HalfSupport(config.n), bound), ())
    return RankReport("U", alpha, lam, bound, torus.dims, tuple(warnings))
