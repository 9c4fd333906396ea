"""Newton windows and the truncated top-cohomology ranks read off them.

A support is the set of exponents cut out by facet inequalities (Z^n, the
half space, the saturated cone U0).  The rank of the twisted complex on the
torus is the dimension of a window's monomials modulo the images of the
twisted derivations that stay inside it, by exact linear algebra at two
consecutive bounds; a failure to stabilize is an explicit outcome, and so
is a generic rank that is not the normalized volume.  The rank on the
complement U of a hypersurface g = 0 is read on the torus window of the
half space (``cohomology_U_dim``).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import NotStabilizedError, VolumeMismatchError
from .intmat import integer_kernel
from .lattice import (FacetForm, NewtonPolytope, ParameterVector, PointConfig,
                      is_nonresonant, newton_polytope, normalize_structure,
                      normalized_volume)
from .linalg import RationalEchelon

IntVec = tuple[int, ...]


class Support:
    """The exponents u with f(u) >= 0 for every form f: the monomials a
    module is allowed to use, cut out by facet inequalities."""

    def __init__(self, name: str, forms: Sequence[FacetForm]):
        self.name = name
        self.forms = tuple(forms)

    def contains(self, u: Sequence[int]) -> bool:
        return all(f.evaluate(u) >= 0 for f in self.forms)

    def scan(self, polytope: NewtonPolytope, bound: int) -> list[range]:
        """The coordinate ranges of a box holding the support's part of V_B:
        the sup-norm box of radius B max|a|, which holds all of V_B
        (``lattice.NewtonPolytope``)."""
        radius = bound * polytope.radius
        return [range(-radius, radius + 1)] * polytope.n


class FullSupport(Support):
    """All of the exponent lattice: no inequality."""

    def __init__(self, n: int):
        super().__init__("Z^n", ())


class HalfSupport(Support):
    """Exponents with nonnegative last coordinate."""

    def __init__(self, n: int):
        super().__init__("R+", (FacetForm((0,) * (n - 1) + (1,)),))

    def scan(self, polytope: NewtonPolytope, bound: int) -> list[range]:
        """The radius box with last coordinate >= 0, which the support
        requires."""
        *box, last = super().scan(polytope, bound)
        return [*box, range(0, last.stop)]


class ConeSupport(Support):
    """U0 = C(A) ∩ Z^n, the lattice points of the real cone of the points.

    This is the normalization of the semigroup N·A, the ring over which
    Adolphson and Sperber work (Nagoya Math. J. 146, 1997), cut out by the
    cone facets f(u) >= 0.  N·A itself is the wrong support when it is not
    saturated: for A = (-2,2), (-1,3), (2,1) (volume 11) its window
    quotient reads 2, 4, 6, 7, 9, 11 at B = 1..6 without stabilizing, and
    for (2,1,1), (-1,2,1), (2,2,-1), (3,2,-1), (-2,1,0) (volume 27) it
    reads 3, 7, 11, 15, 19, 29, past the volume.  On both the saturated
    cone reads the Z^n sequence (7, 11, 11, ... and 7, 24, 27, 27, ...).
    """

    def __init__(self, config: PointConfig):
        super().__init__("U0", newton_polytope(config).cone)

    def scan(self, polytope: NewtonPolytope, bound: int) -> list[range]:
        """B times the bounding box of Delta: on the cone the depth is 0, so
        V_B meets it in B Delta = conv(0, B a), inside that box."""
        return [range(bound * low, bound * high + 1) for low, high in polytope.extent]


class RankReport:
    """Outcome of a truncated top-cohomology dimension computation.

    dims are the window quotient dimensions at bounds B-1 and B.  The result
    counts as stabilized when the two agree; the reported dimension is the
    one at B.

    ``top`` holds the bound-B window and its echelon, which quasi_iso_check
    reduces against; it is None on the complement's report
    (``cohomology_U_dim``) and on hand-built reports, and equality and repr
    leave it out.
    """

    __slots__ = ("complex_id", "alpha", "lam", "bound", "dims", "warnings", "top")

    def __init__(self, complex_id: str, alpha: ParameterVector,
                 lam: tuple[Fraction, ...], bound: int, dims: tuple[int, int],
                 warnings: tuple[str, ...] = (),
                 top: tuple[CohomologyWindow, RationalEchelon] | None = None):
        self.complex_id = complex_id
        self.alpha = alpha
        self.lam = lam
        self.bound = bound
        self.dims = dims
        self.warnings = warnings
        self.top = top

    def _compared(self) -> tuple:
        return (self.complex_id, self.alpha, self.lam, self.bound, self.dims,
                self.warnings)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RankReport:
            return NotImplemented
        return self._compared() == other._compared()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._compared()))
        return f"RankReport({fields})"

    @property
    def stabilized(self) -> bool:
        return self.dims[0] == self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[1]

    def to_json(self) -> dict:
        return {
            "complex": self.complex_id,
            "alpha": [str(a) for a in self.alpha.entries],
            "lambda": [str(v) for v in self.lam],
            "B": self.bound,
            "dims": list(self.dims),
            "stabilized": self.stabilized,
            "dim": self.dim,
            "warnings": list(self.warnings),
        }


def require_stabilized(report: RankReport) -> RankReport:
    if not report.stabilized:
        raise NotStabilizedError(report.dims, report.bound)
    return report


class CohomologyWindow:
    """The lattice points of a support in the Newton window V_B.

    V_B = {u : w(u) + 2 D(u) <= B} (``lattice.NewtonPolytope``): w is the
    Newton-polytope weight of Delta = conv(0 u A) (Adolphson-Sperber, Ann.
    of Math. 130, 1989) and D the depth below the cone facets.  On the cone
    V_B is B Delta, each derivation raises w by at most 1, and for
    nonresonant alpha and generic lambda the quotient has dimension
    n! vol(Delta) (Adolphson, Duke Math. J. 73, 1994).  Below a cone facet
    f, the contraction against f only adds points a with f(a) >= 1, which
    lowers w + 2D: it stays in V_B and pushes a monomial towards the cone.

    ``points`` lists the window in elimination order (h(u), u), and
    ``index`` maps each point to its position there, the column it keys.
    The points are read off the support's scan box (``Support.scan``):
    B times the bounding box of Delta on the cone, the sup-norm box of
    radius B max|a| on Z^n, and its half with last coordinate >= 0 on R+;
    each box point is tested against V_B first and the support second.
    Given ``within``, a larger window of the same support, which V_B lies
    inside, its points are filtered: no box scan and no support test.
    """

    def __init__(self, config: PointConfig, support: Support, bound: int,
                 within: CohomologyWindow | None = None):
        if bound < 0:
            raise ValueError("window bound must be nonnegative")
        self.config = config
        self.support = support
        self.bound = bound
        polytope = newton_polytope(config)
        self.hvec = polytope.h
        if within is not None:
            self.points = [u for u in within.points if polytope.contains(u, bound)]
        else:
            box = itertools.product(*support.scan(polytope, bound))
            self.points = sorted((u for u in box if polytope.contains(u, bound)
                                  and support.contains(u)),
                                 key=lambda u: (self.weight(u), u))
        self.index = {u: k for k, u in enumerate(self.points)}

    def weight(self, u: Sequence[int]) -> int:
        return sum(map(operator.mul, self.hvec, u))


def staying_combinations(steps: Sequence[Sequence[int]], n: int):
    """The derivation combinations whose image stays inside a window.

    sum_i c_i D_i shifts a monomial by each step a with c.a != 0.  Returns a
    function from the positions of the steps whose shift leaves the window
    to an integer basis of the c with c.a = 0 on each of them: the unit
    vectors when none leaves, and otherwise combinations such as the
    contraction against a cone facet.
    """
    units = [[int(i == k) for k in range(n)] for i in range(n)]

    @functools.cache
    def basis(out: tuple[int, ...]) -> list[list[int]]:
        return integer_kernel([list(steps[k]) for k in out]) if out else units
    return basis


def window_generators(windows: tuple[CohomologyWindow, CohomologyWindow],
                      alpha: ParameterVector, lam: Sequence[Fraction]
                      ) -> tuple[Iterator[tuple[int, dict]], Iterator[tuple[int, dict]]]:
    """Images of window monomials under the twisted derivation combinations
    that stay inside the window, for a ``window_pair``, as integer sparse
    vectors keyed by the bound-B window's columns.

    Returns two iterators of (column, vector), read in turn.  The first
    yields, for each point u of the B-1 window and each combination c of
    ``staying_combinations`` with a nonzero image, D c.(u + alpha) at u's
    own column and D lambda_a c.a at u + a, for each point a; D, the lcm of
    the denominators of alpha and lambda, makes them integers and changes
    no rank.  The second yields the B window's generators at the points of
    V_B outside V_{B-1} and where the steps leaving the two windows differ.
    A step that leaves V_B leaves V_{B-1}, so each c staying in the B-1
    window lies in the Q-span of the B basis at u, and the generator is
    linear in c; where the leaving steps agree, so do the generators.  Both
    together span the B window's image.
    """
    small, win = windows
    index = win.index
    scale = math.lcm(*(a.denominator for a in alpha.entries),
                     *(v.denominator for v in lam))
    d_alpha = [int(a * scale) for a in alpha.entries]
    steps = [(a, int(v * scale)) for a, v in zip(win.config.points, lam) if v and any(a)]
    basis = staying_combinations([a for a, _ in steps], win.config.n)
    leaving: dict[int, tuple[int, ...]] = {}

    def generators(col: int, u: IntVec, small_side: bool):
        targets = [index.get(tuple(map(operator.add, u, a))) for a, _ in steps]
        out = tuple(k for k, t in enumerate(targets)
                    if t is None or (small_side and win.points[t] not in small.index))
        if small_side:
            leaving[col] = out
        elif leaving.get(col) == out:
            return
        for c in basis(out):
            vec: dict[int, int] = {}
            diag = sum(ci * (scale * x + a) for ci, a, x in zip(c, d_alpha, u))
            if diag:
                vec[col] = diag
            for (a, v), t in zip(steps, targets):
                coeff = sum(ci * x for ci, x in zip(c, a))
                if coeff:
                    vec[t] = v * coeff
            if vec:
                yield col, vec

    return ((g for u in small.points for g in generators(index[u], u, True)),
            (g for col, u in enumerate(win.points) for g in generators(col, u, False)))


def window_pair(config: PointConfig, support: Support,
                bound: int) -> tuple[CohomologyWindow, CohomologyWindow]:
    """The windows of a support at bounds B-1 and B; only the B one scans
    the box, and the B-1 one is its points in V_{B-1}, in the same order."""
    if bound < 1:
        raise ValueError("need bound at least 1 for the stabilization pair")
    top = CohomologyWindow(config, support, bound)
    return CohomologyWindow(config, support, bound - 1, top), top


def _torus_report(alpha: ParameterVector, lam: tuple[Fraction, ...],
                  windows: tuple[CohomologyWindow, CohomologyWindow],
                  warnings: Sequence[str]) -> RankReport:
    """The report of one specialization on a window pair, from one echelon
    that takes the B-1 generators, is read for dims[0], then takes the B
    generators that differ and is read for dims[1] (``window_generators``).
    Its span is the B image, all ``quasi_iso_check`` reads of the report."""
    ech = RationalEchelon()
    dims = []
    for win, gens in zip(windows, window_generators(windows, alpha, lam)):
        for _, vec in gens:
            ech.insert(vec)
        dims.append(len(win.points) - ech.rank)
    return RankReport(f"torus/{win.support.name}", alpha, lam, win.bound,
                      tuple(dims), tuple(warnings), (win, ech))


def _resonance_warnings(config: PointConfig, alpha: ParameterVector) -> tuple[str, ...]:
    verdict = is_nonresonant(config, alpha)
    if verdict.nonresonant:
        return ()
    form, value = verdict.witness
    return (f"resonant: form {form.coeffs} takes integer value {value}",)


def top_cohomology_dim(config: PointConfig, alpha: ParameterVector,
                       lam: Sequence, support: Support, bound: int) -> RankReport:
    """Truncated dimension of the top cohomology of the twisted complex.

    Computes the window quotient at bounds B-1 and B; the result counts as
    stabilized when the two agree.  A resonant parameter is not an error:
    the computation proceeds with a warning flag set.
    """
    return _torus_report(alpha, specialization(config, lam),
                         window_pair(config, support, bound),
                         _resonance_warnings(config, alpha))


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
    echelon (``_torus_report``) as |window| - rank.

    That reading takes the x'^{u'} / g^m as independent.  Between them the
    relations g x'^{u'} / g^{m+1} = x'^{u'} / g^m, i.e. e_u - sum_j
    lambda_j e_{u+a_j}, hold wherever every u + a_j lies in the window, and
    each is the generator of D_n at u divided by m + alpha_n, so it adds
    nothing.  A relation outside their span, or a special lam, at which the
    generators' rank (polynomial entries in lam) can only drop, could only
    make the reading an over-count.  At a random lam and a nonresonant
    alpha the rank is the normalized volume, and ``rank --hypersurface``
    checks it (``require_volume``).
    """
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


def specialization(config: PointConfig, lam: Sequence) -> tuple[Fraction, ...]:
    """lam as Fractions, refused unless it has one nonzero entry per point."""
    lam = tuple(Fraction(v) for v in lam)
    if len(lam) != config.N:
        raise ValueError(f"need {config.N} coefficients, got {len(lam)}")
    if any(v == 0 for v in lam):
        raise ValueError("parameter specialization must be nonzero")
    return lam


def random_specialization(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Independent uniform rationals with numerator and denominator in [1, 1000]."""
    return tuple(Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                 for _ in range(count))


def default_bound(n: int) -> int:
    """The window bound of a job that names none, for points in Z^n:
    max(4, n + 1), so the window pair reads (n, n + 1), and 4, as before,
    for n <= 3 (README)."""
    return max(4, n + 1)


def generic_rank(config: PointConfig, alpha: ParameterVector, support: Support,
                 bound: int, seed: int = 0) -> RankReport:
    """Stabilized dimension at a generic specialization, checked against
    the normalized volume.

    Draws one specialization lam from ``random.Random(seed)``, evaluates it
    on one pair of windows (bounds B-1 and B) and raises NotStabilizedError
    with its dims unless they agree.  For a nonresonant alpha the rank is
    n! vol(conv(0 u A)) (Adolphson, Duke Math. J. 73, 1994), and a stabilized
    dimension other than ``lattice.normalized_volume`` raises
    VolumeMismatchError.  The volume stands in for a second specialization:
    the generators' entries are polynomial in lam, so at a special lam their
    rank can only drop and the window quotient can only grow.  A stable
    reading equal to the volume is therefore the answer, and any other
    stable reading is an error, not a retry.

    On Z^n the check holds at every alpha, resonant ones too: for
    nondegenerate f the top cohomology on the torus has dimension
    n! vol(Delta) whatever alpha is (Adolphson-Sperber, Ann. of Math. 130,
    1989); resonance governs the GKZ system, not the torus complex.  On
    another support a resonant alpha, which the report warns of, is not
    checked.
    """
    warnings = _resonance_warnings(config, alpha)
    lam = random_specialization(random.Random(seed), config.N)
    report = _torus_report(alpha, lam, window_pair(config, support, bound), warnings)
    # the resonance warning is the only one, so none means alpha is nonresonant
    return require_volume(config, report, not warnings or isinstance(support, FullSupport))


def require_volume(config: PointConfig, report: RankReport, checked: bool) -> RankReport:
    """The report, once stabilized (``require_stabilized``) and, when
    checked, equal to ``lattice.normalized_volume``: a checked report is
    one at a random specialization and a nonresonant alpha (any alpha on
    Z^n), whose rank is the volume, and any other stable reading raises
    VolumeMismatchError."""
    require_stabilized(report)
    if checked:
        volume = normalized_volume(config)
        if report.dim != volume:
            raise VolumeMismatchError(report.dims, report.bound, volume)
    return report


class QuasiIsoReport(NamedTuple):
    """Comparison of the truncated complexes over nested supports."""

    verdict: bool
    dim_small: int
    dim_big: int
    surjective: bool

    def to_json(self) -> dict:
        return self._asdict()


def quasi_iso_check(small: RankReport, big: RankReport) -> QuasiIsoReport:
    """Inclusion of the small-support subcomplex induces the same top quotient.

    Given stabilized reports of both supports at one bound, checks (a) equal
    dimensions and (b) surjectivity at ``big.lam``: every window monomial of
    the big support is congruent, modulo the twisted-derivation image inside
    the window, to something supported in the small window.  The windows
    and the echelon of that image come from the reports; only the unit
    vectors of the small window are reduced, in a copy of the row map.
    Raises ValueError when the bounds differ, a report carries no window,
    or the supports do not nest.
    """
    require_stabilized(small)
    require_stabilized(big)
    bound = big.bound
    if small.bound != bound:
        raise ValueError(f"reports at bounds {small.bound} and {bound} do not compare")
    if small.top is None or big.top is None:
        raise ValueError("a report without its window does not compare")
    win_small, _ = small.top
    win_big, kept = big.top
    if any(u not in win_big.index for u in win_small.points):
        raise ValueError(f"support {win_small.support.name} is not inside "
                         f"{win_big.support.name} at bound {bound}")
    # insert never changes a stored row, so the report's echelon stays as it was
    ech = copy.copy(kept)
    ech.rows = dict(kept.rows)
    for u in win_small.points:
        ech.insert({win_big.index[u]: 1})
    surjective = ech.rank == len(win_big.points)
    return QuasiIsoReport(
        verdict=(small.dim == big.dim) and surjective,
        dim_small=small.dim,
        dim_big=big.dim,
        surjective=surjective,
    )
