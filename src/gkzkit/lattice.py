"""Integer-lattice and cone geometry for point configurations.

Validates that a set of lattice points generates the full lattice, computes
the lattice of relations among the points, enumerates the primitive inner
normals of the codimension-one faces of the real cone spanned by the points,
and decides nonresonance of a rational parameter vector against those
normals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DuplicatePointError, NotARelationError, NotGeneratingError
from .intmat import integer_kernel, invariant_factors, matvec, rational_rank


IntVec = tuple[int, ...]


@dataclass(frozen=True)
class PointConfig:
    """A finite set of lattice points generating the full lattice.

    n is the ambient dimension, N the number of points.  Points are stored
    in the order given, as rows conceptually; the j-th point is
    ``points[j]``.
    """

    n: int
    N: int
    points: tuple[IntVec, ...]

    def matrix(self) -> list[list[int]]:
        """The n x N matrix whose columns are the points."""
        return [[self.points[j][i] for j in range(self.N)] for i in range(self.n)]


@dataclass(frozen=True)
class RelationLattice:
    """Saturated basis of the integer vectors annihilating the points."""

    basis: tuple[IntVec, ...]
    rank: int


@dataclass(frozen=True)
class FacetForm:
    """Primitive linear form, nonnegative on the cone of the configuration."""

    coeffs: IntVec

    def evaluate(self, u: Sequence) -> object:
        """Value of the form at an integer or rational vector."""
        return sum(c * x for c, x in zip(self.coeffs, u))


@dataclass(frozen=True)
class ParameterVector:
    """Rational parameter vector; entries are Fractions in lowest terms."""

    entries: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def shift(self, u: Sequence[int]) -> "ParameterVector":
        return ParameterVector(tuple(a + int(x) for a, x in zip(self.entries, u)))

    def negate(self) -> "ParameterVector":
        return ParameterVector(tuple(-a for a in self.entries))

    @staticmethod
    def of(*values) -> "ParameterVector":
        return ParameterVector(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
class ResonanceVerdict:
    """Outcome of the nonresonance test.

    ``witness`` is the offending facet form together with the integer value
    it takes on the parameter, present exactly when ``nonresonant`` is
    False.  ``vacuous`` flags the case of a cone with no proper faces, where
    the condition holds for every parameter.
    """

    nonresonant: bool
    witness: tuple[FacetForm, int] | None
    vacuous: bool


def validate_config(points: Iterable[Sequence[int]]) -> PointConfig:
    """Build a PointConfig, checking generation of the full lattice.

    The points generate the lattice exactly when every invariant factor of
    their matrix equals 1.
    """
    pts = [tuple(int(c) for c in p) for p in points]
    if not pts:
        raise ValueError("empty point list")
    n = len(pts[0])
    if n == 0 or any(len(p) != n for p in pts):
        raise ValueError("points must be nonempty vectors of uniform length")
    seen = set()
    for p in pts:
        if p in seen:
            raise DuplicatePointError(f"duplicate point {p}")
        seen.add(p)
    config = PointConfig(n=n, N=len(pts), points=tuple(pts))
    factors = invariant_factors(config.matrix())
    if len(factors) < n:
        raise NotGeneratingError(0)
    for d in factors:
        if d != 1:
            raise NotGeneratingError(d)
    return config


def relation_lattice(config: PointConfig) -> RelationLattice:
    """Saturated integer kernel of the point matrix, rank N - n."""
    kernel = integer_kernel(config.matrix())
    basis = []
    for vec in kernel:
        v = tuple(vec)
        lead = next((x for x in v if x != 0), 0)
        if lead < 0:
            v = tuple(-x for x in v)
        basis.append(v)
    basis.sort()
    for l in basis:
        if any(s != 0 for s in matvec(config.matrix(), list(l))):
            raise NotARelationError(f"kernel vector {l} does not annihilate the points")
    if len(basis) != config.N - config.n:
        raise NotARelationError("kernel rank mismatch")
    if basis:
        for d in invariant_factors([list(l) for l in basis]):
            if d != 1:
                raise NotARelationError("kernel basis is not saturated")
    return RelationLattice(basis=tuple(basis), rank=len(basis))


def _primitive(vec: Sequence[int]) -> IntVec:
    g = 0
    for c in vec:
        g = gcd(g, abs(c))
    if g == 0:
        return tuple(vec)
    return tuple(c // g for c in vec)


def cone_facets(config: PointConfig) -> tuple[FacetForm, ...]:
    """Primitive inner normals of the codimension-one faces of the cone.

    Brute force over (n-1)-element subsets of the points: each facet of the
    cone is spanned by points lying on it, so its normal shows up as the
    kernel of one such subset.  One-sidedness over the whole configuration
    filters genuine facets; duplicates are removed by the normalized form.
    """
    n = config.n
    found: dict[IntVec, FacetForm] = {}
    for subset in itertools.combinations(range(config.N), n - 1):
        rows = [list(config.points[j]) for j in subset]
        if rows and rational_rank(rows) != n - 1:
            continue
        kernel = integer_kernel(rows) if rows else integer_kernel([[0] * n])
        if len(kernel) != 1:
            continue
        normal = _primitive(kernel[0])
        values = [sum(c * x for c, x in zip(normal, p)) for p in config.points]
        if all(v >= 0 for v in values):
            oriented = normal
        elif all(v <= 0 for v in values):
            oriented = tuple(-c for c in normal)
        else:
            continue
        found[oriented] = FacetForm(coeffs=oriented)
    return tuple(found[key] for key in sorted(found))


def facet_weight(facets: Sequence[FacetForm], n: int) -> IntVec:
    """Coefficients of the weight h, the sum of the facet forms."""
    return tuple(sum(f.coeffs[i] for f in facets) for i in range(n))


def is_nonresonant(config: PointConfig, alpha: ParameterVector) -> ResonanceVerdict:
    """True when no facet form takes an integer value on the parameter."""
    if alpha.n != config.n:
        raise ValueError("parameter dimension mismatch")
    facets = cone_facets(config)
    for form in facets:
        value = form.evaluate(alpha.entries)
        if value.denominator == 1:
            return ResonanceVerdict(nonresonant=False, witness=(form, int(value)), vacuous=False)
    return ResonanceVerdict(nonresonant=True, witness=None, vacuous=not facets)

