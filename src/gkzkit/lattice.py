"""Integer-lattice and cone geometry for point configurations.

Validates that a set of lattice points generates the full lattice, computes
the lattice of relations among the points, enumerates the facets of the
Newton polytope conv(0 u A) (those through the origin are the facets of the
cone spanned by the points), decides nonresonance of a rational
parameter vector against the cone's facet normals, and brings a
configuration to constant last coordinate 1, the structure of the
hypersurface complement, by a unimodular change of coordinates where one
exists.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (DuplicatePointError, NotARelationError, NotGeneratingError,
                     StructureError)
from .intmat import (complete_primitive_vector, integer_kernel, lattice_index, matvec,
                     solve_integer)


IntVec = tuple[int, ...]


class PointConfig(NamedTuple):
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


class RelationLattice(NamedTuple):
    """Saturated basis of the integer vectors annihilating the points."""

    basis: tuple[IntVec, ...]
    rank: int


class FacetForm(NamedTuple):
    """Primitive linear form, nonnegative on the cone of the configuration."""

    coeffs: IntVec

    def evaluate(self, u: Sequence) -> object:
        """Value of the form at an integer or rational vector."""
        return sum(map(mul, self.coeffs, u))


class ParameterVector(NamedTuple):
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


class ResonanceVerdict(NamedTuple):
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

    The points generate the lattice exactly when the lattice they span has
    index 1 in it.
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
    index = lattice_index(config.matrix())
    if index != 1:
        raise NotGeneratingError(index)
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
    # a k x N basis is saturated exactly when its columns generate Z^k
    if basis and lattice_index([list(l) for l in basis]) != 1:
        raise NotARelationError("kernel basis is not saturated")
    return RelationLattice(basis=tuple(basis), rank=len(basis))


class NewtonPolytope(NamedTuple):
    """The facets of Delta = conv(0 u A) and the windows they cut out.

    ``cone`` holds the inner normals f of the facets through the origin
    (the cone's facets) and ``weights`` the other facets c.u <= d, d > 0.
    With the Newton weight w(u) = max c.u / d (at most 1 on every point)
    and the depth D(u) = sum of max(0, -f(u)) (0 exactly on the cone), the
    window V_B = {u : w(u) + 2 D(u) <= B} is B times V_1 and meets the cone
    in B Delta.

    ``radius`` is max |a|_inf over the points, and every lattice point of
    V_B has |u|_inf <= B * radius.  If u violates a cone facet f, then
    f(u) <= -1; as A spans Z^n and f >= 0 on A, some point a has
    f(a) >= 1.  Then D(u + a) <= D(u) - 1 and, w being sublinear with
    w(a) <= 1, w(u + a) <= w(u) + 1, so u + a lies in V_{B-1}.  Repeating
    reaches the cone, where w >= 0, so V_B is empty for B < 0; on the cone
    V_B = B Delta.  Induction on B, with |u|_inf <= |u + a|_inf + radius,
    gives the bound.  As V_1 contains Delta, no smaller radius bounds V_1.

    ``extent`` is the bounding box of Delta: per coordinate, the least and
    the largest of 0 and the a_i.  On the cone V_B = B Delta lies in B
    times it.
    """

    n: int
    cone: tuple[FacetForm, ...]
    weights: tuple[tuple[IntVec, int], ...]
    h: IntVec       # the sum of the cone facet forms
    radius: int
    extent: tuple[tuple[int, int], ...]

    def contains(self, u: Sequence[int], bound: int) -> bool:
        """Is u in V_B for B = bound?"""
        depth = 0
        for f in self.cone:
            value = sum(map(mul, f.coeffs, u))
            if value < 0:
                depth -= value
        return all(sum(map(mul, c, u)) + 2 * depth * d <= bound * d
                   for c, d in self.weights)


@functools.cache
def newton_polytope(config: PointConfig) -> NewtonPolytope:
    """The facets of conv(0 u A), in one pass over the n-subsets of A u {0}.

    A facet c.u = d is spanned by n affinely independent points of A u {0},
    so (c, d) is the kernel of the rows (a, -1) of one such subset, and
    c.a - d has one sign over A u {0}; d = 0 marks a facet of the cone.
    """
    n = config.n
    points = config.points + ((0,) * n,)
    found: set[tuple[IntVec, int]] = set()
    for subset in itertools.combinations(points, n):
        kernel = integer_kernel([[*a, -1] for a in subset])
        if len(kernel) != 1:
            continue
        *c, d = kernel[0]
        values = [sum(ci * x for ci, x in zip(c, a)) - d for a in points]
        if all(v <= 0 for v in values):
            found.add((tuple(c), d))
        elif all(v >= 0 for v in values):
            found.add((tuple(-x for x in c), -d))
    cone = tuple(FacetForm(f) for f in sorted(tuple(-x for x in c)
                                              for c, d in found if d == 0))
    return NewtonPolytope(n=n, cone=cone,
                          weights=tuple(sorted((c, d) for c, d in found if d > 0)),
                          h=tuple(sum(f.coeffs[i] for f in cone) for i in range(n)),
                          radius=max(abs(x) for a in config.points for x in a),
                          extent=tuple((min(0, *column), max(0, *column))
                                       for column in zip(*config.points)))


@functools.cache
def normalized_volume(config: PointConfig) -> int:
    """n! vol(Delta) for Delta = conv(0 u A), without a window or an echelon.

    The Ehrhart count |k Delta ∩ Z^n| of the lattice polytope Delta is a
    polynomial of degree n in k with leading coefficient vol(Delta), so
    n! vol(Delta) is its n-th finite difference, the sum over k = 0..n of
    (-1)^(n-k) C(n, k) |k Delta ∩ Z^n| (Beck-Robins, Computing the
    Continuous Discretely, ch. 3).  The counts come from one scan of n times
    the bounding box of Delta: the points on the cone (every cone facet
    >= 0) in V_n = n Delta are kept, and on the cone V_k = k Delta, so each
    count is the number of them that ``NewtonPolytope.contains`` at k.
    """
    polytope = newton_polytope(config)
    n = config.n
    box = [range(n * low, n * high + 1) for low, high in polytope.extent]
    kept = [u for u in itertools.product(*box)
            if all(f.evaluate(u) >= 0 for f in polytope.cone) and polytope.contains(u, n)]
    return sum((-1) ** (n - k) * math.comb(n, k) * sum(polytope.contains(u, k) for u in kept)
               for k in range(n + 1))


def cone_facets(config: PointConfig) -> tuple[FacetForm, ...]:
    """Sorted inner normals of the cone's facets, those of conv(0 u A) at 0."""
    return newton_polytope(config).cone


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
