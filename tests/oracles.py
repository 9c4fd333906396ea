"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive and shares no code path with the
package internals it checks, apart from gkzkit.linalg.RationalEchelon,
which ranks the oracles' rows over Q once ``cleared`` of denominators.
The exceptions are former package code kept as references for what
replaced it:

- all_recurrence_rows, the former mod-p row assembler (every row of every
  relation), for the fiber reduction in gkzkit.modp.recurrence_rows.
- relation_scan_killed_fibers, the former leak test of
  gkzkit.modp.recurrence_rows (every fiber member shifted by every relation
  of sup norm below p), for the lift of fibers by p that replaced it.
- lattice_points_in_box, the relation enumerator both of them use, with
  its exact rational_inverse; test_lattice_points_in_box_match_brute_scan
  checks it by a box scan.
- apply_D_by_parts and nabla_by_parts, the twisted derivation composed from
  the Laurent ring operations and the differential summed one piece at a
  time, for the one-pass gkzkit.laurent.apply_D and gkzkit.derham.nabla.
- LocalizedElement, a Laurent numerator over a power of g kept in lowest
  g-terms, with its exact division divide_exact: the former package
  representation of a function on the complement of g = 0, kept as the
  lowest-terms reference for gkzkit.hypersurface.UForm, which keeps one
  numerator form over one power of g, not reduced.
- gamma_per_monomial and tilde_nabla_per_piece, the former comparison map
  and complement differential, which build one LocalizedElement per
  monomial or per piece, add them up and return the nonzero components in
  lowest g-terms, for gkzkit.hypersurface.gamma and tilde_nabla, which put
  every term over one power of g and divide nothing out.
- u_quotient_dim, the former complement-side quotient, with its own loop
  over window points and staying combinations, which ranks the window
  elements as numerators over one power of g, for
  gkzkit.window.window_generators, which both sides now share, and
  gkzkit.window.cohomology_U_dim, which ranks no numerator: it reads
  the half-space torus window pair, whose relations include every
  g-relation x'^{u'} / g^m = sum_j lambda_j x'^{u'+a'_j} / g^{m+1} inside
  the window.
- window_generators_per_window, torus_window_dims,
  u_quotient_dim_per_window and u_window_dims, the former per-window path
  of the (B-1, B) pair: two box scans, one echelon of Fraction rows per
  window on the torus, and two echelons per window on the complement, each
  window's numerators over its own power of g, for gkzkit.window.window_pair
  and _torus_report, which scan once and run one elimination per
  specialization on integer rows, and for the same reading of
  gkzkit.window.cohomology_U_dim, with no power of g.
- kernel_equals_dv_image, the former gamma-kernel check over Q (gamma
  columns weighted by rising factorials, vertical rows with Fraction
  entries), for gkzkit.hypersurface.kernel_equals_dv_image, which builds
  the same matrices with every row rescaled to integers.
- centered_box, the box {-1, 0, 1}^n the identity battery sampled, which
  decides each identity by a per-coordinate degree bound, for the smaller
  gkzkit.derham.principal_lattice, which decides it by the total degree.
- homotopy_identity_per_facet, the former homotopy check, which adds the
  contraction of the differential, the differentials of the contractions
  and the right-hand side into one term map per facet, with its
  contraction (contract, homotopy_rho), for
  gkzkit.derham.homotopy_identity_check, which builds the residual of each
  unit form once per sample and combines them per facet.
- weyl_mul and check_phi_intertwines, the former Weyl product over Q
  (every coefficient a Fraction) and the former transport check, which
  rebuilds f and the Euler operator on every call and applies the twisted
  derivation by parts (apply_D_by_parts, not the gkzkit.laurent.apply_D it
  is compared against), for gkzkit.weyl.weyl_mul, which keeps integer
  coefficients as ints, and gkzkit.weyl.check_phi_intertwines, which
  checks identity (a) scaled by the lcm of the denominators of alpha on
  integer tables built once per battery (gkzkit.weyl.PhiTables).
- gamma, tilde_nabla and check_gamma_chain_map, the former comparison map,
  complement differential and chain-map check over Q, which recompute the
  powers of g, the rising factorials and the derivatives of g on every
  call, for gkzkit.hypersurface.ComplementTables, which builds them once
  per check, and gkzkit.hypersurface.check_gamma_chain_map, which clears
  the denominators of alpha and g.  They keep g in their own record,
  GForm, and their weights come from their own rising factorial, rising,
  so no weight shares code with gkzkit.hypersurface.ComplementTables.weight.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from gkzkit.derham import (IndexTuple, IntVec, LogForm, _form, clearing_scale,
                           nabla, wedge_insert)
from gkzkit.errors import PochhammerPoleError, ScalarModeError
from gkzkit.hypersurface import _derivations_by_parts, build_g, d_h, d_v
from gkzkit.intmat import integer_kernel, matvec
from gkzkit.lattice import (FacetForm, ParameterVector, PointConfig,
                            RelationLattice, normalize_structure, relation_lattice)
from gkzkit.laurent import (LaurentPoly, TwistedDerivations, _add_scaled,
                            build_f_symbolic, int_if_integral, toric_derivative)
from gkzkit.weyl import (TermKey, WeylElement, euler_operator, lambda_derivative,
                         phi_map)
from gkzkit.linalg import RationalEchelon
from gkzkit.window import CohomologyWindow, HalfSupport


def g_powers(g: LaurentPoly, top: int) -> list[LaurentPoly]:
    """g^0, g^1, ..., g^top."""
    pows = [LaurentPoly.one(g.n)]
    for _ in range(top):
        pows.append(pows[-1] * g)
    return pows


def rising(a: Fraction, m: int) -> Fraction:
    """The rising factorial a(a+1)...(a+m-1), for m >= 0."""
    if m < 0:
        raise ValueError("the comparison map has no weight for m < 0")
    out = Fraction(1)
    for k in range(m):
        out *= a + k
    return out


def complement_weight(alpha_n: Fraction, m: int, scale: int = 1) -> Fraction:
    """(-1)^m (alpha_n)_m scale^m, the weight of the last exponent m in the
    comparison map written over h = scale g."""
    return (-1) ** m * rising(alpha_n, m) * Fraction(scale) ** m


class GForm(NamedTuple):
    """num / g^gpow on the complement of g = 0, one numerator form over one
    power of g, not reduced, with g in the record."""
    g: LaurentPoly
    num: LogForm
    gpow: int

    def is_zero(self) -> bool:
        return self.num.is_zero()


def centered_box(n: int, radius: int) -> list[IntVec]:
    """The exponents in {-radius, ..., radius}^n."""
    return list(itertools.product(range(-radius, radius + 1), repeat=n))


def dense_rank(rows: list[list[Fraction]]) -> int:
    """Plain Gaussian elimination over the rationals on a dense matrix."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def dense_rank_modp(rows: list[list[int]], p: int) -> int:
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def minor_gcd(points: list[tuple[int, ...]]) -> int:
    """gcd of all maximal minors of the matrix with the points as columns.

    Zero means the points do not even span rationally; the points generate
    the full lattice exactly when this gcd is 1.
    """
    n = len(points[0])
    cols = list(points)
    g = 0
    for subset in itertools.combinations(cols, n):
        g = gcd(g, abs(int_det([list(col) for col in zip(*subset)])))
    return g


def int_det(mat: list[list[int]]) -> int:
    """Integer determinant by fraction-free expansion (small matrices)."""
    k = len(mat)
    if k == 0:
        return 1
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * int_det(minor)
    return total


def residue_subgroup_covers(points: list[tuple[int, ...]], m: int) -> bool:
    """Breadth-first closure of the points inside (Z/m)^n covers everything."""
    n = len(points[0])
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    gens = [tuple(c % m for c in p) for p in points]
    gens += [tuple((-c) % m for c in p) for p in points]
    while frontier:
        nxt = []
        for u in frontier:
            for a in gens:
                v = tuple((x + y) % m for x, y in zip(u, a))
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == m ** n


def brute_facets(points: Sequence[Sequence[int]],
                 coeff_bound: int) -> frozenset[tuple[int, ...]]:
    """All primitive one-sided normals with a spanning equality set, found by
    scanning an integer coefficient box; remembered per points and bound."""
    return _brute_facets(tuple(map(tuple, points)), coeff_bound)


@functools.lru_cache(maxsize=64)
def _brute_facets(points: tuple[tuple[int, ...], ...],
                  coeff_bound: int) -> frozenset[tuple[int, ...]]:
    n = len(points[0])
    out = set()
    for c in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        if any(sum(map(operator.mul, c, p)) < 0 for p in points) or gcd(*c) != 1:
            continue
        on_face = [p for p in points if not sum(map(operator.mul, c, p))]
        if n == 1:
            # one-sidedness alone suffices: the equality set spans the
            # zero-dimensional space no matter what
            out.add(c)
            continue
        if (len(on_face) >= n - 1
                and dense_rank([[Fraction(x) for x in p] for p in on_face]) == n - 1):
            out.add(c)
    return frozenset(out)


def brute_newton_window(points: list[tuple[int, ...]], B: int, coeff_bound: int,
                        cone_only: bool = False) -> set[tuple[int, ...]]:
    """Every lattice point u with w(u) + 2 D(u) <= B, where w(u) is the
    largest -g.u / e and D(u) the sum of max(0, -g.u) over the facet normals
    (g, e) of the homogenized configuration (a, 1), (0, 1) with e > 0 and
    e = 0 respectively.

    The normals come from brute_facets.  Adding a point across a violated
    facet lowers w + 2D by at least 1, and clearing the depth -f(u) below a
    facet f takes at least -f(u) / max f(a) such steps, so the window lies
    in the polytope with w <= B and each f(u) >= -B max f(a); the scanned
    box holds its vertices, the feasible solutions of n of its equations
    (Cramer's rule).  With cone_only, only the points on which every cone
    normal is nonnegative are kept: the lattice points of the real cone,
    where D = 0.  Raises ValueError when coeff_bound is too small to find
    every normal (``require_every_facet``).
    """
    n = len(points[0])
    homogenized = [(*a, 1) for a in points] + [(0,) * n + (1,)]
    normals = brute_facets(homogenized, coeff_bound)
    require_every_facet(homogenized, normals)
    weights = [(g[:n], g[n]) for g in normals if g[n] > 0]
    cone = [g[:n] for g in normals if g[n] == 0]
    rows = [(g, B * e) for g, e in weights]
    rows += [(f, B * max(sum(c * x for c, x in zip(f, a)) for a in points)) for f in cone]
    box = 0
    for subset in itertools.combinations(rows, n):
        det = int_det([list(g) for g, _ in subset])
        if det == 0:
            continue
        vertex = [Fraction(int_det([[-r if k == i else g[k] for k in range(n)]
                                    for g, r in subset]), det) for i in range(n)]
        if all(sum(c * x for c, x in zip(g, vertex)) >= -r for g, r in rows):
            box = max(box, *(-(-abs(x) // 1) for x in vertex))
    out = set()
    for u in itertools.product(range(-box, box + 1), repeat=n):
        depth = sum(max(0, -sum(c * x for c, x in zip(f, u))) for f in cone)
        if all(-sum(c * x for c, x in zip(g, u)) + 2 * depth * e <= B * e
               for g, e in weights) and not (cone_only and depth):
            out.add(u)
    return out


def require_every_facet(generators: Sequence[Sequence[int]],
                        normals: Iterable[Sequence[int]]) -> None:
    """Raise ValueError unless the normals found by ``brute_facets`` are
    every facet normal of the cone of the generators, whose last
    coordinates are all 1.

    That cone C is pointed, as the last coordinate is positive on it, and
    the normals cut out a cone C' that holds C.  When C' is pointed and each
    of its extreme rays is parallel to a generator, C' lies in C, so C' = C
    and every facet of C is among the normals.  A normal the scan missed
    leaves C' larger: with a line in it, or with an extreme ray parallel to
    no generator.  An extreme ray of C' is the direction on which dim - 1
    independent normals vanish, their signed maximal minors, and on which
    every normal is nonnegative."""
    dim = len(generators[0])
    normals = sorted(tuple(g) for g in normals)
    if dense_rank([list(g) for g in normals]) < dim:
        raise ValueError("the normals found cut out a cone with a line: "
                         "raise coeff_bound")
    for subset in itertools.combinations(normals, dim - 1):
        ray = [(-1) ** k * int_det([list(g[:k] + g[k + 1:]) for g in subset])
               for k in range(dim)]
        values = [sum(map(operator.mul, g, ray)) for g in normals]
        if not any(ray) or (min(values) < 0 < max(values)):
            continue
        if min(values) < 0:
            ray = [-x for x in ray]
        if not any(ray[-1] > 0 and all(x * ray[-1] == r for x, r in zip(p, ray))
                   for p in generators):
            raise ValueError(f"the normals found cut out a cone with the extreme "
                             f"ray {ray}, through no point: raise coeff_bound")


def shoelace_volume(points: list[tuple[int, int]]) -> int:
    """2! vol(conv(0 u A)) for plane points: monotone-chain hull, then shoelace."""
    pts = sorted(set(points) | {(0, 0)})

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    hull = chains[0] + chains[1]
    return abs(sum(x1 * y2 - x2 * y1
                   for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1])))


def ehrhart_volume(points: Sequence[Sequence[int]],
                   max_coeff_bound: int | None = None) -> int:
    """n! vol(conv(0 u A)), the n-th finite difference of the Ehrhart counts
    |k Delta n Z^n| at k = 0, ..., n (Beck-Robins, Computing the Continuous
    Discretely, ch. 3): the count is a polynomial in k of degree n with
    leading coefficient vol(Delta), as Delta is a lattice polytope.

    Delta is cut out by the facet normals (g, e) of the homogenized points
    (a, 1), (0, 1), found by ``brute_facets`` with the least coefficient
    bound ``require_every_facet`` accepts, and k Delta is the set of u with
    g.u + k e >= 0, scanned in k times the bounding box of Delta.  Raises
    ValueError when no bound up to ``max_coeff_bound`` finds every facet."""
    n = len(points[0])
    homogenized = [(*a, 1) for a in points] + [(0,) * n + (1,)]
    for coeff_bound in itertools.count(1):
        normals = brute_facets(homogenized, coeff_bound)
        try:
            require_every_facet(homogenized, normals)
            break
        except ValueError:
            if coeff_bound == max_coeff_bound:
                raise
    facets = [(g[:n], g[n]) for g in normals]
    extent = [(min(0, *column), max(0, *column)) for column in zip(*points)]
    counts = [sum(all(sum(map(operator.mul, c, u)) + k * e >= 0 for c, e in facets)
                  for u in itertools.product(*(range(k * low, k * high + 1)
                                               for low, high in extent)))
              for k in range(n + 1)]
    return sum((-1) ** (n - k) * comb(n, k) * count for k, count in enumerate(counts))


def modp_recurrence_dim(points: list[tuple[int, ...]],
                        relation_basis: list[tuple[int, ...]],
                        alpha_bar: tuple[int, ...], p: int) -> int:
    """Dense, from-scratch nullspace of the mod-p recurrence system.

    Enumerates the support by scanning the whole box, the relation lattice
    by scanning integer combinations, and the constraint rows by scanning
    every shifted exponent.
    """
    N = len(points)
    n = len(points[0])
    support = [v for v in itertools.product(range(p), repeat=N)
               if all(sum(points[j][i] * v[j] for j in range(N)) % p == alpha_bar[i]
                      for i in range(n))]
    index = {v: k for k, v in enumerate(support)}
    rels = set()
    r = len(relation_basis)
    if r:
        for t in itertools.product(range(-(p - 1), p), repeat=r):
            if all(x == 0 for x in t):
                continue
            l = tuple(sum(t[k] * relation_basis[k][j] for k in range(r))
                      for j in range(N))
            if max(abs(x) for x in l) <= p - 1:
                rels.add(l)
    rows = []
    for l in rels:
        lp = tuple(max(x, 0) for x in l)
        lm = tuple(max(-x, 0) for x in l)
        for w in itertools.product(range(p), repeat=N):
            row = [0] * len(support)
            vp = tuple(a + b for a, b in zip(w, lp))
            vm = tuple(a + b for a, b in zip(w, lm))
            touched = False
            if vp in index:
                coeff = 1
                for wj, s in zip(w, lp):
                    for k in range(1, s + 1):
                        coeff = (coeff * (wj + k)) % p
                row[index[vp]] = (row[index[vp]] + coeff) % p
                touched = True
            if vm in index:
                coeff = 1
                for wj, s in zip(w, lm):
                    for k in range(1, s + 1):
                        coeff = (coeff * (wj + k)) % p
                row[index[vm]] = (row[index[vm]] - coeff) % p
                touched = True
            if touched and any(row):
                rows.append(row)
    return len(support) - dense_rank_modp(rows, p)


def apply_box_to_lambda_poly(box_terms: dict, poly_terms: dict) -> dict:
    """A Weyl element, as its terms {(e, b): c} for c lambda^e del^b, applied
    to a polynomial in the parameters, as its terms {exponent: c}: each del_j
    differentiates by hand, one power at a time.  Returns nonzero terms."""
    out: dict[tuple[int, ...], Fraction] = {}
    for (e, b), c in box_terms.items():
        for exp, coeff in poly_terms.items():
            val = Fraction(coeff) * c
            new = list(exp)
            for j, bj in enumerate(b):
                for _ in range(bj):
                    val *= new[j]
                    new[j] -= 1
            if val:
                tgt = tuple(x + y for x, y in zip(new, e))
                out[tgt] = out.get(tgt, Fraction(0)) + val
    return {w: c for w, c in out.items() if c}


def specialize(poly: dict, r: Sequence) -> dict:
    """A polynomial in x and the parameters, as its terms {u + e: c} for
    c x^u lambda^e, at lambda = r: the terms {u: c r^e}, nonzero ones only."""
    out: dict[tuple[int, ...], Fraction] = {}
    for key, c in poly.items():
        u, e = key[:len(key) - len(r)], key[len(key) - len(r):]
        val = Fraction(c)
        for v, p in zip(r, e):
            val *= Fraction(v) ** p
        out[u] = out.get(u, Fraction(0)) + val
    return {u: c for u, c in out.items() if c}


def falling_product(w: int, steps: int, p: int) -> int:
    """(w+1)(w+2)...(w+steps) mod p."""
    out = 1
    for k in range(1, steps + 1):
        out = (out * (w + k)) % p
    return out


def rational_inverse(mat: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse over the rationals of a nonsingular square matrix, by
    Gauss-Jordan elimination on [mat | identity]."""
    k = len(mat)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
            for i, row in enumerate(mat)]
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[k:] for row in rows]


def cleared(vec: dict) -> dict:
    """vec times the lcm of its denominators: the same line over Q with
    integer coefficients, as RationalEchelon takes it."""
    denom = lcm(*(Fraction(c).denominator for c in vec.values()))
    return {key: int(c * denom) for key, c in vec.items()}


def lattice_points_in_box(lattice: RelationLattice, bound: int) -> list[tuple[int, ...]]:
    """All nonzero relation vectors with sup-norm at most the bound, one of
    each +- pair.

    Coefficients against the saturated basis are recovered by an exact
    rational pseudo-inverse, which bounds the search box for combinations.
    """
    if lattice.rank == 0:
        return []
    basis = [list(l) for l in lattice.basis]
    r = len(basis)
    N = len(basis[0])
    # pseudo-inverse P with P @ basis^T = identity
    gram = [[sum(basis[i][k] * basis[j][k] for k in range(N)) for j in range(r)]
            for i in range(r)]
    gram_inv = rational_inverse(gram)
    # t = gram_inv @ basis @ l for l in the lattice; bound each |t_k|
    proj = [[sum(gram_inv[i][j] * basis[j][k] for j in range(r)) for k in range(N)]
            for i in range(r)]
    t_bounds = [int(sum(abs(x) for x in proj[i]) * bound) for i in range(r)]
    out = []
    for t in itertools.product(*[range(-tb, tb + 1) for tb in t_bounds]):
        if all(x == 0 for x in t):
            continue
        l = tuple(sum(t[i] * basis[i][k] for i in range(r)) for k in range(N))
        if max(abs(x) for x in l) <= bound:
            out.append(l)
    # keep one of each +-pair
    seen = set()
    kept = []
    for l in sorted(out):
        if tuple(-x for x in l) in seen:
            continue
        seen.add(l)
        kept.append(l)
    return kept


def relation_scan_killed_fibers(instance, support: Sequence[tuple[int, ...]]
                                ) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each fiber b = Av of the support that leaks, mapped to its first
    member v (in support order) with u = v - l >= 0 and max u >= p for some
    nonzero relation l of sup norm at most p - 1, found by shifting every
    member by every such relation, taken with both signs."""
    p = instance.p
    matrix = instance.config.matrix()
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for v in support:
        fibers.setdefault(tuple(matvec(matrix, v)), []).append(v)
    relations = lattice_points_in_box(relation_lattice(instance.config), p - 1)
    steps = relations + [tuple(-x for x in l) for l in relations]
    killed = {}
    for key, members in fibers.items():
        for v in members:
            shifted = ([a - b for a, b in zip(v, l)] for l in steps)
            if any(min(u) >= 0 and max(u) >= p for u in shifted):
                killed[key] = v
                break
    return killed


def all_recurrence_rows(instance, support: Sequence[tuple[int, ...]],
                        relations: Iterable[tuple[int, ...]] | None = None) -> list[dict]:
    """Linear constraints on the support coefficients from the box operators.

    For each relation l and each shifted exponent w the operator equates the
    falling-factorial multiple of c_{w + l+} with that of c_{w + l-};
    coefficients outside the support are absent (zero).  By default the
    relations are those of sup norm at most max(p - 1, spread of the
    support).  A relation with an entry of magnitude at least p does not give
    rows that vanish mod p: each of its rows joins a support point to an
    exponent outside the box, a single-entry row.  Adding them left the
    dimension unchanged on bessel, trinomial and plane2 at p = 7, 11 and 13
    (test_long_relations_leave_dimension_unchanged).
    """
    p = instance.p
    supp = set(support)
    if relations is None:
        lattice = relation_lattice(instance.config)
        spread = max((max(abs(x) for x in v) for v in support), default=0)
        relations = lattice_points_in_box(lattice, max(p - 1, spread))
    rows = []
    seen_rows = set()
    for l in relations:
        lp = tuple(max(x, 0) for x in l)
        lm = tuple(max(-x, 0) for x in l)
        ws = set()
        for v in supp:
            w_plus = tuple(a - b for a, b in zip(v, lp))
            if all(x >= 0 for x in w_plus):
                ws.add(w_plus)
            w_minus = tuple(a - b for a, b in zip(v, lm))
            if all(x >= 0 for x in w_minus):
                ws.add(w_minus)
        for w in ws:
            row: dict[tuple[int, ...], int] = {}
            vp = tuple(a + b for a, b in zip(w, lp))
            if vp in supp:
                coeff = 1
                for wj, steps in zip(w, lp):
                    coeff = (coeff * falling_product(wj, steps, p)) % p
                if coeff:
                    row[vp] = coeff
            vm = tuple(a + b for a, b in zip(w, lm))
            if vm in supp:
                coeff = 1
                for wj, steps in zip(w, lm):
                    coeff = (coeff * falling_product(wj, steps, p)) % p
                if coeff:
                    row[vm] = (row.get(vm, 0) - coeff) % p
            row = {k: c % p for k, c in row.items() if c % p}
            if row:
                key = tuple(sorted(row.items()))
                if key not in seen_rows:
                    seen_rows.add(key)
                    rows.append(row)
    return rows


def apply_D_by_parts(i: int, alpha, f, xi):
    """x_i d/dx_i + alpha_i + (x_i df/dx_i), one ring operation at a time."""
    return (toric_derivative(i, xi) + xi.scalar_mul(alpha.entries[i - 1])
            + toric_derivative(i, f) * xi)


def nabla_by_parts(alpha, f, omega):
    """The twisted differential, adding dx_i/x_i ^ D_i(xi) one piece at a time."""
    n, k = omega.n, omega.degree
    if k == n:
        return LogForm.zero(n, n, omega.nlam)
    out = LogForm.zero(n, k + 1, omega.nlam)
    for idx, xi in omega.components.items():
        for i in range(1, n + 1):
            if i in idx:
                continue
            piece = apply_D_by_parts(i, alpha, f, xi)
            if sum(1 for j in idx if j < i) % 2:
                piece = -piece
            out = out + LogForm(n, k + 1, {tuple(sorted(idx + (i,))): piece},
                                omega.nlam)
    return out


def divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient p / q among Laurent polynomials, or None if q does not
    divide p.  Specialized parameters (nlam = 0) only.

    Monomials are units, so divisibility is decided after shifting both
    operands to ordinary polynomials; leading-term reduction under the
    lexicographic order then either terminates at zero or certifies
    non-divisibility.
    """
    if p.nlam or q.nlam:
        raise ScalarModeError("exact division needs specialized coefficients")
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.n)
    n = p.n
    shift_p = tuple(min(u[i] for u in p.terms) for i in range(n))
    shift_q = tuple(min(u[i] for u in q.terms) for i in range(n))
    num = {tuple(a - b for a, b in zip(u, shift_p)): c for u, c in p.terms.items()}
    den = {tuple(a - b for a, b in zip(u, shift_q)): c for u, c in q.terms.items()}
    lead_q = max(den)
    lead_qc = den[lead_q]
    quot: dict[IntVec, Fraction] = {}
    while num:
        lead_p = max(num)
        diff = tuple(a - b for a, b in zip(lead_p, lead_q))
        if any(d < 0 for d in diff):
            return None
        coeff = Fraction(num[lead_p]) / lead_qc
        quot[diff] = coeff
        for u, c in den.items():
            tgt = tuple(a + b for a, b in zip(u, diff))
            s = num.get(tgt, Fraction(0)) - coeff * c
            if s:
                num[tgt] = s
            else:
                num.pop(tgt, None)
    out_shift = tuple(a - b for a, b in zip(shift_p, shift_q))
    return LaurentPoly._of(n, {tuple(a + b for a, b in zip(u, out_shift)): c
                               for u, c in quot.items()})


class LocalizedElement:
    """num / g^m with a Laurent numerator, kept in lowest g-terms.

    Negative powers of g are folded into the numerator, so m >= 0 always and
    g does not divide num unless m = 0; with that normalization the pair
    (num, m) is a canonical form and equality is termwise.  The constructor
    normalizes, one exact division by g per factor stripped, and so does
    every operation below.
    """

    __slots__ = ("g", "num", "gpow")

    def __init__(self, g: LaurentPoly, num: LaurentPoly, gpow: int):
        if g.is_zero():
            raise ZeroDivisionError("localization at the zero polynomial")
        self.g = g
        if num.is_zero():
            self.num = num
            self.gpow = 0
            return
        while gpow < 0:
            num = num * g
            gpow += 1
        while gpow > 0:
            q = divide_exact(num, g)
            if q is None:
                break
            num = q
            gpow -= 1
        self.num = num
        self.gpow = gpow

    @staticmethod
    def zero(g: LaurentPoly) -> "LocalizedElement":
        return LocalizedElement(g, LaurentPoly.zero(g.n), 0)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, LocalizedElement) and self.g == other.g
                and self.gpow == other.gpow and self.num == other.num)

    def __add__(self, other: "LocalizedElement") -> "LocalizedElement":
        if self.g != other.g:
            raise ValueError("localized elements over different denominators")
        m = max(self.gpow, other.gpow)
        a = self.num
        for _ in range(m - self.gpow):
            a = a * self.g
        b = other.num
        for _ in range(m - other.gpow):
            b = b * self.g
        return LocalizedElement(self.g, a + b, m)

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(self.g, -self.num, self.gpow)

    def __sub__(self, other: "LocalizedElement") -> "LocalizedElement":
        return self + (-other)

    def scale(self, c) -> "LocalizedElement":
        return LocalizedElement(self.g, self.num.scalar_mul(c), self.gpow)

    def toric_derivative(self, i: int) -> "LocalizedElement":
        """x_i d/dx_i via the quotient rule."""
        first = LocalizedElement(self.g, toric_derivative(i, self.num), self.gpow)
        if self.gpow == 0:
            return first
        second = LocalizedElement(
            self.g, self.num * toric_derivative(i, self.g), self.gpow + 1)
        return first + second.scale(-self.gpow)

    def __repr__(self) -> str:
        return f"({self.num})/g^{self.gpow}"


def _add_component(out: dict[IndexTuple, LocalizedElement], idx: IndexTuple,
                   elem: LocalizedElement) -> None:
    """Add elem into the component idx of out, dropping it if it cancels."""
    s = out[idx] + elem if idx in out else elem
    if s.is_zero():
        out.pop(idx, None)
    else:
        out[idx] = s


def gamma_per_monomial(alpha: ParameterVector, g: LaurentPoly,
                       part1: LogForm) -> dict[IndexTuple, LocalizedElement]:
    """Comparison map dropping the trailing dx_n/x_n, as its nonzero
    components in lowest g-terms.

    A monomial with last exponent m >= 0 maps to its first n-1 coordinates
    over g^m, weighted by (-1)^m times the rising factorial of the last
    parameter entry.
    """
    if part1.nlam:
        raise ValueError("comparison map needs specialized coefficients")
    alpha_n = alpha.entries[-1]
    out: dict[IndexTuple, LocalizedElement] = {}
    for idx, xi in part1.components.items():
        acc = LocalizedElement.zero(g)
        for u, c in xi.terms.items():
            weight = complement_weight(alpha_n, u[-1]) * c
            if weight != 0:
                acc = acc + LocalizedElement(
                    g, LaurentPoly.monomial(u[:-1], weight), u[-1])
        _add_component(out, idx, acc)
    return out


def tilde_nabla_per_piece(alpha: ParameterVector, g: LaurentPoly,
                          omega: dict[IndexTuple, LocalizedElement]
                          ) -> dict[IndexTuple, LocalizedElement]:
    """Twisted differential on the complement: logarithmic part in the first
    n-1 directions minus the last parameter entry times dg/g, on a form given
    by its nonzero components, each in lowest g-terms."""
    nprime = g.n
    if alpha.n != nprime + 1:
        raise ValueError("parameter must have one more entry than g has variables")
    alpha_n = alpha.entries[-1]
    out: dict[IndexTuple, LocalizedElement] = {}
    for idx, eta in omega.items():
        for i in range(1, nprime + 1):
            ins = wedge_insert(i, idx)
            if ins is None:
                continue
            sign, target = ins
            piece = eta.toric_derivative(i) + eta.scale(alpha.entries[i - 1])
            correction = LocalizedElement(
                g, eta.num * toric_derivative(i, g), eta.gpow + 1)
            piece = piece + correction.scale(-alpha_n)
            if sign < 0:
                piece = -piece
            _add_component(out, target, piece)
    return out


def _staying_basis(steps, n: int):
    """The combinations c of the derivations with c.a = 0 for each step a
    whose shift leaves the window, keyed by the positions of those steps."""
    units = [[int(i == k) for k in range(n)] for i in range(n)]

    @functools.cache
    def basis(out: tuple[int, ...]) -> list[list[int]]:
        return integer_kernel([list(steps[k]) for k in out]) if out else units
    return basis


def window_generators_per_window(win: CohomologyWindow, alpha: ParameterVector,
                                 lam: Sequence[Fraction]) -> Iterator[tuple[int, dict]]:
    """Images of window monomials under the twisted derivation combinations
    that stay inside the window, as sparse vectors keyed by window column.

    Yields (column, vector) for each window point u and each combination c
    of ``staying_combinations`` with a nonzero image: the entry at u's own
    column is c.(u + alpha), and the entry at u + a is lambda_a c.a for
    each point a.
    """
    index = win.index
    steps = [(a, v) for a, v in zip(win.config.points, lam) if v and any(a)]
    basis = _staying_basis([a for a, _ in steps], win.config.n)
    for col, u in enumerate(win.points):
        targets = [index.get(tuple(x + y for x, y in zip(u, a))) for a, _ in steps]
        for c in basis(tuple(k for k, t in enumerate(targets) if t is None)):
            vec: dict[int, Fraction] = {}
            diag = sum(ci * (a + x) for ci, a, x in zip(c, alpha.entries, u))
            if diag:
                vec[col] = diag
            for (a, v), t in zip(steps, targets):
                coeff = sum(ci * x for ci, x in zip(c, a))
                if coeff:
                    vec[t] = v * coeff
            if vec:
                yield col, vec


def torus_window_dims(config: PointConfig, alpha: ParameterVector, lam: Sequence,
                      support, bound: int) -> tuple[int, int]:
    """The (B-1, B) window quotient dimensions on the torus: each window
    scans its own box and eliminates its own generators."""
    dims = []
    for win in (CohomologyWindow(config, support, bound - 1),
                CohomologyWindow(config, support, bound)):
        ech = RationalEchelon()
        for _, vec in window_generators_per_window(win, alpha, lam):
            ech.insert(cleared(vec))
        dims.append(len(win.points) - ech.rank)
    return tuple(dims)


def u_quotient_dim_per_window(alpha: ParameterVector, lam: tuple[Fraction, ...],
                              g: LaurentPoly, win: CohomologyWindow) -> int:
    """Window quotient of top-degree forms on the complement by the image of
    the twisted differential.

    The window elements are x'^{u'} / g^m for u = (u', m) in the Newton
    window with m >= 0, written as numerators x'^{u'} g^(M-m) at the common
    denominator g^M.  As D_n acts as the identity g / g^{m+1} = 1 / g^m, the
    combination sum_i c_i D_i (c in Q^n) sends u to c.(u + alpha) times u
    minus (m + alpha_n) times the sum of (c.a) lambda_a (u + a) over the
    points a.  That is the torus generator of ``window_generators`` at u
    with each entry off u's own column scaled by -(m + alpha_n), and each
    column read as its numerator.  The quotient dimension is the rank of the
    numerators minus the rank of the generators.
    """
    alpha_n = alpha.entries[-1]
    points = win.points
    M = max((pt[-1] for pt in points), default=0)
    g_pows = g_powers(g, M)
    nums = [g_pows[M - pt[-1]].shift(pt[:-1]) for pt in points]
    span_ech = RationalEchelon()
    for num in nums:
        span_ech.insert(cleared(num.terms))
    gen_ech = RationalEchelon()
    for col, vec in window_generators_per_window(win, alpha, lam):
        scale = -(points[col][-1] + alpha_n)
        out: dict[IntVec, Fraction] = {}
        for key, coeff in vec.items():
            _add_scaled(out, nums[key], coeff if key == col else coeff * scale)
        gen_ech.insert(cleared(out))
    return span_ech.rank - gen_ech.rank


def u_window_dims(config: PointConfig, alpha: ParameterVector, lam: Sequence,
                  bound: int) -> tuple[int, int]:
    """The (B-1, B) window quotient dimensions on the complement, on the
    normalized configuration and pre-twisted parameter, one window at a
    time."""
    lam = tuple(Fraction(v) for v in lam)
    config, alpha, _ = normalize_structure(config, alpha)
    alpha_n = alpha.entries[-1]
    if alpha_n.denominator == 1 and alpha_n < 1:
        alpha = alpha.shift((0,) * (config.n - 1) + (int(1 - alpha_n),))
    g = build_g(config, lam)
    return tuple(u_quotient_dim_per_window(alpha, lam, g, CohomologyWindow(
        config, HalfSupport(config.n), b)) for b in (bound - 1, bound))


def u_quotient_dim(config, alpha, g: LaurentPoly, bound: int) -> int:
    """Window quotient of top-degree forms on the complement by the image of
    the twisted differential, for a configuration with last coordinate 1 and
    a last parameter entry that is not a nonpositive integer.

    The window elements are x'^{u'} / g^m for u = (u', m) in the Newton
    window with m >= 0, written as numerators at the common denominator
    g^M.  The combination sum_i c_i D_i sends u to c.(u + alpha) times u
    minus (m + alpha_n) times the sum of (c.a) lambda_a (u + a) over the
    points a, read through the numerators.
    """
    alpha_n = alpha.entries[-1]
    win = CohomologyWindow(config, HalfSupport(config.n), bound)
    points = win.points
    M = max((pt[-1] for pt in points), default=0)
    g_pows = g_powers(g, M)

    cache: dict[tuple, dict] = {}

    def numvec(pt) -> dict:
        if pt not in cache:
            up, m = pt[:-1], pt[-1]
            cache[pt] = dict((LaurentPoly.monomial(up) * g_pows[M - m]).terms)
        return cache[pt]

    span_ech = RationalEchelon()
    for pt in points:
        span_ech.insert(cleared(numvec(pt)))

    # x^{u'} / g^m is the monomial (u', m); its shifts are the points (w, 1)
    steps = [((*w, 1), c) for w, c in g.terms.items()]
    basis = _staying_basis([a for a, _ in steps], config.n)
    gen_ech = RationalEchelon()
    for pt in points:
        targets = [tuple(x + y for x, y in zip(pt, a)) for a, _ in steps]
        for c in basis(tuple(k for k, t in enumerate(targets) if t not in win.index)):
            vec: dict = {}
            terms = [(pt, sum(ci * (x + a) for ci, x, a in zip(c, pt, alpha.entries)))]
            terms += [(tgt, -(pt[-1] + alpha_n) * cw * sum(ci * x for ci, x in zip(c, a)))
                      for (a, cw), tgt in zip(steps, targets)]
            for tgt, coeff in terms:
                # a shift that leaves the window has coefficient 0 and no numerator
                for wkey, cv in (numvec(tgt).items() if coeff else ()):
                    vec[wkey] = vec.get(wkey, Fraction(0)) + coeff * cv
            if any(vec.values()):
                gen_ech.insert(cleared(vec))
    return span_ech.rank - gen_ech.rank


def kernel_equals_dv_image(alpha: ParameterVector, g: LaurentPoly, k: int,
                           u_bound: int, m_bound: int) -> bool:
    """Within a window, the kernel of the comparison map on the dx_n/x_n row
    coincides with the vertical image of the other row.

    The vertical image always lies in the kernel (chain-map identity), so
    the subspaces agree exactly when the two dimensions match.  Requires the
    last parameter entry to avoid nonpositive integers, which makes the
    rising factorials nonzero.
    """
    alpha_n = alpha.entries[-1]
    if alpha_n.denominator == 1 and alpha_n <= 0:
        raise PochhammerPoleError(
            "last parameter entry is a nonpositive integer")
    nprime = g.n
    idx_tuples = list(itertools.combinations(range(1, nprime + 1), k))
    basis = [(up, m, idx) for idx in idx_tuples
             for up in centered_box(nprime, u_bound) for m in range(m_bound + 1)]

    # gamma matrix: columns indexed by basis, target keyed by numerator
    # monomials at the common denominator g^{m_bound}
    g_pows = g_powers(g, m_bound)
    gamma_cols = []
    for up, m, idx in basis:
        num = LaurentPoly.monomial(up, complement_weight(alpha_n, m)) * g_pows[m_bound - m]
        gamma_cols.append({(w, idx): c for w, c in num.terms.items()})
    # kernel dimension of the matrix whose columns are gamma images
    col_ech = RationalEchelon()
    for col in gamma_cols:
        col_ech.insert(cleared(col))
    ker_dim = len(basis) - col_ech.rank

    # vertical-image generators confined to the window: the numerator box
    # eroded by the support of g, so every image term stays inside
    eroded = [up for up in centered_box(nprime, u_bound)
              if all(max(abs(a + b) for a, b in zip(up, w)) <= u_bound
                     for w in g.terms)]
    ech_v = RationalEchelon()
    for idx in idx_tuples:
        sign = -1 if k % 2 else 1
        for up in eroded:
            for m in range(m_bound):
                vec: dict = {}
                diag = alpha_n + m
                if diag:
                    vec[(up, m, idx)] = diag * sign
                for w, c in g.terms.items():
                    tgt = tuple(a + b for a, b in zip(up, w))
                    key = (tgt, m + 1, idx)
                    vec[key] = vec.get(key, Fraction(0)) + c * sign
                if vec:
                    ech_v.insert(cleared(vec))
    return ker_dim == ech_v.rank


def homotopy_rho(ell: FacetForm, omega: LogForm) -> LogForm:
    """Contraction against the facet form: alternating sum over dropped indices."""
    return contract(ell.coeffs, omega)


def contract(weights: Sequence[int], omega: LogForm) -> LogForm:
    """Contraction against the linear form with coefficients weights."""
    n = omega.n
    if omega.degree == 0:
        return LogForm.zero(n, 0, omega.nlam)
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for idx, xi in omega.components.items():
        for pos, i in enumerate(idx):
            c = weights[i - 1]
            if c == 0:
                continue
            _add_scaled(acc.setdefault(idx[:pos] + idx[pos + 1:], {}), xi,
                        c if pos % 2 == 0 else -c)
    return _form(n, omega.degree - 1, acc, omega.nlam)


def homotopy_identity_per_facet(facets: Sequence[FacetForm], alpha: ParameterVector,
                                config: PointConfig,
                                samples: Sequence[LogForm]) -> FacetForm | None:
    """The contraction against each facet form is a homotopy for
    multiplication by the facet value.

    On a monomial form with exponent u the anticommutator of the twisted
    differential and the contraction against ell multiplies by
    ell(alpha + u) and shifts by each point weighted with lambda_j ell(a(j));
    checked exactly with symbolic parameters.  One pass over the samples
    computes the differential of each sample once and checks every facet
    against it.  The contraction is linear in the facet form, so the
    differential of the contraction against ell is the ell_i-weighted sum of
    the differentials of the contractions against the unit forms e_i, each
    computed once per sample.  Both sides are scaled by the clearing scale
    d of alpha: (d nabla) rho + rho (d nabla) is d times the right-hand side,
    and every coefficient is an integer on integer samples.  Returns the
    first facet, in the given order, on which the identity fails, or None.
    """
    facets = list(facets)
    f = build_f_symbolic(config)
    n, N = config.n, config.N
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    d = clearing_scale(alpha, f)
    dd = TwistedDerivations(alpha, f, d)
    # per facet: d ell(alpha) and, for each term lambda_j x^a(j) of f, the
    # weight d ell(a(j)) of its shift; ell reads the first n coordinates of a key
    sides = [(int_if_integral(d * ell.evaluate(alpha.entries)),
              [d * ell.evaluate(key) for key in f.terms]) for ell in facets]
    # facets[:live] have held on every sample so far; a failure cuts the rest
    live = len(facets)
    for omega in samples:
        if not live:
            break
        if omega.nlam != N:
            raise ValueError("samples must carry symbolic coefficients")
        k = omega.degree
        d_omega = nabla(dd, omega) if k < n else None
        # nabla of the contraction against e_i, for each index i of omega
        indices = sorted({i for idx in omega.components for i in idx})
        d_dropped = [(i - 1, nabla(dd, contract(units[i - 1], omega)))
                     for i in indices]
        # each term of omega with its shifts by the terms of f, for every facet
        terms = [(idx, u, c, [tuple(map(operator.add, u, key)) for key in f.terms])
                 for idx, xi in omega.components.items() for u, c in xi.terms.items()]
        for pos, (ell, (ell_alpha, weights)) in enumerate(zip(facets[:live], sides)):
            # lhs minus rhs, accumulated term by term
            acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
            if d_omega is not None:
                for idx, p in homotopy_rho(ell, d_omega).components.items():
                    _add_scaled(acc.setdefault(idx, {}), p, 1)
            for i, d_form in d_dropped:
                if ell.coeffs[i]:
                    for idx, p in d_form.components.items():
                        _add_scaled(acc.setdefault(idx, {}), p, ell.coeffs[i])
            for idx, u, c, shifted in terms:
                out = acc.setdefault(idx, {})
                t = c * (ell_alpha + d * ell.evaluate(u))
                out[u] = out[u] - t if u in out else -t
                for w, weight in zip(shifted, weights):
                    if weight:
                        t = c * weight
                        out[w] = out[w] - t if w in out else -t
            if any(c for terms in acc.values() for c in terms.values()):
                live = pos
                break
    return facets[live] if live < len(facets) else None


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Exact product in normal order."""
    if a.nvars != b.nvars:
        raise ValueError("parameter count mismatch")
    n = a.nvars
    out: dict[TermKey, Fraction] = {}
    for (e1, b1), c1 in a.terms.items():
        for (e2, b2), c2 in b.terms.items():
            base = c1 * c2
            # commute del^{b1} past lambda^{e2}, one index at a time
            ranges = [range(min(p, q) + 1) for p, q in zip(b1, e2)]
            for k in itertools.product(*ranges):
                coeff = base
                for kj, pj, qj in zip(k, b1, e2):
                    if kj:
                        coeff *= factorial(kj) * comb(pj, kj) * comb(qj, kj)
                e = tuple(x + y - z for x, y, z in zip(e1, e2, k))
                d = tuple(x + y - z for x, y, z in zip(b1, b2, k))
                key = (e, d)
                s = out.get(key, Fraction(0)) + coeff
                if s:
                    out[key] = s
                else:
                    del out[key]
    return WeylElement(n, out)


def check_phi_intertwines(w: WeylElement, i: int, alpha: ParameterVector,
                          config: PointConfig) -> bool:
    """The two transport identities for phi, checked with symbolic parameters.

    (a) Right multiplication by the Euler operator (with the parameter sign
        flipped, matching the Euler sign convention) maps to the twisted
        derivation:  phi(w . Z_{i,-alpha}) = D_{i,alpha}(phi(w)).
    (b) Left multiplication by del_j maps to the parameter derivative plus
        multiplication by the j-th point monomial.
    """
    f = build_f_symbolic(config)
    img = phi_map(w, config)

    lhs_a = phi_map(weyl_mul(w, euler_operator(config, i, alpha.negate())), config)
    rhs_a = apply_D_by_parts(i, alpha, f, img)
    if lhs_a != rhs_a:
        return False

    for j in range(1, config.N + 1):
        lhs_b = phi_map(weyl_mul(WeylElement.partial(j, config.N), w), config)
        rhs_b = lambda_derivative(img, j) + img.shift(config.points[j - 1])
        if lhs_b != rhs_b:
            return False
    return True



def tilde_nabla(alpha: ParameterVector, g: LaurentPoly, omega: GForm) -> GForm:
    """Twisted differential on the complement: logarithmic part in the first
    n-1 directions minus the last parameter entry times dg/g.

    By the quotient rule, direction i sends num / g^m to
    ((x_i d/dx_i + alpha_i) num g - (m + alpha_n) num x_i dg/dx_i) / g^(m+1),
    so the image is one numerator over g^(m+1), not reduced.
    """
    nprime = g.n
    if alpha.n != nprime + 1:
        raise ValueError("parameter must have one more entry than g has variables")
    degree = omega.num.degree
    if degree == nprime:
        return GForm(g, LogForm.zero(nprime, nprime), 0)
    m = omega.gpow
    alpha_n = alpha.entries[-1]
    dg = [toric_derivative(i, g) for i in range(1, nprime + 1)]
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for idx, num in omega.num.components.items():
        for i in range(1, nprime + 1):
            ins = wedge_insert(i, idx)
            if ins is None:
                continue
            sign, target = ins
            a_i = alpha.entries[i - 1]
            d_num = LaurentPoly._of(nprime, {u: c * (u[i - 1] + a_i)
                                             for u, c in num.terms.items()})
            piece = d_num * g + (num * dg[i - 1]).scalar_mul(-(m + alpha_n))
            _add_scaled(acc.setdefault(target, {}), piece, sign)
    return GForm(g, _form(nprime, degree + 1, acc, 0), m + 1)


def gamma(alpha: ParameterVector, g: LaurentPoly, part1: LogForm) -> GForm:
    """Comparison map dropping the trailing dx_n/x_n.

    A monomial with last exponent m >= 0 maps to its first n-1 coordinates
    over g^m, weighted by (-1)^m times the rising factorial of the last
    parameter entry.  Every term is put over g^M, M the larger of 0 and the
    largest last exponent, as one numerator, not reduced.
    """
    if part1.nlam:
        raise ValueError("comparison map needs specialized coefficients")
    alpha_n = alpha.entries[-1]
    weights: dict[int, Fraction] = {}
    by_m: dict[tuple[IndexTuple, int], dict[IntVec, Fraction]] = {}
    for idx, xi in part1.components.items():
        for u, c in xi.terms.items():
            m = u[-1]
            if m not in weights:
                weights[m] = complement_weight(alpha_n, m)
            by_m.setdefault((idx, m), {})[u[:-1]] = weights[m] * c
    ms = [m for _, m in by_m]
    M = max([0, *ms])
    pows = g_powers(g, M - min(ms, default=M))
    acc: dict[IndexTuple, dict[IntVec, Fraction]] = {}
    for (idx, m), terms in by_m.items():
        num = LaurentPoly._of(g.n, terms)
        _add_scaled(acc.setdefault(idx, {}), num if m == M else num * pows[M - m], 1)
    return GForm(g, _form(g.n, part1.degree, acc, 0), M)


def same_form(a: GForm, b: GForm) -> bool:
    """a and b are one form on the complement of one g: the numerator over
    the lower power of g, multiplied up to the higher, is the other."""
    low, high = sorted((a, b), key=lambda w: w.gpow)
    up = g_powers(a.g, high.gpow - low.gpow)[-1]
    return a.g == b.g and LogForm(low.num.n, low.num.degree, {
        idx: p * up for idx, p in low.num.components.items()}) == high.num


def check_gamma_chain_map(alpha: ParameterVector, g: LaurentPoly,
                          samples: Sequence[LogForm]) -> bool:
    """The comparison map intertwines the boundaries and kills the vertical
    image: gamma(d_h w) = tilde_nabla(gamma(w)) on the dx_n/x_n row and
    gamma(d_v v) = 0 for the other row, each sample taken as w and as v."""
    D = _derivations_by_parts(alpha, g, 1)
    for form in samples:
        if form.degree < g.n:
            lhs = gamma(alpha, g, d_h(D, form))
            rhs = tilde_nabla(alpha, g, gamma(alpha, g, form))
            if not same_form(lhs, rhs):
                return False
        if not gamma(alpha, g, d_v(D, form)).is_zero():
            return False
    return True
