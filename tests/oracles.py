"""Independent brute-force oracles used to pin expected test values.

Everything here is deliberately naive and shares no code path with the
package internals it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


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


def brute_facets(points: list[tuple[int, ...]], coeff_bound: int) -> set[tuple[int, ...]]:
    """All primitive one-sided normals with a spanning equality set, found by
    scanning an integer coefficient box."""
    n = len(points[0])
    out = set()
    for c in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        if all(x == 0 for x in c):
            continue
        g = 0
        for x in c:
            g = gcd(g, abs(x))
        if g != 1:
            continue
        values = [sum(ci * pi for ci, pi in zip(c, p)) for p in points]
        if any(v < 0 for v in values):
            continue
        on_face = [p for p, v in zip(points, values) if v == 0]
        if n == 1:
            # one-sidedness alone suffices: the equality set spans the
            # zero-dimensional space no matter what
            out.add(c)
            continue
        if on_face and dense_rank([[Fraction(x) for x in p] for p in on_face]) == n - 1:
            out.add(c)
    return out


def brute_positive_combination(points: list[tuple[int, ...]], u: tuple[int, ...],
                               coeff_bound: int) -> bool:
    """Is u a nonnegative integer combination with coefficients <= bound?"""
    for coeffs in itertools.product(range(coeff_bound + 1), repeat=len(points)):
        if all(sum(c * p[i] for c, p in zip(coeffs, points)) == u[i]
               for i in range(len(u))):
            return True
    return False


def brute_cone_window(points: list[tuple[int, ...]], cap: int) -> set[tuple[int, ...]]:
    """Every sum of c_j times the j-th point with sum of c_j h(a_j) <= cap,
    where h is the sum of the facet normals from brute_facets.

    Enumerates coefficient vectors directly; for pointed cones only, where h
    is positive on every nonzero point.
    """
    n = len(points[0])
    normals = brute_facets(points, 4)
    weights = [sum(sum(c[i] for c in normals) * p[i] for i in range(n)) for p in points]
    steps = [(p, w) for p, w in zip(points, weights) if any(p)]
    assert all(w > 0 for _, w in steps), "cone is not pointed"
    out = set()
    for coeffs in itertools.product(*(range(cap // w + 1) for _, w in steps)):
        if sum(c * w for c, (_, w) in zip(coeffs, steps)) <= cap:
            out.add(tuple(sum(c * p[i] for c, (p, _) in zip(coeffs, steps))
                          for i in range(n)))
    return out


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
