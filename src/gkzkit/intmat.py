"""Exact integer matrix routines: gcd bookkeeping, the column Hermite form,
and what is read off it (kernels, solutions, lattice indices, inverses).

All matrices are lists of lists of Python ints; nothing here ever touches
floating point.
"""

from __future__ import annotations

from math import prod
from operator import mul


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def column_hermite(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Return (H, V, pivots) with mat @ V = H and V unimodular.

    The first r = len(pivots) columns of H are in reduced column echelon
    form: column t has its first nonzero entry, the pivot, positive and in
    row pivots[t], the pivot rows increase, and the entries of row pivots[t]
    left of its pivot lie in [0, pivot).  The later columns of H are zero.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    H = [list(row) for row in mat]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # cols i, j <- (x*col_i + y*col_j, z*col_i + w*col_j); xw - yz = 1
        for row in H + V:
            a, b = row[i], row[j]
            row[i] = x * a + y * b
            row[j] = z * a + w * b

    pivots: list[int] = []
    for i, hrow in enumerate(H):
        r = len(pivots)
        if r == n:
            break
        for j in range(r + 1, n):
            b = hrow[j]
            if b:
                g, x, y = xgcd(hrow[r], b)
                col_op(r, j, x, y, -b // g, hrow[r] // g)
        a = hrow[r]
        if a == 0:
            continue
        if a < 0:
            for row in H + V:
                row[r] = -row[r]
            a = -a
        for k in range(r):
            q = hrow[k] // a
            if q:
                col_op(k, r, 1, -q, 0, 1)
        pivots.append(i)
    return H, V, pivots


def integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Saturated basis of {x : mat @ x = 0} as a list of length-n vectors.

    These are the columns of the unimodular V of the Hermite form past the
    rank, so the basis extends to a basis of the ambient lattice.
    """
    _, V, pivots = column_hermite(mat)
    return [list(col) for col in zip(*V)][len(pivots):]


def solve_integer(mat: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One integer solution of mat @ x = rhs, or None if there is none.

    Writing x = V @ y, forward substitution solves H @ y = rhs row by row:
    a pivot row fixes the next entry of y, every other row must already hold.
    """
    H, V, pivots = column_hermite(mat)
    y: list[int] = []
    for i, row in enumerate(H):
        t = len(y)
        rest = rhs[i] - sum(map(mul, row, y))
        if t < len(pivots) and pivots[t] == i:
            q, rem = divmod(rest, row[t])
            if rem:
                return None
            y.append(q)
        elif rest:
            return None
    return matvec(V, y)


def lattice_index(mat: list[list[int]]) -> int:
    """The index in Z^m of the lattice the columns of mat generate, or 0
    when they do not span: the product of the Hermite form's pivots."""
    H, _, pivots = column_hermite(mat)
    if len(pivots) < len(mat):
        return 0
    return prod(H[i][t] for t, i in enumerate(pivots))


def unimodular_inverse(mat: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix.

    With mat @ V = H from the Hermite form, mat is unimodular exactly when H
    is the identity, and then its inverse is V.
    """
    H, V, _ = column_hermite(mat)
    if H != [[int(i == j) for j in range(len(V))] for i in range(len(V))]:
        raise ValueError("matrix is not unimodular")
    return V


def complete_primitive_vector(w: list[int]) -> list[list[int]]:
    """A unimodular matrix whose last row is the primitive vector w."""
    H, V, _ = column_hermite([list(w)])
    if H[0][0] != 1:
        raise ValueError("vector is not primitive")
    # w @ V = e_1, so w is the first row of V^{-1}
    vinv = unimodular_inverse(V)
    return vinv[1:] + vinv[:1]
