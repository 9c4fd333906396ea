"""Exact integer matrix routines: gcd bookkeeping, Smith normal form, kernels.

All matrices are lists of lists of Python ints; nothing here ever touches
floating point.
"""

from __future__ import annotations


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


def identity_matrix(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U @ mat @ V = D, U and V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain
    d_1 | d_2 | ... (zeros, if any, come last).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def row_op(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # rows i, j <- (x*row_i + y*row_j, z*row_i + w*row_j); det must be +-1
        for M, width in ((A, n), (U, m)):
            for c in range(width):
                ri, rj = M[i][c], M[j][c]
                M[i][c] = x * ri + y * rj
                M[j][c] = z * ri + w * rj

    def col_op(i: int, j: int, x: int, y: int, z: int, w: int) -> None:
        # cols i, j <- (x*col_i + y*col_j, z*col_i + w*col_j); det must be +-1
        for M, height in ((A, m), (V, n)):
            for r in range(height):
                ci, cj = M[r][i], M[r][j]
                M[r][i] = x * ci + y * cj
                M[r][j] = z * ci + w * cj

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal absolute value in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_op(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        # Clear column t and row t.  Plain subtraction when the pivot
        # divides; an xgcd op otherwise, which strictly shrinks the pivot,
        # so the loop terminates.
        while True:
            progressed = False
            for i in range(t + 1, m):
                b = A[i][t]
                if b == 0:
                    continue
                a = A[t][t]
                if b % a == 0:
                    row_op(t, i, 1, 0, -(b // a), 1)
                else:
                    g, x, y = xgcd(a, b)
                    row_op(t, i, x, y, -(b // g), a // g)
                    progressed = True
            for j in range(t + 1, n):
                b = A[t][j]
                if b == 0:
                    continue
                a = A[t][t]
                if b % a == 0:
                    col_op(t, j, 1, 0, -(b // a), 1)
                else:
                    g, x, y = xgcd(a, b)
                    col_op(t, j, x, y, -(b // g), a // g)
                    progressed = True
            if not progressed and all(A[i][t] == 0 for i in range(t + 1, m)) \
                    and all(A[t][j] == 0 for j in range(t + 1, n)):
                break
        if A[t][t] < 0:
            # flip the sign of the row; pair it with a sign flip in U
            for c in range(n):
                A[t][c] = -A[t][c]
            for c in range(m):
                U[t][c] = -U[t][c]
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    k = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a == 0 and b != 0:
                row_op(i, i + 1, 0, 1, 1, 0)
                col_op(i, i + 1, 0, 1, 1, 0)
                changed = True
            elif a != 0 and b % a != 0:
                # fold the pair (a, b) into (gcd, lcm)
                col_op(i, i + 1, 1, 1, 0, 1)  # col_i += col_{i+1}
                g, x, y = xgcd(a, b)
                row_op(i, i + 1, x, y, -(b // g), a // g)
                # A[i][i+1] is now y*b, a multiple of g
                q = A[i][i + 1] // A[i][i]
                col_op(i, i + 1, 1, 0, -q, 1)
                changed = True
    return A, U, V


def invariant_factors(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith form, length min(m, n)."""
    D, _, _ = smith_normal_form(mat)
    k = min(len(mat), len(mat[0]) if mat else 0)
    return [D[i][i] for i in range(k)]


def integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Saturated basis of {x : mat @ x = 0} as a list of length-n vectors.

    The basis extends to a basis of the ambient lattice because it is read
    off the unimodular column transform of the Smith form.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    D, _, V = smith_normal_form(mat)
    basis = []
    for j in range(n):
        d = D[j][j] if j < min(m, n) else 0
        if d == 0:
            basis.append([V[i][j] for i in range(n)])
    return basis


def solve_integer(mat: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One integer solution of mat @ x = rhs, or None if there is none."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    D, U, V = smith_normal_form(mat)
    c = matvec(U, rhs)
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return matvec(V, y)


def unimodular_inverse(mat: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix.

    With U @ mat @ V = D from the Smith form, mat is unimodular exactly when
    D is the identity, and then its inverse is V @ U.
    """
    D, U, V = smith_normal_form(mat)
    if D != identity_matrix(len(mat)):
        raise ValueError("matrix is not unimodular")
    return matmul(V, U)


def complete_primitive_vector(w: list[int]) -> list[list[int]]:
    """A unimodular matrix whose last row is the primitive vector w."""
    D, U, V = smith_normal_form([list(w)])
    if D[0][0] != 1:
        raise ValueError("vector is not primitive")
    # U = [[s]] with s = +-1 and s * w @ V = e_1, so w is s times the first
    # row of V^{-1}
    vinv = unimodular_inverse(V)
    return vinv[1:] + [[U[0][0] * x for x in vinv[0]]]
