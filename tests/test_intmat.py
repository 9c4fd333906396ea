import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzkit.intmat import (column_hermite, complete_primitive_vector,
                           integer_kernel, lattice_index, solve_integer,
                           unimodular_inverse, xgcd)
from oracles import dense_rank, int_det, minor_gcd, rational_inverse


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def is_unimodular(mat):
    return abs(int_det(mat)) == 1


def check_hermite(mat):
    """mat @ V = H, V unimodular, and H in reduced column echelon form."""
    H, V, pivots = column_hermite(mat)
    assert matmul(mat, V) == H
    assert is_unimodular(V)
    r = len(pivots)
    assert r == dense_rank(mat)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for t, i in enumerate(pivots):
        pivot = H[i][t]
        assert pivot > 0
        assert all(H[k][t] == 0 for k in range(i))
        assert all(0 <= H[i][k] < pivot for k in range(t))
    assert all(x == 0 for row in H for x in row[r:])
    return H, V, pivots


def random_matrix(rng, m, n, bound):
    """A random m x n matrix; one time in three of rank below min(m, n)."""
    if rng.randrange(3):
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    k = rng.randint(0, min(m, n) - 1)
    left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
    right = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k
            else [0] * n for row in left]


def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g >= 0
            assert a * x + b * y == g
            if a or b:
                assert a % g == 0 and b % g == 0


def test_hermite_fixed_cases():
    for mat in ([[1]], [[0]], [[0, 1], [1, 1]], [[6, 4], [4, 8]], [[0, 0], [0, 0]],
                [[2, 0], [0, 3]], [[1, 2]], [[-3], [6]], [[0, 2, 3], [1, 0, 0]]):
        check_hermite(mat)
    assert column_hermite([[6, 4], [4, 8]])[0] == [[2, 0], [12, 16]]
    assert column_hermite([[0, 2, 3], [1, 0, 0]])[0] == [[1, 0, 0], [0, 1, 0]]
    assert column_hermite([[-3], [6]]) == ([[3], [-6]], [[-1]], [0])
    assert lattice_index([[2]]) == 2
    assert lattice_index([[2, 0], [0, 3]]) == 6
    assert lattice_index([[1, 2]]) == 1
    assert lattice_index([[2, 4]]) == 2
    assert lattice_index([[1, 0], [0, 0]]) == 0


def test_hermite_random():
    rng = random.Random(20240902)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = random_matrix(rng, m, n, 6)
        check_hermite(mat)
        assert lattice_index(mat) == minor_gcd([tuple(col) for col in zip(*mat)])


def test_integer_kernel_annihilates_and_saturates():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        mat = random_matrix(rng, m, n, 4)
        kernel = integer_kernel(mat)
        for vec in kernel:
            assert all(sum(mat[i][j] * vec[j] for j in range(n)) == 0
                       for i in range(m))
        assert len(kernel) == n - dense_rank(mat)
        if kernel:
            # saturated: the kernel's n columns generate Z^k
            assert minor_gcd(list(zip(*kernel))) == 1


def test_solve_integer():
    assert solve_integer([[2, 3]], [1]) is not None
    assert solve_integer([[2, 4]], [1]) is None
    assert solve_integer([[2, 4]], [6]) is not None
    assert solve_integer([[1, 1], [1, 1]], [1, 2]) is None
    mat = [[1, 0, 1], [0, 1, 1]]
    x = solve_integer(mat, [3, 5])
    assert x is not None
    assert [sum(r[j] * x[j] for j in range(3)) for r in mat] == [3, 5]


def test_solve_integer_random():
    # a right-hand side in the image is always solved; on a nonsingular
    # square matrix a solution exists exactly when the rational one is integral
    rng = random.Random(31)
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        mat = random_matrix(rng, m, n, 5)
        x = [rng.randint(-5, 5) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in mat]
        got = solve_integer(mat, rhs)
        assert got is not None and [sum(a * b for a, b in zip(row, got))
                                    for row in mat] == rhs
        if m == n and dense_rank(mat) == n:
            rhs = [rng.randint(-9, 9) for _ in range(m)]
            exact = [sum(a * b for a, b in zip(row, rhs)) for row in rational_inverse(mat)]
            got = solve_integer(mat, rhs)
            integral = all(v.denominator == 1 for v in exact)
            assert (got == exact) if integral else got is None


@st.composite
def elementary_products(draw):
    """Products of elementary integer matrices: row additions and sign flips."""
    k = draw(st.integers(1, 4))
    M = identity(k)
    ops = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                  st.integers(-3, 3)), max_size=8))
    for i, j, c in ops:
        if i == j:
            M[i] = [-x for x in M[i]]
        else:
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


@settings(max_examples=60, deadline=None)
@given(U=elementary_products())
def test_unimodular_inverse_and_completion(U):
    eye = identity(len(U))
    inv = unimodular_inverse(U)
    assert matmul(U, inv) == matmul(inv, U) == eye
    assert rational_inverse(U) == inv
    scaled = [[2 * x for x in U[0]]] + U[1:]
    assert matmul(scaled, rational_inverse(scaled)) == eye
    # singular, determinant 5, and not square
    for bad in ([[1, 2], [2, 4]], [[2, 1], [1, 3]], [[1, 0]]):
        with pytest.raises(ValueError):
            unimodular_inverse(bad)
    with pytest.raises(ValueError):
        rational_inverse([[1, 2], [2, 4]])

    M = [[2, 1], [1, 1]]
    inv = unimodular_inverse(M)
    assert matmul(M, inv) == [[1, 0], [0, 1]]

    # negative entries make the reduction flip the sign of a column
    for w in ([1, 1, 1], [2, 3], [1, 0, 0], [3, 5, 7],
              [-1], [0, -1], [2, -1], [-1, -1, 1]):
        Q = complete_primitive_vector(list(w))
        assert Q[-1] == list(w)
        assert is_unimodular(Q)
    for w in ([2, 4], [0, 0], [3]):
        with pytest.raises(ValueError):
            complete_primitive_vector(w)
