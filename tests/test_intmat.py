import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzkit.intmat import (complete_primitive_vector, identity_matrix,
                           integer_kernel, invariant_factors, matmul,
                           smith_normal_form, solve_integer,
                           unimodular_inverse, xgcd)
from oracles import dense_rank, rational_inverse


def is_unimodular(mat):
    from oracles import int_det
    return abs(int_det(mat)) == 1


def check_snf(mat):
    D, U, V = smith_normal_form(mat)
    assert matmul(matmul(U, mat), V) == D
    m, n = len(mat), len(mat[0])
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    diag = [D[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert is_unimodular(U) and is_unimodular(V)


def test_xgcd():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g >= 0
            assert a * x + b * y == g
            if a or b:
                assert a % g == 0 and b % g == 0


def test_snf_fixed_cases():
    check_snf([[1]])
    check_snf([[0, 1], [1, 1]])
    check_snf([[6, 4], [4, 8]])
    assert invariant_factors([[2]]) == [2]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[1, 2]]) == [1]


def test_snf_random():
    rng = random.Random(20240902)
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        check_snf(mat)


def test_integer_kernel_annihilates_and_saturates():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        kernel = integer_kernel(mat)
        for vec in kernel:
            assert all(sum(mat[i][j] * vec[j] for j in range(n)) == 0
                       for i in range(m))
        assert len(kernel) == n - dense_rank(mat)
        if kernel:
            assert all(d == 1 for d in invariant_factors(kernel))


def test_solve_integer():
    assert solve_integer([[2, 3]], [1]) is not None
    assert solve_integer([[2, 4]], [1]) is None
    assert solve_integer([[2, 4]], [6]) is not None
    mat = [[1, 0, 1], [0, 1, 1]]
    x = solve_integer(mat, [3, 5])
    assert x is not None
    assert [sum(r[j] * x[j] for j in range(3)) for r in mat] == [3, 5]


@st.composite
def elementary_products(draw):
    """Products of elementary integer matrices: row additions and sign flips."""
    k = draw(st.integers(1, 4))
    M = identity_matrix(k)
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
    eye = identity_matrix(len(U))
    inv = unimodular_inverse(U)
    assert matmul(U, inv) == matmul(inv, U) == eye
    assert rational_inverse(U) == inv
    scaled = [[2 * x for x in U[0]]] + U[1:]
    assert matmul(scaled, rational_inverse(scaled)) == eye
    # singular, and determinant 5
    for bad in ([[1, 2], [2, 4]], [[2, 1], [1, 3]]):
        with pytest.raises(ValueError):
            unimodular_inverse(bad)
    with pytest.raises(ValueError):
        rational_inverse([[1, 2], [2, 4]])

    M = [[2, 1], [1, 1]]
    inv = unimodular_inverse(M)
    assert matmul(M, inv) == [[1, 0], [0, 1]]

    # the last four make the Smith form flip the sign of w
    for w in ([1, 1, 1], [2, 3], [1, 0, 0], [3, 5, 7],
              [-1], [0, -1], [2, -1], [-1, -1, 1]):
        Q = complete_primitive_vector(list(w))
        assert Q[-1] == list(w)
        assert is_unimodular(Q)
