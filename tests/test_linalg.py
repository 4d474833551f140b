"""Exact linear algebra: row reduction, solving, and Smith normal form."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stasys.linalg import (
    identity,
    inverse,
    rank,
    rref,
    smith_normal_form,
)

from conftest import dense_snf, solve, sparse_columns

F = Fraction


def frac_matrix(rows):
    return [[F(x) for x in row] for row in rows]


def mat_mul(a, b):
    assert not a or len(a[0]) == len(b), "shape mismatch"
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def test_rref_identity():
    r, pivots = rref(frac_matrix([[2, 0], [0, 3]]))
    assert r == identity(2)
    assert pivots == [0, 1]


def test_rank():
    a = frac_matrix([[1, 2, 3], [2, 4, 6]])
    assert rank(a) == 1


def test_solve_consistent_and_inconsistent():
    a = frac_matrix([[1, 1], [1, -1]])
    x = solve(a, [F(3), F(1)])
    assert x == [F(2), F(1)]
    a2 = frac_matrix([[1, 1], [2, 2]])
    assert solve(a2, [F(1), F(3)]) is None


def test_inverse_round_trip():
    a = frac_matrix([[2, 1], [1, 1]])
    assert mat_mul(a, inverse(a)) == identity(2)


def _assert_snf(m):
    nr, nc = len(m), len(m[0]) if m else 0
    sparse = smith_normal_form(sparse_columns(m), nr)
    # U and V_inv by column, D, V and U_inv by row, holding only nonzeros;
    # row i of D is {i: d_i} up to the rank and {} after it
    assert [len(f) for f in sparse] == [nr, nr, nc, nr, nc]
    assert all(x for f in sparse for vec in f for x in vec.values())
    assert all(set(row) <= {i} for i, row in enumerate(sparse[1]))
    factors = dense_snf(m)
    u, d, v, u_inv, v_inv = factors
    # convention: M = U * D * V with U, V unimodular; integer matrices whose
    # product with an integer inverse is I have determinant +-1
    assert all(type(x) is int for f in factors for row in f for x in row)
    assert mat_mul(mat_mul(frac_matrix(u), frac_matrix(d)), frac_matrix(v)) == frac_matrix(m)
    assert mat_mul(frac_matrix(u), frac_matrix(u_inv)) == identity(nr)
    assert mat_mul(frac_matrix(v), frac_matrix(v_inv)) == identity(nc)
    diag = [d[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert d[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(x == 0 for x in diag[len(nonzero):])
    return u, d, v


def test_snf_known_example():
    # classic: diag(1, 6) with divisibility, not diag(2, 3)
    _, d, _ = _assert_snf([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_rectangular():
    _assert_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    _assert_snf([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random_matrices(nr, nc, data):
    m = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)]
        for _ in range(nr)
    ]
    _assert_snf(m)


def test_snf_preserves_rank():
    m = [[1, 2], [2, 4], [3, 6]]
    _, d, _, _, _ = dense_snf(m)
    assert sum(1 for i in range(2) if d[i][i]) == rank(frac_matrix(m))


def test_snf_sums_a_row_named_twice():
    assert smith_normal_form([[(0, 1), (0, 1)]], 1)[1] == [{0: 2}]
    assert smith_normal_form([[(0, 1), (0, -1)]], 1)[1] == [{}]
    # a matrix with no rows: every column is free and V = V_inv = I
    assert smith_normal_form([(), ()], 0) == ([], [], [{0: 1}, {1: 1}], [], [{0: 1}, {1: 1}])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_of_split_entries_is_the_snf_of_their_sums(nr, nc, data):
    m = [[data.draw(st.integers(-3, 3)) for _ in range(nc)] for _ in range(nr)]
    split = [[p for i, x in col for p in ((i, x - 1), (i, 1))] for col in sparse_columns(m)]
    assert smith_normal_form(split, nr) == smith_normal_form(sparse_columns(m), nr)

