"""The sparse Smith normal form against the dense elimination it replaced.

Both must perform the same elementary operations in the same order, so the
five factors (U, D, V, U_inv, V_inv) are compared entry for entry: homology
generators are read off them, and users give classes in that basis.  The
sparse factors are made dense for the comparison.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasys import circle, cubical_sphere, flat_torus, product_complex, rp2, torus_triangulated
from stasys.homology import _boundaries_in_kernel, _coreduce, _cycle_lattice
from stasys.linalg import smith_normal_form

from conftest import dense_factors, dense_snf, permuted
from snf_reference import Matrix, dense_matrix, dense_smith_normal_form

# Mostly units and zeros, like boundary matrices.  Only a few larger entries:
# dense blocks of them make both eliminations' entries grow to hundreds of bits.
UNIT_ENTRIES = st.sampled_from((0, 0, 1, -1))


@st.composite
def integer_matrices(draw):
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    m = [[draw(UNIT_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and ncols:
        for _ in range(draw(st.integers(0, 4))):
            m[draw(st.integers(0, nrows - 1))][draw(st.integers(0, ncols - 1))] = draw(st.integers(-9, 9))
        zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
        zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
        if draw(st.integers(0, 3)) == 0:
            zero_rows = set(range(nrows))  # the all-zero matrix
        m = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    return Matrix(m, ncols)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example([[2, 0], [0, 3]])  # divisibility fix-up after a pivot of 2
@example([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
@example([[0, 0], [0, 0], [0, 0]])
@example(Matrix([], 3))  # no rows: U is 0 x 0, V and V_inv are I_3
@example([[1, -1, 0], [0, 1, -1], [-1, 0, 1]])  # ties between unit entries
def test_snf_matches_the_dense_elimination(m):
    assert dense_snf(m) == dense_smith_normal_form(m)


STRUCTURES = {
    "flat_torus(3)": lambda: flat_torus(3),
    "flat_torus(4)": lambda: flat_torus(4),
    "flat_torus(5)": lambda: flat_torus(5),
    "S1xS2": lambda: product_complex(circle(3, kind="cubical"), cubical_sphere(2)),
    "T2_9": torus_triangulated,
    "RP2": rp2,
    "C3xC4": lambda: product_complex(circle(3), circle(4)),
}


def _mat_mul(a, b: Matrix) -> Matrix:
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a], b.ncols)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_snf_matches_the_dense_elimination_on_homology_inputs(name, seed):
    # Every matrix homology() factors, in the sparse columns it passes: each
    # Morse boundary matrix, and each Morse boundary matrix in the coordinates
    # of the cycle lattice below it, whose columns name a row once per face
    # read.  The full boundary matrices, far larger, are checked too.
    K = STRUCTURES[name]()
    if seed is not None:
        K = permuted(K, seed)
    _faces, critical, _flow, _pairs, cols = _coreduce(K)
    for q in range(K.top_dim + 1):
        if q:
            factors = dense_smith_normal_form(dense_matrix(K.boundary_cols[q], K.n_cells(q - 1)))
            sparse = smith_normal_form(K.boundary_cols[q], K.n_cells(q - 1))
            assert dense_factors(sparse, K.n_cells(q - 1), K.n_cells(q)) == factors, (name, seed, q)
        n, nb = len(critical[q]), len(critical[q - 1]) if q else 0
        kernel, to_kernel = _cycle_lattice(cols[q], nb)
        factors = dense_smith_normal_form(dense_matrix(cols[q], nb))
        assert dense_factors(smith_normal_form(cols[q], nb), nb, n) == factors, (name, seed, q)
        d, v = factors[1], factors[2]
        rank = sum(1 for i in range(min(len(d), n)) if d[i][i])
        dense_to_kernel = v[rank:]
        assert [[row.get(j, 0) for j in range(n)] for row in to_kernel] == dense_to_kernel, (name, seed, q)
        if q < K.top_dim:
            in_kernel = _mat_mul(dense_to_kernel, dense_matrix(cols[q + 1], n))
            above = _boundaries_in_kernel(cols[q + 1], n, to_kernel)
            assert dense_matrix(above, len(kernel)) == in_kernel, (name, seed, q)
            sparse = smith_normal_form(above, len(kernel))
            assert dense_factors(sparse, len(kernel), len(above)) == dense_smith_normal_form(in_kernel), (name, seed, q)
