"""A dense reference for ``stasys.linalg.smith_normal_form``.

This is the elimination the library ran before its matrices became sparse:
every pivot search and divisibility check scans the whole trailing block and
every row or column operation rewrites whole dense rows.  The library must
perform the same elementary operations in the same order, so both return
the same five factors entry for entry.  Kept here, outside ``src/``, only as
an oracle for the tests.
"""

from __future__ import annotations


class Matrix(list):
    """A dense matrix's rows, with its column count, which a matrix with
    no rows cannot show by its rows."""

    def __init__(self, rows, ncols: int):
        super().__init__(rows)
        self.ncols = ncols


def shape(m: list[list[int]]) -> tuple[int, int]:
    """The row and column counts of a dense matrix: a `Matrix` carries its
    column count, plain rows show it, and plain [] has no columns."""
    return len(m), m.ncols if isinstance(m, Matrix) else len(m[0]) if m else 0


def dense_matrix(columns, nrows: int) -> Matrix:
    """The nrows-row dense matrix of sparse (row, value) columns, such as a
    complex's ``boundary_cols[q]``; a row named twice in a column sums."""
    m = Matrix([[0] * len(columns) for _ in range(nrows)], len(columns))
    for j, col in enumerate(columns):
        for i, x in col:
            m[i][j] += x
    return m


def _transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def dense_smith_normal_form(m: list[list[int]]) -> tuple[list[list[int]], ...]:
    """Decompose an integer matrix as M = U D V; returns (U, D, V, U_inv, V_inv).

    U and V are unimodular, D is diagonal with each diagonal entry dividing
    the next.  Pivoting picks the smallest nonzero entry to limit growth.
    Every elementary operation is applied to D and mirrored on the four
    transforms, so all five are int matrices with no inversion at the end:
    a row operation on D is the same row operation on U_inv and the inverse
    column operation on U, and a column operation on D is the same column
    operation on V_inv and the inverse row operation on V.  Then
    U_inv M V_inv = D, U U_inv = I and V V_inv = I.  All five factors are
    returned even for empty shapes, a 0 x n `Matrix` included.
    """
    nrows, ncols = shape(m)
    d = [list(map(int, row)) for row in m]
    u_inv = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    u_t = [[int(i == j) for j in range(nrows)] for i in range(nrows)]  # columns of U
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    v_inv_t = [[int(i == j) for j in range(ncols)] for i in range(ncols)]  # columns of V_inv

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u_inv[i], u_inv[j] = u_inv[j], u_inv[i]
        u_t[i], u_t[j] = u_t[j], u_t[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        v_inv_t[i], v_inv_t[j] = v_inv_t[j], v_inv_t[i]
        v[i], v[j] = v[j], v[i]

    def add_row(dst, src, k):
        # row_dst += k * row_src; in U, column src -= k * column dst
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u_inv[dst] = [x + k * y for x, y in zip(u_inv[dst], u_inv[src])]
        u_t[src] = [x - k * y for x, y in zip(u_t[src], u_t[dst])]

    def add_col(dst, src, k):
        # col_dst += k * col_src; in V, row src -= k * row dst
        for row in d:
            row[dst] += k * row[src]
        v_inv_t[dst] = [x + k * y for x, y in zip(v_inv_t[dst], v_inv_t[src])]
        v[src] = [x - k * y for x, y in zip(v[src], v[dst])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u_inv[i] = [-x for x in u_inv[i]]
        u_t[i] = [-x for x in u_t[i]]

    t = 0
    while t < min(nrows, ncols):
        # locate smallest-magnitude nonzero entry in the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if d[t][t] < 0:
            negate_row(t)
        # clear row and column t; pivot may shrink, so iterate
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        if d[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility: pivot must divide every later entry
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    return _transpose(u_t), d, v, u_inv, _transpose(v_inv_t)

