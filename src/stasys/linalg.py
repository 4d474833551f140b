"""Exact linear algebra over the rationals and the integers.

Homology needs only the integer Smith normal form with its inverses, run on
the boundary of the Morse complex that its coreduction leaves, a few critical
cells square: it reads sparse (row, value) columns by `complexes._faces`, as
`stasys.lp` does, and returns sparse factors.  The rational routines are dense
Gaussian elimination on small lists of lists of ``fractions.Fraction``, for
rank tests (cup-product spans, degree-sandwich injectivity).  ``inverse`` has
no caller in the library; it stays because ``perfbench/tracing.py`` wraps it.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import _faces

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    m = [list(map(Fraction, row)) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1]) if a else 0


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(irow) for row, irow in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------

def column_rows(columns, nrows: int) -> list[dict]:
    """The nrows rows of the matrix with these (row, value) columns: the
    transpose of `stasys.complexes._faces`, {column: value} dicts of the
    nonzeros, with its summing and its row-range ValueError."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(_faces(columns, nrows)):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def smith_normal_form(columns, nrows: int) -> tuple[list[dict[int, int]], ...]:
    """Decompose an integer matrix as M = U D V; returns (U, D, V, U_inv, V_inv).

    M is given by its columns, each a sequence of (row, value) pairs as in a
    complex's ``boundary_cols``, with ``nrows`` rows; a row named twice in a
    column sums.  U and V are unimodular, D is diagonal with each diagonal
    entry dividing the next, and U_inv M V_inv = D.  A row (column) operation
    on D is made on U_inv (V_inv) too, and its inverse on the columns of U
    (rows of V), so all five are int matrices and none is inverted.

    The factors come back sparse, as lists of {index: value} dicts holding
    the nonzeros: U and V_inv by column, D, V and U_inv by row, which is how
    homology reads them.  Row i of D is {i: d_i} for i below the rank and {}
    after it: D keeps the shape of the other four, because
    ``perfbench/tracing.py`` walks every factor two levels deep.

    The pivot rule is fixed, because homology generators (and so the
    coordinates a user gives a class in) are read off these factors: step t
    takes the first entry of least magnitude in row-major order of the
    trailing block.  A unit ends that scan, and a unit pivot skips the
    divisibility check.  Rows and columns swap in place, so a column swap or
    operation visits every row of D.  That suits homology's Morse boundaries,
    at most 5 x 5 on the products of RP^2 and 1 x 2 on flat tori, but a direct
    call on a full boundary matrix pays for it: flat_torus(16)'s 256 x 512 and
    512 x 256 take about 30 ms each on a 2-core Xeon.
    """
    ncols = len(columns)
    d = column_rows(columns, nrows)  # rows of D
    u_inv, u = ([{i: 1} for i in range(nrows)] for _ in range(2))  # rows of U_inv, columns of U
    v, v_inv = ([{j: 1} for j in range(ncols)] for _ in range(2))  # rows of V, columns of V_inv

    def axpy(dst, src, k):
        # dst += k * src on sparse rows
        for c, x in src.items():
            dst[c] = dst.get(c, 0) + k * x
            if not dst[c]:
                del dst[c]

    def add_row(dst, src, k):
        # row_dst += k * row_src; in U, column src -= k * column dst
        if k:
            axpy(d[dst], d[src], k)
            axpy(u_inv[dst], u_inv[src], k)
            axpy(u[src], u[dst], -k)

    def add_col(dst, src, k):
        # col_dst += k * col_src; in V, row src -= k * row dst
        if k:
            axpy(v_inv[dst], v_inv[src], k)
            axpy(v[src], v[dst], -k)
            for row in d:
                if src in row:
                    axpy(row, {dst: row[src]}, k)

    def swap(mats, i, j):
        for mat in mats:
            mat[i], mat[j] = mat[j], mat[i]

    def swap_cols(i, j):
        to = {i: j, j: i}
        for r, row in enumerate(d):
            if i in row or j in row:
                d[r] = {to.get(c, c): x for c, x in row.items()}
        swap((v, v_inv), i, j)

    t = 0
    while t < min(nrows, ncols):
        # rows from t on are zero left of column t, so the trailing block is
        # their nonzeros; the strict < keeps the first of equal magnitudes
        best = None
        for i in range(t, nrows):
            if d[i]:
                a, j = min((abs(x), c) for c, x in d[i].items())
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
        if best is None:
            break
        swap((d, u_inv, u), t, best[1])
        swap_cols(t, best[2])
        if d[t][t] < 0:  # negate row t of D and U_inv, and column t of U
            for mat in (d, u_inv, u):
                mat[t] = {c: -x for c, x in mat[t].items()}
        # clear row and column t; pivot may shrink, so iterate.  An operation
        # on row (column) i leaves the later rows (columns) as they were, so
        # each pass may test the entries as it reaches them.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if t in d[i]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if t in d[i]:  # a remainder mod the pivot: positive
                        swap((d, u_inv, u), t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if j in d[t]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if j in d[t]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility: pivot must divide every later entry (a unit does)
        pivot = d[t][t]
        offender = next((i for i in range(t + 1, nrows)
                         if pivot != 1 and any(x % pivot for x in d[i].values())), None)
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    # rows and columns from t on are zero, so D is its first t pivots
    return u, [{i: d[i][i]} if i < t else {} for i in range(nrows)], v, u_inv, v_inv
