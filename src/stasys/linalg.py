"""Exact linear algebra over the rationals and the integers.

Homology needs only the integer Smith normal form with its inverses, run
on the boundary of the Morse complex that its coreduction leaves: the cycle
lattice, Betti numbers, torsion, generators and coordinate rows all come
from it.  The Smith form reads sparse (row, value) columns with
`column_rows`, as `stasys.lp` does, and returns sparse factors; each
elementary operation costs the nonzeros it touches.  The rational routines
take and return plain lists of lists holding ``fractions.Fraction``: they
are dense Gaussian elimination on small matrices and serve rank tests
(cup-product spans, degree-sandwich injectivity).  ``inverse`` has no caller in the library; it stays because
``perfbench/tracing.py`` wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction

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
    """The nrows rows of the matrix with these (row, value) columns, as in
    ``boundary_cols``: {column: value} dicts of the nonzeros, a row named twice
    in a column summing.  A row outside [0, nrows) is a ValueError naming it."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col:
            if not 0 <= i < nrows:
                raise ValueError(f"column {j} names row {i}, outside [0, {nrows})")
            rows[i][j] = rows[i].get(j, 0) + x
    return [{j: x for j, x in row.items() if x} for row in rows]


def smith_normal_form(columns, nrows: int) -> tuple[list[dict[int, int]], ...]:
    """Decompose an integer matrix as M = U D V; returns (U, D, V, U_inv, V_inv).

    M is given by its columns, each a sequence of (row, value) pairs as in a
    complex's ``boundary_cols``, with ``nrows`` rows; a row named twice in a
    column sums.  U and V are unimodular, D is diagonal with each diagonal
    entry dividing the next.  Every elementary operation is applied to D and
    mirrored on the four transforms, so all five are int matrices with no
    inversion at the end: a row operation on D is the same row operation on
    U_inv and the inverse column operation on U, and a column operation on D
    is the same column operation on V_inv and the inverse row operation on V.
    Then U_inv M V_inv = D, U U_inv = I and V V_inv = I.

    The factors come back sparse, as lists of {index: value} dicts holding
    the nonzeros: U and V_inv by column, D, V and U_inv by row, which is how
    homology reads them.  Row i of D is {i: d_i} for i below the rank and {}
    after it: D keeps the shape of the other four, because
    ``perfbench/tracing.py`` walks every factor two levels deep.

    The pivot rule is fixed, because homology generators (and so the
    coordinates a user gives a class in) are read off these factors of the
    Morse boundary that homology's coreduction leaves: step t takes the first
    entry of least magnitude in row-major order of the trailing block.  A
    unit ends that scan, and a unit pivot skips the divisibility check.  D
    and the transforms are stored as sparse rows, and swaps only permute the
    order in which D's rows and columns are read, so each operation costs the
    nonzeros it touches.
    """
    ncols = len(columns)
    rows = column_rows(columns, nrows)  # D by stored row
    cols = [set() for _ in range(ncols)]  # stored rows holding each stored column
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    rp, cp = list(range(nrows)), list(range(ncols))  # position -> stored row / column
    rpos, cpos = list(range(nrows)), list(range(ncols))  # stored row / column -> position
    u_inv = [{i: 1} for i in range(nrows)]  # rows of U_inv, by stored row of D
    u_t = [{i: 1} for i in range(nrows)]  # columns of U
    v = [{j: 1} for j in range(ncols)]  # rows of V, by stored column of D
    v_inv_t = [{j: 1} for j in range(ncols)]  # columns of V_inv

    def axpy(dst, src, k):
        # dst += k * src on sparse rows
        for c, x in src.items():
            y = dst.get(c, 0) + k * x
            if y:
                dst[c] = y
            else:
                del dst[c]

    def swap_rows(i, j):
        rp[i], rp[j] = rp[j], rp[i]
        rpos[rp[i]], rpos[rp[j]] = i, j

    def swap_cols(i, j):
        cp[i], cp[j] = cp[j], cp[i]
        cpos[cp[i]], cpos[cp[j]] = i, j

    def add_row(dst, src, k):
        # row_dst += k * row_src; in U, column src -= k * column dst
        if k:
            pd, ps = rp[dst], rp[src]
            axpy(rows[pd], rows[ps], k)
            for c in rows[ps]:
                (cols[c].add if c in rows[pd] else cols[c].discard)(pd)
            axpy(u_inv[pd], u_inv[ps], k)
            axpy(u_t[ps], u_t[pd], -k)

    def add_col(dst, src, k):
        # col_dst += k * col_src; in V, row src -= k * row dst
        if k:
            pd, ps = cp[dst], cp[src]
            for r in cols[ps]:
                row = rows[r]
                row[pd] = row.get(pd, 0) + k * row[ps]
                if row[pd]:
                    cols[pd].add(r)
                else:
                    del row[pd]
                    cols[pd].discard(r)
            axpy(v_inv_t[pd], v_inv_t[ps], k)
            axpy(v[ps], v[pd], -k)

    def entry(i, j):
        return rows[rp[i]].get(cp[j], 0)

    t = 0
    while t < min(nrows, ncols):
        # rows from t on are zero left of column t, so the trailing block is
        # their nonzeros; the strict < keeps the first of equal magnitudes
        best = None
        for i in range(t, nrows):
            row = rows[rp[i]]
            if row:
                a, j = min((abs(x), cpos[c]) for c, x in row.items())
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        if entry(t, t) < 0:  # negate row t of D and U_inv, and column t of U
            p = rp[t]
            for mat in (rows, u_inv, u_t):
                mat[p] = {c: -x for c, x in mat[p].items()}
        # clear row and column t; pivot may shrink, so iterate.  An operation
        # on row (column) i leaves the later rows (columns) as they were, so
        # the nonzeros found at the start of a pass are the ones it visits.
        while True:
            dirty = False
            for i in sorted(rpos[r] for r in cols[cp[t]]):
                if i > t:
                    add_row(i, t, -(entry(i, t) // entry(t, t)))
                    if entry(i, t) != 0:  # a remainder mod the pivot: positive
                        swap_rows(t, i)
                        dirty = True
            for j in sorted(cpos[c] for c in rows[rp[t]]):
                if j > t:
                    add_col(j, t, -(entry(t, j) // entry(t, t)))
                    if entry(t, j) != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility: pivot must divide every later entry (a unit does)
        pivot = entry(t, t)
        if pivot != 1:
            offender = next((i for i in range(t + 1, nrows)
                             if any(x % pivot for x in rows[rp[i]].values())), None)
            if offender is not None:
                add_row(t, offender, 1)
                continue
        t += 1

    # rows and columns from t on are zero, so D is its first t pivots
    d = [{i: entry(i, i)} if i < t else {} for i in range(nrows)]
    return ([u_t[p] for p in rp], d, [v[p] for p in cp],
            [u_inv[p] for p in rp], [v_inv_t[p] for p in cp])
