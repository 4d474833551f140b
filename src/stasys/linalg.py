"""Exact dense linear algebra over the rationals and the integers.

Everything here works on plain lists of lists holding ``fractions.Fraction``
(or ``int`` for the integer routines).  Matrices are desk-scale, so dense
Gaussian elimination is plenty.  Homology needs only the integer Smith
normal form with its inverses: the cycle lattice, Betti numbers, torsion,
generators and coordinate rows all come from it.  The rational routines
serve rank tests (cup-product spans, degree-sandwich injectivity);
``solve`` and ``inverse`` remain as exact references for the tests.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


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


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b, or None if inconsistent."""
    if not a:
        return None if any(b) else []
    n = len(a[0])
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    r, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][n]
    return x


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

def smith_normal_form(m: list[list[int]]) -> tuple[list[list[int]], ...]:
    """Decompose an integer matrix as M = U D V; returns (U, D, V, U_inv, V_inv).

    U and V are unimodular, D is diagonal with each diagonal entry dividing
    the next.  Pivoting picks the smallest nonzero entry to limit growth.
    Every elementary operation is applied to D and mirrored on the four
    transforms, so all five are int matrices with no inversion at the end:
    a row operation on D is the same row operation on U_inv and the inverse
    column operation on U, and a column operation on D is the same column
    operation on V_inv and the inverse row operation on V.  Then
    U_inv M V_inv = D, U U_inv = I and V V_inv = I.  All five factors are
    returned even for empty shapes.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
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

    return transpose(u_t), d, v, u_inv, transpose(v_inv_t)

