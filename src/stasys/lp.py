"""Exact rational linear programming by the two-phase simplex method.

Solves  min c.x  subject to  A x = b, x >= 0  entirely in ``Fraction``
arithmetic, so optima are exact rationals.  Bland's pivot rule is used
throughout, which rules out cycling.
"""

from __future__ import annotations

from fractions import Fraction


class LPError(Exception):
    pass


class Infeasible(LPError):
    pass


class Unbounded(LPError):
    pass


def solve_lp(
    a: list[list[Fraction]],
    b: list[Fraction],
    c: list[Fraction],
) -> tuple[Fraction, list[Fraction]]:
    """Minimize c.x over {A x = b, x >= 0}; returns (value, x).

    Entries may be ints or Fractions; all arithmetic is in Fractions.
    """
    m = len(a)
    n = len(c)
    if any(len(row) != n for row in a):
        raise ValueError("constraint matrix width does not match cost vector")
    tab = []
    rhs = []
    for row, bv in zip(a, b):
        bv = Fraction(bv)
        if bv < 0:
            tab.append([-Fraction(x) for x in row])
            rhs.append(-bv)
        else:
            tab.append([Fraction(x) for x in row])
            rhs.append(bv)
    if m == 0:
        return Fraction(0), [Fraction(0)] * n

    # phase 1: artificial columns n..n+m-1
    total = n + m
    for i in range(m):
        tab[i] = tab[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]]
    basis = list(range(n, n + m))
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    value = _optimize(tab, basis, cost1, total)
    if value != 0:
        raise Infeasible("phase-1 optimum is nonzero")
    _drive_out_artificials(tab, basis, n)

    # phase 2 on the original columns only
    cost2 = [Fraction(x) for x in c] + [Fraction(0)] * m
    value = _optimize(tab, basis, cost2, n)
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = tab[i][-1]
    return value, x


def _optimize(tab, basis, cost, allowed: int) -> Fraction:
    """Run simplex over columns [0, allowed); returns the optimal value.

    Maintains the reduced-cost row incrementally; entering variable is the
    lowest-index negative column and ratio ties break by lowest basis index
    (Bland's rule).
    """
    m = len(tab)
    # all rows may have been dropped as redundant; the loop below then
    # either certifies optimality at 0 or detects unboundedness
    zrow = list(cost) + [Fraction(0)]
    for i, bj in enumerate(basis):
        cb = cost[bj]
        if cb:
            row = tab[i]
            for j, x in enumerate(row):
                if x:
                    zrow[j] -= cb * x
    while True:
        entering = next((j for j in range(allowed) if zrow[j] < 0), None)
        if entering is None:
            return -zrow[-1]
        leaving = None
        best = None
        for i in range(m):
            aij = tab[i][entering]
            if aij > 0:
                ratio = tab[i][-1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise Unbounded(f"column {entering} is unbounded")
        f = zrow[entering]
        nz = _pivot(tab, basis, leaving, entering)
        prow = tab[leaving]
        for j in nz:
            zrow[j] -= f * prow[j]


def _pivot(tab, basis, row: int, col: int) -> list[int]:
    """Pivot on tab[row][col] in place; returns the pivot row's nonzero columns.

    Only those columns change in the other rows, so the update skips the
    zeros that make up most of a boundary-matrix tableau.
    """
    prow = tab[row]
    nz = [j for j, x in enumerate(prow) if x]
    p = prow[col]
    if p != 1:
        for j in nz:
            prow[j] /= p
    for i, other in enumerate(tab):
        f = other[col]
        if f and i != row:
            for j in nz:
                other[j] -= f * prow[j]
    basis[row] = col
    return nz


def _drive_out_artificials(tab, basis, n: int) -> None:
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    i = 0
    while i < len(tab):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del basis[i]
                continue
            _pivot(tab, basis, i, col)
        i += 1
