"""Exact rational linear programming by the two-phase simplex method.

Solves  min c.x  subject to  A x = b, x >= 0  on an integer tableau: each
row is stored as Python-int numerators with one positive row denominator,
so the true row is numerators / denominator and every pivot is exact
integer (fraction-free) elimination.  Optima come back as exact
``Fraction``s, together with an optimal dual y (A^T y <= c, b.y = c.x)
and the reduced costs c - A^T y, both read off the final reduced-cost
row.  Bland's pivot rule is used throughout, which rules out cycling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
) -> tuple[Fraction, list[Fraction], list[Fraction], list[Fraction]]:
    """Minimize c.x over {A x = b, x >= 0}; returns (value, x, y, reduced).

    y is an optimal dual, one entry per row of A, and reduced = c - A^T y
    holds the structural reduced costs, read off the final tableau.
    Entries may be ints or Fractions; every result is a Fraction.
    """
    m = len(a)
    n = len(c)
    if any(len(row) != n for row in a):
        raise ValueError("constraint matrix width does not match cost vector")

    # phase 1: artificial columns n..n+m-1; row i's artificial entry is its
    # denominator, so the true tableau is [A | I | b] with b >= 0
    total = n + m
    tab = []
    den = []
    sign = []
    for i, (row, bv) in enumerate(zip(a, b)):
        nums, d = _integer_row([*row, bv])
        sign.append(-1 if nums[-1] < 0 else 1)
        if nums[-1] < 0:
            nums = [-x for x in nums]
        tab.append(nums[:-1] + [0] * i + [d] + [0] * (m - 1 - i) + nums[-1:])
        den.append(d)
    basis = list(range(n, n + m))
    zrow, zden = _optimize(tab, den, basis, [0] * n + [1] * m, total)
    if zrow[-1] != 0:
        raise Infeasible("phase-1 optimum is nonzero")
    _drive_out_artificials(tab, den, basis, n)

    # phase 2 on the original columns only.  Artificial column n+i has
    # reduced cost -y_i for row i as stored (negated or not, dropped or not)
    zrow, zden = _optimize(tab, den, basis, list(c) + [0] * m, n)
    x = [Fraction(0)] * n
    for row, d, bj in zip(tab, den, basis):
        if bj < n:
            x[bj] = Fraction(row[-1], d)
    y = [Fraction(-s * zrow[n + i], zden) for i, s in enumerate(sign)]
    return Fraction(-zrow[-1], zden), x, y, [Fraction(z, zden) for z in zrow[:n]]


def _integer_row(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    if set(map(type, values)) == {int}:
        return list(values), 1
    values = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _optimize(tab, den, basis, cost, allowed: int) -> tuple[list[int], int]:
    """Run simplex over columns [0, allowed); returns the final reduced-cost
    row as (numerators, denominator), whose last entry is minus the optimum.

    Maintains the reduced-cost row incrementally, as integer numerators over
    one denominator like the tableau rows; entering variable is the
    lowest-index negative column and ratio ties break by lowest basis index
    (Bland's rule).
    """
    # all rows may have been dropped as redundant; the loop below then
    # either certifies optimality at 0 or detects unboundedness
    zrow, zden = _integer_row([*cost, 0])
    for row, bj in zip(tab, basis):
        if zrow[bj]:
            zden = _eliminate(zrow, zden, row, range(len(row)), bj)
    while True:
        entering = next((j for j in range(allowed) if zrow[j] < 0), None)
        if entering is None:
            return zrow, zden
        # least rhs_i / a_ic over a_ic > 0, then least basis index, compared
        # by cross-multiplication: the row denominators cancel
        leaving = None
        for i, row in enumerate(tab):
            if row[entering] > 0 and (leaving is None or (
                    (row[-1] * tab[leaving][entering], basis[i])
                    < (tab[leaving][-1] * row[entering], basis[leaving]))):
                leaving = i
        if leaving is None:
            raise Unbounded(f"column {entering} is unbounded")
        nz = _pivot(tab, den, basis, leaving, entering)
        zden = _eliminate(zrow, zden, tab[leaving], nz, entering)


def _pivot(tab, den, basis, row: int, col: int) -> list[int]:
    """Pivot on tab[row][col] in place; returns the pivot row's nonzero columns.

    The pivot row's denominator becomes |pivot| (gcd-reduced), so its entry
    in `col` equals its denominator, i.e. a true 1.  Other rows change only
    in those columns unless the pivot does not divide their factor.
    """
    prow = tab[row]
    nz = [j for j, x in enumerate(prow) if x]
    g = gcd(*(prow[j] for j in nz))
    if prow[col] < 0:
        g = -g
    if g != 1:
        for j in nz:
            prow[j] //= g
    den[row] = prow[col]
    for i, other in enumerate(tab):
        if other[col] and i != row:
            den[i] = _eliminate(other, den[i], prow, nz, col)
    basis[row] = col
    return nz


def _eliminate(row: list[int], d: int, prow: list[int], nz, col: int) -> int:
    """Clear row[col] with the pivot row in place; returns row's new denominator.

    With pivot P = prow[col] (a true 1) and f = row[col], the true row
    becomes (row·P - f·prow) / (d·P); after dividing P and f by gcd(f, P)
    the multiplier of `row` is often 1, and then only the pivot row's
    nonzero columns `nz` change.  A row whose denominator grew is
    gcd-reduced.
    """
    g = gcd(row[col], prow[col])
    f, p = row[col] // g, prow[col] // g
    if p != 1:
        row[:] = [x * p for x in row]
    for j in nz:
        row[j] -= f * prow[j]
    if p == 1:
        return d
    g = gcd(d * p, *row)
    if g > 1:
        row[:] = [x // g for x in row]
    return d * p // g


def _drive_out_artificials(tab, den, basis, n: int) -> None:
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    i = 0
    while i < len(tab):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del den[i]
                del basis[i]
                continue
            _pivot(tab, den, basis, i, col)
        i += 1
