"""Exact rational linear programming by the two-phase simplex method.

Solves  min c.x  subject to  A x = b, x >= 0, with A given by its sparse
(row, value) columns: the format of a complex's ``boundary_cols``, read by
`stasys.complexes._faces`, as the Smith form reads it.  `prepare` builds
the integer tableau [A | I] once.  Each row is a {column: int} dict of its
nonzeros over one positive row denominator, so every pivot is exact
integer (fraction-free) elimination that costs the nonzeros it touches.
Each row whose right-hand side is 0 is crashed onto a structural column
(Bixby's crash basis), and `solve_lp` copies the tableau for each (b, c):
phase 1 then starts at that basis.  Columns given to `solve_lp` are
prepared into a throwaway tableau that takes the same path.  Optima come
back as exact ``Fraction``s, with an optimal dual y (A^T y <= c, b.y =
c.x) and the column loads A^T y, read off the final reduced-cost row.
Bland's pivot rule is used throughout, which rules out cycling.

A `Tableau` also records the optimal bases it has found, per cost
vector.  An optimal basis B stays optimal for every b with B⁻¹b >= 0,
because dual feasibility depends on c alone; on that cone the optimum is
y.b with the recorded dual y.  So a b inside the cone of a basis recorded
for the same c is answered without copying the tableau or pivoting, by
a cone test in integers and the record's y and A^T y; only a b outside
every recorded cone runs the two phases, whose basis is then recorded
too.  `solve_lp`, the one entry for outside input, checks b's and c's
lengths and that b is 0 on the crashed rows, and builds its answer from
`_lookup(t, b, c)`, which takes b on ``t.opened`` and checks only its
length; the norm layer passes it a class's coordinates and reads the
value and y off the record, in integers, with no x.  A new cost vector
adds a key, dropping the oldest once COSTS_KEPT are kept.  A solve in
which phase 1 drops a dependent row records nothing, since B⁻¹b >= 0
would not check that row's consistency for a later b.  The value is the
optimum whatever was solved before, but where the optimum is degenerate
the x and y returned may depend on which right-hand sides the tableau
has seen.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .complexes import _integer_row
from .linalg import column_rows


class LPError(Exception):
    pass


class Infeasible(LPError):
    pass


class Unbounded(LPError):
    pass


COSTS_KEPT = 64  # cost vectors recorded per tableau, so many metrics stay bounded
_ZERO = Fraction(0)  # every zero entry of an answer's x


class Tableau:
    """The integer tableau [A | I] that `prepare` builds and crashes: rows of
    nonzeros over ``den``, with A's n columns, row i's artificial n + i and
    the right-hand side n + m; ``opened`` lists the rows left open, the
    others crashed or dropped.  `optima` maps each cost vector solved on it,
    as a tuple, to the bases recorded for it, the newest COSTS_KEPT of them."""

    def __init__(self, rows: list[dict[int, int]], den: list[int], basis: list[int], n: int, m: int):
        self.rows, self.den, self.basis, self.n, self.m = rows, den, basis, n, m
        self.opened = [bj - n for bj in basis if bj >= n]
        self.optima: dict[tuple, list[_Optimum]] = {}

    # kept only for perfbench/tracing.py's _lp_count, which calls len() on solve_lp's first argument
    def __len__(self) -> int:  # the row count of A, dropped rows included; the solver reads m
        return self.m


def prepare(columns, b: list[Fraction]) -> Tableau:
    """The tableau [A | I], right-hand side 0, with each row where b is 0 crashed.

    A's columns are sequences of (row, value) pairs, one row per entry of b.
    A crashed row takes its first nonzero structural column as its basic
    variable: with b_i = 0 that pivot moves no right-hand side.  A row left
    zero on every structural column is dropped.  Only the zero pattern of b
    matters; the tableau serves every b that vanishes on those rows.
    """
    m, n = len(b), len(columns)
    rows, den = [], []
    for i, row in enumerate(column_rows(columns, m)):
        nums, d = _integer_row(row.values())
        rows.append({**dict(zip(row, nums)), n + i: d})
        den.append(d)
    basis = list(range(n, n + m))
    _drive_out_artificials(rows, den, basis, n, {i for i, bi in enumerate(b) if bi})
    return Tableau(rows, den, basis, n, m)


def solve_lp(a, b: list[Fraction],
             c: list[Fraction]) -> tuple[Fraction, list[Fraction], list[Fraction], list[Fraction]]:
    """Minimize c.x over {A x = b, x >= 0}; returns (value, x, y, load).

    ``a`` is a `Tableau`, or the columns of A as `prepare` takes them,
    prepared for b into a throwaway one.  y is an optimal dual, one entry
    per row of A, and load = A^T y, one entry per column, is at most c
    (c - load holds the reduced costs).  Entries may be ints or Fractions;
    every result is a Fraction.  A tableau answers b from a basis it
    recorded for c when B⁻¹b >= 0.
    """
    t = a if isinstance(a, Tableau) else prepare(a, b)
    if len(b) != t.m:
        raise ValueError(f"right-hand side has length {len(b)}, but the constraint matrix has {t.m} rows")
    if len(c) != t.n:
        raise ValueError(f"cost vector has length {len(c)}, but the constraint matrix has {t.n} columns")
    b_open = [b[i] for i in t.opened]
    if sum(map(bool, b)) != sum(map(bool, b_open)):  # b is not 0 off the open rows
        raise ValueError("right-hand side is nonzero on a row the tableau crashed")
    optimum, levels, bn, d = _lookup(t, b_open, tuple(c))
    x = [_ZERO] * t.n
    for (j, _, den), v in zip(optimum.rows, levels):
        x[j] = Fraction(v, den * d)
    value = Fraction(sum(map(mul, optimum.ynum, bn)), optimum.yden * d)
    return value, x, list(optimum.y), list(optimum.load)


def _lookup(t: Tableau, b, c: tuple) -> tuple[_Optimum, list[int], tuple[int, ...], int]:
    """(optimum, levels, bn, d) for b on t.opened, in that order, and the cost
    tuple c: the first basis recorded for c whose cone holds b = bn / d, else
    the two phases' one, and its `levels`.  The value is optimum.ynum . bn
    over optimum.yden·d, so a caller that reads only it and y builds no x."""
    if len(b) != len(t.opened):  # levels would read a short b as zero-padded
        raise ValueError(f"right-hand side has {len(b)} entries, but the tableau has {len(t.opened)} open rows")
    bn, d = _integer_row(b)
    records = t.optima.get(c)
    if records is None:
        if len(t.optima) >= COSTS_KEPT:  # the oldest goes first
            del t.optima[next(iter(t.optima))]
        records = t.optima[c] = []
    for optimum in records:
        levels = optimum.levels(bn)
        if levels is not None:
            return optimum, levels, bn, d
    optimum = _two_phase(t, bn, d, c, records)
    return optimum, optimum.levels(bn), bn, d


class _Optimum:
    """An optimal basis of a tableau: each basic column j with its row of
    B⁻¹ on the open rows, if not 0, as integers over one denominator; and
    for the cost it was recorded for, y, the loads A^T y and y on the open
    rows (``ynum`` over ``yden``), all fixed by the basis for b in its cone."""

    def __init__(self, rows: list[tuple[int, list[int], int]], y: tuple, load: tuple, opened):
        self.rows, self.y, self.load = rows, y, load
        self.ynum, self.yden = _integer_row([y[i] for i in opened])

    def levels(self, bn: tuple[int, ...]) -> list[int] | None:
        """B⁻¹b times d and each row's denominator if b = bn / d is in the cone, else None."""
        levels = []
        for _, inv, _ in self.rows:
            v = sum(map(mul, inv, bn))
            if v < 0:
                return None
            levels.append(v)
        return levels


def _two_phase(t: Tableau, bn, d: int, c, records: list[_Optimum]) -> _Optimum:
    """The two-phase solve on a copy of t for b = bn / d on the open rows: its
    optimal basis, appended to c's records unless phase 1 dropped a row."""
    m, n, rhs, opened = t.m, t.n, t.m + t.n, t.opened
    tab, den, basis = [row.copy() for row in t.rows], t.den[:], t.basis[:]

    # phase 1 over the open rows, whose artificials are basic in that order, at
    # level |b_i|: a row with b_i < 0 is negated but for its artificial entry
    # (the prepared right-hand side is 0 on every row)
    sign, cost, level = [1] * m, [0] * (n + m), iter(bn)
    for r, bj in enumerate(basis):
        if bj >= n:
            v = Fraction(next(level) * den[r], d)
            cost[bj], sign[bj - n] = 1, -1 if v < 0 else 1
            den[r] *= v.denominator
            tab[r] = {**{j: x * sign[bj - n] * v.denominator for j, x in tab[r].items()}, bj: den[r]}
            if v:
                tab[r][rhs] = abs(v.numerator)
    zrow, zden = _optimize(tab, den, basis, cost, n)
    if zrow.get(rhs):
        raise Infeasible("phase-1 optimum is nonzero")
    _drive_out_artificials(tab, den, basis, n)

    # phase 2 on the original columns only.  Artificial column n+i has
    # reduced cost -y_i for row i as stored (negated or not, dropped or not).
    # B⁻¹ times the open rows' unit columns is their artificial columns, each
    # read with the sign its row was stored under; rows of 0 are left out
    zrow, zden = _optimize(tab, den, basis, [*c, *[0] * m], n)
    optimum = _Optimum([(bj, inv, d) for row, d, bj in zip(tab, den, basis)
                        if any(inv := [sign[i] * row.get(n + i, 0) for i in opened])],
                       tuple(Fraction(-s * zrow.get(n + i, 0), zden) for i, s in enumerate(sign)),
                       tuple(cj - Fraction(zrow.get(j, 0), zden) for j, cj in enumerate(c)), opened)
    if len(tab) == len(t.rows):
        records.append(optimum)
    return optimum


def _optimize(tab, den, basis, cost, allowed: int) -> tuple[dict[int, int], int]:
    """Run simplex over columns [0, allowed); returns the final reduced-cost
    row, kept incrementally like a tableau row as its nonzero numerators by
    column and one denominator: its right-hand-side entry is minus the
    optimum.  The entering variable is the lowest-index negative column and
    ratio ties break by lowest basis index (Bland's rule)."""
    # all rows may have been dropped as redundant; the loop below then
    # either certifies optimality at 0 or detects unboundedness
    nums, zden = _integer_row(cost)
    zrow = {j: v for j, v in enumerate(nums) if v}
    for row, bj in zip(tab, basis):
        if bj in zrow:
            zden = _eliminate(zrow, zden, row, bj)
    rhs = len(cost)
    while True:
        entering = min((j for j, v in zrow.items() if v < 0 and j < allowed), default=None)
        if entering is None:
            return zrow, zden
        # least rhs_i / a_ic over a_ic > 0, then least basis index, compared
        # by cross-multiplication: the row denominators cancel
        leaving = None
        for i, row in enumerate(tab):
            if entering in row and row[entering] > 0 and (leaving is None or (
                    (row.get(rhs, 0) * tab[leaving][entering], basis[i])
                    < (tab[leaving].get(rhs, 0) * row[entering], basis[leaving]))):
                leaving = i
        if leaving is None:
            raise Unbounded(f"column {entering} is unbounded")
        _pivot(tab, den, basis, leaving, entering)
        zden = _eliminate(zrow, zden, tab[leaving], entering)


def _pivot(tab, den, basis, row: int, col: int) -> None:
    """Pivot on tab[row][col] in place.  The pivot row's denominator becomes
    |pivot| (gcd-reduced), so its entry in `col` equals its denominator, i.e.
    a true 1.  Other rows change only in the pivot row's nonzero columns
    unless the pivot does not divide their factor."""
    prow = tab[row]
    g = gcd(*prow.values()) if prow[col] > 0 else -gcd(*prow.values())
    if g != 1:
        for j in prow:
            prow[j] //= g
    den[row] = prow[col]
    for i, other in enumerate(tab):
        if col in other and i != row:
            den[i] = _eliminate(other, den[i], prow, col)
    basis[row] = col


def _eliminate(row: dict[int, int], d: int, prow: dict[int, int], col: int) -> int:
    """Clear row[col] with the pivot row in place; returns row's new denominator.

    With pivot P = prow[col] (a true 1) and f = row[col], the true row
    becomes (row·P - f·prow) / (d·P); after dividing P and f by gcd(f, P)
    the multiplier of `row` is often 1, and then only the pivot row's
    nonzero columns change (an entry that cancels leaves the dict).  A row
    whose denominator grew is gcd-reduced."""
    g = gcd(row[col], prow[col])
    f, p = row[col] // g, prow[col] // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, x in prow.items():
        v = row.pop(j, 0) - f * x
        if v:
            row[j] = v
    if p == 1:
        return d
    g = gcd(d * p, *row.values())
    for j in row:
        row[j] //= g
    return d * p // g


def _drive_out_artificials(tab, den, basis, n: int, keep=()) -> None:
    """Pivot zero-level artificials not of rows in keep out of the basis; drop redundant rows."""
    i = 0
    while i < len(tab):
        if basis[i] >= n and basis[i] - n not in keep:
            col = min((j for j in tab[i] if j < n), default=None)
            if col is None:
                del tab[i], den[i], basis[i]
                continue
            _pivot(tab, den, basis, i, col)
        i += 1
