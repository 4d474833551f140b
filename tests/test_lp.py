"""Exact simplex solver on hand-checked programs and random feasible ones."""

from fractions import Fraction

import importlib
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasys.linalg import rank
from stasys.lp import Infeasible, Unbounded, prepare, solve_lp

from conftest import solve, sparse_columns

F = Fraction
lp = importlib.import_module("stasys.lp")


def frac(rows):
    """The columns of the matrix with these rows, its entries as Fractions."""
    return sparse_columns([[F(x) for x in row] for row in rows])


def test_simple_equality_program():
    # min x0 + 2 x1 s.t. x0 + x1 = 4, x >= 0
    value, x, _, _ = solve_lp(frac([[1, 1]]), [F(4)], [F(1), F(2)])
    assert value == 4
    assert x[0] == 4 and x[1] == 0


def test_two_constraints():
    # min 3x + y s.t. x + y = 3, x - y = 1 -> x = 2, y = 1
    value, x, _, _ = solve_lp(frac([[1, 1], [1, -1]]), [F(3), F(1)], [F(3), F(1)])
    assert value == 7
    assert x[:2] == [F(2), F(1)]


def test_negative_rhs_normalized():
    # min x0 s.t. -x0 - x1 = -5 (i.e. x0 + x1 = 5)
    value, x, _, _ = solve_lp(frac([[-1, -1]]), [F(-5)], [F(1), F(0)])
    assert value == 0
    assert x[1] == 5


def test_fractional_optimum():
    # min x0 + x1 s.t. 2 x0 + 3 x1 = 1, split optimally on the cheap rate
    value, _, _, _ = solve_lp(frac([[2, 3]]), [F(1)], [F(1), F(1)])
    assert value == F(1, 3)


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_lp(frac([[1, 1], [1, 1]]), [F(1), F(2)], [F(1), F(1)])


def test_unbounded():
    # min -x0 s.t. x0 - x1 = 0: both can grow together
    with pytest.raises(Unbounded):
        solve_lp(frac([[1, -1]]), [F(0)], [F(-1), F(0)])


def test_redundant_rows_are_tolerated():
    value, _, _, _ = solve_lp(frac([[1, 1], [2, 2]]), [F(4), F(8)], [F(1), F(2)])
    assert value == 4


def test_cycle_space_program_with_redundant_zero_rows():
    # the triangle's cycle LP: x = x+ - x- on edges e0, e1, e2 with weights
    # 1, 2, 3; the three vertex rows of the boundary have zero right-hand
    # side and rank 2, so one artificial stays basic at zero and its row is
    # dropped; the coordinate row 2 x0 = 2 pins the cycle to (1, 1, 1)
    boundary = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    rows = [row + [-v for v in row] for row in boundary]
    rows.append([2, 0, 0, -2, 0, 0])
    value, x, _, _ = solve_lp(frac(rows), [F(0), F(0), F(0), F(2)], [F(c) for c in (1, 2, 3) * 2])
    assert value == 6
    assert x == [F(1), F(1), F(1), F(0), F(0), F(0)]


def test_degenerate_program_terminates():
    # many tie-broken pivots; Bland's rule must not cycle
    a = frac([
        [1, 1, 1, 0],
        [1, 0, 0, 1],
        [0, 1, 0, -1],
    ])
    value, x, _, _ = solve_lp(a, [F(2), F(1), F(1)], [F(1)] * 4)
    assert value == 2
    assert all(v >= 0 for v in x)


def bfs_optimum(a, b, c):
    """Least cost and the optimal vertices of {A x = b, x >= 0}, c >= 0.

    An independent oracle: every vertex is the unique solution on some
    rank(A) linearly independent columns, so enumerating those column sets
    with `conftest.solve` and keeping the nonnegative solutions finds them all.
    """
    n = len(c)
    best, vertices = None, set()
    for cols in itertools.combinations(range(n), rank(a)):
        sub = solve([[row[j] for j in cols] for row in a], b)
        if sub is None or any(v < 0 for v in sub):
            continue
        x = [F(0)] * n
        for j, v in zip(cols, sub):
            x[j] = v
        cost = sum(cj * xj for cj, xj in zip(c, x))
        if best is None or cost < best:
            best, vertices = cost, set()
        if cost == best:
            vertices.add(tuple(x))
    return best, vertices


def dual_problems(a, b, c, value, prepared=None):
    """Weak and strong duality for the y that solve_lp returns with the rows
    a (as columns), b and c, or with (prepared, b, c) when a tableau
    prepared from a is given; and its fourth output, the loads A^T y."""
    _, _, y, load = solve_lp(sparse_columns(a) if prepared is None else prepared, b, c)
    problems = []
    if len(y) != len(a):
        problems.append(f"{len(y)} duals for {len(a)} rows")
    at_y = [sum(row[j] * yi for row, yi in zip(a, y)) for j in range(len(c))]
    if load != at_y or any(type(v) is not F for v in load):
        problems.append(f"loads {load} are not the Fractions A^T y = {at_y}")
    if any(cj - aj < 0 for aj, cj in zip(at_y, c)):
        problems.append(f"reduced costs c - A^T y = c - {at_y} go below 0 with c = {c}")
    if sum(bi * yi for bi, yi in zip(b, y)) != value:
        problems.append(f"b.y differs from the optimum {value}")
    return problems


def test_dual_of_redundant_and_negated_rows():
    # row 1 is twice row 0, so phase 1 drops one of them; row 2 has a
    # negative right-hand side and is stored negated
    a = [[1, 1, 0], [2, 2, 0], [-1, 0, -1]]
    b = [4, 8, -3]
    c = [1, 2, 3]
    value, x, y, _ = solve_lp(sparse_columns(a), b, c)
    assert value == 5 and x == [F(3), F(1), F(0)]
    assert dual_problems(a, b, c, value) == []
    # the same with Fraction entries on the negated row
    a[2] = [F(-1, 2), 0, F(-1, 2)]
    b[2] = F(-3, 2)
    value, _, _, _ = solve_lp(sparse_columns(a), b, c)
    assert value == 5
    assert dual_problems(a, b, c, value) == []


def test_dual_of_the_cycle_program():
    # the triangle's cycle LP: one of the three zero-RHS vertex rows is dropped
    boundary = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    rows = [row + [-v for v in row] for row in boundary] + [[2, 0, 0, -2, 0, 0]]
    b = [0, 0, 0, 2]
    c = [1, 2, 3] * 2
    value, _, y, _ = solve_lp(sparse_columns(rows), b, c)
    assert value == 6 and y[3] == 3  # the coordinate row's dual: mass 6 per unit of 2 x0
    assert dual_problems(rows, b, c, value) == []


def rationals(lo, hi, max_denominator):
    """Integers and fractions with mixed small denominators in [lo, hi]."""
    return st.one_of(
        st.integers(lo, hi).map(F),
        st.fractions(min_value=lo, max_value=hi, max_denominator=max_denominator),
    )


def feasible_program(data):
    """A program built around a known feasible point x0; c >= 0, so bounded."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 5))
    a = [[data.draw(rationals(-3, 3, 4)) for _ in range(n)] for _ in range(m)]
    x0 = [data.draw(rationals(0, 4, 5)) for _ in range(n)]
    b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
    c = [data.draw(rationals(0, 5, 6)) for _ in range(n)]
    return a, b, c, x0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_feasible_programs(data):
    """The optimum is exact: it equals the least cost over all vertices."""
    a, b, c, x0 = feasible_program(data)
    value, x, _, _ = answer = solve_lp(sparse_columns(a), b, c)
    # columns are prepared into a throwaway tableau and take the tableau's path
    assert answer == solve_lp(prepare(sparse_columns(a), b), b, c)
    feasible_cost = sum(ci * xi for ci, xi in zip(c, x0))
    assert value <= feasible_cost
    assert all(xi >= 0 for xi in x)
    for row, bi in zip(a, b):
        assert sum(rj * xj for rj, xj in zip(row, x)) == bi
    best, vertices = bfs_optimum(a, b, c)
    assert value == best
    assert sum(ci * xi for ci, xi in zip(c, x)) == value
    assert tuple(x) in vertices
    assert dual_problems(a, b, c, value) == []


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_row_scaling_leaves_the_answer_unchanged(data):
    """Each row and its right-hand side times its own positive rational.

    The scaled rows carry other denominators, so the integer tableau stores
    them over other row denominators; the program, its optimum and its
    optimal vertices are the same.  Where the optimal vertex is unique the
    returned x must be that vertex for both forms.
    """
    a, b, c, _ = feasible_program(data)
    scales = [data.draw(st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
              for _ in a]
    value, x, _, _ = solve_lp(sparse_columns(a), b, c)
    scaled_value, scaled_x, _, _ = solve_lp(
        sparse_columns([[s * v for v in row] for s, row in zip(scales, a)]),
        [s * bi for s, bi in zip(scales, b)],
        c,
    )
    best, vertices = bfs_optimum(a, b, c)
    assert value == scaled_value == best
    assert tuple(x) in vertices and tuple(scaled_x) in vertices
    if len(vertices) == 1:
        assert scaled_x == x


def test_row_scaling_keeps_the_cycle_program_answer():
    # the triangle's cycle LP with each row given over its own denominator:
    # the same optimum and the same optimal cycle as the unscaled rows
    boundary = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    rows = [row + [-v for v in row] for row in boundary]
    rows.append([2, 0, 0, -2, 0, 0])
    scales = [F(3, 2), F(5), F(2, 7), F(4, 3)]
    scaled = [[s * v for v in row] for s, row in zip(scales, rows)]
    b = [F(0), F(0), F(0), F(2) * scales[3]]
    value, x, _, _ = solve_lp(sparse_columns(scaled), b, [F(c, 3) for c in (1, 2, 3) * 2])
    assert value == 2
    assert x == [F(1), F(1), F(1), F(0), F(0), F(0)]


def test_phase_one_pivots_on_the_rows_as_given():
    # with zero cost x is the vertex where phase 1 stops.  The rows as given
    # are x0/3 + x1 = 1/3 (negated) and -x0/2 - 2x1/3 + 2x2 = 3/2; their
    # phase-1 reduced costs are (1/6, -1/3, -2), so Bland's rule enters x1
    # first, then x2.  A row stored over denominator 3 or 6 must keep unit
    # artificials: artificials of 1/3 and 1/6 would act as rows scaled by 3
    # and 6, enter x2 first and stop at (1, 0, 1)
    a = [[F(-1, 3), F(-1), F(0)], [F(-1, 2), F(-2, 3), F(2)]]
    value, x, _, _ = solve_lp(sparse_columns(a), [F(-1, 3), F(3, 2)], [F(0)] * 3)
    assert value == 0
    assert x == [F(0), F(1, 3), F(31, 36)]


def test_negative_fractional_rhs_rows():
    # -x0/2 - x1/3 = -1 and x0 - x1 = 1/2 with mixed denominators
    value, x, _, _ = solve_lp(frac([[F(-1, 2), F(-1, 3)], [1, -1]]), [F(-1), F(1, 2)], [F(1), F(1)])
    assert x == [F(7, 5), F(9, 10)]
    assert value == F(23, 10)


# The theta graph: two vertex rows of the sign-split boundary, with zero
# right-hand sides and rank 1, and two rows reading a cycle's coordinates in
# the loops e0 - e1 and e1 - e2, one of them over denominator 2
THETA_ROWS = [row + [-v for v in row]
              for row in ([-1, -1, -1], [1, 1, 1], [1, 0, 0], [0, 0, F(-1, 2)])]
THETA = prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1])


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals(-3, 3, 4), min_size=2, max_size=2),
       st.lists(rationals(0, 5, 6), min_size=6, max_size=6))
def test_prepared_tableau_serves_every_right_hand_side(coords, c):
    """One tableau, crashed once on the zero rows, solves every (b, c) as fresh rows do."""
    b = [0, 0, *coords]
    value, x, y, _ = solve_lp(THETA, b, c)
    assert len(THETA) == 4 and len(y) == 4
    assert value == bfs_optimum(THETA_ROWS, b, c)[0] == solve_lp(sparse_columns(THETA_ROWS), b, c)[0]
    assert dual_problems(THETA_ROWS, b, c, value, prepared=THETA) == []
    assert all(v >= 0 for v in x)
    for row, bi in zip(THETA_ROWS, b):
        assert sum(rj * xj for rj, xj in zip(row, x)) == bi


def test_prepared_tableau_is_left_as_it_was(monkeypatch):
    b, c = [0, 0, F(-3, 2), 2], [1, 2, 3, 4, 5, 6]
    before = [dict(row) for row in THETA.rows], THETA.den[:], THETA.basis[:]
    first = solve_lp(THETA, b, c)
    assert (THETA.rows, THETA.den, THETA.basis) == before
    # the repeat is answered from the basis the first call recorded: no simplex runs
    monkeypatch.setattr(lp, "_optimize", no_simplex)
    assert solve_lp(THETA, b, c) == first
    assert solve_lp(THETA, [2 * v for v in b], c)[0] == 2 * first[0]
    assert (THETA.rows, THETA.den, THETA.basis) == before


def no_simplex(*args):
    raise AssertionError("the simplex ran where a recorded basis answers")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(rationals(-3, 3, 4), min_size=2, max_size=2), min_size=1, max_size=8),
       st.lists(rationals(0, 5, 6), min_size=6, max_size=6))
def test_recorded_bases_answer_as_a_fresh_tableau_does(coords, c):
    """Right-hand sides in any order through one tableau: each value, and the
    primal and dual feasibility of each answer, as a fresh tableau gives."""
    tab = prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1])
    for cs in coords:
        b = [0, 0, *cs]
        value, x, y, reduced = solve_lp(tab, b, c)
        assert value == solve_lp(prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1]), b, c)[0]
        assert all(v >= 0 for v in x) and sum(map(operator.mul, c, x)) == value
        for row, bi in zip(THETA_ROWS, b):
            assert sum(rj * xj for rj, xj in zip(row, x)) == bi
        assert dual_problems(THETA_ROWS, b, c, value, prepared=tab) == []


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals(-3, 3, 4), min_size=2, max_size=2),
       st.lists(rationals(0, 5, 6), min_size=6, max_size=6),
       st.lists(st.fractions(F(1, 4), 4, max_denominator=4), min_size=2, max_size=3))
def test_answers_from_one_record_share_its_dual_and_loads(coords, c, factors):
    """Positive multiples of b stay in the cone of the basis b was solved
    on: each is answered from that one record, with the y and the loads
    A^T y of the solve that recorded it, and the value scaled with b."""
    tab = prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1])
    b = [0, 0, *coords]
    value, _, y, load = solve_lp(tab, b, c)
    assert len(tab.optima[tuple(c)]) == 1
    for k in factors:
        kb = [k * v for v in b]
        answer = solve_lp(tab, kb, c)
        assert answer[0] == k * value and answer[2:] == (y, load)
        assert dual_problems(THETA_ROWS, kb, c, answer[0], prepared=tab) == []
    assert len(tab.optima[tuple(c)]) == 1


def test_a_solve_that_drops_a_row_records_nothing():
    # both rows are open and the second is twice the first, so phase 1
    # drops one: a basis on the row left would call b = (4, 9) feasible
    tab = prepare(sparse_columns([[1, 1], [2, 2]]), [1, 1])
    assert solve_lp(tab, [4, 8], [1, 2])[:2] == (4, [4, 0])
    assert tab.optima == {(1, 2): []}
    with pytest.raises(Infeasible):
        solve_lp(tab, [4, 9], [1, 2])
    assert solve_lp(tab, [5, 10], [1, 2])[0] == 5


def test_a_new_cost_vector_is_never_answered_from_the_old_bases():
    # x0 is basic for c = (1, 2), x1 for c = (2, 1); b = 3 lies in both cones
    tab = prepare(sparse_columns([[1, 1]]), [1])
    assert solve_lp(tab, [4], [1, 2])[:2] == (4, [4, 0])
    assert solve_lp(tab, [3], [2, 1])[:2] == (3, [0, 3])
    assert solve_lp(tab, [3], [1, 2])[:2] == (3, [3, 0])
    assert {d: len(bases) for d, bases in tab.optima.items()} == {(1, 2): 1, (2, 1): 1}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(rationals(0, 5, 6), min_size=6, max_size=6), min_size=1, max_size=2),
       st.lists(st.fractions(F(1, 4), 4, max_denominator=4), min_size=1, max_size=2),
       st.lists(st.tuples(st.integers(0, 3), st.lists(rationals(-3, 3, 4), min_size=2, max_size=2)),
                min_size=1, max_size=8))
def test_interleaved_costs_are_answered_as_a_fresh_tableau_does(costs, factors, solves):
    """Two to four cost vectors, at least one a positive multiple of
    another (a cost vector of its own), and right-hand sides in any order
    through one tableau."""
    costs = costs + [[k * v for v in costs[0]] for k in factors]
    tab = prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1])
    for i, coords in solves:
        b, c = [0, 0, *coords], costs[i % len(costs)]
        value, x, _, _ = solve_lp(tab, b, c)
        assert value == solve_lp(prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1]), b, c)[0]
        assert all(v >= 0 for v in x) and sum(map(operator.mul, c, x)) == value
        assert dual_problems(THETA_ROWS, b, c, value, prepared=tab) == []


def test_an_all_zero_cost_vector_is_a_direction_of_its_own():
    tab = prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1])
    b = [0, 0, 1, 2]
    assert solve_lp(tab, b, [0] * 6)[0] == 0
    assert solve_lp(tab, b, [1] * 6)[0] == bfs_optimum(THETA_ROWS, b, [1] * 6)[0]
    # back to the zero costs: answered from their record
    value, _, y, load = solve_lp(tab, b, [F(0)] * 6)
    assert value == 0 and y == [0] * 4 and load == [0] * 6
    assert dual_problems(THETA_ROWS, b, [0] * 6, value, prepared=tab) == []
    assert sorted(tab.optima) == [(0,) * 6, (1,) * 6]


def test_only_the_newest_cost_directions_are_kept(monkeypatch):
    # the oldest cost vector's records go when a new one would exceed the
    # bound; a repeat of a kept cost vector adds nothing
    monkeypatch.setattr(lp, "COSTS_KEPT", 3)
    tab = prepare(sparse_columns(THETA_ROWS), [0, 0, 1, 1])
    b = [0, 0, 1, 2]
    costs = [[1, 1, 1, 1, 1, k] for k in range(2, 7)]
    for c in costs[:3] + [costs[0]] + costs[3:]:
        assert solve_lp(tab, b, c)[0] == bfs_optimum(THETA_ROWS, b, c)[0]
    assert list(tab.optima) == [tuple(c) for c in costs[2:]]


def test_right_hand_side_must_have_one_entry_per_row():
    with pytest.raises(ValueError, match="length 1, but the constraint matrix has 2 rows"):
        solve_lp(prepare(sparse_columns([[1, 1], [1, -1]]), [1, 1]), [1], [1, 1])
    with pytest.raises(ValueError, match="length 2, but the constraint matrix has 1 rows"):
        solve_lp(prepare(sparse_columns([[1, 1]]), [1]), [1, 2], [1, 1])


def test_cost_vector_must_have_one_entry_per_column():
    with pytest.raises(ValueError, match="length 3, but the constraint matrix has 2 columns"):
        solve_lp(frac([[1, 1]]), [1], [1, 1, 1])


def test_prepare_rejects_a_row_outside_the_right_hand_side():
    # columns are prepared with one row per entry of b; solve_lp prepares them too
    for row in (-1, 2):
        with pytest.raises(ValueError, match=f"column 1 names row {row}, outside \\[0, 2\\)"):
            prepare([[(0, 1)], [(row, 1)]], [0, 1])
    with pytest.raises(ValueError, match=r"column 0 names row 1, outside \[0, 1\)"):
        solve_lp(sparse_columns([[1, 1], [1, -1]]), [1], [1, 1])


def test_crash_leaves_only_the_nonzero_rows_open():
    # the first vertex row takes a structural column, the second (its
    # negative) is dropped, and the two loop rows keep their artificials
    assert len(THETA.rows) == 3
    assert [bj - 6 for bj in THETA.basis if bj >= 6] == [2, 3]
    with pytest.raises(ValueError, match="crashed"):
        solve_lp(THETA, [1, 0, 1, 1], [1] * 6)
