"""Exact simplex solver on hand-checked programs and random feasible ones."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasys.lp import Infeasible, Unbounded, solve_lp

F = Fraction


def frac(rows):
    return [[F(x) for x in row] for row in rows]


def test_simple_equality_program():
    # min x0 + 2 x1 s.t. x0 + x1 = 4, x >= 0
    value, x = solve_lp(frac([[1, 1]]), [F(4)], [F(1), F(2)])
    assert value == 4
    assert x[0] == 4 and x[1] == 0


def test_two_constraints():
    # min 3x + y s.t. x + y = 3, x - y = 1 -> x = 2, y = 1
    value, x = solve_lp(frac([[1, 1], [1, -1]]), [F(3), F(1)], [F(3), F(1)])
    assert value == 7
    assert x[:2] == [F(2), F(1)]


def test_negative_rhs_normalized():
    # min x0 s.t. -x0 - x1 = -5 (i.e. x0 + x1 = 5)
    value, x = solve_lp(frac([[-1, -1]]), [F(-5)], [F(1), F(0)])
    assert value == 0
    assert x[1] == 5


def test_fractional_optimum():
    # min x0 + x1 s.t. 2 x0 + 3 x1 = 1, split optimally on the cheap rate
    value, _ = solve_lp(frac([[2, 3]]), [F(1)], [F(1), F(1)])
    assert value == F(1, 3)


def test_infeasible():
    with pytest.raises(Infeasible):
        solve_lp(frac([[1, 1], [1, 1]]), [F(1), F(2)], [F(1), F(1)])


def test_unbounded():
    # min -x0 s.t. x0 - x1 = 0: both can grow together
    with pytest.raises(Unbounded):
        solve_lp(frac([[1, -1]]), [F(0)], [F(-1), F(0)])


def test_redundant_rows_are_tolerated():
    value, _ = solve_lp(frac([[1, 1], [2, 2]]), [F(4), F(8)], [F(1), F(2)])
    assert value == 4


def test_cycle_space_program_with_redundant_zero_rows():
    # the triangle's cycle LP: x = x+ - x- on edges e0, e1, e2 with weights
    # 1, 2, 3; the three vertex rows of the boundary have zero right-hand
    # side and rank 2, so one artificial stays basic at zero and its row is
    # dropped; the coordinate row 2 x0 = 2 pins the cycle to (1, 1, 1)
    boundary = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    rows = [row + [-v for v in row] for row in boundary]
    rows.append([2, 0, 0, -2, 0, 0])
    value, x = solve_lp(frac(rows), [F(0), F(0), F(0), F(2)], [F(c) for c in (1, 2, 3) * 2])
    assert value == 6
    assert x == [F(1), F(1), F(1), F(0), F(0), F(0)]


def test_degenerate_program_terminates():
    # many tie-broken pivots; Bland's rule must not cycle
    rows = frac([
        [1, 1, 1, 0],
        [1, 0, 0, 1],
        [0, 1, 0, -1],
    ])
    value, x = solve_lp(rows, [F(2), F(1), F(1)], [F(1)] * 4)
    assert value == 2
    assert all(v >= 0 for v in x)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_random_feasible_programs(data):
    """Build a program around a known feasible point; optimum <= its cost."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 5))
    a = [[F(data.draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(m)]
    x0 = [F(data.draw(st.integers(0, 4))) for _ in range(n)]
    b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
    c = [F(data.draw(st.integers(0, 5))) for _ in range(n)]
    value, x = solve_lp(a, b, c)
    feasible_cost = sum(ci * xi for ci, xi in zip(c, x0))
    assert value <= feasible_cost
    assert all(xi >= 0 for xi in x)
    for row, bi in zip(a, b):
        assert sum(rj * xj for rj, xj in zip(row, x)) == bi
