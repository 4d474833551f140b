"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's LP and Smith-form code
paths: homology ranks come from rational row reduction, and minimal cycle
masses come from exhaustive enumeration over small integer coefficient
boxes.  Tests compare the fast implementations against these.
"""

from __future__ import annotations

import importlib
import itertools
import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from stasys import (
    Chain,
    DimensionProfile,
    WeightedCellComplex,
    build_complex,
    circle,
    class_coordinates,
    cubical_sphere,
    flat_torus,
    homology,
    point,
    product_complex,
    product_profile,
    profile_from_dict,
    profile_to_dict,
    rp2,
    simplicial_from_top,
    sphere,
    torus_triangulated,
)
from stasys.linalg import rref, smith_normal_form

from snf_reference import dense_matrix, shape


# ---------------------------------------------------------------------------
# Extra small complexes
# ---------------------------------------------------------------------------

def wedge_two_circles() -> WeightedCellComplex:
    """Two triangles glued at vertex 0: betti_1 = 2."""
    return simplicial_from_top(
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    )


def theta_graph() -> WeightedCellComplex:
    """Two endpoints joined by three two-edge arcs: betti_1 = 2."""
    return simplicial_from_top(
        [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
    )


def disjoint_two_circles() -> WeightedCellComplex:
    """Two disjoint triangles: betti_0 = 2, betti_1 = 2."""
    return simplicial_from_top(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )


def weighted_circle() -> WeightedCellComplex:
    """Triangle circle with edge weights 1, 1/2, 2 (length 7/2)."""
    return simplicial_from_top(
        [(0, 1), (1, 2), (0, 2)],
        weights={(0, 1): Fraction(1), (1, 2): Fraction(1, 2), (0, 2): Fraction(2)},
    )


def two_spheres_wedge() -> WeightedCellComplex:
    """Boundaries of two tetrahedra glued at vertex 0: betti_2 = 2."""
    tops = [t for t in itertools.combinations(range(4), 3)]
    tops += [tuple(sorted(0 if v == 4 else v + 3 for v in t))
             for t in itertools.combinations(range(1, 5), 3)]
    return simplicial_from_top(tops)


def loop_with_faces(*face_boundaries) -> WeightedCellComplex:
    """One vertex, one loop e, and a 2-cell glued along each given boundary."""
    return build_complex("general", [
        [("v", 1, [])],
        [("e", 1, [("v", 1), ("v", -1)], None)],
        [(f"f{i}", 1, bd, None) for i, bd in enumerate(face_boundaries)],
    ])


def rp2_cells_squared() -> WeightedCellComplex:
    """The cell-wise square of the one-vertex RP^2.  Its coreduction meets a
    cell whose one remaining face has incidence 2, and its Morse boundaries
    have pivots of 2."""
    rp2_cells = loop_with_faces([("e", 2)])
    return product_complex(rp2_cells, rp2_cells)


def circle_wedge_sphere() -> WeightedCellComplex:
    """A triangle and a tetrahedron boundary glued at vertex 0: S1 v S2."""
    return simplicial_from_top(
        [(0, 5), (5, 6), (0, 6), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def permuted(K: WeightedCellComplex, seed: int) -> WeightedCellComplex:
    """K with the cells of every degree in a seeded order."""
    rng = random.Random(seed)
    order = []
    for q in range(K.top_dim + 1):
        perm = list(range(K.n_cells(q)))
        rng.shuffle(perm)
        order.append(perm)
    new_pos = [{old: new for new, old in enumerate(perm)} for perm in order]

    def moved(per_degree):
        if per_degree is None:
            return None
        return tuple(tuple(per_degree[q][old] for old in order[q]) for q in range(K.top_dim + 1))

    boundary_cols = tuple(
        tuple(tuple((new_pos[q - 1][f], inc) for f, inc in K.boundary_cols[q][old]) for old in order[q])
        for q in range(K.top_dim + 1)
    )
    out = replace(K, cell_ids=moved(K.cell_ids), weights=moved(K.weights),
                  boundary_cols=boundary_cols, vertex_lists=moved(K.vertex_lists),
                  factor_degrees=moved(K.factor_degrees))
    out.validate()
    return out


@pytest.fixture(scope="session")
def standard_connected():
    """Named connected complexes used across tests."""
    return {
        "point": point(),
        "circle3": circle(3),
        "circle4": circle(4),
        "circle5": circle(5),
        "sphere2": sphere(2),
        "cubical_sphere2": cubical_sphere(2),
        "rp2": rp2(),
        "torus9": torus_triangulated(),
        "flat_torus3": flat_torus(3),
        "s1_x_s2": product_complex(circle(3, kind="cubical"), cubical_sphere(2)),
    }


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def rational_rref(mat: list[list[int]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by rational row
    reduction, written without the library's linalg module."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def rational_rank(mat: list[list[int]]) -> int:
    """Row-reduction rank, written without the library's linalg module."""
    return len(rational_rref(mat, len(mat[0]) if mat else 0)[1])


def left_null_basis(K: WeightedCellComplex, q: int) -> list[tuple[int, ...]]:
    """An integer basis of the left null space of the boundary map out of
    the (q+1)-cells: the u on the q-cells with u.∂σ = 0 for every (q+1)-cell
    σ.  A q-cycle bounds rationally exactly when every u pairs to 0 with it;
    with no (q+1)-cells the basis is the unit vectors, so every nonzero
    cycle has a nonzero class."""
    n = K.n_cells(q)
    rows = []
    for col in (K.boundary_cols[q + 1] if q < K.top_dim else ()):
        row = [0] * n
        for face, inc in col:
            row[face] += inc
        rows.append(row)
    rows, pivots = rational_rref(rows, n)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        u = [Fraction(0)] * n
        u[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            u[col] = -row[free]
        d = math.lcm(*(x.denominator for x in u))
        basis.append(tuple(int(x * d) for x in u))
    return basis


def sparse_columns(m: list[list[int]]) -> list[list[tuple[int, int]]]:
    """The columns of a dense matrix as (row, value) pairs, as the Smith form takes them."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(shape(m)[1])]


def dense_factors(factors, nrows: int, ncols: int) -> tuple[list[list[int]], ...]:
    """The five sparse Smith factors of an nrows x ncols matrix, made dense."""
    u, d, v, u_inv, v_inv = factors

    def from_rows(rows, n):
        return [[row.get(j, 0) for j in range(n)] for row in rows]

    def from_columns(cols, n):
        return [[col.get(i, 0) for col in cols] for i in range(n)]

    return (from_columns(u, nrows), from_rows(d, ncols), from_rows(v, ncols),
            from_rows(u_inv, nrows), from_columns(v_inv, ncols))


def dense_snf(m: list[list[int]]) -> tuple[list[list[int]], ...]:
    """``smith_normal_form`` of a dense matrix, its factors made dense."""
    nrows, ncols = shape(m)
    return dense_factors(smith_normal_form(sparse_columns(m), nrows), nrows, ncols)


def solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b, or None if inconsistent (exact, by row reduction)."""
    if not a:
        return None if any(b) else []
    n = len(a[0])
    r, pivots = rref([list(row) + [bv] for row, bv in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][n]
    return x


def betti_oracle(K: WeightedCellComplex, q: int) -> int:
    """betti_q = dim ker(boundary_q) - rank(boundary_{q+1})."""
    nq = K.n_cells(q)
    rank_down, rank_up = (
        rational_rank(dense_matrix(K.boundary_cols[d], K.n_cells(d - 1))) if 1 <= d <= K.top_dim else 0
        for d in (q, q + 1))
    return nq - rank_down - rank_up


def enumerate_integral_cycles(K: WeightedCellComplex, q: int, box: int = 3):
    """Yield every nonzero integral q-cycle with coefficients in [-box, box],
    as its tuple of int coefficients.

    Depth-first over the q-cells in order, each coefficient from -box to box
    (so cycles come out in lexicographic order).  Once the last cell touching
    a face is fixed, the chain's boundary on that face is final; a partial
    chain with a nonzero final boundary coefficient is dropped together with
    all of its completions.
    """
    n = K.n_cells(q)
    cols = K.boundary_cols[q] if q else ((),) * n
    last_touch = {face: j for j, col in enumerate(cols) for face, _ in col}
    settled = [[] for _ in range(n)]  # settled[j]: faces whose last cell is j
    for face, j in last_touch.items():
        settled[j].append(face)
    boundary = dict.fromkeys(last_touch, 0)
    coeffs = [0] * n

    def walk(j):
        if j == n:
            if any(coeffs):
                yield tuple(coeffs)
            return
        for c in range(-box, box + 1):
            coeffs[j] = c
            for face, inc in cols[j]:
                boundary[face] += c * inc
            if all(boundary[face] == 0 for face in settled[j]):
                yield from walk(j + 1)
            for face, inc in cols[j]:
                boundary[face] -= c * inc

    yield from walk(0)


def brute_force_systole(K: WeightedCellComplex, q: int, box: int = 3) -> Fraction | None:
    """Minimum mass over enumerated integral cycles with nonzero class.

    Neither the class nor the mass is read through the library: a cycle's
    class is nonzero when some `left_null_basis` vector pairs nonzero with
    it, and its mass is summed from ``K.weights[q]``, in integers over the
    weights' common denominator."""
    basis, weights = left_null_basis(K, q), K.weights[q].values
    den = math.lcm(*(w.denominator for w in weights))
    weights = [int(w * den) for w in weights]
    best = None
    for z in enumerate_integral_cycles(K, q, box):
        if not any(sum(map(operator.mul, u, z)) for u in basis):
            continue
        m = sum(map(operator.mul, map(abs, z), weights))
        if best is None or m < best:
            best = m
    return None if best is None else Fraction(best, den)


def brute_force_class_norms(K: WeightedCellComplex, q: int, box: int = 3):
    """Map from homology coordinates to the least enumerated cycle mass."""
    table: dict[tuple[Fraction, ...], Fraction] = {}
    for z in enumerate_integral_cycles(K, q, box):
        ch = Chain(q, tuple(map(Fraction, z)))
        coords = tuple(class_coordinates(K, ch))
        m = K.mass(ch)
        if coords not in table or m < table[coords]:
            table[coords] = m
    return table


# ---------------------------------------------------------------------------
# Systole searches that hit their radius cap
# ---------------------------------------------------------------------------

def capped_systoles(monkeypatch, inflate=0):
    """Report every nontrivial systole as an upper bound, `inflate` above its value."""
    norms = importlib.import_module("stasys.norms")
    deform = importlib.import_module("stasys.deform")
    real = norms.stable_systole

    def capped(K, q, search_radius=5):
        res = real(K, q, search_radius)
        if res.value is None:
            return res
        return replace(res, value=res.value + inflate,
                       search_status=f"bounded-search({search_radius})")

    monkeypatch.setattr(norms, "stable_systole", capped)
    monkeypatch.setattr(deform, "stable_systole", capped)


RING_FLAGS = (True, False, None)


@st.composite
def profile_leaves(draw, max_n: int) -> DimensionProfile:
    """An orientable profile of dimension 1..max_n with Betti numbers 0..2 and any ring
    flag a real homology sphere (whose flag is True) does not contradict."""
    n = draw(st.integers(1, max_n))
    middle = draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
    flags = RING_FLAGS if any(middle) else (True, None)
    return DimensionProfile(n=n, betti=(1, *middle, 1),
                            max_cup_flag=draw(st.sampled_from(flags)),
                            name=draw(st.sampled_from(("", "A", "B"))))


@st.composite
def profile_products(draw, max_n: int = 12) -> DimensionProfile:
    """A product of 1-3 factors of total dimension at most max_n; a factor
    may itself be a two-factor product read from JSON, whose ring flag the
    file fills when the factors leave it null."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        room = max_n - sum(f.n for f in factors)
        if room < 1:
            break
        if room >= 2 and draw(st.booleans()):
            a = draw(profile_leaves(room - 1))
            b = draw(profile_leaves(room - a.n))
            data = {"factors": [profile_to_dict(a), profile_to_dict(b)]}
            if product_profile([a, b]).max_cup_flag is None:
                data["max_cup_length"] = draw(st.sampled_from(RING_FLAGS))
            factors.append(profile_from_dict(data))
        else:
            factors.append(draw(profile_leaves(room)))
    return product_profile(factors)
