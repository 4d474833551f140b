"""Stable norms, systoles, and the exact comparison laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasys import (
    HomologyClass,
    circle,
    cubical_sphere,
    flat_torus,
    fundamental_class_mass,
    homology,
    point,
    product_complex,
    pullback_weights,
    rp2,
    simplicial_map,
    sphere,
    stable_norm,
    stable_systole,
    torus_triangulated,
    verify_degree_sandwich,
    verify_product_inequality,
    verify_projection_equality,
    verify_rescaling,
)

from conftest import (
    brute_force_class_norms,
    brute_force_systole,
    theta_graph,
    wedge_two_circles,
    weighted_circle,
)

F = Fraction


# ---------------------------------------------------------------------------
# Stable norms
# ---------------------------------------------------------------------------

def test_zero_class_has_zero_norm():
    K = circle(4)
    res = stable_norm(K, HomologyClass(1, (F(0),)))
    assert res.value == 0 and res.certificate == "trivial-zero-class"


def test_circle_norm_is_total_length_times_coordinate():
    K = circle(5)
    for k in (1, -2, F(3, 2)):
        res = stable_norm(K, HomologyClass(1, (F(k),)))
        assert res.value == abs(F(k)) * 5
        assert K.is_cycle(res.optimal_cycle)


def test_weighted_circle_norm():
    K = weighted_circle()
    assert stable_norm(K, HomologyClass(1, (F(1),))).value == F(7, 2)


def test_optimal_cycle_is_in_the_right_class():
    K = flat_torus(3)
    summary = homology(K)
    res = stable_norm(K, HomologyClass(1, (F(2), F(-1))))
    assert tuple(summary.class_coordinates(K, res.optimal_cycle)) == (F(2), F(-1))
    assert K.mass(res.optimal_cycle) == res.value


def test_top_degree_norm_is_the_unique_cycle():
    # no cells above the top degree: each class holds exactly one cycle
    for K in (sphere(2), flat_torus(3)):
        res = stable_norm(K, HomologyClass(K.top_dim, (F(-2),)))
        assert res.certificate == "unique-cycle"
        assert res.value == 2 * fundamental_class_mass(K)
        assert K.mass(res.optimal_cycle) == res.value
        assert homology(K).class_coordinates(K, res.optimal_cycle) == (F(-2),)


def test_s1_x_s2_degree_two_norm():
    # the least sphere slice of S1 x S2 has the area of the cubical S2
    K = product_complex(circle(3, kind="cubical"), cubical_sphere(2))
    res = stable_norm(K, HomologyClass(2, (F(3, 2),)))
    assert res.certificate == "optimal-LP"
    assert res.value == F(3, 2) * 6
    assert K.mass(res.optimal_cycle) == res.value
    assert homology(K).class_coordinates(K, res.optimal_cycle) == (F(3, 2),)


@pytest.mark.parametrize("coords", [(1, 0), (0, 1), (2, -1), (-1, 3)])
def test_fraction_weights_scale_the_norm_and_keep_the_cycle(coords):
    # weights 5/3 put the LP's cost row over a denominator: the norm scales
    # by 5/3 and, with every reduced cost scaled alike, the same cycle wins
    K = flat_torus(4)
    cls = HomologyClass(1, tuple(F(x) for x in coords))
    base = stable_norm(K, cls)
    scaled = stable_norm(K.rescale(F(5, 3)), cls)
    assert base.value == 4 * sum(abs(x) for x in coords)
    assert scaled.value == F(5, 3) * base.value
    assert scaled.optimal_cycle == base.optimal_cycle
    assert homology(K).class_coordinates(K, scaled.optimal_cycle) == cls.coords


def test_norm_can_beat_the_given_representative():
    # wedge of two circles: class (1, 1) costs the two loops, not more
    K = wedge_two_circles()
    res = stable_norm(K, HomologyClass(1, (F(1), F(1))))
    assert res.value == 6


def test_theta_graph_norms():
    K = theta_graph()
    table = brute_force_class_norms(K, 1)
    for coords, best in table.items():
        assert stable_norm(K, HomologyClass(1, coords)).value <= best


# ---------------------------------------------------------------------------
# Stable systoles
# ---------------------------------------------------------------------------

def test_systole_degree_zero_is_min_vertex_weight():
    for K in (point(), circle(3), sphere(2), torus_triangulated()):
        assert stable_systole(K, 0).value == 1


def test_systole_trivial_cases():
    assert stable_systole(sphere(2), 1).is_trivial
    assert stable_systole(rp2(), 1).is_trivial
    assert stable_systole(circle(3), 2).is_trivial  # degree out of range


def test_circle_and_torus_systoles():
    assert stable_systole(circle(3), 1).value == 3
    assert stable_systole(circle(7), 1).value == 7
    res = stable_systole(flat_torus(4), 1)
    assert res.value == 4 and res.search_status == "certified"


def test_systole_against_brute_force():
    # keep the enumerated degree small: the box has 7^n_cells(q) points
    for K, q in (
        (circle(5), 1),
        (wedge_two_circles(), 1),
        (theta_graph(), 1),
    ):
        assert stable_systole(K, q).value == brute_force_systole(K, q)


def test_systole_witness_is_primitive():
    res = stable_systole(flat_torus(3), 1)
    from math import gcd
    assert gcd(*[abs(x) for x in res.witness_class]) == 1


# ---------------------------------------------------------------------------
# Verification laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [F(1, 2), F(2), F(3), F(7)])
def test_rescaling_law(t):
    assert verify_rescaling(circle(4), 1, t).passed
    assert verify_rescaling(cubical_sphere(2), 2, t).passed


def test_rescaling_rejects_trivial_degree():
    with pytest.raises(ValueError):
        verify_rescaling(sphere(2), 1, 2)


def test_product_inequality_torus_and_s1xs2():
    assert verify_product_inequality(circle(3), circle(4), 1, 1).passed
    r = verify_product_inequality(circle(3, kind="cubical"), cubical_sphere(2), 1, 2)
    assert r.passed


def test_projection_equality_and_inapplicability():
    assert verify_projection_equality(sphere(2), circle(3), 2).passed
    r = verify_projection_equality(circle(3), circle(3), 1)
    assert r.status == "inapplicable"


# ---------------------------------------------------------------------------
# Simplicial maps / degree sandwich
# ---------------------------------------------------------------------------

def cover_map(k, d):
    """k*d-gon onto the k-gon winding d times."""
    return simplicial_map(circle(k * d), circle(k), {i: i % k for i in range(k * d)})


def test_double_and_triple_cover_bounds():
    info2 = cover_map(3, 2)
    assert info2.degree_bound == 2
    info3 = cover_map(3, 3)
    assert info3.degree_bound == 3


def test_pullback_weights_copy_target_weights():
    target = circle(3, edge_weight=F(5, 3))
    info = simplicial_map(circle(6), target, {i: i % 3 for i in range(6)})
    pulled = pullback_weights(info)
    assert set(pulled.weights[1]) == {F(5, 3)}


def test_degree_sandwich_passes():
    for d in (2, 3):
        r = verify_degree_sandwich(cover_map(3, d), 1)
        assert r.passed
        assert r.details["degree-bound"] == d
        assert r.details["pulled-back"] == d * r.details["lower"]


def test_simplicial_map_rejects_degenerate():
    # edge (2,3) collapses to the single vertex 0
    with pytest.raises(ValueError):
        simplicial_map(circle(4), circle(4), {0: 0, 1: 1, 2: 0, 3: 0})


# ---------------------------------------------------------------------------
# Norm axioms (property-based)
# ---------------------------------------------------------------------------

COORD = st.fractions(min_value=-3, max_value=3)


@settings(max_examples=40, deadline=None)
@given(COORD, COORD, st.fractions(min_value=-2, max_value=2))
def test_norm_axioms_on_torus(a, b, s):
    K = flat_torus(3)
    na = stable_norm(K, HomologyClass(1, (a, b))).value
    # positivity / faithfulness on nonzero classes
    if (a, b) != (0, 0):
        assert na > 0
    # homogeneity
    assert stable_norm(K, HomologyClass(1, (s * a, s * b))).value == abs(s) * na


@settings(max_examples=25, deadline=None)
@given(COORD, COORD, COORD, COORD)
def test_triangle_inequality_on_torus(a1, b1, a2, b2):
    K = flat_torus(3)
    n1 = stable_norm(K, HomologyClass(1, (a1, b1))).value
    n2 = stable_norm(K, HomologyClass(1, (a2, b2))).value
    n12 = stable_norm(K, HomologyClass(1, (a1 + a2, b1 + b2))).value
    assert n12 <= n1 + n2
