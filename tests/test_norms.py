"""Stable norms, systoles, and the exact comparison laws."""

import functools
import hashlib
import importlib
import itertools
import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stasys import (
    Chain,
    DeformationFamily,
    HomologyClass,
    Partition,
    StableNormResult,
    circle,
    class_coordinates,
    complex_from_dict,
    complex_to_dict,
    cubical_sphere,
    deformation_sweep,
    flat_torus,
    fundamental_class_mass,
    homology,
    point,
    product_complex,
    pullback_weights,
    push_chain,
    rp2,
    simplicial_from_top,
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
from stasys.complexes import Weights
from stasys.lp import Infeasible, prepare, solve_lp
from stasys.norms import minimum_mass_cycle

import norms_reference
from norms_reference import reference_minimum_mass_cycle, reference_stable_systole
from conftest import (
    brute_force_class_norms,
    brute_force_systole,
    capped_systoles,
    permuted,
    theta_graph,
    wedge_two_circles,
    weighted_circle,
)
from test_certificates import certificate_problems

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
    res = stable_norm(K, HomologyClass(1, (F(2), F(-1))))
    assert tuple(class_coordinates(K, res.optimal_cycle)) == (F(2), F(-1))
    assert K.mass(res.optimal_cycle) == res.value


def test_top_degree_norm_is_the_unique_cycle():
    # no cells above the top degree: each class holds exactly one cycle
    for K in (sphere(2), flat_torus(3)):
        res = stable_norm(K, HomologyClass(K.top_dim, (F(-2),)))
        assert res.certificate == "unique-cycle"
        assert res.value == 2 * fundamental_class_mass(K)
        assert K.mass(res.optimal_cycle) == res.value
        assert class_coordinates(K, res.optimal_cycle) == (F(-2),)


def test_s1_x_s2_degree_two_norm():
    # the least sphere slice of S1 x S2 has the area of the cubical S2
    K = product_complex(circle(3, kind="cubical"), cubical_sphere(2))
    res = stable_norm(K, HomologyClass(2, (F(3, 2),)))
    assert res.certificate == "optimal-LP"
    assert res.value == F(3, 2) * 6
    assert K.mass(res.optimal_cycle) == res.value
    assert class_coordinates(K, res.optimal_cycle) == (F(3, 2),)


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
    assert class_coordinates(K, scaled.optimal_cycle) == cls.coords


@pytest.mark.parametrize("solve", [stable_norm, minimum_mass_cycle], ids=["stable_norm", "minimum_mass_cycle"])
@pytest.mark.parametrize("K, cls, message", [
    (flat_torus(3), HomologyClass(1, (1,)), "coordinate vector has wrong length"),
    (flat_torus(3), HomologyClass(1, (1, 0, 0)), "coordinate vector has wrong length"),
    (flat_torus(3), HomologyClass(-1, (1,)), "degree -1 out of range"),
    (flat_torus(3), HomologyClass(3, (1,)), "degree 3 out of range"),
    # unchecked, the LP pads the right-hand side from the front and answers
    # (0, 1), of norm 3, where (1, 0) has norm 4
    (product_complex(circle(3), circle(4)), HomologyClass(1, (1,)), "coordinate vector has wrong length"),
], ids=["short", "long", "degree-below", "degree-above", "c3xc4-short"])
def test_a_class_is_checked_against_its_complex(solve, K, cls, message):
    with pytest.raises(ValueError, match=message):
        solve(K, cls)


def test_a_warm_norm_checks_its_class_once(monkeypatch):
    # each norm that reaches the LP looks up homology(K) once, in its own
    # class check; minimum_mass_cycle keeps its check for callers of its own
    norms = importlib.import_module("stasys.norms")
    K = flat_torus(4)
    classes = [HomologyClass(1, c) for c in ((1, 0), (0, 1), (1, 1), (2, -1))]
    warm = [stable_norm(K, cls) for cls in classes]
    lookups = []
    real = norms.homology
    monkeypatch.setattr(norms, "homology", lambda L: lookups.append(L) or real(L))
    assert [stable_norm(K, cls) for cls in classes] == warm
    assert len(lookups) == 4 and all(L is K for L in lookups)
    assert all(res.certificate == "optimal-LP" for res in warm)
    lookups.clear()
    assert minimum_mass_cycle(K, classes[0])[0] == warm[0].value
    assert len(lookups) == 1


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


# Every nonzero class of the box, solved in a drawn order through one fresh
# tableau per example; fresh_norm is a class's norm from a tableau that
# solved nothing before it
ORDER_CASES = {"flat_torus(3)": flat_torus(3), "T2_9": torus_triangulated()}
BOX = [c for c in itertools.product(range(-2, 3), repeat=2) if any(c)]


@functools.cache
def fresh_norm(name, coords):
    return minimum_mass_cycle(replace(ORDER_CASES[name]), HomologyClass(1, coords))[0]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(ORDER_CASES)), st.permutations(BOX))
def test_norms_do_not_depend_on_the_classes_solved_before(name, order):
    K = replace(ORDER_CASES[name])  # an equal complex with no norm tableau yet
    summary = homology(K)
    for coords in order:
        value, cycle, dual, f = minimum_mass_cycle(K, HomologyClass(1, coords))
        assert value == fresh_norm(name, coords)
        res = StableNormResult(value, cycle, "optimal-LP", dual, f)
        assert certificate_problems(K, summary.generators[1], res) == [], coords


def test_a_reweighted_structure_is_not_answered_from_the_old_weights():
    # flat_torus(3) with the first factor circle's edges twice as heavy: a
    # basis optimal for the old weights need not be optimal now
    K = flat_torus(3)
    summary = homology(K)
    heavy = DeformationFamily(K).at(2)
    assert [w2 / w for w, w2 in zip(K.weights[1], heavy.weights[1])] == [
        2 if tag == (1, 0) else 1 for tag in K.factor_degrees[1]]
    assert homology(heavy) is summary
    old = {coords: stable_norm(K, HomologyClass(1, coords)).value for coords in BOX}
    for coords in BOX:
        res = stable_norm(heavy, HomologyClass(1, coords))
        fresh = minimum_mass_cycle(replace(heavy), HomologyClass(1, coords))
        assert res.value == fresh[0]
        assert certificate_problems(heavy, summary.generators[1], res) == []
    assert sorted(stable_norm(heavy, HomologyClass(1, c)).value for c in ((1, 0), (0, 1))) == [3, 6]
    assert old[1, 0] == old[0, 1] == 3


def reversed_torus():
    """flat_torus(3) with its edges and squares in reverse order, by a JSON round trip."""
    data = complex_to_dict(flat_torus(3))
    for q in ("1", "2"):
        data["cells"][q].reverse()
    return complex_from_dict(data)


CELL_ORDERS = {**{f"seed-{seed}": functools.partial(permuted, flat_torus(3), seed) for seed in (0, 2, 5)},
               "reversed": reversed_torus}


def torus_answers(K):
    """K's norms over the [-2, 2]^2 box and its degree-1 systole."""
    res = stable_systole(K, 1)
    return ([stable_norm(K, HomologyClass(1, c)).value for c in itertools.product(range(-2, 3), repeat=2)],
            (res.value, res.witness_class, res.search_status))


@pytest.mark.parametrize("order", sorted(CELL_ORDERS))
def test_queries_on_one_cell_order_leave_another_alone(order):
    # flat_torus(3) in two cell orders: the norm LP state of each is its
    # own, so queries on one, in any order, leave the other's answers those
    # of a freshly built complex
    build = {"built": lambda: flat_torus(3), order: CELL_ORDERS[order]}
    for queried, other in itertools.permutations(build):
        K, L = build[queried](), build[other]()
        for cls in (HomologyClass(1, (1, 0)), HomologyClass(1, (0, 1)), HomologyClass(1, (2, -1))):
            assert minimum_mass_cycle(K, cls)[0] == stable_norm(K, cls).value
        assert stable_systole(K, 1).value == 3
        assert torus_answers(L) == torus_answers(build[other]())


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


def first_least(value_of, b, radius):
    """Value and first class of least norm among the primitive classes of
    max-norm at most radius, in the search's shell order: no pruning and
    no certificate."""
    best = witness = None
    for r in range(1, radius + 1):
        for v in itertools.product(range(-r, r + 1), repeat=b):
            if max(map(abs, v)) != r or next(x for x in v if x) < 0 or math.gcd(*v) != 1:
                continue
            value = value_of(v)
            if best is None or value < best:
                best, witness = value, v
    return best, witness


@pytest.mark.parametrize("K, q", [
    (flat_torus(3).rescale(F(5, 3)), 1),
    (torus_triangulated(), 1),
    (product_complex(circle(3), circle(4)), 1),
    (wedge_two_circles(), 1),
    (theta_graph(), 1),
])
def test_pruned_search_matches_the_whole_box(K, q):
    # classes skipped by a dual bound never improve the minimum, so value
    # and witness equal those of evaluating every class up to the radius
    res = stable_systole(K, q, search_radius=3)
    assert res.search_status == "certified"
    def value_of(v):
        return stable_norm(K, HomologyClass(q, v)).value

    assert (res.value, res.witness_class) == first_least(value_of, 2, 3)


@pytest.mark.parametrize("K", [flat_torus(4), torus_triangulated()], ids=["flat_torus(4)", "T2_9"])
def test_rank_two_systole_takes_two_cycle_lps(K, monkeypatch):
    norms = importlib.import_module("stasys.norms")
    calls = []
    real = norms._class_norm
    monkeypatch.setattr(norms, "_class_norm", lambda *args: calls.append(args) or real(*args))
    res = stable_systole(K, 1)
    assert res.search_status == "certified"
    assert len(calls) <= 2


def skewed_norm(forms):
    """N(h) = sum of w |l.h| over forms (l, w), with a subgradient as its dual."""
    def norm(K, cls):
        h = cls.coords
        value, dual = F(0), [F(0)] * len(h)
        for l, w in forms:
            dot = sum(a * b for a, b in zip(l, h))
            value += w * abs(dot)
            sign = (dot > 0) - (dot < 0)
            dual = [d + w * sign * a for d, a in zip(dual, l)]
        return StableNormResult(value, Chain(cls.degree, ()), "optimal-LP", tuple(dual))
    return norm


def patch_norm_lp(mp, norm):
    """Make each class the search tries answer with norm's value and λ, as
    `_class_norm` gives them: λ as its numerators λ̂ over one denominator d,
    and the value over the same d, which a subgradient λ of norm allows."""
    def class_norm(K, summary, q, coords, chat, records):
        res = norm(K, HomologyClass(q, coords))
        (lam, d), = integer_duals([res.dual])
        assert res.value * d == sum(map(operator.mul, lam, coords))
        return sum(map(operator.mul, lam, coords)), lam, d
    mp.setattr(importlib.import_module("stasys.norms"), "_class_norm", class_norm)


def integer_duals(duals):
    """Each λ as the search keeps it: its numerators over their least
    common denominator d, paired with d."""
    out = []
    for lam in duals:
        d = math.lcm(*(F(v).denominator for v in lam))
        out.append((tuple(int(F(v) * d) for v in lam), d))
    return out


def bounds_sphere(duals, level):
    """`_bounds_sphere` on a fresh store, for λ's and a level as Fractions."""
    norms = importlib.import_module("stasys.norms")
    level = F(level)
    return norms._bounds_sphere({}, integer_duals(duals), len(duals[0]),
                                level.numerator, level.denominator)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          st.integers(1, 9)), min_size=2, max_size=3))
def test_search_on_skewed_lattice_norms(forms):
    # a rank-2 norm whose shortest class may lie several shells out: the
    # search must skip only classes that cannot improve, and certify only
    # when no class beyond its last shell is shorter
    assume(any(l1[0] * l2[1] != l1[1] * l2[0] for (l1, _), (l2, _) in
               itertools.combinations(forms, 2)))
    norm = skewed_norm(forms)
    with pytest.MonkeyPatch.context() as mp:
        patch_norm_lp(mp, norm)
        res = stable_systole(flat_torus(3), 1, search_radius=4)
    def value_of(v):
        return norm(None, HomologyClass(1, v)).value

    if res.search_status == "certified":
        assert (res.value, res.witness_class) == first_least(value_of, 2, 12)
    else:
        assert res.search_status == "bounded-search(4)"
        assert (res.value, res.witness_class) == first_least(value_of, 2, 4)


def test_shortest_class_two_shells_out():
    # N(x, y) = 10|x - 2y| + |y| is least at (2, 1); radius 1 cannot certify
    norm = skewed_norm([((1, -2), 10), ((0, 1), 1)])
    with pytest.MonkeyPatch.context() as mp:
        patch_norm_lp(mp, norm)
        capped = stable_systole(flat_torus(3), 1, search_radius=1)
        full = stable_systole(flat_torus(3), 1)
    assert (capped.value, capped.witness_class, capped.search_status) == (10, (1, 0),
                                                                          "bounded-search(1)")
    assert (full.value, full.witness_class, full.search_status) == (1, (2, 1), "certified")


# On the face h_1 = 1, L = max(|1 - 2y|, |2y|, |1 - 2z|, |2z|) >= 1/2 with
# equality only at y = z = 1/4; on the faces h_2 = ±1 and h_3 = ±1 one of
# |2y|, |2z| is 2.  So the least, 1/2, lies inside a face, while the unit
# vectors give L(e_1) = 1 and L(e_2) = L(e_3) = 2.
INSIDE_A_FACE = [(1, -2, 0), (0, 2, 0), (1, 0, -2), (0, 0, 2)]


@pytest.mark.parametrize("duals, least", [
    ([(2, 1)], 0),                     # L vanishes at (-1/2, 1)
    ([(2, 1), (0, 1)], 1),             # least at (1, -1) and on part of h2 = 1
    ([(1, 1), (1, -1)], 1),
    ([(4, 4), (4, -4), (4, 0)], 4),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 1),
    ([(1, -1, 0), (0, 1, -1)], 0),     # L vanishes at (1, 1, 1)
    (INSIDE_A_FACE, F(1, 2)),
])
def test_least_dual_bound_on_the_unit_sphere(duals, least):
    duals = [tuple(map(F, lam)) for lam in duals]
    assert bounds_sphere(duals, least)
    assert not bounds_sphere(duals, least + F(1, 1000))


def least_on_square(duals):
    """Least L(h) = max_k |λ_k.h| over the max-norm unit circle, edge by edge.

    L is even, so the edges h = (1, s) and h = (s, 1), -1 <= s <= 1, cover
    the circle up to sign.  On an edge L is the largest of |α_k + β_k s|,
    convex and piecewise linear, so its least value lies at an endpoint or
    at a kink: where α_k + β_k s = ±(α_l + β_l s), which with k = l and the
    minus sign is where α_k + β_k s vanishes.
    """
    least = None
    for flip in (False, True):
        lines = [lam[::-1] if flip else lam for lam in duals]
        cuts = [F(-1), F(1)]
        for (a1, b1), (a2, b2) in itertools.product(lines, repeat=2):
            for sign in (1, -1):
                if b1 != sign * b2:
                    cuts.append((sign * a2 - a1) / (b1 - sign * b2))
        for s in cuts:
            if -1 <= s <= 1:
                value = max(abs(al + be * s) for al, be in lines)
                least = value if least is None else min(least, value)
    return least


small_fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_fractions, small_fractions), min_size=1, max_size=4))
def test_stop_test_against_the_edges_of_the_square(duals):
    least = least_on_square(duals)
    assert bounds_sphere(duals, least)
    assert not bounds_sphere(duals, least + F(1, 10 ** 6))


def test_stop_test_programs_have_one_row_per_coordinate(monkeypatch):
    # and all b programs of one stop test run on the one tableau it prepared
    norms, lp = (importlib.import_module(f"stasys.{m}") for m in ("norms", "lp"))
    tableaux = []
    real = norms._lookup
    monkeypatch.setattr(norms, "_lookup", lambda a, *rest: tableaux.append(a) or real(a, *rest))
    for duals, level in (([(2, 1), (0, 1)], 1), ([(4, 4), (4, -4), (4, 0)], 4),
                         (INSIDE_A_FACE, F(1, 2))):
        b = len(duals[0])
        tableaux.clear()
        assert bounds_sphere([tuple(map(F, lam)) for lam in duals], level)
        assert [len(a) for a in tableaux] == [b] * b
        assert isinstance(tableaux[0], lp.Tableau)
        assert all(a is tableaux[0] for a in tableaux)


def test_stop_tests_kept_per_summary_are_bounded(monkeypatch):
    # the oldest stop-test tableau goes when a new one would exceed the
    # bound; a repeat of a kept λ set adds nothing
    norms = importlib.import_module("stasys.norms")
    monkeypatch.setattr(norms, "STOP_TESTS_KEPT", 3)
    stop_tests = {}
    keys = [(((k, 0), 1), ((0, 1), 1)) for k in range(1, 6)]
    for duals in keys[:3] + [keys[0]] + keys[3:]:
        assert norms._bounds_sphere(stop_tests, list(duals), 2, 1, 2)
    assert list(stop_tests) == keys[2:]
    # a search keeps its stop tests on the complex apart from the norm
    # tableaux, which are keyed by q
    K = flat_torus(3)
    stable_systole(K, 1)
    assert list(K._shared) == ["homology", ("norm tableau", 1), "stop tests"]
    assert list(K._shared["stop tests"]) == [(((3, 3), 1), ((3, -3), 1))]


def sphere_threshold(duals):
    """1/M for M the largest h_j with max_k |λ_k.h| <= 1, from a fresh
    tableau of the λ's as Fractions; 0 when the λ's do not span."""
    b = len(duals[0])
    tab = prepare(norms_reference._sign_split([list(enumerate(lam)) for lam in duals]), [1] * b)
    try:
        return 1 / max(solve_lp(tab, [int(i == j) for i in range(b)], (1,) * (2 * len(duals)))[0]
                       for j in range(b))
    except Infeasible:
        return F(0)


@st.composite
def lambda_sets(draw):
    """A λ set in b = 2 or 3 coordinates: free, or drawn from a span of
    fewer than b vectors so that the λ's do not span."""
    b = draw(st.sampled_from((2, 3)))
    vector = st.tuples(*[small_fractions] * b)
    if draw(st.booleans()):
        return tuple(draw(st.lists(vector, min_size=1, max_size=4)))
    base = draw(st.lists(vector, min_size=1, max_size=b - 1))
    coefficients = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(base)), min_size=1, max_size=4))
    return tuple(tuple(sum(a * u[i] for a, u in zip(cs, base)) for i in range(b)) for cs in coefficients)


KEPT_STOP_TESTS: dict = {}  # one store for every example, as a complex keeps it


@settings(max_examples=150, deadline=None)
@given(st.lists(lambda_sets(), min_size=1, max_size=4), st.data())
def test_kept_stop_test_bounds_match_a_fresh_tableau(sets, data):
    # λ sets met again and again, in a drawn order, each at several levels
    # (its threshold, just either side of it, and drawn ones), answer from
    # the one shared store as a fresh tableau of Fractions does
    norms = importlib.import_module("stasys.norms")
    order = data.draw(st.lists(st.sampled_from(sets), min_size=len(sets), max_size=3 * len(sets)))
    for duals in sets + order:
        least = sphere_threshold(duals)
        levels = [least, least + F(1, 10 ** 6), least - F(1, 10 ** 6), F(0), F(-1)]
        levels += data.draw(st.lists(small_fractions, max_size=3))
        for level in levels:
            expected = norms_reference._bounds_sphere(duals, len(duals[0]), level)
            assert norms._bounds_sphere(KEPT_STOP_TESTS, integer_duals(duals), len(duals[0]),
                                        level.numerator, level.denominator) == expected, (duals, level)
        assert len(KEPT_STOP_TESTS) <= norms.STOP_TESTS_KEPT


def test_direction_records_of_a_norm_tableau_are_bounded():
    # every deformation t is a new cost vector ĉ on the one q = 1 tableau:
    # the first factor's edges weigh t, the second's 1
    lp = importlib.import_module("stasys.lp")
    K = flat_torus(4)
    family = DeformationFamily(K)
    for t in range(2, 302):
        stable_systole(family.at(t), 1)
    assert 0 < len(K._shared["norm tableau", 1].optima) <= lp.COSTS_KEPT


A = 10 ** 400


@pytest.mark.parametrize("K, top, least", [
    (theta_graph(), (A, A, A + 1, A, A, A), 4 * A),
    (wedge_two_circles(), (A + 1, A + 2, A, A, A + 3, A + 7), 3 * A + 6),
], ids=["theta", "wedge"])
def test_graph_systoles_stay_exact_on_huge_weights(monkeypatch, K, top, least):
    # a graph's edges bound nothing, so its classes take the integer
    # unique-cycle path; the weights are their own primitive direction and
    # every stop-test level must stay exact, as integers over integers
    norms = importlib.import_module("stasys.norms")
    levels = []
    real = norms._bounds_sphere
    monkeypatch.setattr(norms, "_bounds_sphere",
                        lambda tableaux, duals, b, *level: levels.append(level) or real(tableaux, duals, b, *level))
    res = stable_systole(replace(K, weights=(K.weights[0], tuple(map(F, top)))), 1)
    assert (res.value, res.search_status) == (least, "certified")
    assert type(res.value) is Fraction
    assert levels and all(type(num) is int and type(den) is int for num, den in levels)


def cut_pairing(K, z):
    """(a, b): cycle z of a product of two circles paired with two cut cocycles.

    a sums z over the first-factor cells (e|v) above one first-factor edge
    e, b over the second-factor cells (u|f) above one second-factor edge f.
    Each is a cocycle: a square's boundary meets such a cut in two opposite
    edges of opposite sign.
    """
    cells = [(cid[1:-1].split("|"), tag) for cid, tag in zip(K.cell_ids[1], K.factor_degrees[1])]
    e = min(s[0] for s, tag in cells if tag == (1, 0))
    f = min(s[1] for s, tag in cells if tag == (0, 1))
    a = sum(c for (s, tag), c in zip(cells, z.coeffs) if tag == (1, 0) and s[0] == e)
    b = sum(c for (s, tag), c in zip(cells, z.coeffs) if tag == (0, 1) and s[1] == f)
    return a, b


def test_norm_tableau_is_prepared_once_per_structure(monkeypatch):
    # weights never enter the tableau: rescaled and deformed metrics reuse
    # it.  On flat_torus(4) the norm of a class pairing to (a, b) with the
    # cuts is |a| Lx + |b| Ly, Lx and Ly the lengths of the factor circles
    norms = importlib.import_module("stasys.norms")
    K = flat_torus(4)
    summary = homology(K)
    calls = []
    real = norms.prepare
    monkeypatch.setattr(norms, "prepare", lambda *args: calls.append(args) or real(*args))
    family = DeformationFamily(K)
    for t in (F(1), F(5, 3), F(1, 2)):
        for L, lx, ly in ((K.rescale(t), 4 * t, 4 * t), (family.at(t), 4 * t, 4)):
            assert homology(L) is summary
            for coords in ((1, 0), (0, 1), (2, -1), (-1, 3), (F(1, 2), 2)):
                cls = HomologyClass(1, coords)
                # the cycle sum_j c_j g_j of the class, on the generators
                cells = zip(*(g.coeffs for g in summary.generators[1]))
                a, b = cut_pairing(K, Chain(1, tuple(sum(map(operator.mul, coords, c)) for c in cells)))
                assert stable_norm(L, cls).value == abs(a) * lx + abs(b) * ly
    assert len(calls) == 1


def test_a_rescaled_systole_reuses_the_recorded_bases(monkeypatch):
    # rescaling multiplies every q=1 weight by t and leaves ĉ, the cost of
    # every norm LP, as it was, so each basis recorded for flat_torus(4)
    # answers again and no two-phase solve runs on its tableau
    lp = importlib.import_module("stasys.lp")
    K = flat_torus(4)
    base = stable_systole(K, 1)
    tab = K._shared["norm tableau", 1]
    solved = []
    real = lp._two_phase
    monkeypatch.setattr(lp, "_two_phase", lambda t, *rest: solved.append(t) or real(t, *rest))
    for t in (F(3, 2), F(1, 2), F(1, 7), F(2)):
        res = stable_systole(K.rescale(t), 1)
        assert (res.value, res.search_status) == (t * base.value, base.search_status)
    assert tab not in solved


def test_a_rescaled_stable_norm_is_answered_from_the_recorded_bases(monkeypatch):
    # a positive multiple t of the weights is the same cost ĉ on the norm
    # tableau: its records answer with no two-phase solve and no new cost
    # vector, the cycle stays, and the value, λ and f scale by t
    lp = importlib.import_module("stasys.lp")
    K = flat_torus(4)
    classes = [HomologyClass(1, coords) for coords in ((1, 0), (2, -1), (F(1, 2), 3))]
    norms = [stable_norm(K, cls) for cls in classes]
    tab = K._shared["norm tableau", 1]
    costs = list(tab.optima)
    solved = []
    real = lp._two_phase
    monkeypatch.setattr(lp, "_two_phase", lambda t, *rest: solved.append(t) or real(t, *rest))
    for t in (F(3, 2), F(1, 7), F(2)):
        for cls, norm in zip(classes, norms):
            res = stable_norm(K.rescale(t), cls)
            assert res == StableNormResult(t * norm.value, norm.optimal_cycle, "optimal-LP",
                                           tuple(t * v for v in norm.dual),
                                           tuple(t * v for v in norm.cocycle))
    assert tab not in solved
    assert list(tab.optima) == costs


@pytest.mark.parametrize("K", [flat_torus(3), product_complex(circle(3), circle(4)),
                               product_complex(circle(3, kind="cubical"), cubical_sphere(2))],
                         ids=["flat_torus(3)", "C3xC4", "S1xS2"])
def test_the_search_solves_on_primitive_integer_costs(K, monkeypatch):
    # the search and stable_norm cost every LP by the weights' primitive
    # integer direction, so on a rescaled or deformed metric they hand
    # the LP only costs of gcd 1
    norms, lp = (importlib.import_module(f"stasys.{m}") for m in ("norms", "lp"))
    K = replace(K)  # an equal complex with no norm tableau yet
    costs = []
    real_lookup = lp._lookup
    for module in (norms, lp):  # the search's binding and solve_lp's
        monkeypatch.setattr(module, "_lookup", lambda a, b, c: costs.append(c) or real_lookup(a, b, c))
    metrics = [K.rescale(t) for t in (F(2), F(1, 3), F(5, 4))]
    metrics += [DeformationFamily(K).at(t) for t in (F(3, 2), F(4))]
    betti = homology(K).betti
    for Kt in metrics:
        for q in range(K.top_dim + 1):
            stable_systole(Kt, q)
            if betti[q] and K.n_cells(q + 1):
                before = len(costs)
                stable_norm(Kt, HomologyClass(q, (F(1, 2),) + (3,) * (betti[q] - 1)))
                assert len(costs) == before + 1
    assert costs
    for c in costs:
        assert type(c) is tuple and {type(v) for v in c} == {int} and math.gcd(*c) == 1


EQUIVARIANCE = {"flat_torus(3)": flat_torus(3), "T2_9": torus_triangulated(),
                "C3xC4": product_complex(circle(3), circle(4))}


@functools.cache
def unscaled_systole(name, q):
    return stable_systole(EQUIVARIANCE[name], q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EQUIVARIANCE)), st.integers(0, 2),
       st.integers(1, 9), st.integers(1, 9))
def test_systoles_are_equivariant_under_rescaling(name, q, num, den):
    # a metric scaled by t has every degree-q norm scaled by t^q
    t = F(num, den)
    base = unscaled_systole(name, q)
    res = stable_systole(EQUIVARIANCE[name].rescale(t), q)
    assert res.value == t ** q * base.value
    assert (res.witness_class, res.search_status) == (base.witness_class, base.search_status)


def test_a_warm_repeat_runs_no_two_phase_solve(monkeypatch):
    # norm tableaux are kept per degree and stop-test tableaux per λ set,
    # each with the optimal bases recorded on it, so a search repeated on
    # the same complex, or a reweighting of it with the same weight
    # direction, prepares and pivots nothing
    norms, lp, deform = (importlib.import_module(f"stasys.{m}") for m in ("norms", "lp", "deform"))
    family = DeformationFamily(product_complex(circle(3), circle(4)))
    searches = []
    real_systole = deform.stable_systole
    monkeypatch.setattr(deform, "stable_systole",
                        lambda *args, **kw: searches.append(real_systole(*args, **kw)) or searches[-1])
    T2_9, FT3 = torus_triangulated(), flat_torus(3)
    runs = (lambda: stable_systole(T2_9, 1),
            lambda: stable_systole(FT3, 1),
            lambda: deformation_sweep(family, Partition((1, 1))))
    first = [run() for run in runs], list(searches)
    assert len(searches) == 4 and all(res.search_status == "certified" for res in searches)
    searches.clear()
    calls = []
    real_two_phase, real_prepare = lp._two_phase, norms.prepare
    monkeypatch.setattr(lp, "_two_phase", lambda *args: calls.append("two_phase") or real_two_phase(*args))
    monkeypatch.setattr(norms, "prepare", lambda *args: calls.append("prepare") or real_prepare(*args))
    assert ([run() for run in runs], searches) == first
    assert calls == []


WARM_STRUCTURES = {"flat_torus(4)": (flat_torus(4), (1,)), "T2_9": (torus_triangulated(), (1,)),
                   "C3xC4": (product_complex(circle(3), circle(4)), (1,)),
                   "T2_9xC3": (product_complex(torus_triangulated(), circle(3)), (1, 2))}


def lp_calls(monkeypatch):
    """Patch the bindings of `lp._lookup` and `lp.prepare` that `stasys.norms`
    and `stasys.lp` call; returns the list their calls are named in."""
    norms, lp = (importlib.import_module(f"stasys.{m}") for m in ("norms", "lp"))
    calls = []
    for name in ("_lookup", "prepare"):
        real = getattr(lp, name)
        for module in (norms, lp):
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                calls.append(name) or real(*args))
    return calls


@pytest.mark.parametrize("name", sorted(WARM_STRUCTURES))
def test_a_warm_search_runs_no_lp_lookup(name, monkeypatch):
    # a warm search answers every class from the norm records it resolved
    # once, and every stop test from a kept bound: it looks up and prepares
    # nothing, on the weights and on a rescaled metric, b = 3 included
    K, degrees = WARM_STRUCTURES[name]
    for q in degrees:
        for L in (K, K.rescale(F(3, 2))):
            cold = stable_systole(L, q)
            calls = lp_calls(monkeypatch)
            warm = stable_systole(L, q)
            monkeypatch.undo()
            assert calls == [] and repr(warm) == repr(cold), (q, calls)


def test_a_warm_sweep_runs_no_lp_lookup(monkeypatch):
    family = DeformationFamily(product_complex(circle(3), circle(4)))
    ts = (F(1), F(3, 2), F(3), F(8))
    cold = deformation_sweep(family, Partition((1, 1)), t_samples=ts)
    calls = lp_calls(monkeypatch)
    warm = deformation_sweep(family, Partition((1, 1)), t_samples=ts)
    monkeypatch.undo()
    assert calls == [] and warm == cold


@pytest.mark.parametrize("name", sorted(WARM_STRUCTURES))
def test_the_open_rows_of_a_norm_tableau_are_its_coordinate_rows(name):
    # the search reads a class's coordinates as the levels' right-hand side
    K, _ = WARM_STRUCTURES[name]
    summary = homology(K)
    for q, b in enumerate(summary.betti):
        if b and K.n_cells(q + 1):
            stable_norm(K, HomologyClass(q, (1,) * b))
            tab = K._shared["norm tableau", q]
            assert tab.opened == list(range(len(tab) - b, len(tab)))


LOOKUP_GRID = (lambda: flat_torus(3), lambda: flat_torus(4), lambda: flat_torus(5),
               lambda: product_complex(circle(3, kind="cubical"), cubical_sphere(2)),
               torus_triangulated, lambda: product_complex(circle(3), circle(4)),
               lambda: product_complex(torus_triangulated(), circle(3)))


def test_a_norm_lookup_reads_one_entry_per_open_row(monkeypatch):
    # the norm layer hands `_lookup` a class's coordinates, or a stop test's
    # unit vector, as the right-hand side on the open rows alone: never a
    # list sized by the tableau's rows.  Cold and warm, on the weights and
    # rescaled, every degree at radius 1, 2 and 5 and every class in [-2, 2]^b
    # ([-1, 1]^b for b = 3)
    norms = importlib.import_module("stasys.norms")
    real, sizes = norms._lookup, []
    monkeypatch.setattr(norms, "_lookup", lambda t, b, c: sizes.append((len(b), len(t.opened)))
                        or real(t, b, c))
    for build in LOOKUP_GRID:
        K = build()
        betti = homology(K).betti
        for L in (K, K.rescale(F(3, 2)), K.rescale(F(1, 2)), K.rescale(F(7, 3)), K):
            for q, b in enumerate(betti):
                for r in (1, 2, 5):
                    stable_systole(L, q, r)
                box = 1 if b == 3 else 2
                for coords in itertools.product(range(-box, box + 1), repeat=b) if b else ():
                    stable_norm(L, HomologyClass(q, coords))
    assert sizes and all(n == opened for n, opened in sizes)
    assert {n for n, _ in sizes} == {1, 2, 3}


ORACLE = {"flat_torus(3)": flat_torus(3), "T2_9": torus_triangulated(),
          "C3xC4": product_complex(circle(3), circle(4)),
          "T2_9xC3": product_complex(torus_triangulated(), circle(3))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE)), st.integers(0, 3), st.integers(1, 5), st.integers(0, 2 ** 32))
def test_the_integer_search_matches_the_fraction_search(name, q, radius, seed):
    # under seeded rational weights, the Fraction search and the integer
    # search, each cold on an empty norm tableau, then the integer search
    # warm, give the same value, witness and status
    rng = random.Random(seed)
    K = ORACLE[name]
    K = replace(K, weights=tuple(tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in ws)
                                 for ws in K.weights))
    q = min(q, K.top_dim)
    results = []
    for search, cold in ((reference_stable_systole, True), (stable_systole, True),
                         (stable_systole, False)):
        if cold:
            L = replace(K)  # an equal complex with no norm tableau or stop test yet
        res = search(L, q, radius)
        results.append(repr((res.value, res.witness_class, res.search_status)))
    assert results[0] == results[1] == results[2]


WARM_SEARCHES = {"flat_torus(4)": flat_torus(4), "T2_9": torus_triangulated(),
                 "C3xC4": product_complex(circle(3), circle(4)),
                 "T2_9xC3": product_complex(torus_triangulated(), circle(3))}


@pytest.mark.parametrize("name", sorted(WARM_SEARCHES))
def test_a_warm_search_builds_at_most_two_fractions(name, monkeypatch):
    # a warm search in a degree with b >= 2 (b = 3 on T2_9xC3) reads each
    # value and λ off a recorded basis as integers, and builds Fractions for
    # its result alone: the least norm and its product with s
    K = WARM_SEARCHES[name]
    assert homology(K).betti[1] >= 2
    real = Fraction.__new__
    for L in (K, K.rescale(F(3, 2))):
        for radius in (1, 5):
            cold = stable_systole(L, 1, radius)
            built = []
            monkeypatch.setattr(Fraction, "__new__", staticmethod(
                lambda cls, *args, **kw: built.append(1) or real(cls, *args, **kw)))
            warm = stable_systole(L, 1, radius)
            monkeypatch.undo()
            assert len(built) <= 2, (L.weights[1].split[1], radius, len(built))
            assert repr(warm) == repr(cold)


TOP_DEGREES = {"sphere(2)": sphere(2), "T2_9": torus_triangulated(),
               "C3xC4": product_complex(circle(3), circle(4)),
               "S1xS2": product_complex(circle(3, kind="cubical"), cubical_sphere(2))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TOP_DEGREES)), st.integers(-4, 4).filter(bool),
       st.integers(1, 9), st.integers(1, 9), st.data())
def test_unique_cycle_norms_in_integers_match_stable_norm(name, coord, num, den, data):
    # in the top degree a class holds one cycle; the search's integer path
    # must give stable_norm's value and λ, on the weights themselves and on
    # their primitive direction ĉ (weights = s·ĉ) scaled back by s
    norms = importlib.import_module("stasys.norms")
    K = TOP_DEGREES[name]
    q = K.top_dim
    top = data.draw(st.lists(st.integers(1, 9), min_size=K.n_cells(q), max_size=K.n_cells(q)))
    K = replace(K, weights=(*K.weights[:q], tuple(map(F, top))))
    t = F(num, den)
    metrics = [K, K.rescale(t)]
    if K.factor_degrees is not None:
        metrics.append(DeformationFamily(K).at(t))
    summary = homology(K)
    for L in metrics:
        res = stable_norm(L, HomologyClass(q, (coord,)))
        assert res.certificate == "unique-cycle"
        assert norms._class_norm(L, summary, q, (coord,), L.weights[q], None) == (res.value, res.dual, 1)
        chat, s = L.weights[q].split
        assert (chat, s) == Weights(L.weights[q].values).split
        value, dual, d = norms._class_norm(L, summary, q, (coord,), chat, None)
        assert type(value) is int and {type(v) for v in dual} == {int} and d == 1
        assert (value * s, tuple(v * s for v in dual)) == (res.value, res.dual)


def _answer_mix():
    """Systoles in every degree, norms of seeded rational
    classes in every degree, volumes and sweeps, on rescaled and deformed
    metrics, one complex at a time."""
    rng = random.Random(47)
    for name, build in (("ft3", lambda: flat_torus(3)), ("ft4", lambda: flat_torus(4)),
                        ("T2_9", torus_triangulated), ("rp2", rp2),
                        ("S2", lambda: sphere(2)), ("S3", lambda: sphere(3)),
                        ("C3xC4", lambda: product_complex(circle(3), circle(4))),
                        ("S1xS2", lambda: product_complex(circle(3, kind="cubical"),
                                                          cubical_sphere(2))),
                        ("T2_9xC3", lambda: product_complex(torus_triangulated(), circle(3))),
                        ("C5", lambda: circle(5, edge_weight=F(3, 2)))):
        K = build()
        summary = homology(K)
        metrics = [K, K.rescale(F(3, 2)), K.rescale(2)]
        if K.factor_degrees is not None:
            metrics += [DeformationFamily(K).at(F(5, 2)), DeformationFamily(K).at(3)]
        for L in metrics:
            for q in range(K.top_dim + 1):
                coords = tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(summary.betti[q]))
                yield name, q, stable_systole(L, q), stable_norm(L, HomologyClass(q, coords))
            if summary.betti[K.top_dim] == 1:
                yield name, fundamental_class_mass(L)
    for K in (flat_torus(3), product_complex(circle(3), circle(4))):
        for parts in ((1, 1), (2,)):
            yield deformation_sweep(DeformationFamily(K), Partition(parts))


def test_answers_are_pinned():
    # sha256 over the reprs of the answer mix, as they were when a unique
    # cycle's norm was still rebuilt in Fractions and summed by K.mass
    digest = hashlib.sha256()
    for answer in _answer_mix():
        digest.update(repr(answer).encode())
    assert digest.hexdigest() == (
        "a17c8fe1f3fb24e541f6d07d3d5f5155cd5e7dfdf86588fa46f488b47e43e5d5")


def test_unique_cycle_runs_on_integers(monkeypatch):
    # stable_norm and the systole search both hand _unique_cycle integer
    # coordinates and the weights' integer direction ĉ, and get integers back
    norms = importlib.import_module("stasys.norms")
    calls = []
    real = norms._unique_cycle

    def recorded(summary, q, coords, chat):
        z, f, dual = out = real(summary, q, coords, chat)
        calls.append((*coords, *chat, *z, *f, *dual))
        return out

    monkeypatch.setattr(norms, "_unique_cycle", recorded)
    for K in (torus_triangulated(), sphere(3), product_complex(torus_triangulated(), circle(3))):
        L, q = K.rescale(F(3, 2)), K.top_dim
        res = stable_norm(L, HomologyClass(q, (F(-5, 3),)))
        assert res.certificate == "unique-cycle" and stable_systole(L, q).search_status == "exact"
    assert len(calls) == 6
    assert {type(v) for call in calls for v in call} == {int}


def test_torus_norms_take_few_pivots(monkeypatch):
    # the 32 norms of the primitive directions in [-2, 2]^2 at multiples 1
    # and 2 on flat_torus(4), from the tableau crashed once: 366 pivots;
    # phase 1 from an all-artificial basis took 648
    lp = importlib.import_module("stasys.lp")
    K = flat_torus(4)
    stable_norm(K, HomologyClass(1, (1, 0)))
    directions = [(a, b) for a in range(-2, 3) for b in range(-2, 3)
                  if (a, b) != (0, 0) and math.gcd(a, b) == 1]
    pivots = []
    real = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(1) or real(*args))
    for a, b in directions:
        for m in (1, 2):
            stable_norm(K, HomologyClass(1, (m * a, m * b)))
    assert len(directions) == 16
    assert len(pivots) <= 400


@pytest.mark.parametrize("k", [4, 8])
def test_a_warm_norm_builds_fractions_for_its_basis_alone(k, monkeypatch):
    # an answer from a recorded basis takes λ and the cocycle f from the
    # record's y and loads A^T y, and builds Fractions only for the value
    # and the optimal cycle's nonzeros: at most the tableau's row count,
    # however many q-cells there are
    K = flat_torus(k)
    classes = [HomologyClass(1, v) for v in itertools.product(range(-2, 3), repeat=2) if any(v)]
    cold = [stable_norm(K, cls) for cls in classes]
    rows = len(K._shared["norm tableau", 1])
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *args, **kw: built.append(1) or real(cls, *args, **kw)))
    warm = []
    for cls in classes:
        built.clear()
        warm.append(stable_norm(K, cls))
        assert len(built) <= rows < K.n_cells(1), (cls.coords, len(built))
    monkeypatch.undo()
    assert warm == cold and repr(warm) == repr(cold)


NORM_ORACLE = {"flat_torus(3)": flat_torus(3), "T2_9": torus_triangulated(),
               "C3xC4": product_complex(circle(3), circle(4)),
               "T2_9xC3": product_complex(torus_triangulated(), circle(3))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NORM_ORACLE)), st.integers(1, 2), st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
                          st.booleans()), min_size=1, max_size=6))
def test_warm_norms_match_solve_lp(name, q, seed, draws):
    # under seeded rational weights, a warm stable_norm, read off its basis,
    # gives what solve_lp gives on the same tableau, b and cost, read as x,
    # y and loads; every answer carries a certificate
    rng = random.Random(seed)
    K = NORM_ORACLE[name]
    K = replace(K, weights=tuple(tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in ws)
                                 for ws in K.weights))
    summary = homology(K)
    b = summary.betti[q]
    assume(b and K.n_cells(q + 1))
    for *coords, half in draws:
        coords = (F(coords[0], 2 if half else 1), *coords[1:b])
        assume(any(coords))
        cls = HomologyClass(q, coords)
        stable_norm(K, cls)
        res = stable_norm(K, cls)
        assert res.certificate == "optimal-LP"
        assert repr((res.value, res.optimal_cycle, res.dual, res.cocycle)) == repr(
            reference_minimum_mass_cycle(K, cls))
        assert certificate_problems(K, summary.generators[q], res) == [], coords


@pytest.mark.parametrize("k", [4, 8])
def test_warm_norms_carry_certificates_at_every_scale(k):
    # every class in [-2, 2]^2, answered from recorded bases on the weights
    # themselves and on the metric scaled by 3/2, passes the O(cells) check
    K = flat_torus(k)
    generators = homology(K).generators[1]
    classes = [HomologyClass(1, v) for v in itertools.product(range(-2, 3), repeat=2) if any(v)]
    for L in (K, K.rescale(F(3, 2))):
        cold = [stable_norm(L, cls) for cls in classes]
        for cls, res in zip(classes, cold):
            warm = stable_norm(L, cls)
            assert repr(warm) == repr(res)
            assert certificate_problems(L, generators, warm) == [], cls.coords


def test_the_norm_tableau_stores_only_nonzeros():
    # built from boundary columns, the prepared tableau of flat_torus(16)'s
    # q=1 norm LP holds its nonzeros alone: far fewer than its dense slots
    K = flat_torus(16)
    minimum_mass_cycle(K, HomologyClass(1, (1, 0)))
    tab = K._shared["norm tableau", 1]
    stored = [x for row in tab.rows for x in row.values()]
    assert 0 not in stored
    assert 20 * len(stored) < len(tab.rows) * (tab.n + len(tab) + 1)


def test_search_radius_is_only_a_cap():
    assert stable_systole(flat_torus(3), 1, search_radius=1).search_status == "certified"
    res = stable_systole(flat_torus(3), 1, search_radius=0)
    assert res.value is None and res.search_status == "bounded-search(0)"


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


S2_TOPS = list(itertools.combinations(range(4), 3))


@pytest.mark.parametrize("K, L, q, value", [
    (circle(3), simplicial_from_top(S2_TOPS, {(v,): 2 for v in range(4)}), 1, 6),
    (circle(4, edge_weight=F(3, 2)),
     simplicial_from_top(S2_TOPS, {(0,): F(5, 2), (1,): F(4, 3), (2,): F(7, 3), (3,): 2}), 1, 8),
    (sphere(2),
     simplicial_from_top([(0, 1), (1, 2), (0, 2)], {(0,): F(3, 2), (1,): 3, (2,): F(7, 4)}), 2, 6),
], ids=["C3xS2-vertices-2", "C4xS2-rational-vertices", "S2xC3-rational-vertices"])
def test_projection_equality_scales_by_the_lightest_vertex(K, L, q, value):
    # a q-cycle times a vertex v has its mass times w(v), so the systole of
    # K x L is stsys_q(K)·stsys_0(L): it is stsys_q(K) only if L's lightest
    # vertex weighs 1
    r = verify_projection_equality(K, L, q)
    assert (r.lhs, r.rhs, r.status, r.details) == (value, value, "pass", {"q": q})


@pytest.mark.parametrize("inflate", [0, 1], ids=["true values", "inflated values"])
def test_upper_bound_systoles_make_laws_inconclusive(monkeypatch, inflate):
    capped_systoles(monkeypatch, inflate)
    reports = [
        verify_rescaling(circle(4), 1, 3),
        verify_product_inequality(circle(3), circle(4), 1, 1),
        verify_projection_equality(sphere(2), circle(3), 2),
        verify_degree_sandwich(cover_map(3, 2), 1),
    ]
    assert [r.status for r in reports] == ["inconclusive"] * 4
    assert not any(r.passed for r in reports)
    rep = deformation_sweep(DeformationFamily(product_complex(circle(3), circle(4))),
                            Partition((1, 1)), t_samples=(F(1), F(2), F(4)))
    assert rep.verdict == "inconclusive" and not rep.diverges


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


def test_simplicial_map_names_the_degenerate_simplex():
    with pytest.raises(ValueError, match=r"map degenerates simplex \(0, 1\)"):
        simplicial_map(circle(4), circle(3), {0: 0, 1: 0, 2: 1, 3: 2})


def _torus_translation():
    """Shift the 9-vertex torus one step along its first grid direction."""
    return {3 * i + j: 3 * ((i + 1) % 3) + j for i in range(3) for j in range(3)}


@pytest.mark.parametrize("source, target, vertex_map, bound, factor", [
    (circle(6), circle(3), {i: -i % 3 for i in range(6)}, 2, -2),  # reflection
    (sphere(2), sphere(2), {0: 1, 1: 0, 2: 2, 3: 3}, 1, -1),  # odd vertex permutation
    (sphere(3), sphere(3), {i: 4 - i for i in range(5)}, 1, 1),  # even reversal
    (torus_triangulated(), torus_triangulated(), _torus_translation(), 1, 1),
    (circle(4), circle(4), {0: 0, 1: 1, 2: 0, 3: 1}, 0, 0),  # fold
], ids=["reflection", "transposition", "reversal", "translation", "fold"])
def test_push_chain_carries_the_orientation_sign(source, target, vertex_map, bound, factor):
    info = simplicial_map(source, target, vertex_map)
    assert info.degree_bound == bound
    n = source.top_dim
    pushed = push_chain(info, homology(source).generators[n][0])
    assert pushed.coeffs == tuple(factor * c for c in homology(target).generators[n][0].coeffs)


def test_degree_bound_skips_a_top_cell_the_fundamental_cycle_misses():
    # the target is the boundary of the tetrahedron with a fin (0, 1, 4) on
    # edge (0, 1): its fundamental cycle is 0 on the fin, which nothing maps onto
    target = simplicial_from_top(list(itertools.combinations(range(4), 3)) + [(0, 1, 4)])
    fin = target.cell_by_vertices((0, 1, 4))
    assert homology(target).generators[2][0].coeffs[fin] == 0
    info = simplicial_map(sphere(2), target, {v: v for v in range(4)})
    assert info.degree_bound == 1
    r = verify_degree_sandwich(info, 2)
    assert (r.status, r.lhs, r.relation, r.rhs) == ("pass", 4, "sandwich", 4)


def test_pullback_weights_along_a_reflection():
    info = simplicial_map(circle(6), circle(3, edge_weight=F(5, 3)), {i: -i % 3 for i in range(6)})
    assert pullback_weights(info).weights[1] == (F(5, 3),) * 6


# ---------------------------------------------------------------------------
# Every field of every law's report, in each kind of case
# ---------------------------------------------------------------------------

def _fold():
    return simplicial_map(circle(4), circle(4), {0: 0, 1: 1, 2: 0, 3: 1})


LAWS = {
    "rescaling": lambda: verify_rescaling(circle(4), 1, 3),
    "product": lambda: verify_product_inequality(circle(3), circle(4), 1, 1),
    "projection": lambda: verify_projection_equality(sphere(2), circle(3), 2),
    "sandwich": lambda: verify_degree_sandwich(cover_map(3, 2), 1),
    "projection-silent": lambda: verify_projection_equality(circle(3), circle(3), 1),
    "sandwich-not-injective": lambda: verify_degree_sandwich(_fold(), 1),
    "sandwich-degree-0": lambda: verify_degree_sandwich(_fold(), 0),
}

# The systoles in each law that "fail" raises by 1: those of the complex
# whose q-cells weigh this much in total (the rescaled circle(4), the
# product c3 x c4, the product S2 x c3, the pulled-back circle(6)).
HEAVIEST = {"rescaling": 12, "product": 12, "projection": 30, "sandwich": 6}


def lift_heaviest_systole(monkeypatch, mass):
    norms = importlib.import_module("stasys.norms")
    real = norms.stable_systole

    def lifted(K, q, search_radius=5):
        res = real(K, q, search_radius)
        return replace(res, value=res.value + 1) if sum(K.weights[q]) == mass else res

    monkeypatch.setattr(norms, "stable_systole", lifted)


# (law, case): name, lhs, rhs, relation, status, details (keys in print order)
REPORTS = {
    ("rescaling", "pass"): ("rescaling-law", 12, 12, "==", "pass", {"t": 3, "q": 1, "base": 4}),
    ("rescaling", "inconclusive"):
        ("rescaling-law", 13, 15, "==", "inconclusive", {"t": 3, "q": 1, "base": 5}),
    ("rescaling", "fail"): ("rescaling-law", 13, 12, "==", "fail", {"t": 3, "q": 1, "base": 4}),
    ("product", "pass"): ("product-inequality", 12, 12, "<=", "pass", {"p": 1, "q": 1}),
    ("product", "inconclusive"):
        ("product-inequality", 13, 20, "<=", "inconclusive", {"p": 1, "q": 1}),
    ("product", "fail"): ("product-inequality", 13, 12, "<=", "fail", {"p": 1, "q": 1}),
    ("projection", "pass"): ("projection-equality", 4, 4, "==", "pass", {"q": 2}),
    ("projection", "inconclusive"): ("projection-equality", 5, 10, "==", "inconclusive", {"q": 2}),
    ("projection", "fail"): ("projection-equality", 5, 4, "==", "fail", {"q": 2}),
    ("sandwich", "pass"): ("degree-sandwich", 6, 6, "sandwich", "pass",
                           {"lower": 3, "pulled-back": 6, "degree-bound": 2}),
    ("sandwich", "inconclusive"): ("degree-sandwich", 7, 8, "sandwich", "inconclusive",
                                   {"lower": 4, "pulled-back": 7, "degree-bound": 2}),
    ("sandwich", "fail"): ("degree-sandwich", 7, 6, "sandwich", "fail",
                           {"lower": 3, "pulled-back": 7, "degree-bound": 2}),
    ("projection-silent", "inapplicable"):
        ("projection-equality", None, None, "==", "inapplicable",
         {"reason": "Kunneth hypothesis violated in degree 1"}),
    ("sandwich-not-injective", "inapplicable"):
        ("degree-sandwich", None, None, "sandwich", "inapplicable",
         {"reason": "map is not injective on degree-1 rational homology"}),
    ("sandwich-degree-0", "inapplicable"):
        ("degree-sandwich", None, None, "sandwich", "inapplicable", {"reason": "map has degree 0"}),
}


@pytest.mark.parametrize("law, case", sorted(REPORTS), ids=["-".join(k) for k in sorted(REPORTS)])
def test_each_law_reports_every_field(monkeypatch, law, case):
    if case == "inconclusive":
        capped_systoles(monkeypatch, 1)
    elif case == "fail":
        lift_heaviest_systole(monkeypatch, HEAVIEST[law])
    r = LAWS[law]()
    name, lhs, rhs, relation, status, details = REPORTS[law, case]
    assert (r.name, r.lhs, r.rhs, r.relation, r.status) == (name, lhs, rhs, relation, status)
    assert list(r.details) == list(details)
    assert r.details == details
    assert r.passed == (status == "pass")


def test_an_inapplicable_sandwich_names_the_relation_of_an_applied_one():
    reports = [verify_degree_sandwich(_fold(), 1), verify_degree_sandwich(_fold(), 0),
               verify_degree_sandwich(cover_map(3, 2), 1)]
    assert [r.status for r in reports] == ["inapplicable", "inapplicable", "pass"]
    assert {r.relation for r in reports} == {"sandwich"}


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
