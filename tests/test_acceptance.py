"""Acceptance gate: twelve exact, independently checkable criteria.

Each test prints one ``ACCEPT [n] pass|fail`` line (run pytest with -s to
see them) and asserts with exact rational tolerance (zero slack).  The
brute-force comparisons re-derive minima by exhaustive enumeration so the
LP route is checked against an independent oracle.
"""

from fractions import Fraction

import pytest

from stasys import (
    DeformationFamily,
    HomologyClass,
    Partition,
    catstsys_bounds,
    circle,
    cohomology_basis,
    cohomology_coordinates,
    cubical_sphere,
    cup_length,
    cup_product,
    deformation_sweep,
    flat_torus,
    parse_product_expression,
    point,
    product_complex,
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
    brute_force_systole,
    disjoint_two_circles,
    theta_graph,
    wedge_two_circles,
    weighted_circle,
)

F = Fraction


def report(n: int, ok: bool, label: str) -> None:
    print(f"ACCEPT [{n:2d}] {'pass' if ok else 'fail'}  {label}")
    assert ok, f"acceptance criterion {n} failed: {label}"


def s1_x_s2():
    return product_complex(circle(3, kind="cubical"), cubical_sphere(2))


def test_accept_01_degree_zero_systole_is_one():
    complexes = [
        point(), circle(3), circle(5), sphere(2), sphere(3), cubical_sphere(2),
        rp2(), torus_triangulated(), flat_torus(3), s1_x_s2(),
    ]
    ok = all(stable_systole(K, 0).value == 1 for K in complexes)
    report(1, ok, "degree-0 systole equals 1 on every connected complex")


def test_accept_02_rescaling_law():
    cases = [(circle(3), 1), (flat_torus(3), 1), (flat_torus(3), 2),
             (cubical_sphere(2), 2)]
    ok = True
    for t in (F(1, 2), F(2), F(3), F(7)):
        for K, q in cases:
            ok = ok and verify_rescaling(K, q, t).passed
    report(2, ok, "rescaling scales the degree-q systole by t^q")


def test_accept_03_product_inequality():
    r1 = verify_product_inequality(circle(3), circle(3), 1, 1)
    r2 = verify_product_inequality(circle(3, kind="cubical"), cubical_sphere(2), 1, 2)
    ok = r1.passed and r2.passed
    report(3, ok, "product systole bounded by the product of factor systoles")


def test_accept_04_projection_equality():
    r = verify_projection_equality(sphere(2), circle(3), 2)
    ok = r.passed and r.lhs == stable_systole(sphere(2), 2).value
    report(4, ok, "silent second factor keeps the degree-2 systole equal")


def test_accept_05_brute_force_oracle():
    fixtures = [
        (circle(3), 1), (circle(4), 1), (circle(5), 1), (circle(6), 1),
        (weighted_circle(), 1), (circle(4, kind="cubical"), 1),
        (sphere(2), 2), (cubical_sphere(2), 2),
        (wedge_two_circles(), 1), (theta_graph(), 1),
        (disjoint_two_circles(), 0), (disjoint_two_circles(), 1),
        (product_complex(circle(3), point()), 1),
    ]
    ok = len(fixtures) >= 10
    for K, q in fixtures:
        ok = ok and K.total_cells <= 30
        lp_value = stable_systole(K, q).value
        oracle = brute_force_systole(K, q, box=3)
        ok = ok and lp_value == oracle
    report(5, ok, f"LP systole matches exhaustive minimization on {len(fixtures)} fixtures")


def test_accept_06_torsion_only_class_is_trivial():
    res = stable_systole(rp2(), 1)
    ok = res.is_trivial and res.search_status == "trivial"
    report(6, ok, "degree-1 systole of the projective plane reports trivial")


def test_accept_07_degree_sandwich_for_covers():
    ok = True
    for d in (2, 3):
        info = simplicial_map(circle(3 * d), circle(3), {i: i % 3 for i in range(3 * d)})
        ok = ok and info.degree_bound == d
        r = verify_degree_sandwich(info, 1)
        ok = ok and r.passed
        ok = ok and r.details["lower"] <= r.details["pulled-back"] <= d * r.details["lower"]
    report(7, ok, "pullback systole sits in the degree-bound sandwich (D=2, D=3)")


def test_accept_08_cup_length_and_ring_laws():
    ok = cup_length(sphere(2)) == 1
    ok = ok and cup_length(torus_triangulated()) == 2
    import random
    rng = random.Random(8)
    K = torus_triangulated()
    basis = cohomology_basis(K)
    checked = 0
    while checked < 24:
        p = rng.choice([0, 1])
        q = rng.choice([0, 1])
        r = rng.choice([0, 1, 2 - p - q]) if p + q < 2 else 0
        if p + q + r > 2:
            continue
        def rand(deg):
            bs = basis[deg]
            coeffs = [F(rng.randint(-3, 3)) for _ in bs]
            vals = [sum((c * b.values[i] for c, b in zip(coeffs, bs)), F(0))
                    for i in range(K.n_cells(deg))]
            from stasys import Cochain
            return Cochain(deg, tuple(vals))
        a, b, c = rand(p), rand(q), rand(r)
        ab = cohomology_coordinates(K, cup_product(K, a, b))
        ba = cohomology_coordinates(K, cup_product(K, b, a))
        sign = (-1) ** (p * q)
        ok = ok and list(ab) == [sign * x for x in ba]
        left = cup_product(K, cup_product(K, a, b), c)
        right = cup_product(K, a, cup_product(K, b, c))
        ok = ok and (cohomology_coordinates(K, left)
                     == cohomology_coordinates(K, right))
        checked += 1
    ok = ok and checked >= 20
    report(8, ok, "cup-length values plus commutativity/associativity samples")


def test_accept_09_sphere_product_category():
    cases = ["S1 x S2", "S1 x S3", "S2 x S2 x S7", "S1 x S1", "S4 x S5 x S6"]
    ok = len(cases) >= 5
    for expr in cases:
        profile = parse_product_expression(expr)
        v = catstsys_bounds(profile)
        ok = ok and v.exact and v.value == len(profile.factors)
    report(9, ok, "category of sphere products equals the factor count")


def test_accept_10_sum_rule_arithmetic():
    v1 = catstsys_bounds(parse_product_expression("S2 x S3"))
    ok = v1.exact and v1.value == 2
    ok = ok and any("factor-sum rule applies" in n for n in v1.notes)
    v2 = catstsys_bounds(parse_product_expression("S2 x S2 x S3"))
    ok = ok and v2.exact and v2.value == 3
    ok = ok and any("factor-sum rule applies to S2 x S2 x S3" in n for n in v2.notes)
    v3 = catstsys_bounds(parse_product_expression("S1 x S2"))
    ok = ok and any("factor-sum rule inapplicable" in n for n in v3.notes)
    ok = ok and v3.exact and v3.value == 2  # still closed by the sphere rule
    report(10, ok, "sum-rule closes S2xS3 and S2xS2xS3; S1xS2 flagged, closed otherwise")


def test_accept_11_deformation_sweeps():
    rep_t = deformation_sweep(
        DeformationFamily(flat_torus(3)), Partition((1, 1)),
        t_samples=(F(1), F(2), F(4), F(8)),
    )
    ok = rep_t.verdict == "bounded"
    rep_s = deformation_sweep(
        DeformationFamily(s1_x_s2()), Partition((1, 1, 1)),
        t_samples=(F(1), F(2), F(4), F(8)),
    )
    # expected exponent: the duplicated degree-1 parts force one extra factor
    # of t each beyond what the volume absorbs -> ratio grows like t^2
    expected_w = 2
    ok = ok and rep_s.diverges and rep_s.growth_exponent == expected_w
    report(11, ok, "torus (1,1) bounded; S1xS2 (1,1,1) diverges with exponent 2")


def test_accept_12_norm_axioms():
    import random
    rng = random.Random(12)
    spaces = [flat_torus(3), wedge_two_circles(), theta_graph()]
    checked = 0
    ok = True
    while checked < 54:
        K = spaces[checked % len(spaces)]
        a = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        b = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        s = F(rng.randint(-2, 2), rng.randint(1, 3))
        na = stable_norm(K, HomologyClass(1, a)).value
        nb = stable_norm(K, HomologyClass(1, b)).value
        if any(x != 0 for x in a):
            ok = ok and na > 0
        ok = ok and stable_norm(K, HomologyClass(1, tuple(s * x for x in a))).value == abs(s) * na
        total = tuple(x + y for x, y in zip(a, b))
        ok = ok and stable_norm(K, HomologyClass(1, total)).value <= na + nb
        checked += 1
    ok = ok and checked >= 50
    report(12, ok, "homogeneity, triangle inequality, positivity on sampled classes")
