"""Homology summaries against independent rank oracles and known spaces."""

import hashlib
from fractions import Fraction

import pytest

from stasys import (
    Chain,
    HomologyClass,
    build_complex,
    circle,
    class_coordinates,
    cubical_sphere,
    flat_torus,
    homology,
    point,
    product_complex,
    rp2,
    sphere,
    torus_triangulated,
)

from conftest import (
    betti_oracle,
    disjoint_two_circles,
    permuted,
    theta_graph,
    two_spheres_wedge,
    wedge_two_circles,
)

F = Fraction


KNOWN = [
    (point(), (1,), ((),)),
    (circle(3), (1, 1), ((), ())),
    (circle(6), (1, 1), ((), ())),
    (sphere(2), (1, 0, 1), ((), (), ())),
    (sphere(3), (1, 0, 0, 1), ((), (), (), ())),
    (cubical_sphere(2), (1, 0, 1), ((), (), ())),
    (rp2(), (1, 0, 0), ((), (2,), ())),
    (torus_triangulated(), (1, 2, 1), ((), (), ())),
    (flat_torus(4), (1, 2, 1), ((), (), ())),
    (wedge_two_circles(), (1, 2), ((), ())),
    (theta_graph(), (1, 2), ((), ())),
    (disjoint_two_circles(), (2, 2), ((), ())),
    (two_spheres_wedge(), (1, 0, 2), ((), (), ())),
]


@pytest.mark.parametrize("idx", range(len(KNOWN)))
def test_known_betti_and_torsion(idx):
    K, betti, torsion = KNOWN[idx]
    summary = homology(K)
    assert summary.betti == betti
    assert summary.torsion == torsion


def _unbounded_cells(*degrees):
    """A cubical complex with the given cell ids per degree, every boundary empty."""
    return build_complex("cubical", [[(cid, 1, [], None) for cid in ids] for ids in degrees])


# Every cell is a cycle and nothing bounds, so Betti number q counts the q-cells.
UNBOUNDED = {
    "simplicial-point": (point(), (1,)),
    "cubical-point": (_unbounded_cells(["v"]), (1,)),
    "no-cells": (_unbounded_cells([]), (0,)),
    "two-vertices-and-a-2-cell": (_unbounded_cells(["a", "b"], [], ["f"]), (2, 0, 1)),
    "a-vertex-and-two-3-cells": (_unbounded_cells(["v"], [], [], ["c", "d"]), (1, 0, 0, 2)),
    "a-vertex-and-two-loops": (_unbounded_cells(["v"], ["e", "g"]), (1, 2)),
}


@pytest.mark.parametrize("name", UNBOUNDED)
def test_cells_without_boundaries_are_the_generators(name):
    # these shapes give the Smith form empty or columnless matrices
    K, betti = UNBOUNDED[name]
    summary = homology(K)
    assert summary.betti == betti
    assert summary.torsion == ((),) * len(betti)
    for q, n in enumerate(betti):
        identity = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
        assert tuple(g.coeffs for g in summary.generators[q]) == identity
        assert summary.coordinate_maps[q] == identity


def test_betti_matches_rank_oracle():
    for K, _, _ in KNOWN:
        summary = homology(K)
        for q in range(K.top_dim + 1):
            assert summary.betti[q] == betti_oracle(K, q), (K.kind, q)


def test_generators_are_integral_cycles_with_unit_coordinates():
    for K in (circle(4), torus_triangulated(), flat_torus(3), two_spheres_wedge()):
        summary = homology(K)
        for q in range(K.top_dim + 1):
            gens = summary.generators[q]
            assert len(gens) == summary.betti[q]
            for i, g in enumerate(gens):
                assert K.is_cycle(g)
                assert all(c.denominator == 1 for c in g.coeffs)
                coords = summary.class_coordinates(K, g)
                assert list(coords) == [F(int(j == i)) for j in range(summary.betti[q])]


def test_coordinate_map_kills_boundaries():
    K = torus_triangulated()
    summary = homology(K)
    for j in range(K.n_cells(2)):
        b = K.boundary_of(K.unit_chain(2, j))
        coords = summary.class_coordinates(K, b)
        assert all(c == 0 for c in coords)


def _dot(row, chain):
    return sum((a * b for a, b in zip(row, chain.coeffs) if a and b), F(0))


COORDINATE_MAP_CASES = {
    "flat_torus3": lambda: flat_torus(3),
    "cubical_s1xs2": lambda: product_complex(circle(3, kind="cubical"), cubical_sphere(2)),
    "t2_9": torus_triangulated,
    "rp2": rp2,
}


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("name", list(COORDINATE_MAP_CASES))
def test_coordinate_rows_are_integral_and_dual_to_generators(name, seed):
    # Each row is an integral cochain that vanishes on boundaries and reads
    # generator j as delta_ij.
    K = COORDINATE_MAP_CASES[name]()
    if seed is not None:
        K = permuted(K, seed)
    summary = homology(K)
    for q in range(K.top_dim + 1):
        rows = summary.coordinate_maps[q]
        assert len(rows) == summary.betti[q]
        for i, row in enumerate(rows):
            assert all(c.denominator == 1 for c in row), (name, q, i)
            if q < K.top_dim:
                for j in range(K.n_cells(q + 1)):
                    assert _dot(row, K.boundary_of(K.unit_chain(q + 1, j))) == 0, (name, q, i, j)
            for j, g in enumerate(summary.generators[q]):
                assert _dot(row, g) == int(i == j), (name, q, i, j)


def test_flat_torus_12_homology():
    # 576 cells: generators are integral cycles, and coordinate rows read
    # them as delta_ij and vanish on the boundary of every 2-cell.
    K = flat_torus(12)
    summary = homology(K)
    assert summary.betti == (1, 2, 1)
    assert summary.torsion == ((), (), ())
    for q in range(K.top_dim + 1):
        gens = summary.generators[q]
        for g in gens:
            assert K.is_cycle(g)
            assert all(c.denominator == 1 for c in g.coeffs)
        for i, row in enumerate(summary.coordinate_maps[q]):
            assert all(c.denominator == 1 for c in row)
            if q < K.top_dim:
                for j in range(K.n_cells(q + 1)):
                    assert _dot(row, K.boundary_of(K.unit_chain(q + 1, j))) == 0, (q, i, j)
            assert [_dot(row, g) for g in gens] == [int(i == j) for j in range(len(gens))]


def test_class_coordinates_rejects_non_cycles():
    K = circle(3)
    not_cycle = Chain(1, (F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        class_coordinates(K, not_cycle)


def test_representative_round_trip():
    K = flat_torus(3)
    summary = homology(K)
    cls = HomologyClass(1, (F(2), F(-3)))
    z = summary.representative(cls)
    assert K.is_cycle(z)
    assert tuple(summary.class_coordinates(K, z)) == (F(2), F(-3))


def test_torsion_generator_of_rp2():
    K = rp2()
    summary = homology(K)
    assert summary.torsion[1] == (2,)
    tg = summary.torsion_generators[1][0]
    assert K.is_cycle(tg)
    # twice the torsion cycle bounds: rational coordinates vanish
    assert all(c == 0 for c in summary.class_coordinates(K, tg))


def test_kunneth_ranks_for_products():
    K = product_complex(circle(3), sphere(2))
    assert homology(K).betti == (1, 1, 1, 1)
    L = product_complex(torus_triangulated(), circle(3))
    assert homology(L).betti == (1, 3, 3, 1)


# Generators, torsion generators and coordinate rows are read off the Smith
# factors, and users give classes in that basis, so the whole summary is
# pinned: any change to the elimination's operations or their order shows here.
PINNED_SUMMARIES = [
    ("flat_torus(8)", lambda: flat_torus(8), "64b7b0f6789a5420", "d0aa509f34a002f5"),
    ("T2_9 x C3", lambda: product_complex(torus_triangulated(), circle(3)),
     "0b0d1e4e45dde1a5", "416135b5649630e8"),
    ("RP2", rp2, "fe25322173585228", "dca27fdd49f381c9"),
]


@pytest.mark.parametrize("name, build, digest, permuted_digest", PINNED_SUMMARIES)
def test_homology_summary_is_pinned(name, build, digest, permuted_digest):
    K = build()
    for complex_, expected in ((K, digest), (permuted(K, 11), permuted_digest)):
        got = hashlib.sha256(repr(homology(complex_)).encode()).hexdigest()[:16]
        assert got == expected, name


def _loop_with_a_face(face_boundary):
    return build_complex("general", [
        [("v", 1, [])],
        [("e", 1, [("v", 1), ("v", -1)], None)],
        [("f", 1, face_boundary, None)],
    ])


def test_a_face_named_twice_sums():
    # e + e: the disc glued twice along the loop, so H_1 = Z/2 (RP^2's cell structure)
    summary = homology(_loop_with_a_face([("e", 1), ("e", 1)]))
    assert summary.betti == (1, 0, 0)
    assert summary.torsion[1] == (2,)
    # e - e: the face's boundary cancels to zero, so it is a 2-cycle and e survives
    summary = homology(_loop_with_a_face([("e", 1), ("e", -1)]))
    assert summary.betti == (1, 1, 1)
    assert summary.torsion == ((), (), ())
