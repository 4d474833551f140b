"""Homology summaries against independent rank oracles and known spaces."""

import builtins
import hashlib
import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasys import (
    Chain,
    DeformationFamily,
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
    loop_with_faces,
    permuted,
    rp2_cells_squared,
    theta_graph,
    two_spheres_wedge,
    wedge_two_circles,
)
from snf_reference import dense_matrix, dense_smith_normal_form

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
    # incidences other than ±1, which the coreduction never pairs
    (loop_with_faces([("e", 3)]), (1, 0, 0), ((), (3,), ())),
    (loop_with_faces([("e", 2)], [("e", 3)]), (1, 0, 1), ((), (), ())),
    # the cellular RP^2 times a circle
    (product_complex(loop_with_faces([("e", 2)]), circle(3, kind="cubical")),
     (1, 1, 0, 0), ((), (2,), (2,), ())),
    # its square: H_1 = Z/2 + Z/2, and the Tor term of Kunneth gives H_3 = Z/2
    (rp2_cells_squared(), (1, 0, 0, 0, 0), ((), (2, 2), (2,), (2,), ())),
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
    # and torsion, torsion generators and the Euler characteristic too
    for K, _, _ in KNOWN:
        _check_against_the_oracles(K)


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


def test_only_the_newest_summaries_are_cached(monkeypatch):
    # every distinct structure is a new cache entry, holding its summary and
    # its LP tableaux; the oldest goes when a new one would exceed the bound
    module = importlib.import_module("stasys.homology")
    monkeypatch.setattr(module, "_cache", {})
    kept = module.SUMMARIES_KEPT
    complexes = [permuted(flat_torus(3), seed) for seed in range(200)]
    summaries = [homology(K) for K in complexes]
    assert len(module._cache) == kept
    # a repeat within the newest `kept` is served from the cache
    assert homology(complexes[-1]) is summaries[-1]
    assert homology(complexes[-kept]) is summaries[-kept]
    # an older one is computed afresh, the same summary in a new object
    fresh = homology(complexes[0])
    assert fresh is not summaries[0] and fresh == summaries[0]
    assert len(module._cache) == kept and homology(complexes[-kept]) is not summaries[-kept]


def test_a_reweighted_complex_is_not_hashed_again(monkeypatch):
    # the cache key's hash is taken once per structure and carried by every
    # rescaling and deformation, so a warm homology call on one of them
    # hashes no cell; a structure built afresh is hashed once and finds the
    # summary of its equal
    complexes = importlib.import_module("stasys.complexes")
    K = product_complex(circle(3), circle(4))
    summary = homology(K)
    hashed = []
    monkeypatch.setattr(complexes, "hash", lambda v: hashed.append(v) or builtins.hash(v),
                        raising=False)
    family = DeformationFamily(K)
    for t in (F(3, 2), F(1, 3), F(5)):
        for L in (K.rescale(t), family.at(t), K.rescale(t).rescale(t),
                  DeformationFamily(K.rescale(t)).at(t)):
            assert homology(L) is summary
    assert hashed == []
    fresh = product_complex(circle(3), circle(4))
    assert homology(fresh) is summary and homology(fresh.rescale(2)) is summary
    assert hashed == [(fresh.cell_ids, fresh.boundary_cols)]


def test_class_coordinates_rejects_non_cycles():
    K = circle(3)
    not_cycle = Chain(1, (F(1), F(0), F(0)))
    with pytest.raises(ValueError):
        class_coordinates(K, not_cycle)


def test_representative_round_trip():
    K = flat_torus(3)
    summary = homology(K)
    cls = HomologyClass(1, (F(2), F(-3)))
    z = summary.representative(K, cls)
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
# factors of the Morse complex that the coreduction leaves, and users give
# classes in that basis, so the whole summary is pinned: any change to the
# coreduction's order or to the elimination's operations shows here.
PINNED_SUMMARIES = [
    ("flat_torus(8)", lambda: flat_torus(8), "3a679bcf8abfd555", "c0cd639f5ac4b578"),
    ("T2_9 x C3", lambda: product_complex(torus_triangulated(), circle(3)),
     "07fe59211ab1751d", "c08ad85d11626df2"),
    ("RP2", rp2, "f7029ecc55ddf7d9", "55b231e2a83bf3e5"),
]


@pytest.mark.parametrize("name, build, digest, permuted_digest", PINNED_SUMMARIES,
                         ids=[case[0] for case in PINNED_SUMMARIES])
def test_homology_summary_is_pinned(name, build, digest, permuted_digest):
    K = build()
    for complex_, expected in ((K, digest), (permuted(K, 11), permuted_digest)):
        got = hashlib.sha256(repr(homology(complex_)).encode()).hexdigest()[:16]
        assert got == expected, name


def test_a_face_named_twice_sums():
    # e + e: the disc glued twice along the loop, so H_1 = Z/2 (RP^2's cell structure)
    summary = homology(loop_with_faces([("e", 1), ("e", 1)]))
    assert summary.betti == (1, 0, 0)
    assert summary.torsion[1] == (2,)
    # e - e: the face's boundary cancels to zero, so it is a 2-cycle and e survives
    summary = homology(loop_with_faces([("e", 1), ("e", -1)]))
    assert summary.betti == (1, 1, 1)
    assert summary.torsion == ((), (), ())


def _oracle_torsion(K, q):
    """Torsion of H_q from the dense reference Smith form of the full d_{q+1}."""
    if q == K.top_dim or not K.n_cells(q):
        return ()
    d = dense_smith_normal_form(dense_matrix(K.boundary_cols[q + 1], K.n_cells(q)))[1]
    return tuple(d[i][i] for i in range(min(len(d), K.n_cells(q + 1))) if d[i][i] > 1)


def _bounds_integrally(K, q, chain):
    """Whether an integral q-chain is the boundary of an integral (q+1)-chain,
    read off the dense reference Smith form U_inv d V_inv = D."""
    if q == K.top_dim:
        return all(c == 0 for c in chain)
    _u, d, _v, u_inv, _v_inv = dense_smith_normal_form(dense_matrix(K.boundary_cols[q + 1], K.n_cells(q)))
    y = [sum(a * int(c) for a, c in zip(row, chain)) for row in u_inv]
    pivots = [d[i][i] for i in range(min(len(d), K.n_cells(q + 1))) if d[i][i]]
    return all(yi % p == 0 for yi, p in zip(y, pivots)) and not any(y[len(pivots):])


def _check_against_the_oracles(K):
    summary = homology(K)
    for q in range(K.top_dim + 1):
        assert summary.betti[q] == betti_oracle(K, q), q
        assert summary.torsion[q] == _oracle_torsion(K, q), q
        # each torsion generator g of order d: d g bounds and no smaller multiple does
        for g, order in zip(summary.torsion_generators[q], summary.torsion[q]):
            assert K.is_cycle(g)
            coeffs = [int(c) for c in g.coeffs]
            assert _bounds_integrally(K, q, [order * c for c in coeffs]), q
            assert not any(_bounds_integrally(K, q, [k * c for c in coeffs]) for k in range(1, order)), q
    # the Morse complex has K's Euler characteristic
    assert sum((-1) ** q * n for q, n in enumerate(summary.critical)) == \
        sum((-1) ** q * K.n_cells(q) for q in range(K.top_dim + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(KNOWN) - 1), st.integers(0, 2 ** 16))
def test_morse_homology_of_permuted_cells_matches_the_oracles(idx, seed):
    _check_against_the_oracles(permuted(KNOWN[idx][0], seed))


def test_critical_cells_per_degree():
    assert homology(flat_torus(16)).critical == (1, 2, 1)
    assert homology(sphere(5)).critical == (1, 0, 0, 0, 0, 1)
    assert homology(rp2_cells_squared()).critical == (1, 2, 3, 2, 1)


def test_representative_of_an_empty_basis_is_a_zero_chain():
    K = sphere(2)
    z = homology(K).representative(K, HomologyClass(1, ()))
    assert z == K.zero_chain(1) and len(z.coeffs) == K.n_cells(1) == 6
