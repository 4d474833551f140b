"""Cup products, cup-length and ring-level flags on simplicial complexes."""

import random
from fractions import Fraction

import pytest

from stasys import (
    Cochain,
    build_complex,
    circle,
    coboundary,
    cohomology_basis,
    cohomology_coordinates,
    cup_length,
    cup_product,
    flat_torus,
    has_maximal_real_cup_length,
    homology,
    is_cocycle,
    lpd,
    pairing,
    ring_profile,
    rp2,
    sphere,
    torus_triangulated,
)

from conftest import circle_wedge_sphere, permuted, two_spheres_wedge, wedge_two_circles

F = Fraction


def random_cocycle(K, q, rng):
    """Random rational cocycle: random cochain plus projection via the basis."""
    basis = cohomology_basis(K)[q]
    if not basis:
        return None
    coeffs = [F(rng.randint(-3, 3)) for _ in basis]
    vals = [sum((c * b.values[i] for c, b in zip(coeffs, basis)), F(0))
            for i in range(K.n_cells(q))]
    return Cochain(q, tuple(vals))


def test_coboundary_squared_zero():
    K = torus_triangulated()
    rng = random.Random(7)
    alpha = Cochain(0, tuple(F(rng.randint(-3, 3)) for _ in range(K.n_cells(0))))
    assert coboundary(K, coboundary(K, alpha)).is_zero()


def test_cohomology_basis_is_dual_to_generators():
    for K in (circle(4), torus_triangulated(), two_spheres_wedge(), rp2(),
              circle_wedge_sphere(), permuted(torus_triangulated(), 7)):
        summary = homology(K)
        basis = cohomology_basis(K)
        for q in range(K.top_dim + 1):
            gens = summary.generators[q]
            for i, alpha in enumerate(basis[q]):
                assert is_cocycle(K, alpha)
                for j, g in enumerate(gens):
                    assert pairing(K, alpha, g) == F(int(i == j))
    with pytest.raises(ValueError, match="degree mismatch in pairing"):
        pairing(K, basis[1][0], K.zero_chain(0))


def _torus_generator():
    return homology(flat_torus(3)).generators[1][0]


@pytest.mark.parametrize("call, message", [
    (lambda: pairing(flat_torus(3), Cochain(1, (1,)), _torus_generator()),
     "length mismatch in pairing: cochain of length 1, chain of length 18"),
    (lambda: pairing(flat_torus(3), Cochain(1, (1,) * 19), _torus_generator()),
     "length mismatch in pairing: cochain of length 19, chain of length 18"),
    (lambda: cohomology_coordinates(torus_triangulated(), Cochain(1, (1,))),
     "length mismatch in pairing: cochain of length 1, chain of length 27"),
], ids=["short-cochain", "long-cochain", "short-cocycle-coordinates"])
def test_pairing_refuses_a_length_mismatch(call, message):
    # zip would cut the longer one: unchecked, the short cochain would read
    # 1 on the torus generator, whatever its other 17 values were
    with pytest.raises(ValueError, match=message):
        call()


def test_cup_length_values():
    assert cup_length(sphere(2)) == 1
    assert cup_length(sphere(3)) == 1
    assert cup_length(circle(3)) == 1
    assert cup_length(torus_triangulated()) == 2
    assert cup_length(rp2()) == 0  # no rational cohomology above degree 0
    assert cup_length(wedge_two_circles()) == 1


def test_lpd_values():
    assert lpd(circle(5)) == 1
    assert lpd(sphere(3)) == 3
    assert lpd(torus_triangulated()) == 1
    assert lpd(rp2()) is None


def test_max_cup_length_flags():
    flag, witness = has_maximal_real_cup_length(torus_triangulated())
    assert flag and witness == (1, 1)
    assert has_maximal_real_cup_length(sphere(2))[0]
    # wedge of circles: dimension 1, cap floor(1/1) = 1, attained
    assert has_maximal_real_cup_length(wedge_two_circles())[0]
    # circle wedge sphere: cap floor(2/1) = 2 but no nonzero square
    assert not has_maximal_real_cup_length(circle_wedge_sphere())[0]
    assert not has_maximal_real_cup_length(rp2())[0]


def test_ring_profile_torus():
    p = ring_profile(torus_triangulated())
    assert (p.dimension, p.lpd, p.cup_length) == (2, 1, 2)
    assert p.max_cup_length_flag


def test_ring_profile_builds_the_filtration_once(monkeypatch):
    import stasys.cohomology as cohomology

    builds = []
    build = cohomology._product_filtration
    monkeypatch.setattr(cohomology, "_product_filtration", lambda K: builds.append(K) or build(K))
    K = torus_triangulated()
    p = ring_profile(K)
    assert len(builds) == 1
    monkeypatch.undo()
    for L in (K, sphere(2), rp2(), wedge_two_circles(), circle_wedge_sphere()):
        p = ring_profile(L)
        assert p.cup_length == cup_length(L)
        assert (p.max_cup_length_flag, p.witness_degrees) == has_maximal_real_cup_length(L)


def test_torus_degree_one_product_is_nondegenerate():
    K = torus_triangulated()
    basis = cohomology_basis(K)[1]
    prod = cup_product(K, basis[0], basis[1])
    coords = cohomology_coordinates(K, prod)
    assert any(c != 0 for c in coords)


def test_cup_product_graded_commutativity_sampled():
    """alpha ∪ beta = (-1)^{pq} beta ∪ alpha in cohomology, >= 20 samples."""
    rng = random.Random(20260823)
    complexes = [torus_triangulated(), sphere(2), circle(5)]
    checked = 0
    while checked < 25:
        K = complexes[checked % len(complexes)]
        degrees = [q for q in range(0, K.top_dim + 1)
                   if cohomology_basis(K)[q]]
        p = rng.choice(degrees)
        q = rng.choice([d for d in degrees if p + d <= K.top_dim] or degrees)
        if p + q > K.top_dim:
            continue
        a = random_cocycle(K, p, rng)
        b = random_cocycle(K, q, rng)
        if a is None or b is None:
            continue
        ab = cohomology_coordinates(K, cup_product(K, a, b))
        ba = cohomology_coordinates(K, cup_product(K, b, a))
        sign = (-1) ** (p * q)
        assert list(ab) == [sign * x for x in ba]
        checked += 1
    assert checked >= 20


def test_cup_product_associativity_sampled():
    rng = random.Random(99)
    K = torus_triangulated()
    checked = 0
    for _ in range(40):
        degs = [rng.choice([0, 1]) for _ in range(3)]
        if sum(degs) > K.top_dim:
            continue
        cochains = [random_cocycle(K, d, rng) for d in degs]
        if any(c is None for c in cochains):
            continue
        a, b, c = cochains
        left = cup_product(K, cup_product(K, a, b), c)
        right = cup_product(K, a, cup_product(K, b, c))
        assert cohomology_coordinates(K, left) == cohomology_coordinates(K, right)
        checked += 1
    assert checked >= 20


def test_unit_acts_as_identity():
    K = torus_triangulated()
    one = Cochain(0, (F(1),) * K.n_cells(0))
    assert is_cocycle(K, one)
    beta = cohomology_basis(K)[1][0]
    prod = cup_product(K, one, beta)
    assert cohomology_coordinates(K, prod) == cohomology_coordinates(K, beta)


def test_maximal_cup_length_requires_simplicial():
    # a single cubical vertex has no positive-degree homology, and still raises
    K = build_complex("cubical", [[("v", 1, [])]])
    with pytest.raises(ValueError, match="simplicial"):
        has_maximal_real_cup_length(K)
    with pytest.raises(ValueError, match="simplicial"):
        cup_length(K)


def test_cup_product_requires_simplicial():
    from stasys import flat_torus
    K = flat_torus(3)
    with pytest.raises(ValueError):
        cup_product(K, Cochain(1, (F(0),) * K.n_cells(1)),
                    Cochain(1, (F(0),) * K.n_cells(1)))
