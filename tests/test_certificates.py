"""Dual certificates of stable norms, confirmed in O(cells) without the solver.

`certificate_problems` reads only the complex, the generator chains and the
result: it imports neither `stasys.lp` nor `stasys.linalg`.  A certificate
is a cocycle f with |f(σ)| <= w(σ) on every q-cell and f(g_j) = λ_j on the
generators.  Pairing f with any cycle z of class h gives
|λ.h| = |f(z)| <= mass(z), so ‖h‖ >= |λ.h| for every class; and f.x = mass(x)
at the optimal cycle x makes the bound tight at the class itself.
"""

import itertools
from fractions import Fraction

import pytest

from stasys import (
    HomologyClass,
    circle,
    cubical_sphere,
    flat_torus,
    homology,
    product_complex,
    stable_norm,
    torus_triangulated,
)

from conftest import theta_graph, wedge_two_circles


def certificate_problems(K, generators, res) -> list[str]:
    q = res.optimal_cycle.degree
    f, lam, x = res.cocycle, res.dual, res.optimal_cycle.coeffs
    ws = K.weights[q]
    if f is None or lam is None:
        return ["no certificate"]
    problems = []
    if len(f) != len(ws) or len(lam) != len(generators):
        return [f"certificate shape {len(f)}, {len(lam)}"]
    if any(abs(fi) > wi for fi, wi in zip(f, ws)):
        problems.append("|f| exceeds the weight on some cell")
    mass = sum(abs(xi) * wi for xi, wi in zip(x, ws))
    if not sum(fi * xi for fi, xi in zip(f, x)) == mass == res.value:
        problems.append(f"f.x, mass(x) and the value {res.value} differ")
    if q + 1 < len(K.boundary_cols):
        for j, col in enumerate(K.boundary_cols[q + 1]):
            if sum(inc * f[face] for face, inc in col) != 0:
                problems.append(f"f is not a cocycle on (q+1)-cell {j}")
                break
    for j, g in enumerate(generators):
        if sum(fi * gi for fi, gi in zip(f, g.coeffs)) != lam[j]:
            problems.append(f"f(g_{j}) != λ_{j}")
    return problems


STRUCTURES = {
    "flat_torus(3)": flat_torus(3),
    "flat_torus(4)": flat_torus(4),
    "cubical S1xS2": product_complex(circle(3, kind="cubical"), cubical_sphere(2)),
    "T2_9": torus_triangulated(),
    "C3xC4": product_complex(circle(3), circle(4)),
}


def box_norms(K, q):
    summary = homology(K)
    for coords in itertools.product(range(-2, 3), repeat=summary.betti[q]):
        yield coords, stable_norm(K, HomologyClass(q, coords))


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_every_optimal_lp_norm_carries_a_dual_certificate(name):
    K = STRUCTURES[name]
    summary = homology(K)
    checked = 0
    for q in range(K.top_dim + 1):
        norms = dict(box_norms(K, q))
        for coords, res in norms.items():
            if res.certificate != "optimal-LP":
                continue
            assert certificate_problems(K, summary.generators[q], res) == [], (q, coords)
            # weak duality over the box: ‖h'‖ >= |λ.h'| for every class h'
            for other, res2 in norms.items():
                assert res2.value >= abs(sum(Fraction(a) * b for a, b in zip(res.dual, other)))
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("K", [wedge_two_circles(), theta_graph(), torus_triangulated()],
                         ids=["wedge", "theta", "T2_9 top degree"])
def test_unique_cycle_norms_carry_a_certificate(K):
    summary = homology(K)
    q = 1 if K.top_dim == 1 else 2
    for coords, res in box_norms(K, q):
        if any(coords):
            assert res.certificate == "unique-cycle"
            assert certificate_problems(K, summary.generators[q], res) == []


def test_zero_class_has_no_certificate():
    res = stable_norm(flat_torus(3), HomologyClass(1, (0, 0)))
    assert res.dual is None and res.cocycle is None
