"""Seeded inputs for the benchmark and the closed-form answers they must give.

Every input is one of a fixed set of named structures, optionally with its
cells re-ordered by a seeded permutation.  Re-ordering gives a structure
the process has never seen (so nothing is served from a cache) while every
invariant the checker tests stays the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from stasys import (
    WeightedCellComplex,
    circle,
    cubical_sphere,
    flat_torus,
    product_complex,
    rp2,
    sphere,
    torus_triangulated,
)

BUILDERS = {
    "ft3": lambda: flat_torus(3),
    "ft4": lambda: flat_torus(4),
    "ft5": lambda: flat_torus(5),
    "ft6": lambda: flat_torus(6),
    "s1s2": lambda: product_complex(circle(3, kind="cubical"), cubical_sphere(2)),
    "sph2": lambda: sphere(2),
    "sph3": lambda: sphere(3),
    "sph4": lambda: sphere(4),
    "sph5": lambda: sphere(5),
    "t9": torus_triangulated,
    "rp2": rp2,
    "c3": lambda: circle(3),
    "c4": lambda: circle(4),
    "c6": lambda: circle(6),
    "c3c4": lambda: product_complex(circle(3), circle(4)),
}

# Scale factors for K.rescale(t) and first-factor deformation samples.
T_CHOICES = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(5, 3),
             Fraction(2))
SWEEP_T_CHOICES = (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4), Fraction(6), Fraction(8))


def build(name: str) -> WeightedCellComplex:
    return BUILDERS[name]()


def permute(K: WeightedCellComplex, rng: random.Random) -> WeightedCellComplex:
    """K with the cells of every degree in a seeded order; passes validate().

    Boundary face indices, vertex lists and factor tags move with their
    cells; vertex labels (and so the simplicial vertex order) are kept.
    """
    order = []  # order[q][new position] = old position
    where = []  # where[q][old position] = new position
    for q in range(K.top_dim + 1):
        perm = list(range(K.n_cells(q)))
        rng.shuffle(perm)
        pos = [0] * len(perm)
        for new, old in enumerate(perm):
            pos[old] = new
        order.append(perm)
        where.append(pos)

    def moved(per_degree):
        return tuple(tuple(per_degree[q][old] for old in order[q]) for q in range(K.top_dim + 1))

    boundary_cols = tuple(
        tuple(
            tuple((where[q - 1][face], inc) for face, inc in K.boundary_cols[q][old]) if q else ()
            for old in order[q]
        )
        for q in range(K.top_dim + 1)
    )
    out = WeightedCellComplex(
        kind=K.kind,
        cell_ids=moved(K.cell_ids),
        weights=moved(K.weights),
        boundary_cols=boundary_cols,
        vertex_lists=None if K.vertex_lists is None else moved(K.vertex_lists),
        factor_degrees=None if K.factor_degrees is None else moved(K.factor_degrees),
    )
    out.validate()
    return out


def structure_tag(K: WeightedCellComplex) -> str:
    """Short digest of a structure's cell order, for the input manifest."""
    return hashlib.sha256(repr(K.cell_ids).encode()).hexdigest()[:12]


# Every primitive degree-1 class with both coordinates in [-2, 2].  The LP
# for a multiple m*v pivots exactly as the one for v, so seeded multiples
# vary the input without moving its cost.
DIRECTIONS = tuple(
    (a, b) for a in range(-2, 3) for b in range(-2, 3)
    if (a, b) != (0, 0) and math.gcd(a, b) == 1
)


def sample_class(rng: random.Random, direction: tuple[int, ...]) -> tuple[int, ...]:
    """A seeded multiple (1 or 2 times) of a primitive class."""
    m = rng.choice((1, 2))
    return tuple(m * x for x in direction)


def sample_t(rng: random.Random) -> Fraction:
    return rng.choice(T_CHOICES)


def sample_sweep_ts(rng: random.Random) -> tuple[Fraction, ...]:
    """1 followed by three increasing first-factor scales."""
    return (Fraction(1),) + tuple(sorted(rng.sample(SWEEP_T_CHOICES, 3)))


def digest(manifest: list[str]) -> str:
    """Digest of the generated inputs, so a run can show which it used."""
    return hashlib.sha256(json.dumps(manifest).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def expected_homology(name: str) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(betti, torsion) of a named structure."""
    if name.startswith("ft") or name in ("t9", "c3c4"):
        return (1, 2, 1), ((), (), ())
    if name == "s1s2":
        return (1, 1, 1, 1), ((), (), (), ())
    if name.startswith("sph"):
        n = int(name[3:])
        return tuple(int(q in (0, n)) for q in range(n + 1)), ((),) * (n + 1)
    if name == "rp2":
        return (1, 0, 0), ((), (2,), ())
    raise KeyError(name)


def expected_ring(name: str) -> tuple:
    """(dimension, lpd, cup_length, max_cup_length_flag, witness_degrees)."""
    if name.startswith("sph"):
        n = int(name[3:])
        return (n, n, 1, True, (n,))
    if name == "t9":
        return (2, 1, 2, True, (1, 1))
    if name == "rp2":
        return (2, None, 0, False, None)
    raise KeyError(name)


def expected_systole(name: str, q: int, t: Fraction) -> Fraction:
    """Stable systole of structure `name` rescaled by t (weights times t^q)."""
    if name.startswith("ft"):
        k = int(name[2:])
        return {1: k * t, 2: k * k * t * t}[q]
    return {
        "s1s2": {1: 3 * t, 2: 6 * t ** 2, 3: 18 * t ** 3},
        "t9": {1: 3 * t, 2: 18 * t ** 2},
        "c3c4": {1: 3 * t, 2: 12 * t ** 2},
    }[name][q]


def expected_sphere_product(dims: tuple[int, ...]) -> tuple[int, int]:
    """(lpd, catstsys) of a product of spheres: the least dimension, and
    the number of factors."""
    return min(dims), len(dims)
