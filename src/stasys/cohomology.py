"""Rational cohomology ring of a simplicial complex.

Cochains are evaluated on the stored (globally sorted) vertex orders, the
dual basis is the homology summary's coordinate map (no second solve), the
cup product is the front-face/back-face formula, and ``ring_profile`` reads
all ring invariants off one exact degree-wise span filtration: cup-length,
the least positive dimension with nonzero reduced cohomology, and whether the
ring attains the dimensional cap floor(n / lpd) with a top-degree product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .complexes import WeightedCellComplex
from .homology import homology


@dataclass(frozen=True)
class Cochain:
    degree: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class CohomologyBasis:
    """Dual basis cocycles per degree, paired against homology generators."""

    basis: tuple[tuple[Cochain, ...], ...]


@dataclass(frozen=True)
class RingProfile:
    dimension: int
    lpd: int | None
    cup_length: int
    max_cup_length_flag: bool
    witness_degrees: tuple[int, ...] | None


def _require_simplicial(K: WeightedCellComplex) -> None:
    if K.kind != "simplicial" or K.vertex_lists is None:
        raise ValueError("operation requires a simplicial complex")


def coboundary(K: WeightedCellComplex, alpha: Cochain) -> Cochain:
    """Transpose boundary: (d alpha)(cell) = alpha(boundary of cell)."""
    q = alpha.degree
    n_up = K.n_cells(q + 1)
    out = [Fraction(0)] * n_up
    for j in range(n_up):
        total = Fraction(0)
        for face, inc in K.boundary_cols[q + 1][j]:
            total += inc * alpha.values[face]
        out[j] = total
    return Cochain(q + 1, tuple(out))


def is_cocycle(K: WeightedCellComplex, alpha: Cochain) -> bool:
    if alpha.degree >= K.top_dim:
        return True
    return coboundary(K, alpha).is_zero()


def cup_product(K: WeightedCellComplex, alpha: Cochain, beta: Cochain) -> Cochain:
    """Front-face/back-face product on sorted simplices."""
    _require_simplicial(K)
    p, q = alpha.degree, beta.degree
    deg = p + q
    n = K.n_cells(deg)
    out = [Fraction(0)] * n
    for j in range(n):
        vs = K.vertex_lists[deg][j]
        front = K.cell_by_vertices(vs[: p + 1])
        back = K.cell_by_vertices(vs[p:])
        out[j] = alpha.values[front] * beta.values[back]
    return Cochain(deg, tuple(out))


def pairing(K: WeightedCellComplex, alpha: Cochain, chain) -> Fraction:
    if alpha.degree != chain.degree:
        raise ValueError("degree mismatch in pairing")
    return sum(
        (a * c for a, c in zip(alpha.values, chain.coeffs) if a and c), Fraction(0)
    )


def cohomology_coordinates(K: WeightedCellComplex, alpha: Cochain) -> tuple[Fraction, ...]:
    """Coordinates of a cocycle in the basis dual to the homology generators."""
    gens = homology(K).generators[alpha.degree]
    return tuple(pairing(K, alpha, g) for g in gens)


def cohomology_basis(K: WeightedCellComplex) -> CohomologyBasis:
    """Per degree, cocycles alpha_i with <alpha_i, gen_j> = delta_ij.

    These are the rows of the homology coordinate map: each row vanishes on
    every boundary, so it is a cocycle, and it reads generator j as delta_ij.
    """
    _require_simplicial(K)
    return CohomologyBasis(basis=tuple(
        tuple(Cochain(q, row) for row in rows)
        for q, rows in enumerate(homology(K).coordinate_maps)
    ))


@dataclass(frozen=True)
class _RingElement:
    cochain: Cochain
    factor_degrees: tuple[int, ...]


def _product_filtration(K: WeightedCellComplex) -> list[list[_RingElement]]:
    """Levels of the span filtration generated by positive-degree classes.

    Level k holds a basis (in cohomology coordinates) of the span of all
    k-fold cup products; level 0 is a placeholder, and later levels are nonempty.
    """
    basis = cohomology_basis(K)
    level1 = [
        _RingElement(alpha, (q,))
        for q in range(1, K.top_dim + 1)
        for alpha in basis.basis[q]
    ]
    levels: list[list[_RingElement]] = [[]]
    nxt = level1
    while nxt:
        levels.append(nxt)
        nxt = []
        span: dict[int, list[list[Fraction]]] = {}
        for el in levels[-1]:
            for gen in level1:
                deg = el.cochain.degree + gen.cochain.degree
                if deg > K.top_dim:
                    continue
                prod = cup_product(K, el.cochain, gen.cochain)
                coords = list(cohomology_coordinates(K, prod))
                if all(c == 0 for c in coords):
                    continue
                rows = span.setdefault(deg, [])
                if linalg.rank(rows + [coords]) > len(rows):
                    rows.append(coords)
                    nxt.append(_RingElement(prod, el.factor_degrees + gen.factor_degrees))
    return levels


def lpd(K: WeightedCellComplex) -> int | None:
    """Least positive degree with nonzero rational homology, or None."""
    betti = homology(K).betti
    for q in range(1, len(betti)):
        if betti[q] > 0:
            return q
    return None


def ring_profile(K: WeightedCellComplex) -> RingProfile:
    """Ring invariants; the witness is a nonzero floor(n/lpd)-fold product of degree n."""
    levels = _product_filtration(K)  # raises first on a non-simplicial complex
    l = lpd(K)
    n = K.top_dim
    witness = None
    if l is not None and n // l < len(levels):
        witness = next((el.factor_degrees for el in levels[n // l]
                        if el.cochain.degree == n), None)
    return RingProfile(
        dimension=n,
        lpd=l,
        cup_length=len(levels) - 1,
        max_cup_length_flag=witness is not None,
        witness_degrees=witness,
    )


def cup_length(K: WeightedCellComplex) -> int:
    """Longest nonzero cup product of positive-degree rational classes."""
    return ring_profile(K).cup_length


def has_maximal_real_cup_length(K: WeightedCellComplex) -> tuple[bool, tuple[int, ...] | None]:
    """True iff a floor(n/lpd)-fold product is nonzero in top-degree cohomology."""
    ring = ring_profile(K)
    return ring.max_cup_length_flag, ring.witness_degrees
