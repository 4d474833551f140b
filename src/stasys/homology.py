"""Integral and rational homology of a weighted cell complex.

Everything comes from integer Smith normal forms that carry their own
inverses (``M = U D V`` with ``U_inv`` and ``V_inv`` alongside), which take
sparse columns and return sparse factors.  In degree q the SNF of the
boundary map d_q, fed ``boundary_cols[q]`` as it stands (in degree 0 a
matrix with no rows), gives the cycle lattice: its basis is the columns
rk.. of ``V_inv`` and the rows rk.. of ``V`` read a cycle's coordinates in
that basis, so d_{q+1} in kernel coordinates is an exact integer product.
A second SNF of that matrix gives Betti numbers, torsion coefficients and
integral generator chains (columns of its ``U``).  The coordinate map that
evaluates the homology class of any cycle in the generator basis is read off
the same factors: its rows are the free rows of the second SNF's ``U_inv``
times the rows that read kernel coordinates, so they are integral cochains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .complexes import Chain, WeightedCellComplex
from .linalg import smith_normal_form  # re-exported

__all__ = ["HomologySummary", "HomologyClass", "homology", "smith_normal_form", "class_coordinates"]

Sparse = dict[int, int]  # the nonzeros of an integer vector, by index


@dataclass(frozen=True)
class HomologyClass:
    """A homology class given by coordinates in the generator basis."""

    degree: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class HomologySummary:
    """Per-degree homology data of one complex (weight-independent)."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[Chain, ...], ...]
    torsion_generators: tuple[tuple[Chain, ...], ...]
    coordinate_maps: tuple[tuple[tuple[Fraction, ...], ...], ...]
    # prepared LP tableaux of the norm LPs, keyed by the degree q
    tableaux: dict = field(default_factory=dict, compare=False, repr=False)
    # prepared LP tableaux of the systole search's stop tests, keyed by
    # their tuple of λ's (the newest norms.STOP_TESTS_KEPT of them)
    stop_tests: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def integer_generators(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each degree's generators as int coefficient vectors (they are integral)."""
        return tuple(tuple(tuple(c.numerator for c in g.coeffs) for g in gens)
                     for gens in self.generators)

    def class_coordinates(self, K: WeightedCellComplex, z: Chain) -> tuple[Fraction, ...]:
        """Rational homology coordinates of a cycle; zero iff z bounds."""
        if not K.is_cycle(z):
            raise ValueError("chain is not a cycle")
        cmap = self.coordinate_maps[z.degree]
        return tuple(
            sum((r * c for r, c in zip(row, z.coeffs) if r and c), Fraction(0))
            for row in cmap
        )

    def representative(self, cls: HomologyClass) -> Chain:
        """An explicit cycle with the given coordinates."""
        gens = self.generators[cls.degree]
        if len(cls.coords) != len(gens):
            raise ValueError("coordinate vector has wrong length")
        ncells = len(gens[0].coeffs) if gens else 0
        coeffs = [Fraction(0)] * ncells
        for c, g in zip(cls.coords, gens):
            for i, gi in enumerate(g.coeffs):
                coeffs[i] += c * gi
        return Chain(cls.degree, tuple(coeffs))


SUMMARIES_KEPT = 64  # structures cached, so many structures stay bounded
_cache: dict[tuple, HomologySummary] = {}


def homology(K: WeightedCellComplex) -> HomologySummary:
    """Homology summary of K; results are cached on the boundary structure,
    the newest SUMMARIES_KEPT of them."""
    key = (K.cell_ids, K.boundary_cols)
    hit = _cache.get(key)
    if hit is not None:
        return hit

    betti = []
    torsion = []
    generators = []
    torsion_generators = []
    coordinate_maps = []
    for q in range(K.top_dim + 1):
        nq = K.n_cells(q)
        kernel, to_kernel = _cycle_lattice(K, q)
        # in the top degree the z x 0 matrix gives U = U_inv = I_z
        u, d, _v, u_inv, _v_inv = smith_normal_form(_boundaries_in_kernel(K, q, to_kernel), len(kernel))
        diag = [row[i] for i, row in enumerate(d) if row]  # the positive pivots
        r = len(diag)
        betti.append(len(kernel) - r)
        torsion.append(tuple(x for x in diag if x > 1))
        generators.append(tuple(_lattice_chain(kernel, col, q, nq) for col in u[r:]))
        torsion_generators.append(tuple(_lattice_chain(kernel, col, q, nq) for col, x in zip(u, diag) if x > 1))
        # row i vanishes on boundaries (u_inv times their kernel coordinates is
        # d v, zero in rows >= r) and reads generator j as delta_ij (to_kernel
        # maps generator j to column r+j of u)
        coordinate_maps.append(tuple(_lattice_chain(to_kernel, row, q, nq).coeffs for row in u_inv[r:]))

    summary = HomologySummary(
        betti=tuple(betti),
        torsion=tuple(torsion),
        generators=tuple(generators),
        torsion_generators=tuple(torsion_generators),
        coordinate_maps=tuple(coordinate_maps),
    )
    if len(_cache) >= SUMMARIES_KEPT:  # the oldest goes first
        del _cache[next(iter(_cache))]
    _cache[key] = summary
    return summary


def class_coordinates(K: WeightedCellComplex, z: Chain) -> tuple[Fraction, ...]:
    return homology(K).class_coordinates(K, z)


def _cycle_lattice(K: WeightedCellComplex, q: int) -> tuple[list[Sparse], list[Sparse]]:
    """Integral basis of the degree-q cycle lattice, and rows reading a cycle in it.

    Row i of the second list dotted with basis vector k_j is delta_ij.
    """
    _u, d, v, _u_inv, v_inv = smith_normal_form(K.boundary_cols[q], K.n_cells(q - 1))
    rank = sum(1 for row in d if row)
    # M V_inv = U D vanishes on the zero columns of D, and V V_inv = I
    return v_inv[rank:], v[rank:]


def _boundaries_in_kernel(K: WeightedCellComplex, q: int, to_kernel: list[Sparse]) -> list[list[tuple]]:
    """Kernel coordinates of each (q+1)-cell's boundary, as sparse columns.

    A column names a kernel row once for each face that row reads; the Smith
    form sums the repeats into exact integers.
    """
    readers = [[] for _ in range(K.n_cells(q))]  # (kernel row, value) pairs reading each q-cell
    for i, row in enumerate(to_kernel):
        for face, x in row.items():
            readers[face].append((i, x))
    cols = K.boundary_cols[q + 1] if q < K.top_dim else ()
    return [[(i, x * inc) for face, inc in col for i, x in readers[face]] for col in cols]


def _lattice_chain(vectors: list[Sparse], coeffs: Sparse, q: int, nq: int) -> Chain:
    """The integer combination sum_j coeffs[j] * vectors[j] as a q-chain."""
    out = [0] * nq
    for j, c in coeffs.items():
        for i, x in vectors[j].items():
            out[i] += c * x
    return Chain(q, tuple(Fraction(c) for c in out))
