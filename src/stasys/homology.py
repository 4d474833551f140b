"""Integral and rational homology of a weighted cell complex.

A coreduction pass (Mrozek–Batko, DCG 2009) first shrinks the complex to
its few critical cells.  The columns are read by `stasys.complexes._faces`,
which sums a face named twice and rejects one outside the degree below.
Then the cells are taken in cell order (degree, then index): when the queue
is empty the first cell left becomes critical, and a queued cell τ whose one
remaining face σ has incidence ±1 is paired with it; either way the removed
cells' cofaces are queued.  In removal order each q-cell gets its flow π, an
integer combination of critical q-cells: a critical cell maps to itself, the
upper cell τ of a pair to 0, and the lower cell σ to −inc·Σ ⟨∂τ,ρ⟩·π(ρ)
over τ's other faces ρ, with inc = ⟨∂τ,σ⟩.  The Morse boundary of a
critical cell c is π(∂c), a chain complex with the homology of K (each pair
is one Gaussian elimination, and π is the composed projection).

Everything after that comes from integer Smith normal forms of the Morse
boundary, which carry their own inverses (``M = U D V`` with ``U_inv`` and
``V_inv`` alongside).  In degree q the SNF of the Morse d_q gives the cycle
lattice: its basis is the columns rk.. of ``V_inv`` and the rows rk.. of
``V`` read a cycle's coordinates in that basis, so d_{q+1} in kernel
coordinates is an exact integer product.  A second SNF of that matrix gives
Betti numbers, torsion coefficients and the generators (columns of its
``U``), and the coordinate rows are its free rows of ``U_inv`` times the
rows that read kernel coordinates.  A Morse cycle comes back to K through
ι: each pair's upper cell τ is added, latest pair first, so the lifted
chain's boundary vanishes on σ; that chain is a cycle of K.  A Morse row
comes back as its pull-back through π.  So the generators are the Smith
form of the Morse complex coreduced in cell order, integral cycles of K,
and the coordinate rows are integral cochains that vanish on boundaries and
read generator j as δ_ij.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .complexes import Chain, WeightedCellComplex, _faces, _fraction
from .linalg import smith_normal_form  # smith_normal_form re-exported

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
    """Per-degree homology of one complex: plain data, weight-independent, immutable,
    no LP state; a cycle's coordinates are read with `class_coordinates(K, z)`."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[Chain, ...], ...]
    torsion_generators: tuple[tuple[Chain, ...], ...]
    coordinate_maps: tuple[tuple[tuple[Fraction, ...], ...], ...]
    # the number of critical cells the coreduction left in each degree
    critical: tuple[int, ...] = field(compare=False, repr=False)

    @cached_property
    def integer_generators(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each degree's generators as int coefficient vectors (they are integral)."""
        return tuple(tuple(tuple(c.numerator for c in g.coeffs) for g in gens)
                     for gens in self.generators)


def homology(K: WeightedCellComplex) -> HomologySummary:
    """Homology summary of K, computed once and kept with K: K's rescalings
    and deformations share it (see `WeightedCellComplex._reweighted`), and it
    lives as long as they do.  A complex built any other way, an equal one
    rebuilt or one made by `dataclasses.replace`, computes its own."""
    summary = K._shared.get("homology")
    if summary is not None:
        return summary

    faces, critical, flow, pairs, cols = _coreduce(K)
    betti = []
    torsion = []
    generators = []
    torsion_generators = []
    coordinate_maps = []
    for q in range(K.top_dim + 1):
        kernel, to_kernel = _cycle_lattice(cols[q], len(critical[q - 1]) if q else 0)
        above = cols[q + 1] if q < K.top_dim else ()
        # in the top degree the z x 0 matrix gives U = U_inv = I_z
        u, d, _v, u_inv, _v_inv = smith_normal_form(
            _boundaries_in_kernel(above, len(critical[q]), to_kernel), len(kernel))
        diag = [row[i] for i, row in enumerate(d) if row]  # the positive pivots
        r = len(diag)

        def lift(col):
            return _lift(faces, critical, pairs, q, K.n_cells(q), _combine(kernel, col))

        betti.append(len(kernel) - r)
        torsion.append(tuple(x for x in diag if x > 1))
        generators.append(tuple(lift(col) for col in u[r:]))
        torsion_generators.append(tuple(lift(col) for col, x in zip(u, diag) if x > 1))
        # row i vanishes on Morse boundaries (u_inv times their kernel
        # coordinates is d v, zero in rows >= r) and reads generator j as
        # delta_ij (to_kernel maps generator j to column r+j of u); pulled
        # back through the chain map π it does the same on K
        coordinate_maps.append(tuple(_pull_back(flow[q], _combine(to_kernel, row)) for row in u_inv[r:]))

    summary = HomologySummary(
        betti=tuple(betti),
        torsion=tuple(torsion),
        generators=tuple(generators),
        torsion_generators=tuple(torsion_generators),
        coordinate_maps=tuple(coordinate_maps),
        critical=tuple(map(len, critical)),
    )
    K._shared["homology"] = summary
    return summary


def class_coordinates(K: WeightedCellComplex, z: Chain) -> tuple[Fraction, ...]:
    """Rational homology coordinates of a cycle of K, read by homology(K)'s
    coordinate map; zero iff z bounds.  The one reader of a class's coordinates."""
    if not K.is_cycle(z):
        raise ValueError("chain is not a cycle")
    return tuple(sum((r * c for r, c in zip(row, z.coeffs) if r and c), Fraction(0))
                 for row in homology(K).coordinate_maps[z.degree])


def _coreduce(K: WeightedCellComplex):
    """Coreduce K in cell order; per degree q returns the summed faces of each
    q-cell, the critical q-cells, each q-cell's flow π as {critical index:
    int}, the pairs (σ, τ, inc) with σ a q-cell in removal order, and the Morse
    boundary columns π(∂c) of the critical q-cells as (row, value) pairs."""
    n = [len(degree) for degree in K.boundary_cols]
    # {face: incidence} of each cell, a face named twice in a column summed,
    # and the (degree, index) of each cell's cofaces, in cell order
    faces = [[{}] * n[0]] + [_faces(K.boundary_cols[q], n[q - 1]) for q in range(1, len(n))]
    cofaces = [[[] for _ in range(m)] for m in n]
    for q in range(1, len(n)):
        for t, fs in enumerate(faces[q]):
            for s in fs:
                cofaces[q - 1][s].append((q, t))
    left = [list(map(len, degree)) for degree in faces]  # faces not yet removed
    flow = [[None] * len(degree) for degree in faces]  # None until removed
    critical = [[] for _ in faces]
    pairs = [[] for _ in faces]
    queue = deque()

    def remove(q, j, pi):
        flow[q][j] = pi
        for p, t in cofaces[q][j]:
            left[p][t] -= 1
        queue.extend(cofaces[q][j])

    for q, degree in enumerate(flow):
        for j in range(len(degree)):
            if degree[j] is not None:
                continue
            # every cell of a lower degree is gone, so j has no faces left
            remove(q, j, {len(critical[q]): 1})
            critical[q].append(j)
            while queue:
                p, t = queue.popleft()
                if left[p][t] != 1 or flow[p][t] is not None:
                    continue
                fs, below = faces[p][t], flow[p - 1]
                for s in fs:
                    if below[s] is None:
                        break
                inc = fs[s]
                if inc not in (1, -1):
                    continue
                pi = {}
                for f, x in fs.items():
                    if f != s:
                        for c, y in below[f].items():
                            pi[c] = pi.get(c, 0) - inc * x * y
                remove(p - 1, s, {c: y for c, y in pi.items() if y})
                remove(p, t, {})
                pairs[p - 1].append((s, t, inc))
    cols = [[[(c, x * y) for f, x in faces[q][j].items() for c, y in flow[q - 1][f].items()]
             for j in critical[q]] for q in range(len(faces))]
    return faces, critical, flow, pairs, cols


def _cycle_lattice(cols, nrows: int) -> tuple[list[Sparse], list[Sparse]]:
    """Integral basis of the cycle lattice of the matrix with these columns,
    and rows reading a cycle in it.

    Row i of the second list dotted with basis vector k_j is delta_ij.
    """
    _u, d, v, _u_inv, v_inv = smith_normal_form(cols, nrows)
    rank = sum(1 for row in d if row)
    # M V_inv = U D vanishes on the zero columns of D, and V V_inv = I
    return v_inv[rank:], v[rank:]


def _boundaries_in_kernel(cols, n: int, to_kernel: list[Sparse]) -> list[list[tuple]]:
    """Kernel coordinates of each column over n rows, as sparse columns.

    A column names a kernel row once for each face that row reads; the Smith
    form sums the repeats into exact integers.
    """
    readers = [[] for _ in range(n)]  # (kernel row, value) pairs reading each row
    for i, row in enumerate(to_kernel):
        for face, x in row.items():
            readers[face].append((i, x))
    return [[(i, x * inc) for face, inc in col for i, x in readers[face]] for col in cols]


def _combine(vectors: list[Sparse], coeffs: Sparse) -> Sparse:
    """The integer combination sum_j coeffs[j] * vectors[j]."""
    out = {}
    for j, c in coeffs.items():
        for i, x in vectors[j].items():
            out[i] = out.get(i, 0) + c * x
    return out


def _lift(faces, critical, pairs, q: int, nq: int, z: Sparse) -> Chain:
    """ι(z) for a Morse q-chain z: z on K's critical cells plus, latest pair
    first, the upper cell τ of each pair (σ, τ) that clears σ from the boundary.
    The chain is summed in ints, and its coefficients are the shared
    Fractions of `complexes._fraction`."""
    x = {critical[q][c]: a for c, a in z.items()}
    if q:
        bd = {}
        for j, a in x.items():
            for f, y in faces[q][j].items():
                bd[f] = bd.get(f, 0) + a * y
        for s, t, inc in reversed(pairs[q - 1]):
            k = bd.get(s)
            if k:
                x[t] = k = -k * inc
                for f, y in faces[q][t].items():
                    bd[f] = bd.get(f, 0) + k * y
    coeffs = [_fraction(0)] * nq
    for j, a in x.items():
        coeffs[j] = _fraction(a)
    return Chain._of_fractions(q, tuple(coeffs))


def _pull_back(flow: list[Sparse], row: Sparse) -> tuple[Fraction, ...]:
    """The cochain row∘π on the q-cells, for a Morse row over critical q-cells,
    summed in ints, each value a shared Fraction of `complexes._fraction`."""
    out = [_fraction(0)] * len(flow)
    for j, pi in enumerate(flow):
        if pi:
            x = 0
            for c, y in pi.items():
                if c in row:
                    x += row[c] * y
            out[j] = _fraction(x)
    return tuple(out)
