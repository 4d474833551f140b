"""Finite weighted cell complexes with exact rational cell volumes.

A complex stores, per degree, an ordered list of cells with positive
rational weights and sparse integer boundary incidences.  Weights play the
role of a piecewise-linear metric: the mass of a chain is the weighted L1
size of its coefficient vector.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

Rational = Fraction | int
BoundaryColumn = tuple[tuple[int, int], ...]  # ((face_index, incidence), ...)


class ComplexInvariantError(ValueError):
    """A would-be complex violates a structural invariant."""


@dataclass(frozen=True)
class Chain:
    """Cellular chain: a coefficient vector over the cells of one degree."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree or len(self.coeffs) != len(other.coeffs):
            raise ValueError("chain degree/length mismatch")
        return Chain(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __rmul__(self, scalar: Rational) -> "Chain":
        s = Fraction(scalar)
        return Chain(self.degree, tuple(s * c for c in self.coeffs))


@dataclass(frozen=True)
class WeightedCellComplex:
    """Graded cell complex with integer boundaries and positive weights.

    ``boundary_cols[q][j]`` lists the (face index, incidence) pairs of the
    j-th q-cell; degree 0 has an empty entry.  ``vertex_lists`` is present
    for simplicial complexes and stores each cell's vertices in strictly
    increasing order (the global vertex order used by the cup product).
    ``factor_degrees`` tags product cells with their per-factor degrees.
    """

    kind: str
    cell_ids: tuple[tuple[str, ...], ...]
    weights: tuple[tuple[Fraction, ...], ...]
    boundary_cols: tuple[tuple[BoundaryColumn, ...], ...]
    vertex_lists: tuple[tuple[tuple[int, ...], ...], ...] | None = None
    factor_degrees: tuple[tuple[tuple[int, int], ...], ...] | None = None

    @property
    def top_dim(self) -> int:
        return len(self.cell_ids) - 1

    def n_cells(self, q: int) -> int:
        if 0 <= q <= self.top_dim:
            return len(self.cell_ids[q])
        return 0

    @cached_property
    def total_cells(self) -> int:
        return sum(len(ids) for ids in self.cell_ids)

    def boundary_matrix(self, q: int) -> list[list[int]]:
        """Dense boundary matrix: rows are (q-1)-cells, columns q-cells."""
        if not 1 <= q <= self.top_dim:
            raise ValueError(f"degree {q} out of range 1..{self.top_dim}")
        rows, cols = self.n_cells(q - 1), self.n_cells(q)
        mat = [[0] * cols for _ in range(rows)]
        for j, col in enumerate(self.boundary_cols[q]):
            for face, inc in col:
                mat[face][j] += inc
        return mat

    def boundary_of(self, chain: Chain) -> Chain:
        if not 1 <= chain.degree <= self.top_dim:
            raise ValueError(f"degree {chain.degree} out of range")
        out = [Fraction(0)] * self.n_cells(chain.degree - 1)
        for j, c in enumerate(chain.coeffs):
            if c:
                for face, inc in self.boundary_cols[chain.degree][j]:
                    out[face] += c * inc
        return Chain(chain.degree - 1, tuple(out))

    def is_cycle(self, chain: Chain) -> bool:
        if chain.degree == 0:
            return True
        return self.boundary_of(chain).is_zero()

    def zero_chain(self, q: int) -> Chain:
        return Chain(q, (Fraction(0),) * self.n_cells(q))

    def unit_chain(self, q: int, index: int) -> Chain:
        coeffs = [Fraction(0)] * self.n_cells(q)
        coeffs[index] = Fraction(1)
        return Chain(q, tuple(coeffs))

    def mass(self, chain: Chain) -> Fraction:
        """Weighted L1 size: sum over cells of |coefficient| * weight."""
        if not 0 <= chain.degree <= self.top_dim:
            raise ValueError(f"degree {chain.degree} out of range")
        ws = self.weights[chain.degree]
        return sum((abs(c) * w for c, w in zip(chain.coeffs, ws) if c), Fraction(0))

    def rescale(self, t: Rational) -> "WeightedCellComplex":
        """Scale the weights of degree q by t^q."""
        t = Fraction(t)
        if t <= 0:
            raise ValueError("scale factor must be positive")
        powers = [t ** q for q in range(self.top_dim + 1)]
        return replace(self, weights=tuple(
            tuple(w * powers[q] for w in ws) if q else ws
            for q, ws in enumerate(self.weights)
        ))

    @cached_property
    def _vertex_index(self) -> tuple[dict[tuple[int, ...], int], ...] | None:
        if self.vertex_lists is None:
            return None
        return tuple({vs: i for i, vs in enumerate(per_deg)} for per_deg in self.vertex_lists)

    def cell_by_vertices(self, vertices: tuple[int, ...]) -> int | None:
        """Index of the simplicial cell with the given sorted vertex tuple."""
        idx = self._vertex_index
        if idx is None:
            raise ValueError("complex is not simplicial")
        q = len(vertices) - 1
        if not 0 <= q <= self.top_dim:
            return None
        return idx[q].get(tuple(vertices))

    def validate(self) -> None:
        """Check every structural invariant; raise ComplexInvariantError."""
        for q, ws in enumerate(self.weights):
            if len(ws) != len(self.cell_ids[q]):
                raise ComplexInvariantError(f"weight count mismatch in degree {q}")
            if any(w <= 0 for w in ws):
                raise ComplexInvariantError(f"non-positive weight in degree {q}")
        for q in range(1, self.top_dim + 1):
            nfaces = self.n_cells(q - 1)
            for j, col in enumerate(self.boundary_cols[q]):
                for face, _ in col:
                    if not 0 <= face < nfaces:
                        raise ComplexInvariantError(f"face index out of range in degree {q}")
                # augmentation: the boundary of a 1-cell has total incidence 0
                if q == 1 and sum(inc for _, inc in col) != 0:
                    raise ComplexInvariantError(
                        f"boundary of {self.cell_ids[1][j]} does not sum to zero")
        for q in range(2, self.top_dim + 1):
            lower = self.boundary_cols[q - 1]
            for col in self.boundary_cols[q]:
                total = Counter()
                for face, inc in col:
                    for ridge, inc2 in lower[face]:
                        total[ridge] += inc * inc2
                if any(total.values()):
                    raise ComplexInvariantError(f"boundary of boundary nonzero at degree {q}")
        if self.kind == "simplicial":
            if self.vertex_lists is None:
                raise ComplexInvariantError("simplicial complex needs vertex lists")
            for q, per_deg in enumerate(self.vertex_lists):
                for j, vs in enumerate(per_deg):
                    if len(vs) != q + 1 or len(set(vs)) != q + 1:
                        raise ComplexInvariantError(f"cell {self.cell_ids[q][j]} has bad vertex list")
                    if list(vs) != sorted(vs):
                        raise ComplexInvariantError(f"cell {self.cell_ids[q][j]} vertices not sorted")
                    if q >= 1:
                        expected = {}
                        for k in range(q + 1):
                            face = vs[:k] + vs[k + 1:]
                            fi = self.cell_by_vertices(face)
                            if fi is None:
                                raise ComplexInvariantError(f"missing face {face}")
                            expected[fi] = expected.get(fi, 0) + (-1) ** k
                        actual = {}
                        for face, inc in self.boundary_cols[q][j]:
                            actual[face] = actual.get(face, 0) + inc
                        if {k: v for k, v in expected.items() if v} != {k: v for k, v in actual.items() if v}:
                            raise ComplexInvariantError(
                                f"boundary of {self.cell_ids[q][j]} is not the alternating face sum")


def build_complex(
    kind: str,
    cells: list[list[tuple]],
    factor_degrees: list[list[tuple[int, int]]] | None = None,
) -> WeightedCellComplex:
    """Assemble and validate a complex from per-degree cell specs.

    Each cell spec is ``(cell_id, weight, boundary, vertices)`` where
    ``boundary`` maps face ids to incidences (list of pairs) and
    ``vertices`` may be None for non-simplicial cells.
    """
    cell_ids = []
    weights = []
    boundary_cols: list[tuple[BoundaryColumn, ...]] = []
    vertex_lists = []
    has_vertices = True
    face_index: dict[str, int] = {}
    for q, specs in enumerate(cells):
        ids = tuple(spec[0] for spec in specs)
        if len(set(ids)) != len(ids):
            raise ComplexInvariantError(f"duplicate cell ids in degree {q}")
        cell_ids.append(ids)
        weights.append(tuple(Fraction(spec[1]) for spec in specs))
        cols = []
        verts = []
        for spec in specs:
            bdry = spec[2]
            if q == 0 and bdry:
                raise ComplexInvariantError("vertices cannot have boundary")
            for fid, _ in bdry:
                if fid not in face_index:
                    raise ComplexInvariantError(f"boundary of {spec[0]} names unknown face {fid!r}")
            col = tuple((face_index[fid], int(inc)) for fid, inc in bdry)
            cols.append(col)
            v = spec[3] if len(spec) > 3 else None
            if v is None:
                has_vertices = False
            else:
                verts.append(tuple(v))
        boundary_cols.append(tuple(cols))
        vertex_lists.append(tuple(verts))
        face_index = {cid: i for i, cid in enumerate(ids)}
    out = WeightedCellComplex(
        kind=kind,
        cell_ids=tuple(cell_ids),
        weights=tuple(weights),
        boundary_cols=tuple(boundary_cols),
        vertex_lists=tuple(vertex_lists) if (has_vertices and kind == "simplicial") else None,
        factor_degrees=tuple(tuple(tags) for tags in factor_degrees) if factor_degrees else None,
    )
    out.validate()
    return out


def simplicial_from_top(
    top_simplices: list[tuple[int, ...]],
    weights: dict[tuple[int, ...], Rational] | None = None,
) -> WeightedCellComplex:
    """Simplicial complex generated by maximal simplices (faces filled in).

    Vertices are integers; every simplex is stored with increasing vertex
    order and the alternating-sign boundary.  ``weights`` overrides the
    weight 1 per sorted vertex tuple.
    """
    weights = weights or {}
    by_degree: list[set[tuple[int, ...]]] = []
    for s in top_simplices:
        s = tuple(sorted(s))
        if len(set(s)) != len(s):
            raise ComplexInvariantError(f"degenerate simplex {s}")
        q = len(s) - 1
        while len(by_degree) <= q:
            by_degree.append(set())
        for k in range(1, q + 2):
            for face in itertools.combinations(s, k):
                by_degree[k - 1].add(face)
    cells: list[list[tuple]] = []
    for q, simplices in enumerate(by_degree):
        ordered = sorted(simplices)
        specs = []
        for vs in ordered:
            w = Fraction(weights.get(vs, 1))
            bdry = []
            for k in range(q + 1):
                face = vs[:k] + vs[k + 1:]
                bdry.append((_simplex_id(face), (-1) ** k))
            specs.append((_simplex_id(vs), w, bdry if q else [], vs))
        cells.append(specs)
    return build_complex("simplicial", cells)


def _simplex_id(vertices: tuple[int, ...]) -> str:
    return "s" + ".".join(str(v) for v in vertices)


def product_complex(K: WeightedCellComplex, L: WeightedCellComplex) -> WeightedCellComplex:
    """Cell-wise product with multiplicative weights and Koszul-sign boundary.

    Product cells keep factor-degree tags, so the result can seed a
    deformation family.  The product is not triangulated: weights multiply
    exactly, cell for cell.
    """
    top = K.top_dim + L.top_dim
    kind = "cubical" if (K.kind == "cubical" and L.kind == "cubical") else "general"
    position: list[dict[tuple[int, int, int], int]] = [dict() for _ in range(top + 1)]
    layout: list[list[tuple[int, int, int]]] = [[] for _ in range(top + 1)]
    for q in range(top + 1):
        for a in range(min(q, K.top_dim) + 1):
            b = q - a
            if b > L.top_dim:
                continue
            for i in range(K.n_cells(a)):
                for j in range(L.n_cells(b)):
                    position[q][(a, i, j)] = len(layout[q])
                    layout[q].append((a, i, j))
    cell_ids = []
    weights = []
    boundary_cols = []
    factor_tags = []
    for q in range(top + 1):
        ids, ws, cols, tags = [], [], [], []
        for (a, i, j) in layout[q]:
            b = q - a
            ids.append(f"({K.cell_ids[a][i]}|{L.cell_ids[b][j]})")
            ws.append(K.weights[a][i] * L.weights[b][j])
            tags.append((a, b))
            col = []
            if a >= 1:
                for face, inc in K.boundary_cols[a][i]:
                    col.append((position[q - 1][(a - 1, face, j)], inc))
            if b >= 1:
                sign = (-1) ** a
                for face, inc in L.boundary_cols[b][j]:
                    col.append((position[q - 1][(a, i, face)], sign * inc))
            cols.append(tuple(col))
        cell_ids.append(tuple(ids))
        weights.append(tuple(ws))
        boundary_cols.append(tuple(cols))
        factor_tags.append(tuple(tags))
    return WeightedCellComplex(
        kind=kind,
        cell_ids=tuple(cell_ids),
        weights=tuple(weights),
        boundary_cols=tuple(boundary_cols),
        vertex_lists=None,
        factor_degrees=tuple(factor_tags),
    )


@dataclass(frozen=True)
class DeformationFamily:
    """One-parameter family over a product complex: weight(cell; t) = t^a * weight.

    ``a`` is the first-factor degree of each cell, so the family rescales
    the first factor's metric while leaving the second fixed.
    """

    base: WeightedCellComplex

    def __post_init__(self):
        if self.base.factor_degrees is None:
            raise ValueError("deformation family needs a factor-tagged product complex")
        for q, tags in enumerate(self.base.factor_degrees):
            for (a, b) in tags:
                if a < 0 or b < 0 or a + b != q:
                    raise ComplexInvariantError("factor tags must split the cell degree")

    def at(self, t: Rational) -> WeightedCellComplex:
        t = Fraction(t)
        if t == 1:
            return self.base
        if t <= 0:
            raise ValueError("scale factor must be positive")
        powers = [t ** a for a in range(self.base.top_dim + 1)]
        return replace(self.base, weights=tuple(
            tuple(w * powers[a] if a else w for w, (a, _) in zip(ws, tags))
            for ws, tags in zip(self.base.weights, self.base.factor_degrees)
        ))


# ---------------------------------------------------------------------------
# Standard constructors
# ---------------------------------------------------------------------------

def point() -> WeightedCellComplex:
    return simplicial_from_top([(0,)])


def circle(k: int, edge_weight: Rational = 1, kind: str = "simplicial") -> WeightedCellComplex:
    """Circle with k vertices and k edges of the given weight."""
    if k < 3:
        raise ValueError("need at least 3 vertices for a simplicial circle")
    edges = [tuple(sorted((i, (i + 1) % k))) for i in range(k)]
    weights = {e: Fraction(edge_weight) for e in edges}
    out = simplicial_from_top(edges, weights=weights)
    if kind == "cubical":
        out = replace(out, kind="cubical", vertex_lists=None)
    return out


def sphere(n: int) -> WeightedCellComplex:
    """n-sphere as the boundary of the (n+1)-simplex, unit weights."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    verts = tuple(range(n + 2))
    tops = list(itertools.combinations(verts, n + 1))
    return simplicial_from_top(tops)


def cubical_sphere(n: int) -> WeightedCellComplex:
    """n-sphere as the boundary of the (n+1)-cube, unit weights.

    Faces are encoded over n+1 coordinates, each fixed to 0/1 or free; the
    boundary alternates signs over the free coordinates.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    dim = n + 1
    faces_by_degree: list[list[tuple]] = [[] for _ in range(n + 1)]
    for fixed_mask in itertools.product((0, 1, None), repeat=dim):
        free = [i for i, v in enumerate(fixed_mask) if v is None]
        if len(free) > n:
            continue  # the solid cube itself is not part of its boundary
        faces_by_degree[len(free)].append(fixed_mask)
    def face_id(mask):
        return "c" + "".join("*" if v is None else str(v) for v in mask)
    cells: list[list[tuple]] = []
    for q, masks in enumerate(faces_by_degree):
        masks.sort(key=lambda m: tuple(-1 if v is None else v for v in m))
        specs = []
        for mask in masks:
            bdry = []
            if q >= 1:
                free = [i for i, v in enumerate(mask) if v is None]
                for pos, coord in enumerate(free):
                    sign = (-1) ** pos
                    hi = list(mask); hi[coord] = 1
                    lo = list(mask); lo[coord] = 0
                    bdry.append((face_id(tuple(hi)), sign))
                    bdry.append((face_id(tuple(lo)), -sign))
            specs.append((face_id(mask), Fraction(1), bdry, None))
        cells.append(specs)
    return build_complex("cubical", cells)


def flat_torus(k: int) -> WeightedCellComplex:
    """Flat torus from a k-by-k grid of unit edges: product of two cubical circles."""
    c = circle(k, kind="cubical")
    return product_complex(c, c)


def torus_triangulated() -> WeightedCellComplex:
    """The standard 9-vertex triangulation of the torus (18 triangles)."""
    def v(i, j):
        return 3 * (i % 3) + (j % 3)
    tris = []
    for i in range(3):
        for j in range(3):
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
    return simplicial_from_top(tris)


def rp2() -> WeightedCellComplex:
    """Minimal 6-vertex triangulation of the real projective plane."""
    tris = [
        (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    return simplicial_from_top(tris)
