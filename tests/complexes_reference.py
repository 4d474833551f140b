"""Reference builders for ``stasys.complexes.simplicial_from_top``,
``stasys.complexes.product_complex`` and ``stasys.complexes.cubical_sphere``.

These are the builders the library ran before it built complexes from
integers: `simplicial_from_top` and `cubical_sphere` format each face's
string id and resolve it again in `build_complex`, which validates the
result, and `product_complex` places each face through an ``(a, i, j)``
position dict and multiplies the factors' weights as Fractions, cell by
cell.  The library must build the very same complex, field for field.  Kept
here, outside ``src/``, only as an oracle for the tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from stasys.complexes import ComplexInvariantError, Rational, WeightedCellComplex, build_complex


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
