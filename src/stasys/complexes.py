"""Finite weighted cell complexes with exact rational cell volumes.

A complex stores, per degree, an ordered list of cells with positive
rational weights and its boundary as sparse (face, incidence) columns, the
one matrix format, which `_faces` alone reads for `validate`, homology, the
Smith form and the LP.  Weights play the role of a piecewise-linear metric:
the mass of a chain is the weighted L1 size of its coefficient vector.  Each
degree's weights are a `Weights` sequence, read as a tuple of Fractions and
also as s·ĉ: ĉ the primitive integer direction of the weights and s > 0 one
rational factor.  A product, a rescaled and a deformed metric are built as
s·ĉ in integers (a new s and, for a product or a deformation, a new integer
ĉ), so they touch no cell weight as a Fraction; the Fractions are made on
first read, one shared object per integer value when s is an integer.

`build_complex`, and so `load_complex` and the CLI, validates a complex once;
the constructors build theirs correct by construction and check only their
arguments.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

Rational = Fraction | int
BoundaryColumn = tuple[tuple[int, int], ...]  # ((face_index, incidence), ...)


class ComplexInvariantError(ValueError):
    """A would-be complex violates a structural invariant."""


# Fraction(n) for an int n, one shared object per n among the last 1024 read
_fraction = lru_cache(maxsize=1024)(Fraction)


@dataclass(frozen=True)
class Chain:
    """Cellular chain: a coefficient vector over the cells of one degree."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            c if type(c) is Fraction else Fraction(c) for c in self.coeffs))

    @classmethod
    def _of_fractions(cls, degree: int, coeffs: tuple[Fraction, ...]) -> "Chain":
        """The chain of coefficients that are all Fractions already, unchecked."""
        vars(chain := object.__new__(cls)).update(degree=degree, coeffs=coeffs)
        return chain

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


class Weights(Sequence):
    """One degree's cell weights: a tuple of Fractions, also carried as s·ĉ.

    Indexing, iteration, ``==``, ``hash`` and ``repr`` are those of the
    tuple of values.  ``split`` is (ĉ, s) with values = s·ĉ, s > 0 and ĉ
    the primitive integer direction (entries of gcd 1).  A Weights is built
    from either side, and the other is computed on first read.
    """

    __slots__ = ("_values", "_split", "_hash")

    def __init__(self, values=None, split: tuple[tuple[int, ...], Fraction] | None = None):
        self._values = None if values is None else tuple(values)
        self._split, self._hash = split, None

    @property
    def values(self) -> tuple[Fraction, ...]:
        if self._values is None:
            chat, s = self._split
            self._values = (tuple(_fraction(s.numerator * c) for c in chat) if s.denominator == 1
                            else tuple(s * c for c in chat))
        return self._values

    @property
    def split(self) -> tuple[tuple[int, ...], Fraction]:
        if self._split is None:
            self._split = _primitive_split(self._values)
        return self._split

    def scaled(self, p: int, r: int) -> "Weights":
        """These weights times p/r > 0, sharing ĉ; s is one Fraction of integers."""
        chat, s = self.split
        return Weights(split=(chat, Fraction(s.numerator * p, s.denominator * r)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Weights):
            other = other.values
        return self.values == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.values)
        return self._hash

    def __repr__(self) -> str:
        return repr(self.values)


def _ratio(t: Rational) -> tuple[int, int]:
    """t > 0 as p/r in lowest terms, read off an int or a Fraction as it stands."""
    p, r = (t if type(t) is int or type(t) is Fraction else Fraction(t)).as_integer_ratio()
    if p <= 0:
        raise ValueError("scale factor must be positive")
    return p, r


def _integer_row(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators of ``values`` over the lcm of their denominators."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    values = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))  # 1: Fractions read as ints, multiplying nothing
    return tuple(v.numerator if d == 1 else v.numerator * (d // v.denominator) for v in values), d


def _primitive_split(values) -> tuple[tuple[int, ...], Fraction]:
    """(ĉ, s) with values = s·ĉ, s > 0 and ĉ integers of gcd 1; s = 1 when all are 0."""
    nums, d = _integer_row(values)
    g = gcd(*nums) or d
    return tuple(v // g for v in nums), Fraction(g, d)


@dataclass(frozen=True)
class WeightedCellComplex:
    """Graded cell complex with integer boundaries and positive weights.

    ``boundary_cols[q][j]`` lists the (face index, incidence) pairs of the
    j-th q-cell; degree 0 has an empty entry.  ``weights[q]`` is a `Weights`
    (plain tuples are wrapped), read cell by cell or as s·ĉ.
    ``vertex_lists`` is present for simplicial complexes and stores each
    cell's vertices in strictly increasing order (the global vertex order
    used by the cup product).  ``factor_degrees`` tags product cells with
    their per-factor degrees.
    """

    kind: str
    cell_ids: tuple[tuple[str, ...], ...]
    weights: tuple[Weights, ...]
    boundary_cols: tuple[tuple[BoundaryColumn, ...], ...]
    vertex_lists: tuple[tuple[tuple[int, ...], ...], ...] | None = None
    factor_degrees: tuple[tuple[tuple[int, int], ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(
            ws if type(ws) is Weights else Weights(ws) for ws in self.weights))
        # what is computed from the structure alone, shared with every
        # reweighting: homology's summary and the norm LPs' tableaux and stop tests
        object.__setattr__(self, "_shared", {})

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

    def _reweighted(self, weights) -> "WeightedCellComplex":
        """The same complex under new `Weights`: every other attribute is
        self's object, ``_shared`` included, so self and all its reweightings
        read one homology summary and norm-LP state, whichever builds them
        first; both depend on the structure alone (LP bases are kept per cost)."""
        out = object.__new__(type(self))
        vars(out).update(vars(self), weights=tuple(weights))
        return out

    def check_chain(self, chain: Chain) -> None:
        """Raise ValueError unless chain has a degree of self and one coefficient per cell of it."""
        if not 0 <= chain.degree <= self.top_dim:
            raise ValueError(f"degree {chain.degree} out of range")
        if len(chain.coeffs) != len(self.cell_ids[chain.degree]):
            raise ValueError(f"degree-{chain.degree} chain has {len(chain.coeffs)} coefficients "
                             f"for {len(self.cell_ids[chain.degree])} cells")

    def boundary_of(self, chain: Chain) -> Chain:
        self.check_chain(chain)
        if chain.degree == 0:
            raise ValueError("degree 0 out of range")
        out = [Fraction(0)] * self.n_cells(chain.degree - 1)
        for j, c in enumerate(chain.coeffs):
            if c:
                for face, inc in self.boundary_cols[chain.degree][j]:
                    out[face] += c * inc
        return Chain(chain.degree - 1, tuple(out))

    def is_cycle(self, chain: Chain) -> bool:
        if chain.degree == 0:
            self.check_chain(chain)
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
        self.check_chain(chain)
        ws = self.weights[chain.degree]
        return sum((abs(c) * w for c, w in zip(chain.coeffs, ws) if c), Fraction(0))

    def rescale(self, t: Rational) -> "WeightedCellComplex":
        """Scale the weights of degree q by t^q; t = 1 gives self.  t = p/r is
        read once, and each degree's new s is one Fraction of integers."""
        p, r = _ratio(t)
        if p == r:
            return self
        return self._reweighted(ws.scaled(p ** q, r ** q) if q else ws for q, ws in enumerate(self.weights))

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
        if not self.cell_ids:
            raise ComplexInvariantError("complex has no degree 0")
        for name, entry in (("weights", "weight"), ("boundary_cols", "boundary column"),
                            ("vertex_lists", "vertex list"), ("factor_degrees", "factor tag")):
            if (table := getattr(self, name)) is None:
                continue
            if len(table) != len(self.cell_ids):
                raise ComplexInvariantError(f"cell_ids has {len(self.cell_ids)} degree(s) but {name} has {len(table)}")
            for q, (ids, per_cell) in enumerate(zip(self.cell_ids, table)):
                if len(per_cell) != len(ids):
                    raise ComplexInvariantError(f"{entry} count mismatch in degree {q}")
        if self.factor_degrees is not None:
            _check_factor_tags(self)
        for q, ws in enumerate(self.weights):
            if any(type(w) not in (int, Fraction) for w in ws):
                raise ComplexInvariantError(f"weight in degree {q} is not an int or a Fraction")
            if min(ws, default=1) <= 0:
                raise ComplexInvariantError(f"non-positive weight in degree {q}")
        if any(self.boundary_cols[0]):
            raise ComplexInvariantError("vertices cannot have boundary")
        faces = [()]  # {face: incidence} of each q-cell, for q >= 1
        for q in range(1, self.top_dim + 1):
            try:
                faces.append(_faces(self.boundary_cols[q], len(self.cell_ids[q - 1])))
            except ValueError:
                raise ComplexInvariantError(f"face index out of range in degree {q}") from None
        # augmentation: the boundary of a 1-cell has total incidence 0
        for j, fs in enumerate(faces[1] if self.top_dim else ()):
            if sum(fs.values()):
                raise ComplexInvariantError(f"boundary of {self.cell_ids[1][j]} does not sum to zero")
        for q in range(2, self.top_dim + 1):
            for fs in faces[q]:
                total = {}
                for face, inc in fs.items():
                    for ridge, inc2 in faces[q - 1][face].items():
                        total[ridge] = total.get(ridge, 0) + inc * inc2
                if any(total.values()):
                    raise ComplexInvariantError(f"boundary of boundary nonzero at degree {q}")
        if self.kind == "simplicial":
            if self.vertex_lists is None:
                raise ComplexInvariantError("simplicial complex needs vertex lists")
            index = self._vertex_index
            for q, per_deg in enumerate(self.vertex_lists):
                for j, vs in enumerate(per_deg):
                    if len(vs) != q + 1 or len(set(vs)) != q + 1:
                        raise ComplexInvariantError(f"cell {self.cell_ids[q][j]} has bad vertex list")
                    if list(vs) != sorted(vs):
                        raise ComplexInvariantError(f"cell {self.cell_ids[q][j]} vertices not sorted")
                    if q >= 1:
                        try:
                            expected = _alternating_faces(vs, index[q - 1])
                        except KeyError as missing:
                            raise ComplexInvariantError(f"missing face {missing.args[0]}") from None
                        # the vertices are distinct, so the faces are: no sign sums away
                        if dict(expected) != faces[q][j]:
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
    weight 1 per sorted vertex tuple.  Each boundary column is read off the
    vertex tuples through one {vertex tuple: index} dict per degree, so the
    complex is correct by construction and only the arguments are checked.
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
            by_degree[k - 1].update(itertools.combinations(s, k))
    if not by_degree:
        raise ComplexInvariantError("complex has no degree 0")
    cell_ids, ws, boundary_cols, vertex_lists = [], [], [], []
    index: dict[tuple[int, ...], int] = {}  # the cells of the degree below
    for q, simplices in enumerate(by_degree):
        ordered = sorted(simplices)
        ids = tuple("s" + ".".join(map(str, vs)) for vs in ordered)
        if len(set(ids)) != len(ids):
            raise ComplexInvariantError(f"duplicate cell ids in degree {q}")
        boundary_cols.append(tuple(_alternating_faces(vs, index) for vs in ordered) if q
                             else ((),) * len(ordered))
        ws.append(Weights(tuple(Fraction(weights[vs]) if vs in weights else _fraction(1) for vs in ordered))
                  if weights else Weights(split=((1,) * len(ordered), _fraction(1))))
        cell_ids.append(ids)
        vertex_lists.append(tuple(ordered))
        index = {vs: i for i, vs in enumerate(ordered)}
    for q, w in enumerate(ws if weights else ()):
        if min(w) <= 0:
            raise ComplexInvariantError(f"non-positive weight in degree {q}")
    return WeightedCellComplex("simplicial", tuple(cell_ids), tuple(ws), tuple(boundary_cols),
                               tuple(vertex_lists))


def product_complex(K: WeightedCellComplex, L: WeightedCellComplex) -> WeightedCellComplex:
    """Cell-wise product with multiplicative weights and Koszul-sign boundary.

    Product cells keep factor-degree tags, so the result can seed a
    deformation family.  The product is not triangulated: weights multiply
    exactly, cell for cell.  Degree q holds one block per split a + b = q,
    the cells (K's a-cell i, L's b-cell j) with j running fastest, so a face
    is placed by block-offset arithmetic.  Each degree's weights are built
    as s·ĉ in integers: the factors' ĉ's multiply, and the block scales
    s_K·s_L go over one common denominator.
    """
    top = K.top_dim + L.top_dim
    kind = "cubical" if (K.kind == "cubical" and L.kind == "cubical") else "general"
    cell_ids, weights, boundary_cols, factor_tags = [], [], [], []
    below: dict[int, int] = {}  # the offset of block a in degree q - 1
    for q in range(top + 1):
        ids, chat, cols, tags, offset = [], [], [], [], {}
        blocks = [(a, q - a) for a in range(max(0, q - L.top_dim), min(q, K.top_dim) + 1)]
        scales = [K.weights[a].split[1] * L.weights[b].split[1] for a, b in blocks]
        den = lcm(*(s.denominator for s in scales))
        for (a, b), s in zip(blocks, scales):
            offset[a] = len(ids)
            na, nb, nb1 = K.n_cells(a), L.n_cells(b), L.n_cells(b - 1)
            ids += [f"({x}|{y})" for x in K.cell_ids[a] for y in L.cell_ids[b]]
            tags += [(a, b)] * (na * nb)
            k, lchat = s.numerator * (den // s.denominator), L.weights[b].split[0]
            chat += [k * x * y for x in K.weights[a].split[0] for y in lchat]
            sign = -1 if a % 2 else 1
            lfaces = [[(f, sign * inc) for f, inc in L.boundary_cols[b][j]] if b else [] for j in range(nb)]
            for i in range(na):
                kfaces = [(below[a - 1] + f * nb, inc) for f, inc in K.boundary_cols[a][i]] if a else []
                lbase = below[a] + i * nb1 if b else 0
                cols += [tuple([(f + j, inc) for f, inc in kfaces] + [(lbase + f, inc) for f, inc in lcol])
                         for j, lcol in enumerate(lfaces)]
        g = gcd(*chat) or den
        cell_ids.append(tuple(ids))
        weights.append(Weights(split=(tuple(x // g for x in chat), Fraction(g, den))))
        boundary_cols.append(tuple(cols))
        factor_tags.append(tuple(tags))
        below = offset
    return WeightedCellComplex(
        kind=kind,
        cell_ids=tuple(cell_ids),
        weights=tuple(weights),
        boundary_cols=tuple(boundary_cols),
        vertex_lists=None,
        factor_degrees=tuple(factor_tags),
    )


def _alternating_faces(vs: tuple[int, ...], index: dict[tuple[int, ...], int]) -> BoundaryColumn:
    """The boundary column of the simplex vs: its k-th face, vs without vertex
    k, found in ``index``, with sign (-1)^k; a missing face is a KeyError."""
    return tuple((index[vs[:k] + vs[k + 1:]], -1 if k % 2 else 1) for k in range(len(vs)))


def _faces(columns, nrows: int) -> list[dict[int, int]]:
    """Each (row, value) column as {row: value}, a row named twice summed and
    zeros dropped: the one reader of the boundary format.  A row outside
    [0, nrows) is a ValueError naming the column and the row."""
    if any(columns) and not (0 <= min(itertools.chain(*columns))[0]
                             and max(itertools.chain(*columns))[0] < nrows):
        j, i = next((j, i) for j, col in enumerate(columns) for i, _ in col if not 0 <= i < nrows)
        raise ValueError(f"column {j} names row {i}, outside [0, {nrows})")
    out = []
    for col in columns:
        summed = dict(col)
        if len(summed) < len(col) or 0 in summed.values():
            summed = {}
            for i, x in col:
                summed[i] = summed.get(i, 0) + x
            summed = {i: x for i, x in summed.items() if x}
        out.append(summed)
    return out


def _check_factor_tags(K: WeightedCellComplex) -> None:
    """One factor tag (a, b) per cell of K, with a, b >= 0 and a + b = q on a q-cell."""
    for q, (ids, tags) in enumerate(itertools.zip_longest(K.cell_ids, K.factor_degrees, fillvalue=())):
        if len(tags) != len(ids):
            raise ComplexInvariantError(f"factor tag count mismatch in degree {q}")
        if any(a < 0 or b < 0 or a + b != q for a, b in tags):
            raise ComplexInvariantError("factor tags must split the cell degree")


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
        _check_factor_tags(self.base)

    def at(self, t: Rational) -> WeightedCellComplex:
        """The base with each cell's weight times t^a, built in integers.

        With t = p/r and weights s·ĉ, a q-cell of first-factor degree a
        weighs (s/r^q)·ĉ·p^a·r^(q-a): the integers m = ĉ·p^a·r^(q-a) over
        their gcd g are the new ĉ, and s·g/r^q the new s, one Fraction.
        """
        p, r = _ratio(t)
        if p == r:
            return self.base
        weights = [self.base.weights[0]]
        for q in range(1, self.base.top_dim + 1):
            chat, s = self.base.weights[q].split
            powers = [p ** a * r ** (q - a) for a in range(q + 1)]
            m = [c * powers[a] for c, (a, _) in zip(chat, self.base.factor_degrees[q])]
            g = gcd(*m)
            s = Fraction(s.numerator * g, s.denominator * r ** q)
            weights.append(Weights(split=(tuple(v // g for v in m), s)))
        return self.base._reweighted(weights)


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

    Faces are encoded over n+1 coordinates, each fixed to 0/1 or free (None);
    the boundary alternates signs over the free coordinates, and each column
    is read off the masks through one {mask: index} dict per degree.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    by_degree: list[list[tuple]] = [[] for _ in range(n + 2)]
    for mask in sorted(itertools.product((0, 1, None), repeat=n + 1),
                       key=lambda m: tuple(-1 if v is None else v for v in m)):
        by_degree[mask.count(None)].append(mask)
    cell_ids, boundary_cols = [], []
    index: dict[tuple, int] = {}  # the cells of the degree below
    for masks in by_degree[:-1]:  # the solid cube itself is not part of its boundary
        # free coordinate number pos: the face at 1 with sign (-1)^pos, at 0 with the opposite
        boundary_cols.append(tuple(
            tuple((index[m[:c] + (x,) + m[c + 1:]], (-1) ** (pos + x + 1))
                  for pos, c in enumerate(c for c, v in enumerate(m) if v is None) for x in (1, 0))
            for m in masks))
        cell_ids.append(tuple("c" + "".join("*" if v is None else str(v) for v in m) for m in masks))
        index = {m: i for i, m in enumerate(masks)}
    weights = tuple(Weights(split=((1,) * len(ids), _fraction(1))) for ids in cell_ids)
    return WeightedCellComplex("cubical", tuple(cell_ids), weights, tuple(boundary_cols))


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
