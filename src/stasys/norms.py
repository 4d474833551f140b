"""Stable norms and stable systoles by exact rational linear programming.

The stable norm of a rational homology class is the minimum mass over the
cellular cycles representing it.  Every such question is one LP over the
q-cells alone (`minimum_mass_cycle`): the cycle rows ``∂x = 0`` plus one
row per rational coordinate of the class, with the L1 mass linearized by
the usual sign split ``x = x+ - x-``.  The slab constants of the systole
certificate are the same LP with a single coordinate row.  In a degree
with no (q+1)-cells a class holds exactly one cycle, whose mass is its
norm without an LP.  Stable systoles minimize the stable norm over nonzero
integral classes: exactly for one-dimensional homology, and by a certified
lattice box search otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .complexes import Chain, WeightedCellComplex, product_complex
from .homology import HomologyClass, HomologySummary, homology
from .lp import solve_lp

Rational = Fraction | int


@dataclass(frozen=True)
class StableNormResult:
    value: Fraction
    optimal_cycle: Chain
    certificate: str  # "optimal-LP" | "unique-cycle" | "trivial-zero-class"


@dataclass(frozen=True)
class SystoleResult:
    value: Fraction | None
    witness_class: tuple[int, ...] | None
    search_status: str  # "trivial" | "exact" | "certified" | "bounded-search(R)"

    @property
    def is_trivial(self) -> bool:
        return self.search_status == "trivial"


def systole_value(res: SystoleResult, q: int) -> Fraction:
    """The systole's value; ValueError when homology is trivial or no class was searched."""
    if res.is_trivial:
        raise ValueError(f"stable systole is trivial in degree {q}")
    if res.value is None:
        raise ValueError(f"systole search in degree {q} did not run ({res.search_status})")
    return res.value


@dataclass(frozen=True)
class VerificationReport:
    name: str
    lhs: Fraction | None
    rhs: Fraction | None
    relation: str
    status: str  # "pass" | "fail" | "inapplicable"
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def stable_norm(K: WeightedCellComplex, cls: HomologyClass) -> StableNormResult:
    """Minimum mass over rational cycles in the class (exact LP optimum)."""
    summary = homology(K)
    q = cls.degree
    if not 0 <= q <= K.top_dim:
        raise ValueError(f"degree {q} out of range")
    if len(cls.coords) != summary.betti[q]:
        raise ValueError("coordinate vector has wrong length")
    if cls.is_zero():
        return StableNormResult(Fraction(0), K.zero_chain(q), "trivial-zero-class")
    if K.n_cells(q + 1) == 0:
        # no boundaries in degree q: the class holds exactly one cycle
        z = summary.representative(cls)
        return StableNormResult(K.mass(z), z, "unique-cycle")
    cmap = summary.coordinate_maps[q]
    cycle = minimum_mass_cycle(K, q, list(zip(cmap, cls.coords)))
    return StableNormResult(K.mass(cycle), cycle, "optimal-LP")


def minimum_mass_cycle(
    K: WeightedCellComplex,
    q: int,
    rows: list[tuple[tuple[Fraction, ...], Fraction]],
) -> Chain:
    """Mass-minimal q-cycle x subject to ``coeffs . x = target`` for each row.

    One LP over the q-cells alone: x = x+ - x- with x+, x- >= 0 and cost
    w.(x+ + x-), constrained by the nonzero rows of ``∂_q x = 0`` and by
    the given rows.  With the rows of the rational coordinate map and a
    class's coordinates, the feasible set is exactly the cycles in that
    class, because a cycle with zero coordinates bounds rationally.
    """
    nq = K.n_cells(q)
    cycle_rows = [row for row in K.boundary_matrix(q) if any(row)] if q else []
    a = [list(r) + [-v for v in r] for r in cycle_rows + [c for c, _ in rows]]
    b = [0] * len(cycle_rows) + [target for _, target in rows]
    _value, x = solve_lp(a, b, list(K.weights[q]) * 2)
    return Chain(q, tuple(x[i] - x[nq + i] for i in range(nq)))


def stable_systole(K: WeightedCellComplex, q: int, search_radius: int = 5) -> SystoleResult:
    """Least stable norm among integral classes with nonzero rational image."""
    if search_radius < 0:
        raise ValueError(f"search radius must be at least 0, not {search_radius}")
    summary = homology(K)
    if q < 0 or q > K.top_dim or summary.betti[q] == 0:
        return SystoleResult(None, None, "trivial")
    b = summary.betti[q]
    if b == 1:
        res = stable_norm(K, HomologyClass(q, (Fraction(1),)))
        return SystoleResult(res.value, (1,), "exact")

    slab = [_slab_constant(K, summary, q, i) for i in range(b)]
    floor = min(slab)
    best: Fraction | None = None
    witness: tuple[int, ...] | None = None
    seen_radius = 0
    for r in range(1, search_radius + 1):
        for v in _primitive_vectors(b, r, seen_radius):
            res = stable_norm(K, HomologyClass(q, tuple(Fraction(x) for x in v)))
            if best is None or res.value < best:
                best = res.value
                witness = v
        seen_radius = r
        if best is not None and best <= r * floor:
            return SystoleResult(best, witness, "certified")
    return SystoleResult(best, witness, f"bounded-search({search_radius})")


def _slab_constant(K, summary: HomologySummary, q: int, i: int) -> Fraction:
    """Least mass of a cycle whose i-th rational coordinate is exactly 1."""
    cmap = summary.coordinate_maps[q]
    return K.mass(minimum_mass_cycle(K, q, [(cmap[i], Fraction(1))]))


def _primitive_vectors(dim: int, radius: int, skip_radius: int):
    """Primitive integer vectors with max-norm in (skip_radius, radius]."""
    rng = range(-radius, radius + 1)
    for v in itertools.product(rng, repeat=dim):
        m = max(abs(x) for x in v) if v else 0
        if m == 0 or m <= skip_radius:
            continue
        first = next(x for x in v if x != 0)
        if first < 0:
            continue  # norms are symmetric under negation
        if math.gcd(*[abs(x) for x in v]) != 1:
            continue
        yield v


# ---------------------------------------------------------------------------
# Verification reports for the scaling, product, projection and map bounds
# ---------------------------------------------------------------------------

def verify_rescaling(K: WeightedCellComplex, q: int, t: Rational) -> VerificationReport:
    """Scaling the metric by t^2 must scale the degree-q systole by t^q."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    base = systole_value(stable_systole(K, q), q)
    scaled = systole_value(stable_systole(K.rescale(t), q), q)
    expected = t ** q * base
    status = "pass" if scaled == expected else "fail"
    return VerificationReport(
        name="rescaling-law",
        lhs=scaled,
        rhs=expected,
        relation="==",
        status=status,
        details={"t": t, "q": q, "base": base},
    )


def verify_product_inequality(
    K: WeightedCellComplex, L: WeightedCellComplex, p: int, q: int
) -> VerificationReport:
    """Systole of a product is at most the product of factor systoles."""
    sk = systole_value(stable_systole(K, p), p)
    sl = systole_value(stable_systole(L, q), q)
    sp = systole_value(stable_systole(product_complex(K, L), p + q), p + q)
    status = "pass" if sp <= sk * sl else "fail"
    return VerificationReport(
        name="product-inequality",
        lhs=sp,
        rhs=sk * sl,
        relation="<=",
        status=status,
        details={"p": p, "q": q},
    )


def verify_projection_equality(
    K: WeightedCellComplex, L: WeightedCellComplex, q: int
) -> VerificationReport:
    """Product with a homologically silent factor keeps the systole equal.

    Applicable when degree-q homology of the product comes entirely from
    (q, 0) tensor terms with L connected; otherwise reported inapplicable.
    """
    bk = homology(K).betti
    bl = homology(L).betti
    def betti(bs, i):
        return bs[i] if 0 <= i < len(bs) else 0
    cross_terms = sum(betti(bk, q - j) * betti(bl, j) for j in range(1, q + 1))
    ok = betti(bl, 0) == 1 and betti(bk, q) > 0 and cross_terms == 0
    if not ok:
        return VerificationReport(
            name="projection-equality",
            lhs=None,
            rhs=None,
            relation="==",
            status="inapplicable",
            details={"reason": "Kunneth hypothesis violated in degree %d" % q},
        )
    sp = systole_value(stable_systole(product_complex(K, L), q), q)
    sk = systole_value(stable_systole(K, q), q)
    status = "pass" if sp == sk else "fail"
    return VerificationReport(
        name="projection-equality",
        lhs=sp,
        rhs=sk,
        relation="==",
        status=status,
        details={"q": q},
    )


# ---------------------------------------------------------------------------
# Non-degenerate simplicial maps and the degree-bound sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialMapInfo:
    source: WeightedCellComplex
    target: WeightedCellComplex
    vertex_map: tuple[tuple[int, int], ...]
    degree_bound: int

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.vertex_map)


def simplicial_map(
    K: WeightedCellComplex, L: WeightedCellComplex, vertex_map: dict[int, int]
) -> SimplicialMapInfo:
    """Validate a vertex map as a non-degenerate simplicial map and bound its degree."""
    if K.vertex_lists is None or L.vertex_lists is None:
        raise ValueError("both complexes must be simplicial")
    if K.top_dim != L.top_dim:
        raise ValueError("source and target must share the top dimension")
    for q, per_deg in enumerate(K.vertex_lists):
        for vs in per_deg:
            images = [vertex_map[v] for v in vs]
            if len(set(images)) != len(images):
                raise ValueError(f"map degenerates simplex {vs}")
            if L.cell_by_vertices(tuple(sorted(images))) is None:
                raise ValueError(f"image of simplex {vs} is not a simplex of the target")
    d = _degree_bound(K, L, vertex_map)
    return SimplicialMapInfo(
        source=K,
        target=L,
        vertex_map=tuple(sorted(vertex_map.items())),
        degree_bound=d,
    )


def push_chain(info: SimplicialMapInfo, chain: Chain) -> Chain:
    """Chain-level pushforward; degenerate cells (none here) would map to 0."""
    return Chain(chain.degree, tuple(_pushed_coeffs(info.source, info.target, info.mapping, chain)))


def _pushed_coeffs(K, L, vm: dict[int, int], chain: Chain) -> list[Fraction]:
    """Coefficients on L's cells of the image of a chain of K under vertex map vm."""
    out = [Fraction(0)] * L.n_cells(chain.degree)
    for j, c in enumerate(chain.coeffs):
        if not c:
            continue
        vs = K.vertex_lists[chain.degree][j]
        images = [vm[v] for v in vs]
        target = L.cell_by_vertices(tuple(sorted(images)))
        out[target] += c * _permutation_sign(images)
    return out


def _degree_bound(K, L, vertex_map) -> int:
    """Largest absolute local degree over the target's top cells."""
    n = L.top_dim
    hk, hl = homology(K), homology(L)
    if hk.betti[n] != 1 or hl.betti[n] != 1:
        raise ValueError("degree needs one-dimensional top homology on both sides")
    zk = hk.generators[n][0]
    zl = hl.generators[n][0]
    pushed = _pushed_coeffs(K, L, vertex_map, zk)
    degrees = set()
    for pe, ze in zip(pushed, zl.coeffs):
        if ze == 0:
            if pe != 0:
                raise ValueError("pushforward misses the target fundamental cycle")
            continue
        d = pe / ze
        if d.denominator != 1:
            raise ValueError("non-integral local degree")
        degrees.add(int(d))
    return max(abs(d) for d in degrees) if degrees else 0


def _permutation_sign(seq: list[int]) -> int:
    sign = 1
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def pullback_weights(info: SimplicialMapInfo) -> WeightedCellComplex:
    """Give each source cell the weight of its image cell in the target."""
    K, L = info.source, info.target
    vm = info.mapping
    new_weights = []
    for q, per_deg in enumerate(K.vertex_lists):
        ws = []
        for vs in per_deg:
            images = tuple(sorted(vm[v] for v in vs))
            ws.append(L.weights[q][L.cell_by_vertices(images)])
        new_weights.append(tuple(ws))
    return replace(K, weights=tuple(new_weights))


def verify_degree_sandwich(info: SimplicialMapInfo, q: int) -> VerificationReport:
    """With pulled-back weights, the source systole sits between the target
    systole and its degree-bound multiple."""
    K = pullback_weights(info)
    L = info.target
    hk, hl = homology(K), homology(L)
    if hk.betti[q] == 0 or hl.betti[q] == 0:
        raise ValueError(f"trivial homology in degree {q}")
    pushed = [hl.class_coordinates(L, push_chain(info, g)) for g in hk.generators[q]]
    from .linalg import rank
    mono = rank([list(map(Fraction, row)) for row in pushed]) == hk.betti[q]
    if not mono:
        return VerificationReport(
            name="degree-sandwich",
            lhs=None,
            rhs=None,
            relation="<=",
            status="inapplicable",
            details={"reason": "map is not injective on degree-%d rational homology" % q},
        )
    sl = systole_value(stable_systole(L, q), q)
    sk = systole_value(stable_systole(K, q), q)
    d = info.degree_bound
    ok = sl <= sk <= d * sl
    return VerificationReport(
        name="degree-sandwich",
        lhs=sk,
        rhs=d * sl,
        relation="sandwich",
        status="pass" if ok else "fail",
        details={"lower": sl, "pulled-back": sk, "degree-bound": d},
    )
