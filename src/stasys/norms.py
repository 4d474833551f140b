"""Stable norms and stable systoles by exact rational linear programming.

The stable norm of a rational homology class is the minimum mass over the
cellular cycles representing it.  Every such question is one LP over the
q-cells alone (`minimum_mass_cycle`): the cycle rows ``∂x = 0`` plus one
row per rational coordinate of the class, with the L1 mass linearized by
the usual sign split ``x = x+ - x-``.  The rows depend on the structure
alone, so their tableau is crashed once per (structure, q); a class sets
only its right-hand sides and costs.  In a degree with no (q+1)-cells a
class holds exactly one cycle, whose mass is its norm without an LP.  Each
norm carries a dual certificate (Federer's comass duality): a cocycle f
with |f| <= w on every q-cell and f = λ on the generators, so
``‖h‖ >= |λ.h|`` for every class h.  Stable systoles minimize the stable
norm over nonzero integral classes: exactly for one-dimensional homology,
and otherwise by a lattice search that these bounds prune and certify.
The search stops once L(h) = max_k |λ_k.h| is large enough on the
max-norm unit sphere, which b LPs of the same sign-split L1 shape decide:
the least sum |μ_k| with sum μ_k λ_k = e_j, one per coordinate j.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .complexes import Chain, WeightedCellComplex, product_complex
from .homology import HomologyClass, HomologySummary, homology
from .lp import Infeasible, prepare, solve_lp

Rational = Fraction | int


@dataclass(frozen=True)
class StableNormResult:
    value: Fraction
    optimal_cycle: Chain
    certificate: str  # "optimal-LP" | "unique-cycle" | "trivial-zero-class"
    dual: tuple[Fraction, ...] | None = None  # λ, one entry per generator
    cocycle: tuple[Fraction, ...] | None = None  # f on the q-cells


@dataclass(frozen=True)
class SystoleResult:
    value: Fraction | None
    witness_class: tuple[int, ...] | None
    search_status: str  # "trivial" | "exact" | "certified" | "bounded-search(R)"

    @property
    def is_trivial(self) -> bool:
        return self.search_status == "trivial"

    @property
    def upper_bound_only(self) -> bool:  # the radius cap was hit before certification
        return self.search_status.startswith("bounded-search")


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
    status: str  # "pass" | "fail" | "inapplicable" | "inconclusive"
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
        # no boundaries: the class holds one cycle z, and f = w.sign(z) is a cocycle
        z = summary.representative(cls)
        f = tuple(w * ((c > 0) - (c < 0)) for c, w in zip(z.coeffs, K.weights[q]))
        dual = tuple(sum(map(operator.mul, f, g.coeffs)) for g in summary.generators[q])
        return StableNormResult(K.mass(z), z, "unique-cycle", dual, f)
    value, cycle, dual, f = minimum_mass_cycle(K, summary, cls)
    return StableNormResult(value, cycle, "optimal-LP", dual, f)


def minimum_mass_cycle(
    K: WeightedCellComplex, summary: HomologySummary, cls: HomologyClass
) -> tuple[Fraction, Chain, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Least mass in cls, a cycle attaining it, λ and f; summary is homology(K).

    One LP over the q-cells alone: x = x+ - x- with x+, x- >= 0 and cost
    w.(x+ + x-), constrained by ``∂_q x = 0`` and by one row per coordinate
    of the rational coordinate map, on the tableau kept in summary.tableaux.
    Its feasible set is exactly the cycles in the class, because a cycle
    with zero coordinates bounds rationally.  λ is the dual of the
    coordinate rows, and f(σ) = w(σ) - (reduced cost of σ+).
    """
    q = cls.degree
    nq = K.n_cells(q)
    tab = summary.tableaux.get(q)
    if tab is None:
        rows = [*(K.boundary_matrix(q) if q else []), *summary.coordinate_maps[q]]
        b = [0] * (len(rows) - len(cls.coords)) + [1] * len(cls.coords)
        tab = summary.tableaux[q] = prepare([[*row, *(-v for v in row)] for row in rows], b)
    ncycle = len(tab) - len(cls.coords)
    ws = K.weights[q]
    value, x, y, reduced = solve_lp(tab, [0] * ncycle + list(cls.coords), list(ws) * 2)
    cycle = Chain(q, tuple(xp - xm if xm else xp for xp, xm in zip(x, x[nq:])))
    f = tuple(w - d if d else w for w, d in zip(ws, reduced))
    return value, cycle, tuple(y[ncycle:]), f


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

    duals = []  # every λ found; ‖h‖ >= L(h) = max_k |λ_k.h| for all h
    best: Fraction | None = None
    witness: tuple[int, ...] | None = None
    for r in range(1, search_radius + 1):
        for v in _primitive_vectors(b, r):
            if best is not None and _dual_bound(duals, v) >= best:
                continue  # cannot improve on best
            res = stable_norm(K, HomologyClass(q, v))
            duals.append(res.dual)
            if best is None or res.value < best:
                best = res.value
                witness = v
        # every class left has max-norm >= r+1, so its norm is at least
        # (r+1) times the least L on the max-norm unit sphere
        if _bounds_sphere(duals, b, best / (r + 1)):
            return SystoleResult(best, witness, "certified")
    return SystoleResult(best, witness, f"bounded-search({search_radius})")


def _dual_bound(duals, v) -> Fraction:
    return max((abs(sum(map(operator.mul, lam, v))) for lam in duals), default=Fraction(0))


def _bounds_sphere(duals, b: int, level: Fraction) -> bool:
    """Whether L(h) = max_k |λ_k.h| >= level on the max-norm unit sphere.

    The unit vectors e_j are tried first.  L is positively homogeneous, so
    the claim holds exactly when every h with L(h) <= 1 has |h_j| <= 1/level.
    By LP duality the largest h_j there is the least sum of |μ_k| over μ
    with sum μ_k λ_k = e_j: a b-row program in the sign split μ = μ+ - μ-.
    It is infeasible when the λ's do not span, i.e. when L vanishes somewhere.
    """
    if any(max(abs(lam[j]) for lam in duals) < level for j in range(b)):
        return False
    a = [[lam[i] for lam in duals] + [-lam[i] for lam in duals] for i in range(b)]
    ones = [1] * (2 * len(duals))
    try:
        return all(solve_lp(a, [int(i == j) for i in range(b)], ones)[0] * level <= 1
                   for j in range(b))
    except Infeasible:
        return level <= 0


def _primitive_vectors(dim: int, radius: int):
    """Primitive integer vectors with max-norm exactly radius, up to sign."""
    for v in itertools.product(range(-radius, radius + 1), repeat=dim):
        # norms are symmetric under negation: keep v whose first nonzero is positive
        if max(map(abs, v)) == radius and next(x for x in v if x) > 0 and math.gcd(*v) == 1:
            yield v


# ---------------------------------------------------------------------------
# Verification reports for the scaling, product, projection and map bounds
# ---------------------------------------------------------------------------

def _law_status(holds: bool, searches) -> str:
    """pass or fail; inconclusive when a systole in the law is only an upper bound."""
    if any(res.upper_bound_only for res in searches):
        return "inconclusive"
    return "pass" if holds else "fail"


def verify_rescaling(K: WeightedCellComplex, q: int, t: Rational) -> VerificationReport:
    """Scaling the metric by t^2 must scale the degree-q systole by t^q."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    searches = stable_systole(K, q), stable_systole(K.rescale(t), q)
    base, scaled = (systole_value(res, q) for res in searches)
    expected = t ** q * base
    status = _law_status(scaled == expected, searches)
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
    searches = (stable_systole(K, p), stable_systole(L, q),
                stable_systole(product_complex(K, L), p + q))
    sk, sl, sp = (systole_value(res, d) for res, d in zip(searches, (p, q, p + q)))
    status = _law_status(sp <= sk * sl, searches)
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
    cross_terms = sum(betti(bk, q - j) * bl[j] for j in range(1, min(q + 1, len(bl))))
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
    searches = stable_systole(product_complex(K, L), q), stable_systole(K, q)
    sp, sk = (systole_value(res, q) for res in searches)
    status = _law_status(sp == sk, searches)
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
    for (v,) in K.vertex_lists[0]:
        if v not in vertex_map:
            raise ValueError(f"vertex map gives no image for source vertex {v}")
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
    if not 0 <= q <= L.top_dim or hk.betti[q] == 0 or hl.betti[q] == 0:
        raise ValueError(f"trivial homology in degree {q}")
    pushed = [hl.class_coordinates(L, push_chain(info, g)) for g in hk.generators[q]]
    from .linalg import rank
    mono = rank([list(map(Fraction, row)) for row in pushed]) == hk.betti[q]
    if not mono or info.degree_bound == 0:  # a degree-0 map bounds nothing above
        return VerificationReport(
            name="degree-sandwich",
            lhs=None,
            rhs=None,
            relation="<=",
            status="inapplicable",
            details={"reason": "map is not injective on degree-%d rational homology" % q
                     if not mono else "map has degree 0"},
        )
    searches = stable_systole(L, q), stable_systole(K, q)
    sl, sk = (systole_value(res, q) for res in searches)
    d = info.degree_bound
    return VerificationReport(
        name="degree-sandwich",
        lhs=sk,
        rhs=d * sl,
        relation="sandwich",
        status=_law_status(sl <= sk <= d * sl, searches),
        details={"lower": sl, "pulled-back": sk, "degree-bound": d},
    )
