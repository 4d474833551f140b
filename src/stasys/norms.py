"""Stable norms and stable systoles by exact rational linear programming.

The stable norm of a rational homology class is the minimum mass over the
cellular cycles representing it.  Every such question is one LP over the
q-cells alone (`minimum_mass_cycle`): the cycle rows ``∂x = 0`` plus one
row per rational coordinate of the class, with the L1 mass linearized by
the usual sign split ``x = x+ - x-``.  Its sparse tableau, built from the
q-cells' ``boundary_cols``, depends on the structure alone and is crashed
once per degree q into ``K._shared``, the slot a complex shares with its
reweightings; a class sets only its right-hand sides and costs.  A metric
scaled by s scales every norm and λ by s, so every norm LP is costed by
the weights' primitive integer direction ĉ (weights = s·ĉ, as the complex
carries them) and its answer scaled by s: the tableau then answers a class
inside the cone of an optimal basis it recorded for ĉ without pivoting
(see `stasys.lp`), for the weights themselves and for any positive
multiple of them, such as a rescaled metric.  Norms and systoles do not
depend on which classes or metrics were solved before; where the optimum
is degenerate, the optimal cycle and λ returned may, and each is still a
valid certificate.  In a degree with no (q+1)-cells a class holds exactly
one cycle, whose mass is its norm without an LP, read in integers and in
units of ĉ by `stable_norm` and the search alike.  Each norm carries a dual
certificate (Federer's comass duality): a cocycle f with |f| <= w on every
q-cell and f = λ on the generators, so ``‖h‖ >= |λ.h|`` for every class h.
Stable systoles minimize the stable norm over nonzero integral classes:
exactly for one-dimensional homology, and otherwise by a lattice search
that these bounds prune and certify.  The search runs wholly in units of ĉ
and in integers: it reads each class's value and λ as numerators over one
denominator, straight off a recorded LP basis (a unique cycle's over 1),
compares by cross-multiplication, and builds one Fraction, the least norm
times s, at the end.  It resolves the norm LP's tableau, cost and recorded
bases once, and runs `_lookup` only for a class no recorded cone holds. It
stops once L(h) = max_k |λ_k.h| is large enough on the max-norm unit
sphere, which M, the largest h_j with L(h) <= 1, decides: b LPs of the
same sign-split L1 shape, the least sum |μ_k| with sum μ_k λ_k = e_j, one
per coordinate j, solved once per λ set on one throwaway tableau.
The same slot keeps M per λ set (the newest STOP_TESTS_KEPT), so a kept
stop test is one cross-multiplication.  A search repeated on the same
complex, or on a reweighting of it (`rescale`, `DeformationFamily.at`,
`pullback_weights`) in the same weight direction, finds every class in a
recorded cone and its stop test kept, and runs no LP lookup.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .complexes import Chain, WeightedCellComplex, Weights, _integer_row, product_complex
from .homology import HomologyClass, HomologySummary, class_coordinates, homology
from .linalg import rank
from .lp import _ZERO, Infeasible, _lookup, prepare

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
    """Minimum mass over rational cycles in the class: an exact LP optimum, or its one cycle's."""
    summary = _checked(K, cls)
    q = cls.degree
    if cls.is_zero():
        return StableNormResult(Fraction(0), K.zero_chain(q), "trivial-zero-class")
    if K.n_cells(q + 1) == 0:  # as `_class_norm` reads it, over the coordinates' denominator d
        (chat, s), (nums, d) = K.weights[q].split, _integer_row(cls.coords)
        z, f, lam = _unique_cycle(summary, q, nums, chat)
        cycle = Chain._of_fractions(q, tuple(Fraction(v, d) for v in z))
        return StableNormResult(s * Fraction(sum(map(operator.mul, f, z)), d), cycle,
                                "unique-cycle", tuple(s * v for v in lam), tuple(s * v for v in f))
    value, cycle, dual, f = _minimum_mass_cycle(K, cls)
    return StableNormResult(value, cycle, "optimal-LP", dual, f)


def _checked(K: WeightedCellComplex, cls: HomologyClass) -> HomologySummary:
    """homology(K), once cls has a degree of K and one coordinate per Betti number."""
    if not 0 <= cls.degree <= K.top_dim:
        raise ValueError(f"degree {cls.degree} out of range")
    summary = homology(K)
    if len(cls.coords) != summary.betti[cls.degree]:
        raise ValueError("coordinate vector has wrong length")
    return summary


def _unique_cycle(summary: HomologySummary, q: int, coords, chat):
    """With no (q+1)-cells, the class with integer coordinates c holds one
    cycle z = sum_k c_k g_k: z, the cocycle f = ĉ.sign(z) for the weights'
    integer direction ĉ, and λ̂ = f on the generators, all ints.  The class
    c/d on weights s·ĉ has norm s·(f.z)/d, cycle z/d, λ = s·λ̂ and cocycle s·f."""
    gens = summary.integer_generators[q]
    z = [sum(map(operator.mul, coords, col)) for col in zip(*gens)]
    f = tuple(w * ((c > 0) - (c < 0)) for c, w in zip(z, chat))
    return z, f, tuple(sum(map(operator.mul, f, g)) for g in gens)


def minimum_mass_cycle(K: WeightedCellComplex, cls: HomologyClass
                       ) -> tuple[Fraction, Chain, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Least mass in cls, a cycle attaining it, λ and f; cls is checked as in `stable_norm`.

    One LP over the q-cells alone: x = x+ - x- with x+, x- >= 0 and cost
    w.(x+ + x-), constrained by ``∂_q x = 0`` and by one row per coordinate
    of homology(K)'s coordinate map, on K's tableau (see `_norm_lp`).
    The LP is costed by ĉ, for weights w = s·ĉ, and its value, λ and f are
    scaled by s, so the weights times any t > 0 reuse the bases recorded
    for ĉ.  Its feasible set is exactly the cycles in the class, because a
    cycle with zero coordinates bounds rationally.  With ŷ its dual, λ =
    s·ŷ on the coordinate rows and f = s·(A^T ŷ) on the x+ columns, read off
    `_lookup`'s basis for cls.coords, with the cycle's nonzeros (-v on x-).
    """
    _checked(K, cls)
    return _minimum_mass_cycle(K, cls)


def _minimum_mass_cycle(K: WeightedCellComplex, cls: HomologyClass):
    """`minimum_mass_cycle` of a class already checked against K."""
    q = cls.degree
    nq = K.n_cells(q)
    chat, s = K.weights[q].split
    tab, c = _norm_lp(K, q, chat)
    optimum, levels, bn, d = _lookup(tab, cls.coords, c)
    value = Fraction(sum(map(operator.mul, optimum.ynum, bn)), optimum.yden * d)
    dual, f = optimum.y[-len(cls.coords):], optimum.load[:nq]
    if s != 1:  # a warm norm on weights that are their own ĉ multiplies nothing
        value, dual, f = value * s, tuple(v * s for v in dual), tuple(v * s for v in f)
    cycle = [_ZERO] * nq
    for (j, _, den), v in zip(optimum.rows, levels):
        if v:  # x+ and x- of a cell are opposite columns: a basis holds one at most
            v = v if j < nq else -v
            cycle[j % nq] = Fraction(v) if den * d == 1 else Fraction(v, den * d)
    return value, Chain._of_fractions(q, tuple(cycle)), dual, f


def _norm_lp(K: WeightedCellComplex, q: int, weights):
    """(tableau, cost) of K's degree-q norm LP, costed by these q-cell weights:
    the tableau kept in K._shared under ("norm tableau", q), prepared here on
    first use from homology(K).  Its open rows are the coordinate rows, so a
    class's coordinates are `_lookup`'s right-hand side and y on them is λ."""
    tab = K._shared.get(("norm tableau", q))
    if tab is None:
        nb, cmap = K.n_cells(q - 1), homology(K).coordinate_maps[q]
        cols = [[*col, *((nb + k, row[j]) for k, row in enumerate(cmap) if row[j])]
                for j, col in enumerate(K.boundary_cols[q])]
        tab = K._shared[("norm tableau", q)] = prepare(_sign_split(cols), [0] * nb + [1] * len(cmap))
    return tab, (*weights, *weights)


def _sign_split(cols):
    """The columns of [A | -A] for A's columns: x = x+ - x- in an L1 program."""
    return [*cols, *([(i, -x) for i, x in col] for col in cols)]


def _class_norm(K: WeightedCellComplex, summary: HomologySummary, q: int,
                coords: tuple[int, ...], chat, records) -> tuple[int, tuple[int, ...], int]:
    """(num, λ̂, d): the norm num / d and λ = λ̂ / d of the nonzero integral
    class with these coordinates in units of ĉ = chat; records are the bases
    recorded for the norm LP's cost, or None with no (q+1)-cells.  `_lookup`
    runs only if no recorded cone holds the coordinates."""
    if records is None:
        z, f, dual = _unique_cycle(summary, q, coords, chat)
        return sum(map(operator.mul, f, z)), dual, 1
    optimum = next((optimum for optimum in records if optimum.levels(coords) is not None), None)
    if optimum is None:
        tab, c = _norm_lp(K, q, chat)
        optimum = _lookup(tab, coords, c)[0]
    return sum(map(operator.mul, optimum.ynum, coords)), optimum.ynum, optimum.yden


def stable_systole(K: WeightedCellComplex, q: int, search_radius: int = 5) -> SystoleResult:
    """Least stable norm among integral classes with nonzero rational image:
    a search in integers, norms num / d and λ's λ̂ / d compared by
    cross-multiplication, that builds a Fraction only for the least norm and
    reads each class off the norm LP's records, fetched once for the search."""
    if search_radius < 0:
        raise ValueError(f"search radius must be at least 0, not {search_radius}")
    if q < 0:
        raise ValueError(f"degree {q} out of range")
    summary = homology(K)
    if q > K.top_dim or summary.betti[q] == 0:
        return SystoleResult(None, None, "trivial")
    b = summary.betti[q]
    # the weights are s·ĉ with ĉ integral and primitive; norms, λ's and the
    # search's levels all scale by s, so the search runs in units of ĉ
    chat, s = K.weights[q].split
    sn, sd = s.numerator, s.denominator  # a norm num / d is num·sn / (d·sd), one Fraction
    records = None  # the bases recorded for the norm LP's cost, fetched once
    if K.n_cells(q + 1):
        tab, c = _norm_lp(K, q, chat)
        records = tab.optima.get(c, ())
    if b == 1:
        num, _, d = _class_norm(K, summary, q, (1,), chat, records)
        return SystoleResult(Fraction(num * sn, d * sd), (1,), "exact")

    duals = []  # every distinct (λ̂, d) found; ‖h‖ >= L(h) = max_k |λ̂_k.h| / d_k for all h
    best: tuple[int, int] | None = None  # the least norm found, as (num, den)
    witness: tuple[int, ...] | None = None
    for r in range(1, search_radius + 1):
        for v in _primitive_vectors(b, r):
            if best is not None and any(abs(sum(map(operator.mul, lam, v))) * best[1] >= best[0] * d
                                        for lam, d in duals):
                continue  # cannot improve on best
            num, lam, d = _class_norm(K, summary, q, v, chat, records)
            if (lam, d) not in duals:  # a recorded basis gives its λ again
                duals.append((lam, d))
            if best is None or num * best[1] < best[0] * d:
                best, witness = (num, d), v
        # every class left has max-norm >= r+1, so its norm is at least
        # (r+1) times the least L on the max-norm unit sphere
        if _bounds_sphere(K._shared.setdefault("stop tests", {}), duals, b, best[0], best[1] * (r + 1)):
            return SystoleResult(Fraction(best[0] * sn, best[1] * sd), witness, "certified")
    return SystoleResult(None if best is None else Fraction(best[0] * sn, best[1] * sd), witness,
                         f"bounded-search({search_radius})")


STOP_TESTS_KEPT = 64  # stop-test bounds kept per complex, so many directions stay bounded


def _bounds_sphere(stop_tests: dict, duals, b: int, num: int, den: int) -> bool:
    """Whether L(h) = max_k |λ_k.h| >= num / den (den > 0) on the max-norm
    unit sphere, each λ_k = λ̂_k / d_k given as the integers (λ̂_k, d_k).

    The unit vectors e_j are tried first.  L is positively homogeneous, so
    the claim holds exactly when every h with L(h) <= 1 has |h_j| <= den/num,
    i.e. when M = max_j max{h_j : L(h) <= 1} is at most den/num.  M depends
    on the λ set alone, and ``stop_tests`` (a complex's) keeps it per λ set,
    keyed by the tuple of pairs, the newest STOP_TESTS_KEPT of them, as an
    integer pair (M's numerator, denominator), or (1, 0) when the λ's do
    not span and M is infinite; a kept test is one cross-multiplication.
    By LP duality the largest h_j is the least sum of d_k |ν_k| over ν with
    sum ν_k λ̂_k = e_j (μ_k = d_k ν_k): a b-row program in the sign split
    ν = ν+ - ν-, infeasible when the λ's do not span.  A λ set seen for the
    first time solves its b programs on one tableau prepared with every row
    open, in integers, and drops that tableau once M is kept.
    """
    if any(all(abs(lam[j]) * den < num * d for lam, d in duals) for j in range(b)):
        return False
    key = tuple(duals)
    bound = stop_tests.get(key)
    if bound is None:
        if len(stop_tests) >= STOP_TESTS_KEPT:  # the oldest goes first
            del stop_tests[next(iter(stop_tests))]
        tab = prepare(_sign_split([list(enumerate(lam)) for lam, _ in duals]), [1] * b)
        costs, bound = tuple(d for _, d in duals) * 2, (0, 1)
        try:
            for j in range(b):  # every row is open, so e_j's value is ynum[j] / yden
                optimum = _lookup(tab, [int(i == j) for i in range(b)], costs)[0]
                if optimum.ynum[j] * bound[1] > bound[0] * optimum.yden:
                    bound = optimum.ynum[j], optimum.yden
        except Infeasible:
            bound = 1, 0
        stop_tests[key] = bound
    return bound[0] * num <= bound[1] * den


def _primitive_vectors(dim: int, radius: int):
    """Primitive integer vectors with max-norm exactly radius, up to sign."""
    for v in itertools.product(range(-radius, radius + 1), repeat=dim):
        # norms are symmetric under negation: keep v whose first nonzero is positive
        if max(map(abs, v)) == radius and next(x for x in v if x) > 0 and math.gcd(*v) == 1:
            yield v


# ---------------------------------------------------------------------------
# Verification reports for the scaling, product, projection and map bounds
# ---------------------------------------------------------------------------

def _report(name: str, lhs: Fraction, relation: str, rhs: Fraction, holds: bool,
            searches, details: dict) -> VerificationReport:
    """The report of a law that compared lhs with rhs: pass or fail, or
    inconclusive when a systole it read is only an upper bound."""
    status = ("inconclusive" if any(res.upper_bound_only for res in searches)
              else "pass" if holds else "fail")
    return VerificationReport(name, lhs, rhs, relation, status, details)


def _inapplicable(name: str, relation: str, reason: str) -> VerificationReport:
    return VerificationReport(name, None, None, relation, "inapplicable", {"reason": reason})


def verify_rescaling(K: WeightedCellComplex, q: int, t: Rational) -> VerificationReport:
    """Scaling the metric by t^2 must scale the degree-q systole by t^q."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    searches = stable_systole(K, q), stable_systole(K.rescale(t), q)
    base, scaled = (systole_value(res, q) for res in searches)
    expected = t ** q * base
    return _report("rescaling-law", scaled, "==", expected, scaled == expected, searches,
                   {"t": t, "q": q, "base": base})


def verify_product_inequality(
    K: WeightedCellComplex, L: WeightedCellComplex, p: int, q: int
) -> VerificationReport:
    """Systole of a product is at most the product of factor systoles."""
    searches = (stable_systole(K, p), stable_systole(L, q),
                stable_systole(product_complex(K, L), p + q))
    sk, sl, sp = (systole_value(res, d) for res, d in zip(searches, (p, q, p + q)))
    return _report("product-inequality", sp, "<=", sk * sl, sp <= sk * sl, searches,
                   {"p": p, "q": q})


def verify_projection_equality(
    K: WeightedCellComplex, L: WeightedCellComplex, q: int
) -> VerificationReport:
    """stsys_q(K×L) = stsys_q(K)·stsys_0(L), as a q-cycle times a vertex v has
    its mass times w(v): applicable when degree-q homology of the product comes
    entirely from (q, 0) tensor terms with L connected, otherwise inapplicable."""
    if q < 0:
        raise ValueError(f"degree {q} out of range")
    bk, bl = homology(K).betti, homology(L).betti
    def betti(bs, i):
        return bs[i] if 0 <= i < len(bs) else 0
    cross_terms = sum(betti(bk, q - j) * bl[j] for j in range(1, min(q + 1, len(bl))))
    if betti(bl, 0) != 1 or betti(bk, q) == 0 or cross_terms:
        return _inapplicable("projection-equality", "==",
                             f"Kunneth hypothesis violated in degree {q}")
    searches = stable_systole(product_complex(K, L), q), stable_systole(K, q), stable_systole(L, 0)
    sp, sk, sl = (systole_value(res, d) for res, d in zip(searches, (q, q, 0)))
    return _report("projection-equality", sp, "==", sk * sl, sp == sk * sl, searches, {"q": q})


# ---------------------------------------------------------------------------
# Non-degenerate simplicial maps and the degree-bound sandwich
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplicialMapInfo:
    source: WeightedCellComplex
    target: WeightedCellComplex
    vertex_map: tuple[tuple[int, int], ...]
    degree_bound: int
    # cells[q][j]: (target index of source q-cell j's image, sign of the
    # permutation that sorts its image vertices)
    cells: tuple[tuple[tuple[int, int], ...], ...]


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
    cells = []
    for per_deg in K.vertex_lists:
        row = []
        for vs in per_deg:
            images = [vertex_map[v] for v in vs]
            if len(set(images)) != len(images):
                raise ValueError(f"map degenerates simplex {vs}")
            target = L.cell_by_vertices(tuple(sorted(images)))
            if target is None:
                raise ValueError(f"image of simplex {vs} is not a simplex of the target")
            row.append((target, _permutation_sign(images)))
        cells.append(tuple(row))
    info = SimplicialMapInfo(K, L, tuple(sorted(vertex_map.items())), 0, tuple(cells))
    return replace(info, degree_bound=_degree_bound(info))


def push_chain(info: SimplicialMapInfo, chain: Chain) -> Chain:
    """Chain-level pushforward along the cell table."""
    info.source.check_chain(chain)
    out = [Fraction(0)] * info.target.n_cells(chain.degree)
    for c, (target, sign) in zip(chain.coeffs, info.cells[chain.degree]):
        if c:
            out[target] += c * sign
    return Chain(chain.degree, tuple(out))


def _degree_bound(info: SimplicialMapInfo) -> int:
    """Largest absolute local degree over the target's top cells."""
    n = info.target.top_dim
    hk, hl = homology(info.source), homology(info.target)
    if hk.betti[n] != 1 or hl.betti[n] != 1:
        raise ValueError("degree needs one-dimensional top homology on both sides")
    pushed = push_chain(info, hk.generators[n][0])
    degrees = set()
    for pe, ze in zip(pushed.coeffs, hl.generators[n][0].coeffs):
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
    return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1


def pullback_weights(info: SimplicialMapInfo) -> WeightedCellComplex:
    """Give each source cell the weight of its image cell in the target."""
    ws = info.target.weights
    return info.source._reweighted(
        Weights(ws[q][target] for target, _ in per_deg) for q, per_deg in enumerate(info.cells))


def verify_degree_sandwich(info: SimplicialMapInfo, q: int) -> VerificationReport:
    """With pulled-back weights, the source systole sits between the target
    systole and its degree-bound multiple."""
    K = pullback_weights(info)
    L = info.target
    hk, hl = homology(K), homology(L)
    if not 0 <= q <= L.top_dim or hk.betti[q] == 0 or hl.betti[q] == 0:
        raise ValueError(f"trivial homology in degree {q}")
    pushed = [class_coordinates(L, push_chain(info, g)) for g in hk.generators[q]]
    if rank(pushed) != hk.betti[q]:
        return _inapplicable("degree-sandwich", "sandwich",
                             f"map is not injective on degree-{q} rational homology")
    if info.degree_bound == 0:  # a degree-0 map bounds nothing above
        return _inapplicable("degree-sandwich", "sandwich", "map has degree 0")
    searches = stable_systole(L, q), stable_systole(K, q)
    sl, sk = (systole_value(res, q) for res in searches)
    d = info.degree_bound
    return _report("degree-sandwich", sk, "sandwich", d * sl, sl <= sk <= d * sl, searches,
                   {"lower": sl, "pulled-back": sk, "degree-bound": d})
