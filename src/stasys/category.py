"""Partition combinatorics and dimension-profile bounds for the stable
systolic category.

Profiles are symbolic manifold descriptors (dimension, rational Betti
numbers, flags); bounds combine the cup-length lower estimate, partition
arithmetic, the product sum rules and the homology-sphere product count.
Where no rule closes the gap the verdict stays honest: lower < upper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Partition:
    """Non-decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if list(parts) != sorted(parts):
            raise ValueError("parts must be non-decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def size(self) -> int:
        return len(self.parts)

    def duplicated_number(self, p: int) -> int:
        return self.parts.count(p)


def enumerate_partitions(n: int, admissible_degrees: set[int]) -> list[Partition]:
    """All partitions of n with parts in the admissible set.

    Ordered by size descending, then lexicographically: deterministic.
    """
    if n < 1:
        raise ValueError("n must be positive")
    degrees = sorted(d for d in admissible_degrees if 1 <= d <= n)
    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], remaining: int, minimum: int):
        if remaining == 0:
            found.append(tuple(prefix))
            return
        for d in degrees:
            if d < minimum or d > remaining:
                continue
            prefix.append(d)
            extend(prefix, remaining - d, d)
            prefix.pop()

    extend([], n, 1)
    found.sort(key=lambda p: (-len(p), p))
    return [Partition(p) for p in found]


def mod_condition(m: int, lpd_m: int, n: int, lpd_n: int) -> bool:
    """Remainder test for the product sum rule: MOD(m,l_M)+MOD(n,l_N) < max(l_M,l_N)."""
    if lpd_m < 1 or lpd_n < 1:
        raise ValueError("least positive dimensions must be >= 1")
    return m % lpd_m + n % lpd_n < max(lpd_m, lpd_n)


@dataclass(frozen=True)
class DimensionProfile:
    """Symbolic descriptor: dimension, Betti numbers and ring-level flags.

    ``max_cup_flag`` is three-valued: True/False when known, None when the
    ring-level property cannot be derived from the available data.
    """

    n: int
    betti: tuple[int, ...]
    orientable: bool = True
    max_cup_flag: bool | None = None
    homology_sphere: bool = False
    factors: tuple["DimensionProfile", ...] = ()
    name: str = ""

    def __post_init__(self):
        betti = tuple(int(b) for b in self.betti)
        if len(betti) != self.n + 1:
            raise ValueError("betti list must have n+1 entries")
        if betti[0] != 1:
            raise ValueError("profiles describe connected spaces (betti_0 = 1)")
        if self.orientable and betti[self.n] != 1:
            raise ValueError("orientable profiles need betti_n = 1")
        if self.homology_sphere:
            expected = tuple(
                1 if q in (0, self.n) else 0 for q in range(self.n + 1)
            )
            if betti != expected:
                raise ValueError("homology-sphere profile has wrong Betti numbers")
        object.__setattr__(self, "betti", betti)

    @property
    def lpd(self) -> int | None:
        return min(self.admissible_degrees, default=None)

    @property
    def admissible_degrees(self) -> set[int]:
        return {q for q in range(1, self.n + 1) if self.betti[q] > 0}

    def resolved_max_cup(self) -> bool | None:
        if self.homology_sphere:
            return True
        return self.max_cup_flag


def sphere_profile(m: int) -> DimensionProfile:
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    betti = tuple(1 if q in (0, m) else 0 for q in range(m + 1))
    return DimensionProfile(
        n=m, betti=betti, orientable=True, max_cup_flag=True,
        homology_sphere=True, name=f"S{m}",
    )


def profile_from_complex(K: WeightedCellComplex, name: str = "") -> DimensionProfile:
    """Profile of a triangulated space; ring flags come from the cup product."""
    from .cohomology import has_maximal_real_cup_length
    from .homology import homology

    betti = homology(K).betti
    n = K.top_dim
    flag: bool | None
    if K.kind == "simplicial":
        flag = has_maximal_real_cup_length(K)[0]
    else:
        flag = None
    orientable = betti[n] == 1
    sphere_like = betti == tuple(1 if q in (0, n) else 0 for q in range(n + 1))
    return DimensionProfile(
        n=n, betti=betti, orientable=orientable, max_cup_flag=flag,
        homology_sphere=sphere_like and orientable, name=name,
    )


def _product_max_cup(p: DimensionProfile, q: DimensionProfile) -> bool | None:
    """Derive the maximal-cup-length flag of a product, when the floor and
    remainder compatibility conditions allow it; None when underivable."""
    lp, lq = p.lpd, q.lpd
    if lp is None or lq is None:
        return None
    if p.resolved_max_cup() is not True or q.resolved_max_cup() is not True:
        return None
    l = min(lp, lq)
    if p.n // lp != p.n // l or q.n // lq != q.n // l:
        return None
    if p.n % l + q.n % l < l:
        return True
    return None


def kunneth_product(p: DimensionProfile, q: DimensionProfile) -> DimensionProfile:
    """Profile of a direct product: Betti convolution plus derivable flags."""
    n = p.n + q.n
    betti = [0] * (n + 1)
    for i, bi in enumerate(p.betti):
        for j, bj in enumerate(q.betti):
            betti[i + j] += bi * bj
    factors = (p.factors or (p,)) + (q.factors or (q,))
    name = " x ".join(f.name or "?" for f in factors)
    return DimensionProfile(
        n=n,
        betti=tuple(betti),
        orientable=p.orientable and q.orientable,
        max_cup_flag=_product_max_cup(p, q),
        homology_sphere=False,
        factors=factors,
        name=name,
    )


def parse_product_expression(expr: str) -> DimensionProfile:
    """Parse a sphere-product expression like ``S2 x S3`` or ``S1 * S2``."""
    tokens = [t for t in expr.replace("*", " x ").split() if t.lower() != "x"]
    if not tokens:
        raise ValueError("empty product expression")
    factors = []
    for tok in tokens:
        if not (tok[0] in "Ss" and tok[1:].isdigit()):
            raise ValueError(f"cannot parse factor {tok!r}; expected e.g. S3")
        factors.append(sphere_profile(int(tok[1:])))
    return product_profile(factors)


def product_profile(profiles: list[DimensionProfile]) -> DimensionProfile:
    if not profiles:
        raise ValueError("need at least one factor")
    out = profiles[0]
    for nxt in profiles[1:]:
        out = kunneth_product(out, nxt)
    return out


@dataclass(frozen=True)
class CategoryVerdict:
    lower: int
    upper: int
    lower_rule: str
    upper_rule: str
    notes: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


def _max_admissible_size(profile: DimensionProfile) -> int:
    """Most parts of an admissible partition of n (0 if there is none)."""
    if profile.n < 1:
        raise ValueError("n must be positive")
    degrees = sorted(profile.admissible_degrees)
    most: list[int | None] = [0]  # most[m]: most admissible parts summing to m
    for m in range(1, profile.n + 1):
        counts = [most[m - d] for d in degrees if d <= m and most[m - d] is not None]
        most.append(max(counts) + 1 if counts else None)
    return most[profile.n] or 0


def _sum_rule_applies(p: DimensionProfile, q: DimensionProfile) -> tuple[bool, str]:
    """Applicability of the factor-sum rule for catstsys of a product.

    Requires both factors to attain maximal cup length, the remainder
    condition, and floor compatibility with the combined least positive
    dimension (without the floor conditions the rule would claim products
    it does not cover, e.g. a circle times a 2-sphere).
    """
    lp, lq = p.lpd, q.lpd  # not None: every factor already passed catstsys_bounds
    if p.resolved_max_cup() is not True or q.resolved_max_cup() is not True:
        return False, "factor without known maximal cup length"
    if not mod_condition(p.n, lp, q.n, lq):
        return False, "remainder condition fails"
    l = min(lp, lq)
    if p.n // lp != p.n // l or q.n // lq != q.n // l:
        return False, "floor compatibility with the combined least positive dimension fails"
    return True, ""


def catstsys_bounds(profile: DimensionProfile) -> CategoryVerdict:
    """Best lower/upper bounds on the stable systolic category of a profile."""
    if not profile.orientable:
        raise ValueError("category bounds are computed for orientable profiles only")
    notes: list[str] = []
    lower, lower_rule = 1, "fundamental-class partition"
    upper, upper_rule = _max_admissible_size(profile), "admissible-partition arithmetic"

    if profile.resolved_max_cup() is True:
        # every admissible part is at least lpd, so upper <= cap already
        cap = profile.n // profile.lpd
        if cap > lower:
            lower, lower_rule = cap, "cup-length lower bound (maximal cup length)"

    if profile.factors:
        subs = [catstsys_bounds(f) for f in profile.factors]
        if all(f.homology_sphere for f in profile.factors):
            count = len(profile.factors)
            if count > lower:
                lower, lower_rule = count, "sphere-product count"
            if count < upper:
                upper, upper_rule = count, "sphere-product count"
            notes.append("sphere-product rule: category equals the number of factors")
        if all(f.resolved_max_cup() is True for f in profile.factors):
            total = sum(f.n // f.lpd for f in profile.factors)
            if total > lower:
                lower, lower_rule = total, "factor cup-length sum"
        # fold the factor-sum rule pairwise over the factor list
        acc = profile.factors[0]
        acc_verdict = subs[0]
        folded = acc_verdict.exact
        for f, sub in zip(profile.factors[1:], subs[1:]):
            ok, why = _sum_rule_applies(acc, f)
            if ok and folded and sub.exact:
                value = acc_verdict.lower + sub.lower
                acc = kunneth_product(acc, f)
                acc_verdict = CategoryVerdict(value, value, "factor-sum rule", "factor-sum rule")
                notes.append(
                    f"factor-sum rule applies to {acc.name}: remainder condition holds"
                )
            else:
                if not ok:
                    notes.append(
                        f"factor-sum rule inapplicable to ({acc.name}) x ({f.name}): {why}"
                    )
                folded = False
                break
        if folded and len(profile.factors) > 1:
            if acc_verdict.lower > lower:
                lower, lower_rule = acc_verdict.lower, "factor-sum rule"
            if acc_verdict.upper < upper:
                upper, upper_rule = acc_verdict.upper, "factor-sum rule"

    if lower > upper:
        raise RuntimeError(f"inconsistent bounds {lower} > {upper} for {profile.name}")
    return CategoryVerdict(
        lower=lower,
        upper=upper,
        lower_rule=lower_rule,
        upper_rule=upper_rule,
        notes=tuple(notes),
    )


def partition_verdicts(profile: DimensionProfile) -> dict[Partition, str]:
    """Classify every admissible partition as categorical / ruled-out / unknown."""
    verdict = catstsys_bounds(profile)
    out: dict[Partition, str] = {}
    for part in enumerate_partitions(profile.n, profile.admissible_degrees):
        if part.size > verdict.upper:
            out[part] = "ruled-out"
        elif _is_categorical(profile, part):
            out[part] = "categorical"
        else:
            out[part] = "unknown"
    return out


def _is_categorical(profile: DimensionProfile, part: Partition) -> bool:
    """Witnessed-categorical test via cup-product factorizations.

    Single-part partitions are carried by the fundamental class; products
    recurse: a partition splitting into per-factor categorical partitions
    is categorical by the cross product of the factor witnesses.
    """
    if part.size == 1:
        return part.parts[0] == profile.n and profile.betti[profile.n] > 0
    if profile.resolved_max_cup() is True:
        # a maximal-length witness carries the homogeneous split l + ... + l = n
        l = profile.lpd
        if part.size * l == profile.n and all(p == l for p in part.parts):
            return True
    if profile.factors and len(profile.factors) >= 2:
        return _splits_into_factor_partitions(list(part.parts), list(profile.factors))
    return False


def _splits_into_factor_partitions(parts: list[int], factors: list[DimensionProfile]) -> bool:
    if not factors:
        return not parts
    head, rest = factors[0], factors[1:]
    indices = range(len(parts))
    for k in range(1, len(parts) - len(rest) + 1):
        for combo in itertools.combinations(indices, k):
            chosen = sorted(parts[i] for i in combo)
            if sum(chosen) != head.n:
                continue
            if not _is_categorical(head, Partition(tuple(chosen))):
                continue
            remaining = [p for i, p in enumerate(parts) if i not in combo]
            if _splits_into_factor_partitions(remaining, rest):
                return True
    return False
