"""Partition combinatorics and dimension-profile bounds for the stable
systolic category.

Profiles are symbolic manifold descriptors (dimension, rational Betti
numbers, flags); bounds combine the cup-length lower estimate, partition
arithmetic, the product sum rules and the homology-sphere product count.
Where no rule closes the gap the verdict stays honest: lower < upper.
"""

from __future__ import annotations

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
    """Symbolic descriptor: dimension, Betti numbers and a ring-level flag.

    ``max_cup_flag`` is three-valued: True/False when known, None when the
    ring-level property cannot be derived from the available data.
    Orientability and being a real homology sphere are read off the Betti
    numbers, and a real homology sphere's flag is True.
    """

    n: int
    betti: tuple[int, ...]
    max_cup_flag: bool | None = None
    factors: tuple["DimensionProfile", ...] = ()
    name: str = ""

    def __post_init__(self):
        betti = tuple(int(b) for b in self.betti)
        if self.n < 0:
            raise ValueError(f"dimension must be at least 0, not {self.n}")
        if len(betti) != self.n + 1:
            raise ValueError("betti list must have n+1 entries")
        if min(betti) < 0:
            raise ValueError(f"Betti numbers must be at least 0, not {min(betti)}")
        if betti[0] != 1:
            raise ValueError("profiles describe connected spaces (betti_0 = 1)")
        if betti[self.n] not in (0, 1):
            raise ValueError("a closed connected manifold has betti_n = 0 or 1")
        object.__setattr__(self, "betti", betti)
        if self.homology_sphere:
            if self.max_cup_flag is False:
                raise ValueError("a real homology sphere has maximal cup length")
            object.__setattr__(self, "max_cup_flag", True)

    @property
    def orientable(self) -> bool:
        return self.betti[self.n] == 1

    @property
    def homology_sphere(self) -> bool:
        """A real homology sphere: n >= 1 and betti = (1, 0, ..., 0, 1)."""
        return self.n >= 1 and self.betti == (1,) + (0,) * (self.n - 1) + (1,)

    @property
    def lpd(self) -> int | None:
        return min(self.admissible_degrees, default=None)

    @property
    def admissible_degrees(self) -> set[int]:
        return {q for q in range(1, self.n + 1) if self.betti[q] > 0}


def sphere_profile(m: int) -> DimensionProfile:
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    betti = tuple(1 if q in (0, m) else 0 for q in range(m + 1))
    return DimensionProfile(n=m, betti=betti, name=f"S{m}")


def profile_from_complex(K: WeightedCellComplex, name: str = "") -> DimensionProfile:
    """Profile of a triangulated space; ring flags come from the cup product."""
    from .cohomology import has_maximal_real_cup_length
    from .homology import homology

    flag = has_maximal_real_cup_length(K)[0] if K.kind == "simplicial" else None
    return DimensionProfile(n=K.top_dim, betti=homology(K).betti, max_cup_flag=flag, name=name)


def _product_max_cup(p: DimensionProfile, q: DimensionProfile) -> bool | None:
    """Derive the maximal-cup-length flag of a product, when the floor and
    remainder compatibility conditions allow it; None when underivable."""
    if (p.lpd is None or q.lpd is None
            or p.max_cup_flag is not True or q.max_cup_flag is not True):
        return None
    l = min(p.lpd, q.lpd)
    return True if _floors_agree(p, q) and p.n % l + q.n % l < l else None


def _floors_agree(p: DimensionProfile, q: DimensionProfile) -> bool:
    """floor(n / lpd) of each factor equals floor(n / l), l the combined lpd."""
    l = min(p.lpd, q.lpd)
    return p.n // p.lpd == p.n // l and q.n // q.lpd == q.n // l


def kunneth_product(p: DimensionProfile, q: DimensionProfile) -> DimensionProfile:
    """Profile of a direct product: Betti convolution plus derivable flags."""
    n = p.n + q.n
    betti = [0] * (n + 1)
    nonzero = [(j, bj) for j, bj in enumerate(q.betti) if bj]  # a sphere has two
    for i, bi in enumerate(p.betti):
        for j, bj in nonzero:
            betti[i + j] += bi * bj
    factors = (p.factors or (p,)) + (q.factors or (q,))
    name = " x ".join(f.name or "?" for f in factors)
    return DimensionProfile(
        n=n,
        betti=tuple(betti),
        max_cup_flag=_product_max_cup(p, q),
        factors=factors,
        name=name,
    )


# A profile holds one Betti number per degree and every rule reads them all,
# so the ten characters "S100000000" would ask for a 10**8-entry tuple and
# run out of memory.  Ten thousand dimensions is far beyond any complex this
# package can triangulate, and a product of a few spheres that size still
# takes well under a second.
MAX_EXPRESSION_DIMENSION = 10_000


def parse_product_expression(expr: str) -> DimensionProfile:
    """Parse a sphere-product expression like ``S2 x S3`` or ``S1 * S2``."""
    tokens = [t for t in expr.replace("*", " x ").split() if t.lower() != "x"]
    if not tokens:
        raise ValueError("empty product expression")
    dims = []
    for tok in tokens:
        if not (tok[0] in "Ss" and tok[1:].isdigit()):
            raise ValueError(f"cannot parse factor {tok!r}; expected e.g. S3")
        dims.append(int(tok[1:]))
    if (n := sum(dims)) > MAX_EXPRESSION_DIMENSION:
        raise ValueError(f"product dimension {n} exceeds {MAX_EXPRESSION_DIMENSION}")
    return product_profile([sphere_profile(m) for m in dims])


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
    # lpd is not None: every factor already passed catstsys_bounds
    if p.max_cup_flag is not True or q.max_cup_flag is not True:
        return False, "factor without known maximal cup length"
    if not mod_condition(p.n, p.lpd, q.n, q.lpd):
        return False, "remainder condition fails"
    if not _floors_agree(p, q):
        return False, "floor compatibility with the combined least positive dimension fails"
    return True, ""


def catstsys_bounds(profile: DimensionProfile) -> CategoryVerdict:
    """Best lower/upper bounds on the stable systolic category of a profile."""
    if not profile.orientable:
        raise ValueError("category bounds are computed for orientable profiles only")
    notes: list[str] = []
    lower, lower_rule = 1, "fundamental-class partition"
    upper, upper_rule = _max_admissible_size(profile), "admissible-partition arithmetic"

    if profile.max_cup_flag is True:
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
        if all(f.max_cup_flag is True for f in profile.factors):
            total = sum(f.n // f.lpd for f in profile.factors)
            if total > lower:
                lower, lower_rule = total, "factor cup-length sum"
        # fold the factor-sum rule pairwise over the factor list
        acc, value, folded = profile.factors[0], subs[0].lower, subs[0].exact
        for f, sub in zip(profile.factors[1:], subs[1:]):
            ok, why = _sum_rule_applies(acc, f)
            if not (ok and folded and sub.exact):
                if not ok:
                    notes.append(f"factor-sum rule inapplicable to ({acc.name or '?'}) x "
                                 f"({f.name or '?'}): {why}")
                folded = False
                break
            acc, value = kunneth_product(acc, f), value + sub.lower
            notes.append(f"factor-sum rule applies to {acc.name}: remainder condition holds")
        # a completed fold raises no lower bound: it needs every factor
        # flagged, so the factor cup-length sum has set lower >= value already
        if folded and len(profile.factors) > 1:
            if value < upper:
                upper, upper_rule = value, "factor-sum rule"

    if lower > upper:  # a ring flag no cup product attains, or factors that are not the product's
        raise ValueError(f"inconsistent profile {profile.name or '?'}: lower bound {lower} via "
                         f"{lower_rule} exceeds upper bound {upper} via {upper_rule}")
    return CategoryVerdict(
        lower=lower,
        upper=upper,
        lower_rule=lower_rule,
        upper_rule=upper_rule,
        notes=tuple(notes),
    )


def partition_verdicts(profile: DimensionProfile) -> dict[Partition, str]:
    """Classify every admissible partition as categorical / ruled-out / unknown."""
    upper = catstsys_bounds(profile).upper
    witnessed = _witnessed_partitions(profile)
    return {
        part: "ruled-out" if part.size > upper else
              "categorical" if part.parts in witnessed else "unknown"
        for part in enumerate_partitions(profile.n, profile.admissible_degrees)
    }


def _witnessed_partitions(profile: DimensionProfile) -> set[tuple[int, ...]]:
    """Sorted partitions of n carried by the fundamental class, by a ring that
    attains its cap (l + ... + l = n), or, on a product, by the cross product
    of one witness per factor.  lpd is not None: catstsys_bounds passed."""
    n, l = profile.n, profile.lpd
    out = {(n,)} if profile.betti[n] > 0 else set()
    if profile.max_cup_flag is True and n % l == 0:
        out.add((l,) * (n // l))
    if len(profile.factors) >= 2:
        unions = {()}
        for f in profile.factors:
            unions = {tuple(sorted(u + w)) for u in unions for w in _witnessed_partitions(f)}
        out |= unions
    return out
