"""Partition combinatorics and dimension-profile bounds for the stable
systolic category.

Profiles are symbolic manifold descriptors (dimension, rational Betti
numbers, flags); bounds combine the cup-length lower estimate, partition
arithmetic, the product sum rules and the homology-sphere product count.
Where no rule closes the gap the verdict stays honest: lower < upper.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from math import gcd


class _Record:
    """The value behaviour of a frozen dataclass, for a record whose
    ``__init__`` stores the fields that ``_fields`` names: a repr of the
    fields in order, ``==`` between records of one class only, a hash of the
    field values, and no assignment or deletion (AttributeError).  Computed
    attributes (a ``cached_property``) live in the instance dict beside the
    fields and take no part in any of these."""

    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(_Record):
    """Non-decreasing tuple of positive integers."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if list(parts) != sorted(parts):
            raise ValueError("parts must be non-decreasing")
        self.__dict__["parts"] = parts

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


class DimensionProfile(_Record):
    """Symbolic descriptor: dimension, Betti numbers and a ring-level flag.

    ``max_cup_flag`` is three-valued: True/False when known, None when the
    ring-level property cannot be derived from the available data.
    Orientability and being a real homology sphere are read off the Betti
    numbers, and a real homology sphere's flag is True.
    """

    _fields = ("n", "betti", "max_cup_flag", "factors", "name")

    def __init__(self, n: int, betti: tuple[int, ...], max_cup_flag: bool | None = None,
                 factors: tuple[DimensionProfile, ...] = (), name: str = ""):
        betti = tuple(int(b) for b in betti)
        if n < 0:
            raise ValueError(f"dimension must be at least 0, not {n}")
        if len(betti) != n + 1:
            raise ValueError("betti list must have n+1 entries")
        if min(betti) < 0:
            raise ValueError(f"Betti numbers must be at least 0, not {min(betti)}")
        if betti[0] != 1:
            raise ValueError("profiles describe connected spaces (betti_0 = 1)")
        if betti[n] not in (0, 1):
            raise ValueError("a closed connected manifold has betti_n = 0 or 1")
        self.__dict__.update(n=n, betti=betti, max_cup_flag=max_cup_flag, factors=factors,
                             name=name)
        if self.homology_sphere:
            if max_cup_flag is False:
                raise ValueError("a real homology sphere has maximal cup length")
            self.__dict__["max_cup_flag"] = True

    @property
    def orientable(self) -> bool:
        return self.betti[self.n] == 1

    @property
    def homology_sphere(self) -> bool:
        """A real homology sphere: n >= 1 and betti = (1, 0, ..., 0, 1)."""
        return self.n >= 1 and self.betti == (1,) + (0,) * (self.n - 1) + (1,)

    @cached_property
    def lpd(self) -> int | None:
        return min(self.admissible_degrees, default=None)

    @cached_property
    def admissible_degrees(self) -> frozenset[int]:
        return frozenset(q for q in range(1, self.n + 1) if self.betti[q] > 0)


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


# What the product rules read of a profile: its dimension, least positive
# dimension and maximal-cup-length flag.  The product of two connected
# factors has the sum of their dimensions and the least of their lpds
# (Künneth, b_0 = 1).
_Shape = namedtuple("_Shape", "n lpd max_cup_flag")


def _product_max_cup(p: DimensionProfile | _Shape, q: DimensionProfile) -> bool | None:
    """Derive the maximal-cup-length flag of a product, when the floor and
    remainder compatibility conditions allow it; None when underivable."""
    if (p.lpd is None or q.lpd is None
            or p.max_cup_flag is not True or q.max_cup_flag is not True):
        return None
    l = min(p.lpd, q.lpd)
    return True if _floors_agree(p, q) and p.n % l + q.n % l < l else None


def _floors_agree(p: DimensionProfile | _Shape, q: DimensionProfile) -> bool:
    """floor(n / lpd) of each factor equals floor(n / l), l the combined lpd."""
    l = min(p.lpd, q.lpd)
    return p.n // p.lpd == p.n // l and q.n // q.lpd == q.n // l


def kunneth_product(p: DimensionProfile, q: DimensionProfile) -> DimensionProfile:
    """Profile of a direct product: Betti convolution plus derivable flags."""
    return product_profile([p, q])


# A profile holds one Betti number per degree and every rule reads them all,
# so the ten characters "S100000000" would ask for a 10**8-entry tuple and
# run out of memory.  Ten thousand dimensions is far beyond any complex this
# package can triangulate.  The Betti numbers of many factors grow to
# hundreds of bits, so the cost grows with the factor count too: 10,000
# circles took 70 s on a 2-core Xeon, and under both bounds the slowest
# product found there takes under half a second.
MAX_EXPRESSION_DIMENSION = 10_000
MAX_EXPRESSION_FACTORS = 500


def parse_product_expression(expr: str) -> DimensionProfile:
    """Parse a sphere-product expression like ``S2 x S3`` or ``S1 * S2``:
    factors joined by exactly one ``x``, ``X`` or ``*`` each."""
    tokens = expr.replace("*", " * ").split()
    if not tokens:
        raise ValueError("empty product expression")
    # operators stand at the odd positions and only there, so none leads, trails or doubles
    if not (len(tokens) % 2 and all((t in ("x", "X", "*")) == i % 2 for i, t in enumerate(tokens))):
        raise ValueError(f"cannot parse product expression {expr!r}; "
                         "expected factors joined by x or *, e.g. S1 x S3")
    dims = []
    for tok in tokens[::2]:
        if not (tok[0] in "Ss" and tok[1:].isascii() and tok[1:].isdigit()):
            raise ValueError(f"cannot parse factor {tok!r}; expected e.g. S3")
        dims.append(int(tok[1:]))
    if len(dims) > MAX_EXPRESSION_FACTORS:
        raise ValueError(f"product of {len(dims)} factors exceeds {MAX_EXPRESSION_FACTORS}")
    if (n := sum(dims)) > MAX_EXPRESSION_DIMENSION:
        raise ValueError(f"product dimension {n} exceeds {MAX_EXPRESSION_DIMENSION}")
    return product_profile([sphere_profile(m) for m in dims])


def product_profile(profiles: list[DimensionProfile]) -> DimensionProfile:
    """Profile of a direct product, built once: the flag folded as a `_Shape`
    one factor at a time, as the pairwise products would give it, the Betti
    numbers convolved power by power of each distinct factor, and the
    factors and name joined."""
    if not profiles:
        raise ValueError("need at least one factor")
    if len(profiles) == 1:
        return profiles[0]
    first = profiles[0]
    acc = _Shape(first.n, first.lpd, first.max_cup_flag)
    point, sphere = first.betti == (1,), first.homology_sphere  # the product so far
    for q in profiles[1:]:
        flag = _product_max_cup(acc, q)
        # Betti numbers are >= 0, so only a point times a homology sphere is one
        point, sphere = (point and q.betti == (1,),
                         point and q.homology_sphere or sphere and q.betti == (1,))
        acc = _Shape(acc.n + q.n, min((l for l in (acc.lpd, q.lpd) if l), default=None),
                     True if sphere else flag)  # a homology sphere's flag is True
    powers, betti = [], [1]
    for factor, k in Counter(p.betti for p in profiles).items():
        g = gcd(*(j for j, bj in enumerate(factor) if bj)) or 1  # a polynomial in x^g
        power, spread = [1], [0] * (k * (len(factor) - 1) + 1)
        for _ in range(k):
            power = _convolve(power, factor[::g])
        spread[:g * len(power):g] = power
        powers.append(spread)
    for power in sorted(powers, key=lambda p: len(p) / sum(map(bool, p))):  # the densest first
        betti = _convolve(betti, power)
    factors = tuple(f for p in profiles for f in (p.factors or (p,)))
    return DimensionProfile(n=acc.n, betti=tuple(betti), max_cup_flag=acc.max_cup_flag,
                            factors=factors, name=" x ".join(f.name or "?" for f in factors))


def _convolve(a, b) -> list[int]:
    """The product of two polynomials by their coefficients, in one pass over
    a per nonzero coefficient of b, the sparser."""
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + len(a)] = [o + y * x for o, x in zip(out[j:j + len(a)], a)]
    return out


class CategoryVerdict(_Record):
    """Lower and upper bounds on catstsys, the rule that gave each, and notes."""

    _fields = ("lower", "upper", "lower_rule", "upper_rule", "notes")

    def __init__(self, lower: int, upper: int, lower_rule: str, upper_rule: str,
                 notes: tuple[str, ...] = ()):
        self.__dict__.update(lower=lower, upper=upper, lower_rule=lower_rule,
                             upper_rule=upper_rule, notes=notes)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int | None:
        return self.lower if self.exact else None


def _max_admissible_size(profile: DimensionProfile) -> int:
    """Most parts of an admissible partition of n (0 if there is none): the
    largest c with n - c·lpd a sum of at most c excesses d - lpd > 0 of
    admissible d, so the table of fewest excesses stops at the answer's."""
    if profile.n < 1:
        raise ValueError("n must be positive")
    if profile.lpd is None:
        return 0
    lpd = profile.lpd
    excesses = [d - lpd for d in profile.admissible_degrees if d > lpd]
    fewest: list[int | None] = [0]  # fewest[x]: fewest positive excesses summing to x
    for c in range(profile.n // lpd, 0, -1):
        x = profile.n - c * lpd
        for m in range(len(fewest), x + 1):
            counts = [fewest[m - e] for e in excesses if e <= m and fewest[m - e] is not None]
            fewest.append(min(counts) + 1 if counts else None)
        if fewest[x] is not None and fewest[x] <= c:
            return c
    return 0


def _sum_rule_applies(p: DimensionProfile | _Shape, q: DimensionProfile) -> tuple[bool, str]:
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
        # fold the factor-sum rule pairwise over the factor list; a fold's
        # note names only the factor it adds and its position, since a note
        # naming the sub-product would make the notes quadratic in the count.
        # The running product is carried as the _Shape that kunneth_product
        # would give it, all that _sum_rule_applies reads; no such product
        # is a homology sphere, whose flag the profile would raise to True
        first = profile.factors[0]
        acc = _Shape(first.n, first.lpd, first.max_cup_flag)
        value, folded = subs[0].lower, subs[0].exact
        for k, (f, sub) in enumerate(zip(profile.factors[1:], subs[1:]), start=2):
            ok, why = _sum_rule_applies(acc, f)
            if not (ok and folded and sub.exact):
                if not ok:
                    notes.append(f"factor-sum rule inapplicable at factor {k} "
                                 f"({f.name or '?'}): {why}")
                folded = False
                break
            acc = _Shape(acc.n + f.n, min(acc.lpd, f.lpd), _product_max_cup(acc, f))
            value += sub.lower
            notes.append(f"factor-sum rule applies at factor {k} ({f.name or '?'}): "
                         "remainder condition holds")
        # a completed fold raises no lower bound: it needs every factor
        # flagged, so the factor cup-length sum has set lower >= value already
        if folded and len(profile.factors) > 1:
            notes.append(f"factor-sum rule applies to {profile.name or '?'}: "
                         "remainder condition holds at every factor")
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
