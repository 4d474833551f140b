"""References for ``stasys.category``, kept here, outside ``src/``, only as
oracles for the tests.

``reference_partition_verdicts`` is the categorical-partition test the
library ran before it built the set of witnessed partitions: for each factor
of a product it tries every subset of the partition's parts, so its cost
grows exponentially with the number of parts.

``reference_product_profile`` is the product the library built before it
folded the factors in one pass: a full, validated profile for each pairwise
step, so its cost grows quadratically with the number of factors.

``reference_max_admissible_size`` is the most parts of an admissible
partition as the library found it before it searched down from n // lpd: a
table of the most parts summing to every m up to n, each entry read over
every admissible degree, so its cost is n times their number.
"""

from __future__ import annotations

import itertools

from stasys.category import (
    DimensionProfile,
    Partition,
    _product_max_cup,
    catstsys_bounds,
    enumerate_partitions,
)


def reference_product_profile(profiles: list[DimensionProfile]) -> DimensionProfile:
    if not profiles:
        raise ValueError("need at least one factor")
    out = profiles[0]
    for nxt in profiles[1:]:
        out = _reference_kunneth_product(out, nxt)
    return out


def _reference_kunneth_product(p: DimensionProfile, q: DimensionProfile) -> DimensionProfile:
    n = p.n + q.n
    betti = [0] * (n + 1)
    for i, bi in enumerate(p.betti):
        for j, bj in enumerate(q.betti):
            betti[i + j] += bi * bj
    factors = (p.factors or (p,)) + (q.factors or (q,))
    return DimensionProfile(n=n, betti=tuple(betti), max_cup_flag=_product_max_cup(p, q),
                            factors=factors, name=" x ".join(f.name or "?" for f in factors))


def reference_partition_verdicts(profile: DimensionProfile) -> dict[Partition, str]:
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
    if profile.max_cup_flag is True:
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


def reference_max_admissible_size(profile: DimensionProfile) -> int:
    if profile.lpd is not None and profile.n % profile.lpd == 0:
        return profile.n // profile.lpd
    degrees = sorted(profile.admissible_degrees)
    most: list[int | None] = [0]  # most[m]: most admissible parts summing to m
    for m in range(1, profile.n + 1):
        counts = [most[m - d] for d in degrees if d <= m and most[m - d] is not None]
        most.append(max(counts) + 1 if counts else None)
    return most[profile.n] or 0
