"""Deformation experiments: sweep the first-factor rescaling of a product
metric and watch the systole-product-to-volume ratio.

Divergence of the ratio along the family is evidence (not proof) that the
swept partition is not categorical: the family is a single curve in the
space of metrics.  All ratios are exact rationals and the growth exponent
is extracted exactly from tail sample ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .category import Partition
from .complexes import DeformationFamily, WeightedCellComplex
from .homology import homology
from .norms import stable_systole, systole_value


@dataclass(frozen=True)
class SweepSample:
    t: Fraction
    part_systoles: tuple[Fraction, ...]
    product: Fraction
    volume: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class DeformationReport:
    partition: Partition
    samples: tuple[SweepSample, ...]
    growth_exponent: int | None
    verdict: str  # "bounded" | "diverges(w)" | "inconclusive"

    @property
    def diverges(self) -> bool:
        return self.verdict.startswith("diverges")


def fundamental_class_mass(K: WeightedCellComplex) -> Fraction:
    """Mass of the generating top cycle (the total weighted volume): with
    weights s·ĉ, s times the sum of |g_σ|·ĉ_σ over its integer coefficients g."""
    summary = homology(K)
    top = K.top_dim
    if summary.betti[top] != 1:
        raise ValueError(f"no fundamental class: betti_{top} = {summary.betti[top]}")
    chat, s = K.weights[top].split
    return s * sum(abs(g) * c for g, c in zip(summary.integer_generators[top][0], chat))


def deformation_sweep(
    family: DeformationFamily,
    partition: Partition,
    t_samples: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(4), Fraction(8)),
    search_radius: int = 5,
) -> DeformationReport:
    """Tabulate the exact ratio along the family and classify its growth."""
    ts = tuple(Fraction(t) for t in t_samples)
    if not ts:
        raise ValueError("t samples must not be empty")
    if list(ts) != sorted(set(ts)) or any(t < 1 for t in ts):
        raise ValueError("t samples must be strictly increasing and >= 1")
    base = family.base
    if partition.n != base.top_dim:
        raise ValueError(f"partition sums to {partition.n}, not to the dimension {base.top_dim}")
    summary = homology(base)
    for p in set(partition.parts):
        if p > base.top_dim or summary.betti[p] == 0:
            raise ValueError(f"partition part {p} has trivial homology on the product")
    samples = []
    upper_bound_only = False
    for t in ts:
        kt = family.at(t)
        searches = {p: stable_systole(kt, p, search_radius=search_radius)
                    for p in set(partition.parts)}
        upper_bound_only |= any(res.upper_bound_only for res in searches.values())
        part_vals = tuple(systole_value(searches[p], p) for p in partition.parts)
        product = math.prod(part_vals, start=Fraction(1))
        volume = fundamental_class_mass(kt)
        samples.append(SweepSample(t, part_vals, product, volume, product / volume))
    exponent = _tail_exponent(samples)
    if upper_bound_only or len(samples) < 2:
        verdict = "inconclusive"  # an upper bound only, or one sample shows no growth
    elif exponent is not None and exponent >= 1:
        verdict = f"diverges({exponent})"
    else:
        verdict = "bounded"
    return DeformationReport(
        partition=partition,
        samples=tuple(samples),
        growth_exponent=exponent,
        verdict=verdict,
    )


def _tail_exponent(samples: list[SweepSample]) -> int | None:
    """Integer w with ratio(t') / ratio(t) = (t'/t)^w on the tail intervals.

    Checks the last two intervals (or the single one available); returns
    None when no single integer matches both exactly.
    """
    if len(samples) < 2:
        return None
    intervals = list(zip(samples[:-1], samples[1:]))[-2:]
    exponent = None
    for lo, hi in intervals:
        base = hi.t / lo.t
        value = hi.ratio / lo.ratio
        w = _exact_log(base, value)
        if w is None or (exponent is not None and w != exponent):
            return None
        exponent = w
    return exponent


def _exact_log(base: Fraction, value: Fraction) -> int | None:
    """Integer w with base ** w == value, or None.

    base = a/b in lowest terms, and base ** w is a^w / b^w (b^-w / a^-w for w < 0):
    the guess compares ints, which math.log takes at any size, with log(a) > 0.
    """
    if base <= 1 or value <= 0:
        return None
    if value == 1:
        return 0
    a = math.log(base.numerator)
    if value > 1:
        guess = round(math.log(value.numerator) / a)
    else:
        guess = -round(math.log(value.denominator) / a)
    for w in (guess - 1, guess, guess + 1):
        if base ** w == value:
            return w
    return None
