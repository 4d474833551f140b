"""Exact checks of the answers the benchmark receives.

The checker shares no code with stasys' LP solver or its Smith normal
form.  Cycles are tested by applying the stored boundary incidences
directly, homology classes are read off by pairing with explicit cut
cocycles, and expected values come from closed forms.  Each check returns
a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import re
from fractions import Fraction


def boundary(K, q: int, coeffs) -> list[Fraction]:
    """Boundary of a q-chain given by its coefficient vector."""
    out = [Fraction(0)] * (len(K.cell_ids[q - 1]) if q >= 1 else 0)
    if q == 0:
        return out
    for c, col in zip(coeffs, K.boundary_cols[q]):
        if c:
            for face, inc in col:
                out[face] += c * inc
    return out


def is_cycle(K, q: int, coeffs) -> bool:
    return not any(boundary(K, q, coeffs))


def mass(K, q: int, coeffs) -> Fraction:
    return sum((abs(c) * w for c, w in zip(coeffs, K.weights[q]) if c), Fraction(0))


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


# ---------------------------------------------------------------------------
# Homology and cohomology ring
# ---------------------------------------------------------------------------

def check_homology(K, summary, betti, torsion) -> list[str]:
    """Ranks and torsion against closed forms; generators and coordinate maps
    against the definitions."""
    problems = []
    if tuple(summary.betti) != tuple(betti):
        problems.append(f"betti {tuple(summary.betti)} != {tuple(betti)}")
    if tuple(tuple(t) for t in summary.torsion) != tuple(torsion):
        problems.append(f"torsion {summary.torsion} != {torsion}")
    if problems:
        return problems
    for q in range(K.top_dim + 1):
        nq = len(K.cell_ids[q])
        gens = summary.generators[q]
        cmap = summary.coordinate_maps[q]
        if len(gens) != betti[q] or len(cmap) != betti[q]:
            problems.append(f"degree {q}: {len(gens)} generators, {len(cmap)} map rows")
            continue
        for j, g in enumerate(gens):
            if g.degree != q or len(g.coeffs) != nq:
                problems.append(f"degree {q}: generator {j} has the wrong shape")
            elif any(c.denominator != 1 for c in g.coeffs):
                problems.append(f"degree {q}: generator {j} is not integral")
            elif not is_cycle(K, q, g.coeffs):
                problems.append(f"degree {q}: generator {j} is not a cycle")
        for i, row in enumerate(cmap):
            if len(row) != nq:
                problems.append(f"degree {q}: map row {i} has the wrong length")
                continue
            for j, g in enumerate(gens):
                if dot(row, g.coeffs) != int(i == j):
                    problems.append(f"degree {q}: map row {i} sends generator {j} "
                                    f"to {dot(row, g.coeffs)}")
            if q < K.top_dim:
                for c, col in enumerate(K.boundary_cols[q + 1]):
                    if sum((row[face] * inc for face, inc in col), Fraction(0)):
                        problems.append(f"degree {q}: map row {i} does not kill the "
                                        f"boundary of cell {c}")
                        break
        for j, g in enumerate(summary.torsion_generators[q]):
            if len(g.coeffs) != nq or not is_cycle(K, q, g.coeffs):
                problems.append(f"degree {q}: torsion generator {j} is not a cycle")
    return problems


def check_ring(profile, expected) -> list[str]:
    got = (profile.dimension, profile.lpd, profile.cup_length,
           profile.max_cup_length_flag, profile.witness_degrees)
    return [] if got == tuple(expected) else [f"ring profile {got} != {tuple(expected)}"]


# ---------------------------------------------------------------------------
# Products of two circles: cut cocycles, norms, systoles, sweeps
# ---------------------------------------------------------------------------

class TorusCuts:
    """Cut cocycles on a factor-tagged product of two circles.

    ``alpha`` is 1 on the 1-cells (e|v) over one first-factor edge e and
    ``beta`` is 1 on the 1-cells (u|f) over one second-factor edge f.  Both
    are cocycles, and for weights uniform along each factor the stable
    norm of a class pairing to (a, b) is |a| * Lx + |b| * Ly, where Lx and
    Ly are the lengths of the two factor circles in the product metric.
    """

    def __init__(self, K):
        ids, tags = K.cell_ids[1], K.factor_degrees[1]
        split = [cid[1:-1].split("|") for cid in ids]
        first = sorted({s[0] for s, tag in zip(split, tags) if tag == (1, 0)})
        second = sorted({s[1] for s, tag in zip(split, tags) if tag == (0, 1)})
        e0, f0 = first[0], second[0]
        v0 = min(s[1] for s, tag in zip(split, tags) if tag == (1, 0))
        u0 = min(s[0] for s, tag in zip(split, tags) if tag == (0, 1))
        self.alpha = [Fraction(int(tag == (1, 0) and s[0] == e0)) for s, tag in zip(split, tags)]
        self.beta = [Fraction(int(tag == (0, 1) and s[1] == f0)) for s, tag in zip(split, tags)]
        self.lx = sum((w for s, tag, w in zip(split, tags, K.weights[1])
                       if tag == (1, 0) and s[1] == v0), Fraction(0))
        self.ly = sum((w for s, tag, w in zip(split, tags, K.weights[1])
                       if tag == (0, 1) and s[0] == u0), Fraction(0))
        self.area = sum(K.weights[2], Fraction(0))
        self.problems = []
        for name, cochain in (("alpha", self.alpha), ("beta", self.beta)):
            for col in K.boundary_cols[2]:
                if sum((cochain[face] * inc for face, inc in col), Fraction(0)):
                    self.problems.append(f"cut cochain {name} is not a cocycle")
                    break

    def pair(self, coeffs) -> tuple[Fraction, Fraction]:
        return dot(self.alpha, coeffs), dot(self.beta, coeffs)

    def class_pairing(self, generators, coords) -> tuple[Fraction, Fraction]:
        """(a, b) of the class with the given coordinates in the generator basis."""
        a = b = Fraction(0)
        for c, g in zip(coords, generators):
            ga, gb = self.pair(g.coeffs)
            a += c * ga
            b += c * gb
        return a, b

    def basis_problems(self, generators) -> list[str]:
        """The generators must form a basis of the lattice the cuts detect."""
        if len(generators) != 2:
            return [f"{len(generators)} degree-1 generators, expected 2"]
        (a1, b1), (a2, b2) = (self.pair(g.coeffs) for g in generators)
        det = a1 * b2 - a2 * b1
        return [] if abs(det) == 1 else [f"generators pair with the cuts with determinant {det}"]

    def norm(self, a, b) -> Fraction:
        return abs(a) * self.lx + abs(b) * self.ly


def check_norm(K, summary, cuts: TorusCuts, coords, result) -> list[str]:
    """A degree-1 stable norm on a product of two circles, with its certificate."""
    problems = cuts.problems + cuts.basis_problems(summary.generators[1])
    if problems:
        return problems
    a, b = cuts.class_pairing(summary.generators[1], coords)
    expected = cuts.norm(a, b)
    if result.value != expected:
        problems.append(f"stable norm of {tuple(coords)} is {result.value}, expected {expected}")
    z = result.optimal_cycle
    if z.degree != 1 or len(z.coeffs) != len(K.cell_ids[1]):
        return problems + ["optimal cycle has the wrong shape"]
    if not is_cycle(K, 1, z.coeffs):
        problems.append("optimal cycle is not a cycle")
    if cuts.pair(z.coeffs) != (a, b):
        problems.append(f"optimal cycle pairs to {cuts.pair(z.coeffs)}, class is {(a, b)}")
    if mass(K, 1, z.coeffs) != result.value:
        problems.append(f"optimal cycle has mass {mass(K, 1, z.coeffs)}, value {result.value}")
    return problems


def check_systole(result, expected: Fraction) -> list[str]:
    if result.value is None:
        return [f"systole reported trivial ({result.search_status}), expected {expected}"]
    if result.value != expected:
        return [f"systole {result.value} != {expected}"]
    return []


def expected_sweep(cuts: TorusCuts, parts: tuple[int, ...], ts) -> tuple[list[tuple], str]:
    """Samples (t, part systoles, product, volume, ratio) and the verdict of a
    first-factor sweep over a product of two circles."""
    samples = []
    for t in ts:
        sys = {1: min(t * cuts.lx, cuts.ly), 2: t * cuts.area}
        vals = tuple(sys[p] for p in parts)
        product = Fraction(1)
        for v in vals:
            product *= v
        volume = t * cuts.area
        samples.append((t, vals, product, volume, product / volume))
    exponent = None
    for lo, hi in list(zip(samples[:-1], samples[1:]))[-2:]:
        w = _exact_exponent(hi[0] / lo[0], hi[4] / lo[4])
        if w is None or (exponent is not None and w != exponent):
            exponent = None
            break
        exponent = w
    verdict = f"diverges({exponent})" if exponent is not None and exponent >= 1 else "bounded"
    return samples, verdict


def _exact_exponent(base: Fraction, value: Fraction) -> int | None:
    for w in range(-8, 9):
        if base ** w == value:
            return w
    return None


def check_sweep(report, cuts: TorusCuts, parts, ts) -> list[str]:
    samples, verdict = expected_sweep(cuts, tuple(parts), ts)
    got = [(s.t, tuple(s.part_systoles), s.product, s.volume, s.ratio) for s in report.samples]
    problems = cuts.problems[:]
    if got != samples:
        problems.append(f"sweep samples {got} != {samples}")
    if report.verdict != verdict:
        problems.append(f"sweep verdict {report.verdict} != {verdict}")
    return problems


# ---------------------------------------------------------------------------
# Command-line outcomes
# ---------------------------------------------------------------------------

_APPROX = re.compile(r" \(~[^)]*\)")


def exact_text(text: str) -> str:
    """CLI output with the decimal approximations removed."""
    return _APPROX.sub("", text)


def _line_matches(got: str, want: str) -> bool:
    return got.startswith(want[:-1]) if want.endswith("*") else got == want


def cli_problems(code: int, out: str, err: str, expect) -> list[str]:
    """Compare one CLI outcome with what it should be.

    ``expect`` is ("lines", [...]) for an exit-0 run whose output must start
    with these lines (decimal approximations ignored; a line ending in "*"
    need only be a prefix), ("input-error",) for
    a run that must exit 2 with a message, or ("not-trivial",) for a run
    that must neither call a non-trivial degree trivial nor crash.
    """
    problems = []
    if "Traceback" in err:
        problems.append("traceback on stderr")
    kind = expect[0]
    if kind == "lines":
        if code != 0:
            problems.append(f"exit {code}, expected 0")
        got = exact_text(out).splitlines()[:len(expect[1])]
        want = list(expect[1])
        if len(got) < len(want) or not all(map(_line_matches, got, want)):
            problems.append(f"output {got} != {want}")
    elif kind == "input-error":
        if code != 2:
            problems.append(f"exit {code}, expected 2")
        if not err.startswith("error:") and "error:" not in err:
            problems.append("no error message on stderr")
    elif kind == "not-trivial":
        if code not in (0, 2):
            problems.append(f"exit {code}, expected 0 or 2")
        if "trivial" in out:
            problems.append("reports trivial homology in a degree with betti > 0")
    else:
        raise ValueError(kind)
    return problems
