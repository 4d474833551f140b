"""Spans around calls into each stasys layer, recorded from outside the library.

`install` wraps the public functions listed in TARGETS and rebinds every
name that refers to them in every loaded stasys module (``from .lp import
solve_lp`` makes a second binding in ``norms``, and the package namespace
holds a third).  Each call records a span: name, start, end, parent span
and counts taken from its arguments and return value.  Spans stay in
memory; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


def _shape_count(args, out):
    m = args[0]
    return {"entries": len(m) * (len(m[0]) if m else 0)}


def _snf_count(args, out):
    bits = max((_bits(x) for mat in out for row in mat for x in row), default=0)
    return {"entries": _shape_count(args, out)["entries"], "bits": bits}


def _lp_count(args, out):
    a, _b, c = args[:3]
    return {"rows": len(a), "cols": len(c), "bits": _bits(out[0])}


def _systole_count(args, out):
    return {"status": out.search_status, "trivial": out.value is None}


# (module, public name, span name, counter); span names start with the layer.
TARGETS = (
    ("stasys.linalg", "smith_normal_form", "linalg.snf", _snf_count),
    ("stasys.linalg", "rref", "linalg.rref", _shape_count),
    ("stasys.linalg", "inverse", "linalg.inverse", None),
    ("stasys.homology", "homology", "homology.homology", None),
    ("stasys.lp", "solve_lp", "lp.solve", _lp_count),
    ("stasys.norms", "stable_norm", "norms.stable_norm", None),
    ("stasys.norms", "stable_systole", "norms.systole", _systole_count),
    ("stasys.deform", "deformation_sweep", "deform.sweep", None),
    ("stasys.cohomology", "ring_profile", "cohomology.ring", None),
    ("stasys.cohomology", "cup_length", "cohomology.ring", None),
    ("stasys.cohomology", "lpd", "cohomology.ring", None),
    ("stasys.cohomology", "cup_product", "cohomology.cup_product", None),
    ("stasys.category", "catstsys_bounds", "category.catstsys", None),
    ("stasys.complexes", "build_complex", "complexes.build", None),
    ("stasys.complexes", "product_complex", "complexes.build", None),
    ("stasys.io", "load_complex", "io.load", None),
    ("stasys.io", "load_profile", "io.load", None),
)


class Tracer:
    """Records spans as [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, out)
            return out

        return traced

    def install(self) -> None:
        import stasys  # noqa: F401  (loads every library module)
        from stasys.complexes import WeightedCellComplex

        modules = [m for n, m in list(sys.modules.items())
                   if n == "stasys" or n.startswith("stasys.")]
        for modname, attr, span, count in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            traced = self.wrap(span, orig, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))
        orig = WeightedCellComplex.validate
        WeightedCellComplex.validate = self.wrap("complexes.validate", orig)
        self._undo.append((WeightedCellComplex, "validate", orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from a list of spans (parents index into it)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
            kids[s[3]].append(i)
    self_t = [dur[i] - covered[i] for i in range(n)]
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def under(i, prefix) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0].startswith(prefix):
                return True
            p = spans[p][3]
        return False

    def outer(name):
        return [i for i in by[name] if not under(i, name)]

    def total(idx):
        return sum(dur[i] for i in idx)

    def counts(name, key):
        return [spans[i][4][key] for i in by[name] if spans[i][4]]

    hom = by["homology.homology"]
    misses = [i for i in hom if any(spans[k][0] == "linalg.snf" for k in kids[i])]
    missed = set(misses)
    hits = [i for i in hom if i not in missed]
    systoles = by["norms.systole"]
    statuses = [spans[i][4] for i in systoles if spans[i][4]]
    nontrivial = [s for s in statuses if not s["trivial"]]
    settled = [s for s in nontrivial if s["status"] in ("exact", "certified")]
    lp_in_systole = [i for i in by["lp.solve"] if under(i, "norms.systole")]
    cohom = [i for name, idx in by.items() if name.startswith("cohomology.") for i in idx]
    return {
        "linalg.snf_calls": len(by["linalg.snf"]),
        "linalg.snf_s": total(outer("linalg.snf")),
        "linalg.snf_entries": sum(counts("linalg.snf", "entries")),
        "linalg.snf_max_bits": max(counts("linalg.snf", "bits"), default=0),
        "linalg.rref_calls": len(by["linalg.rref"]),
        "linalg.rref_s": total(outer("linalg.rref")),
        "linalg.rref_entries": sum(counts("linalg.rref", "entries")),
        "linalg.inverse_calls": len(by["linalg.inverse"]),
        "linalg.inverse_s": total(outer("linalg.inverse")),
        "homology.calls": len(hom),
        "homology.misses": len(misses),
        "homology.hit_ratio": len(hits) / len(hom) if hom else 0.0,
        "homology.miss_s": total(misses),
        "homology.hit_s": total(hits),
        "homology.self_s": sum(self_t[i] for i in hom),
        "lp.solve_calls": len(by["lp.solve"]),
        "lp.solve_s": total(outer("lp.solve")),
        "lp.tableau_entries": sum(r * c for r, c in zip(counts("lp.solve", "rows"),
                                                        counts("lp.solve", "cols"))),
        "lp.max_rows": max(counts("lp.solve", "rows"), default=0),
        "lp.max_cols": max(counts("lp.solve", "cols"), default=0),
        "lp.value_bits": max(counts("lp.solve", "bits"), default=0),
        "norms.stable_norm_calls": len(by["norms.stable_norm"]),
        "norms.stable_norm_s": total(outer("norms.stable_norm")),
        "norms.systole_calls": len(systoles),
        "norms.systole_self_s": sum(self_t[i] for i in systoles),
        "norms.lp_per_systole": len(lp_in_systole) / len(systoles) if systoles else 0.0,
        "norms.settled_ratio": len(settled) / len(nontrivial) if nontrivial else 0.0,
        "deform.sweep_calls": len(by["deform.sweep"]),
        "deform.sweep_self_s": sum(self_t[i] for i in by["deform.sweep"]),
        "cohomology.ring_calls": len(outer("cohomology.ring")),
        "cohomology.ring_s": total(outer("cohomology.ring")),
        "cohomology.cup_product_calls": len(by["cohomology.cup_product"]),
        "cohomology.self_s": sum(self_t[i] for i in cohom),
        "category.catstsys_calls": len(by["category.catstsys"]),
        "category.catstsys_s": total(outer("category.catstsys")),
        "complexes.validate_calls": len(by["complexes.validate"]),
        "complexes.validate_s": total(outer("complexes.validate")),
        "complexes.build_s": total(outer("complexes.build")),
        "io.load_calls": len(by["io.load"]),
        "io.load_s": total(outer("io.load")),
        "cli.main_s": total(by["cli.main"]),
    }
