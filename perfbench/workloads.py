"""The three benchmark workloads.

Each workload has a set-up, timed SETUP_REPS times, and a fixed round of
queries whose parameters come from the seed.  A run measures
max(1, round(seconds / (NOMINAL_ROUND_S * PASSES))) whole rounds and runs
each round PASSES times, in a fresh seeded order each time; NOMINAL_ROUND_S
is one pass's wall time at the seed commit on a 2-core box.  A query's
latency is the median of its PASSES runs.  The same seed always gives the
same queries, so two commits answer the same queries and report the same
percentile.  Load is one closed-loop client: the next query
starts when the previous one has returned.  Answers are checked after the
timed loop.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checker
import inputs
import stasys  # queries call through the package, where a traced run rebinds them
from stasys import (
    DeformationFamily,
    HomologyClass,
    Partition,
    complex_to_dict,
    load_complex,
    product_complex,
    save_complex,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    known_defect: str | None = None


def rng_for(seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + parts))


def _fmt(x: Fraction) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# homology_cold: homology and ring profile of structures never seen before
# ---------------------------------------------------------------------------

class HomologyCold:
    """In-process homology() (plus ring_profile() on simplicial inputs) of a
    fresh cell-order permutation per query."""

    name = "homology_cold"
    SETUP_REPS = 7
    PASSES = 1
    REFERENCE, REF_EVERY, SETUP_REF_SAMPLES = "kernel", 1, 25  # see hostspeed.py
    NOMINAL_ROUND_S = 48.0
    # The median falls inside the t9 group and the tail (ten samples beyond
    # it) inside the ft4 group, never on a boundary between groups; queries
    # of half a second average out more of a shared host's jitter than the
    # small ones.  The dearest inputs come twice, so no single slow moment
    # sets the rate.
    ROUND = (("sph3", 3), ("rp2", 3), ("ft3", 3), ("sph4", 3), ("t9", 12), ("ft4", 8),
             ("ft5", 2), ("sph5", 2), ("ft6", 2), ("s1s2", 2))
    SIMPLICIAL = ("sph3", "sph4", "sph5", "t9", "rp2")

    def __init__(self, seed: int):
        self.seed = seed
        self.manifest: list[str] = []

    def setup(self, rep: int, reps: int) -> None:
        self.manifest = []
        self.bases = {name: inputs.build(name) for name, _ in self.ROUND}
        self.first = self._prepare(0, 0)

    def round(self, r: int, traced: bool) -> list[Query]:
        if (r, traced) == (0, False):
            return self.first
        return self._prepare(r, int(traced))

    def _prepare(self, r: int, salt: int) -> list[Query]:
        rng = rng_for(self.seed, self.name, "round", r, salt)
        names = [name for name, count in self.ROUND for _ in range(count)]
        rng.shuffle(names)
        queries = []
        for name in names:
            K = inputs.permute(self.bases[name], rng)
            self.manifest.append(f"{name}:{inputs.structure_tag(K)}")
            queries.append(self._query(name, K))
        return queries

    def _query(self, name, K) -> Query:
        simplicial = name in self.SIMPLICIAL

        def run():
            return stasys.homology(K), stasys.ring_profile(K) if simplicial else None

        def check(out):
            summary, profile = out
            problems = checker.check_homology(K, summary, *inputs.expected_homology(name))
            if simplicial:
                problems += checker.check_ring(profile, inputs.expected_ring(name))
            return problems

        return Query(f"homology {name}", run, check)


# ---------------------------------------------------------------------------
# systole_warm: LP-heavy queries on structures whose homology is cached
# ---------------------------------------------------------------------------

class SystoleWarm:
    """Stable systoles, stable norms and deformation sweeps on structures
    whose homology was computed in set-up."""

    name = "systole_warm"
    SETUP_REPS = 2  # one set-up takes about 9 s
    # Each query runs three times, in three passes about 11 s apart, and its
    # latency is the median of the three: the tail sample, one query among
    # 54, then rests on no single run.
    PASSES = 3
    NOMINAL_ROUND_S = 11.5
    REFERENCE, REF_EVERY, SETUP_REF_SAMPLES = "kernel", 1, 25  # see hostspeed.py
    # flat_torus(6) is left out: its homology was 5 s of each set-up and its
    # q=1 systole 5 s a query, more than a ten-seed steadiness check of both
    # listed workloads, within the hour it is allowed, can carry.
    STRUCTURES = ("ft3", "ft4", "ft5", "s1s2", "t9", "c3c4")
    TORI = ("ft3", "ft4", "ft5", "c3c4")
    SYSTOLES = (("ft3", 1), ("ft4", 1), ("ft5", 1), ("ft4", 2), ("ft5", 2),
                ("s1s2", 1), ("s1s2", 2), ("s1s2", 3), ("t9", 1), ("t9", 2),
                ("c3c4", 1), ("c3c4", 2))
    # Every primitive direction in [-2, 2]^2 on flat_torus(4) (0.04 to 0.25 s
    # each) and three of the dearer flat_torus(5) directions (0.35 to 0.5 s),
    # each at multiples 1 and 2: the median falls in the dense flat_torus(4)
    # group whatever the seed, and no seeded choice moves a norm's cost.
    NORMS = (("ft4", inputs.DIRECTIONS), ("ft5", ((0, 1), (-1, -2), (-2, -1))))
    NORM_MULTIPLES = (1, 2)
    SWEEPS = (("ft3", (1, 1)), ("ft3", (2,)), ("c3c4", (1, 1)), ("c3c4", (2,)))

    def __init__(self, seed: int):
        self.seed = seed
        self.manifest: list[str] = []

    def setup(self, rep: int, reps: int) -> None:
        """Build every structure and compute its homology.  Earlier reps use
        seeded cell orders so that each rep computes its homology afresh;
        the last rep, whose structures the queries use, keeps the built order."""
        rng = rng_for(self.seed, self.name, "setup", rep)
        self.K, self.summary = {}, {}
        for name in self.STRUCTURES:
            K = inputs.build(name)
            if rep < reps - 1:
                K = inputs.permute(K, rng)
            self.K[name] = K
            self.summary[name] = stasys.homology(K)
        self.cuts = {name: checker.TorusCuts(self.K[name]) for name in self.TORI}

    def round(self, r: int, traced: bool) -> list[Query]:
        rng = rng_for(self.seed, self.name, "round", r)
        queries = []
        for name, q in self.SYSTOLES:
            queries.append(self._systole(name, q, inputs.sample_t(rng)))
        for name, directions in self.NORMS:
            for direction in directions:
                for m in self.NORM_MULTIPLES:
                    queries.append(self._norm(name, tuple(m * x for x in direction)))
        for name, parts in self.SWEEPS:
            queries.append(self._sweep(name, parts, inputs.sample_sweep_ts(rng)))
        rng.shuffle(queries)
        self.manifest.extend(q.label for q in queries)
        return queries

    def _systole(self, name, q, t) -> Query:
        K = self.K[name]
        expected = inputs.expected_systole(name, q, t)
        return Query(f"systole {name} q={q} t={t}",
                     lambda: stasys.stable_systole(K.rescale(t), q),
                     lambda res: checker.check_systole(res, expected))

    def _norm(self, name, coords) -> Query:
        K, summary, cuts = self.K[name], self.summary[name], self.cuts[name]
        return Query(f"stable_norm {name} class={coords}",
                     lambda: stasys.stable_norm(K, HomologyClass(1, coords)),
                     lambda res: checker.check_norm(K, summary, cuts, coords, res))

    def _sweep(self, name, parts, ts) -> Query:
        family = DeformationFamily(self.K[name])
        cuts = self.cuts[name]
        return Query(f"deformation_sweep {name} parts={parts} t={[_fmt(t) for t in ts]}",
                     lambda: stasys.deformation_sweep(family, Partition(parts), t_samples=ts),
                     lambda rep: checker.check_sweep(rep, cuts, parts, ts))


# ---------------------------------------------------------------------------
# cli_oneshot: one fresh `python -m stasys.cli` process per query
# ---------------------------------------------------------------------------

@dataclass
class CliOutcome:
    code: int
    out: str
    err: str
    spans: dict | None = None
    t_spawn: float = 0.0


# Defects of the seed commit (ROADMAP open item 4).  Their queries expect the
# correct outcome and count as failed until the program is fixed; `correct`
# in the result stays true while they are the only failures.
DEFECT_4A = "ROADMAP 4(a): an empty search is reported as trivial homology"
DEFECT_4C = "ROADMAP 4(c): a top-level JSON list is not treated as an input error"


class CliOneshot:
    """Every subcommand of the CLI, each query a cold process."""

    name = "cli_oneshot"
    SETUP_REPS = 3
    PASSES = 1
    # The reference child costs about a fifth of a query, so it runs before
    # every second query only.
    REFERENCE, REF_EVERY, SETUP_REF_SAMPLES = "child", 2, 3  # see hostspeed.py
    NOMINAL_ROUND_S = 18.0
    # Each t9 query reads its own cell order, so the tail (which falls among
    # the t9 queries) does not hang on one permutation's cost.
    FIXTURES = ("ft3", "ft4", "c3", "c4", "c6", "sph2", "rp2") + tuple(f"t9-{i}" for i in range(9))
    TIMEOUT_S = 60

    def __init__(self, seed: int):
        self.seed = seed
        self.manifest: list[str] = []
        self.dir = os.path.join(WORK, f"cli-{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.shim = os.path.join(HERE, "shim.py")

    def path(self, name: str) -> str:
        return os.path.join(self.dir, f"{name}.json")

    def setup(self, rep: int, reps: int) -> None:
        """Write seeded fixture files, derive expected answers from closed
        forms and cut cocycles, and run one query so bytecode is compiled."""
        rng = rng_for(self.seed, self.name, "setup", rep)
        os.makedirs(self.dir, exist_ok=True)
        self.tags = {}
        for name in self.FIXTURES:
            K = inputs.permute(inputs.build(name.split("-")[0]), rng)
            save_complex(K, self.path(name))
            self.tags[name] = inputs.structure_tag(K)
        with open(self.path("list"), "w") as fh:
            json.dump([complex_to_dict(inputs.build("c3"))], fh)
        bad = complex_to_dict(inputs.build("c3"))
        bad["cells"]["1"][0]["weight"] = "one"
        with open(self.path("badweight"), "w") as fh:
            json.dump(bad, fh)
        ft3 = load_complex(self.path("ft3"))
        self.ft3_cuts = checker.TorusCuts(ft3)
        self.ft3_gens = stasys.homology(ft3).generators[1]
        c3, c4 = load_complex(self.path("c3")), load_complex(self.path("c4"))
        self.c3c4_cuts = checker.TorusCuts(product_complex(c3, c4))
        self.c3c3_cuts = checker.TorusCuts(product_complex(c3, c3))
        self._spawn(["lpd", "S1"], None)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _spawn(self, argv, spans_path) -> CliOutcome:
        if spans_path is None:
            cmd = [sys.executable, "-m", "stasys.cli", *argv]
        else:
            cmd = [sys.executable, self.shim, spans_path, *argv]
        t_spawn = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\ntimed out after {self.TIMEOUT_S} s"
        spans = None
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)
            os.remove(spans_path)
        return CliOutcome(proc.returncode, out, err, spans, t_spawn)

    def round(self, r: int, traced: bool) -> list[Query]:
        """One query per line below.  About two thirds of them finish in
        interpreter start-up plus import, so the median measures that wait;
        the ten dearest are the t9 and larger cases, so the tail sample falls
        among the t9 queries, whose cost is cold homology."""
        rng = rng_for(self.seed, self.name, "round", r)
        P = self.path
        t9 = iter(P(f"t9-{i}") for i in range(9))
        error = ("input-error",)

        def lines(*want):
            return ("lines", want)

        def spheres():
            dims = sorted(rng.randint(1, 6) for _ in range(rng.randint(2, 3)))
            return " x ".join(f"S{d}" for d in dims), inputs.expected_sphere_product(tuple(dims))

        def sweep_lines(cuts, parts, ts, csv):
            samples, verdict = checker.expected_sweep(cuts, parts, ts)
            if csv:
                rows = ["t,systole_q2_part0,product,volume,ratio"] + [
                    ",".join(_fmt(x) for x in (s[0], *s[1], s[2], s[3], s[4])) for s in samples]
            else:
                rows = [f"t = {_fmt(s[0])}: product = {_fmt(s[2])}, volume = {_fmt(s[3])}, "
                        f"ratio = {_fmt(s[4])}" for s in samples]
            return lines(*rows, f"verdict: {verdict} *")

        specs = []  # (argv, expectation, known defect)
        for name, length in (("c3", 3), ("c4", 4), ("c6", 6)):
            specs.append((["systole", P(name), "-q", "1"], lines(f"stsys_1 = {length} *"), None))
        specs.append((["systole", P("c4"), "-q", "0"], lines("stsys_0 = 1 *"), None))
        for _ in range(3):
            expr, (low, count) = spheres()
            specs.append((["lpd", expr], lines(f"lpd = {low}"), None))
            expr, (low, count) = spheres()
            specs.append((["catstsys", expr], lines(f"catstsys({expr}) = {count}"), None))
        specs.append((["cup-length", P("sph2")], lines("cup-length = 1"), None))
        specs.append((["cup-length", P("c4")], lines("cup-length = 1"), None))
        specs.append((["lpd", P("sph2")], lines("lpd = 2"), None))
        for name, length in (("c3", 3), ("c4", 4), ("c6", 6)):
            t = inputs.sample_t(rng)
            v = _fmt(length * t)
            specs.append((["verify", "rescale", P(name), "-q", "1", "--t", _fmt(t)],
                          lines(f"PASS rescaling-law: {v} == {v}"), None))
        specs.append((["verify", "degree-sandwich", P("c6"), P("c3"),
                       "--vertex-map", "0,1,2,0,1,2", "-q", "1"],
                      lines("PASS degree-sandwich: 6 sandwich 6"), None))
        specs.append((["homology", P("c4")], lines("H_0: betti = 1", "H_1: betti = 1"), None))
        specs.append((["homology", P("sph2")], lines("H_0: betti = 1", "H_1: betti = 0",
                                                      "H_2: betti = 1"), None))
        specs.append((["homology", P("missing")], error, None))
        specs.append((["homology", P("badweight")], error, None))
        specs.append((["lpd", P("missing")], error, None))
        specs.append((["cup-length", P("ft3")], error, None))
        specs.append((["stable-norm", P("c3"), "-q", "1", "--class", "1,2"], error, None))
        specs.append((["catstsys", "S2 x T3"], error, None))
        specs.append((["homology", P("list")], error, DEFECT_4C))

        specs.append((["homology", P("rp2")], lines("H_0: betti = 1",
                                                     "H_1: betti = 0, torsion = Z/2",
                                                     "H_2: betti = 0"), None))
        coords = inputs.sample_class(rng, rng.choice(inputs.DIRECTIONS))
        a, b = self.ft3_cuts.class_pairing(self.ft3_gens, coords)
        specs.append((["stable-norm", P("ft3"), "-q", "1",
                       "--class=" + ",".join(map(str, coords))],
                      lines(f"stable norm = {_fmt(self.ft3_cuts.norm(a, b))} *"), None))
        specs.append((["deform", P("c3"), P("c3"), "--partition", "2", "--t",
                       ",".join(map(_fmt, ts := inputs.sample_sweep_ts(rng))), "--format", "csv"],
                      sweep_lines(self.c3c3_cuts, (2,), ts, csv=True), None))

        specs.append((["homology", next(t9)], lines("H_0: betti = 1", "H_1: betti = 2",
                                                    "H_2: betti = 1"), None))
        specs.append((["lpd", next(t9)], lines("lpd = 1"), None))
        specs.append((["cup-length", next(t9)], lines("cup-length = 2"), None))
        specs.append((["systole", next(t9), "-q", "2"], lines("stsys_2 = 18 *"), None))
        for _ in range(2):
            m = rng.choice((1, 2, 3))
            specs.append((["stable-norm", next(t9), "-q", "2", "--class", str(m)],
                          lines(f"stable norm = {18 * m} *"), None))
        specs.append((["systole", next(t9), "-q", "0"], lines("stsys_0 = 1 *"), None))
        specs.append((["systole", next(t9), "-q", "1", "-R", "0"], ("not-trivial",), DEFECT_4A))
        specs.append((["verify", "product", P("c3"), P("c4"), "-p", "1", "-q", "1"],
                      lines("PASS product-inequality: 12 <= 12"), None))
        specs.append((["verify", "product", P("c4"), P("c3"), "-p", "1", "-q", "1"],
                      lines("PASS product-inequality: 12 <= 12"), None))

        specs.append((["homology", P("ft4")], lines("H_0: betti = 1", "H_1: betti = 2",
                                                     "H_2: betti = 1"), None))
        specs.append((["systole", next(t9), "-q", "1"], lines("stsys_1 = 3 *"), None))
        specs.append((["verify", "projection", P("sph2"), P("c3"), "-q", "2"],
                      lines("PASS projection-equality: 4 == 4"), None))
        specs.append((["deform", P("c3"), P("c4"), "--partition", "1,1", "--t",
                       ",".join(map(_fmt, ts := inputs.sample_sweep_ts(rng)))],
                      sweep_lines(self.c3c4_cuts, (1, 1), ts, csv=False), None))
        rng.shuffle(specs)
        queries = []
        for i, (argv, expect, defect) in enumerate(specs):
            spans_path = os.path.join(self.dir, f"spans-{r}-{i}.json") if traced else None
            label = " ".join(os.path.basename(a) if a.startswith(self.dir) else a for a in argv)
            self.manifest.append(label + "".join(
                f" {self.tags[n]}" for n in self.FIXTURES if P(n) in argv))
            queries.append(Query(
                f"stasys {label}",
                lambda argv=argv, spans_path=spans_path: self._spawn(argv, spans_path),
                lambda res, expect=expect: checker.cli_problems(res.code, res.out, res.err,
                                                                expect),
                defect))
        return queries


WORKLOADS = {cls.name: cls for cls in (HomologyCold, SystoleWarm, CliOneshot)}
