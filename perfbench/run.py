"""stasys benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload homology_cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  Every answer is checked by perfbench/checker.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("homology_cold", "systole_warm", "cli_oneshot")
TAIL_BEYOND = 10
REF_WINDOW = 8

E2E_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "queries_per_s": "1/s",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_systole")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the median when there are too few."""
    xs = sorted(latencies)
    i = len(xs) - TAIL_BEYOND - 1
    if i < 0:
        return statistics.median(xs), 50.0
    return xs[i], 100.0 * (i + 1) / len(xs)


def run_pass(wl, rounds: int, traced: bool, tracer=None):
    """Run `rounds` rounds closed-loop, each wl.PASSES times in a fresh
    seeded order; returns (records, timed wall seconds).

    A record is (query, wall seconds, output, error, seconds of the
    workload's host-speed reference timed just before the query, or None
    where wl.REF_EVERY skips it).  Input preparation for a round happens
    before its clock starts; answers are checked later, outside the timed
    region."""
    import hostspeed
    import workloads

    reference = hostspeed.REFERENCES[wl.REFERENCE][0]
    records, wall = [], 0.0
    for r in range(rounds):
        queries = wl.round(r, traced)
        for p in range(wl.PASSES):
            order = list(queries)
            if p:
                workloads.rng_for(wl.seed, wl.name, "pass", r, p, int(traced)).shuffle(order)
            for q in order:
                ref = reference() if len(records) % wl.REF_EVERY == 0 else None
                if tracer is not None:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    out, error = q.run(), None
                except Exception as exc:  # a failed query is counted, not fatal
                    out, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
                wall += elapsed
                records.append((q, elapsed, out, error, ref))
    return records, wall


def query_latencies(wl, records) -> tuple[list[float], list[float]]:
    """Each query's latency, the median over its passes: (at the reference
    host speed, as wall time).  The host's speed at a run is read from the
    reference times of the REF_WINDOW runs on either side of it."""
    import hostspeed

    refs = [rec[4] for rec in records]
    scaled: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    for i, (q, lat, _out, _error, _ref) in enumerate(records):
        window = [x for x in refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1] if x is not None]
        scaled.setdefault(id(q), []).append(lat * hostspeed.scale(wl.REFERENCE, window))
        raw.setdefault(id(q), []).append(lat)
    return ([statistics.median(v) for v in scaled.values()],
            [statistics.median(v) for v in raw.values()])


def check(records) -> list[tuple]:
    """(query, problems) for every query whose answer is wrong."""
    failures = []
    for q, _lat, out, error, _ref in records:
        problems = [error] if error else q.check(out)
        if problems:
            failures.append((q, problems))
    return failures


def report(wl, records, failures) -> dict:
    import inputs

    attempted = len(records)
    unexpected = [f for f in failures if not f[0].known_defect]
    for q, problems in failures:
        tag = f"known defect, {q.known_defect}" if q.known_defect else "FAILED"
        print(f"  [{tag}] {q.label}: {'; '.join(problems)[:300]}")
    print(f"inputs sha256:{inputs.digest(wl.manifest)} "
          f"({len(wl.manifest)} generated inputs)")
    print(f"fail_frac = {len(failures) / attempted:.6g} ({len(failures)} of {attempted}; "
          f"{len(failures) - len(unexpected)} are known defects)")
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures)}


def timed_run(wl, name: str, seconds: float) -> dict:
    import hostspeed

    setup, setup_raw = [], []
    for rep in range(wl.SETUP_REPS):
        before = hostspeed.samples(wl.REFERENCE, wl.SETUP_REF_SAMPLES)
        t0 = time.perf_counter()
        wl.setup(rep, wl.SETUP_REPS)
        elapsed = time.perf_counter() - t0
        after = hostspeed.samples(wl.REFERENCE, wl.SETUP_REF_SAMPLES)
        setup_raw.append(elapsed)
        setup.append(elapsed * hostspeed.scale(wl.REFERENCE, before + after))
    rounds = max(1, round(seconds / (wl.NOMINAL_ROUND_S * wl.PASSES)))
    records, wall = run_pass(wl, rounds, traced=False)
    latencies, raw = query_latencies(wl, records)
    failures = check(records)
    who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "queries_per_s": len(latencies) / sum(latencies),
        "pass_frac": 1 - len(failures) / len(records),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    ref = statistics.median(rec[4] for rec in records if rec[4] is not None)
    print(f"workload={name} rounds={rounds} passes={wl.PASSES} queries={len(latencies)} "
          f"runs={len(records)} timed_wall_s={wall:.4f}")
    print(f"as wall time: latency_p50_s={statistics.median(raw):.6g} "
          f"latency_tail_s={tail(raw)[0]:.6g} queries_per_s={len(raw) / sum(raw):.6g} "
          f"setup_s={statistics.median(setup_raw):.6g} "
          f"(host-speed reference '{wl.REFERENCE}': median {ref:.6g} s, "
          f"{hostspeed.REFERENCES[wl.REFERENCE][1]} s at the reference speed)")
    for key, value in metrics.items():
        note = f"  (p{tail_pct:.1f} of {len(latencies)} samples)" if key == "latency_tail_s" else ""
        print(f"{key} = {value:.6g} {E2E_UNITS[key]}{note}")
    result = report(wl, records, failures)
    result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    return result


def traced_run(wl, name: str, seconds: float, seed: int) -> dict:
    """Untraced pass, then the same queries traced; per-layer metrics come
    from the traced pass and the ratio of the two walls is the overhead."""
    import tracing
    import workloads

    wl.setup(0, 1)
    rounds = max(1, round(seconds / (wl.NOMINAL_ROUND_S * wl.PASSES)))
    plain, wall0 = run_pass(wl, rounds, traced=False)
    if name == "cli_oneshot":
        traced, wall1 = run_pass(wl, rounds, traced=True)
        spans, interp_s, import_s = [], 0.0, 0.0
        for _q, _lat, out, _e, _ref in traced:
            if out is None or out.spans is None:
                continue
            base = len(spans)
            spans += [[s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                      for s in out.spans["spans"]]
            interp_s += out.spans["t_start"] - out.t_spawn
            import_s += out.spans["import_s"]
    else:
        tracer = tracing.Tracer()
        traced, wall1 = run_pass(wl, rounds, traced=True, tracer=tracer)
        spans, interp_s, import_s = tracer.spans, 0.0, 0.0
    metrics = tracing.layer_metrics(spans)
    metrics["cli.interp_s"] = interp_s
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = wall1 / wall0 - 1
    os.makedirs(workloads.WORK, exist_ok=True)
    with open(os.path.join(workloads.WORK, f"spans-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "counts"], "spans": spans}, fh)
    print(f"workload={name} traced rounds={rounds} queries={len(traced)} "
          f"untraced_wall_s={wall0:.4f} traced_wall_s={wall1:.4f} spans={len(spans)}")
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]:.6g} {layer_unit(key)}")
    records = plain + traced
    result = report(wl, records, check(records))
    result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    return result


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stasys", "__init__.py")):
        print(f"error: no stasys sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            result = traced_run(wl, args.workload, args.seconds, args.seed)
        else:
            result = timed_run(wl, args.workload, args.seconds)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    print(f"seed={args.seed} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
