"""Run every workload over several seeds and report the spread of each
end-to-end metric: median, quartiles, and (Q3 - Q1) / median next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads homology_cold,cli_oneshot]
                                [--out perfbench/_work/steadiness.json]

Runs go one at a time, seed by seed, each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=os.path.join(HERE, "_work", "steadiness.json"))
    args = parser.parse_args()
    names = args.workloads.split(",")
    values = {name: {} for name in names}
    runs = []
    for seed in seed_list(args.seeds):
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "elapsed_s": elapsed, **result})
            for metric, v in result["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: {elapsed:.1f} s, failed {result['failed']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    print(f"\n{'workload':14} {'metric':15} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name in names:
        for metric, vals in values[name].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary.setdefault(name, {})[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = "" if spread <= bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:14} {metric:15} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bounds[metric]:6.2f}{flag}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": bench["run_seconds"],
            "total_elapsed_s": sum(r["elapsed_s"] for r in runs),
            "summary": summary,
            "runs": runs,
        }, fh, indent=1)
    print(f"\nwrote {args.out}; total {sum(r['elapsed_s'] for r in runs):.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
