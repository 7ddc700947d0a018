#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record it.

    python3 perfbench/steadiness.py --runs 10 --first-seed 101 \
        --out perfbench/steadiness.json

Runs ``run.py`` ``--runs`` times per workload, each with its own seed,
and reports for every end-to-end metric the distance between the first
and third quartile of the run values over their median, next to the
metric's bound from ``BENCHMARK.json``.  One traced run per workload
adds the per-layer figures.  The set is appended to the ``sets`` list of
``--out``; when an earlier set of the same benchmark code is there (same
``fingerprint``), the medians of the two are compared as well.  Exits 1 when a spread is wider than its bound, or a
median is worse than the previous set's by more than its bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import host_facts
from stats import spread
from workloads import ROOT, WORKLOADS


#: The files whose content defines what the benchmark measures.
MEASURING = ("BENCHMARK.json", "perfbench/run.py", "perfbench/tasks.py",
             "perfbench/workloads.py", "perfbench/spans.py",
             "perfbench/stats.py")


def fingerprint() -> str:
    digest = hashlib.sha256()
    for name in MEASURING:
        digest.update((ROOT / name).read_bytes())
    return digest.hexdigest()[:16]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stdout[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def measure_set(workloads, seeds, seconds: int, bounds: dict) -> dict:
    out = {}
    for workload in workloads:
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        traced = one_run(workload, seeds[0], seconds, 1)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {
                "median": statistics.median(values), "spread": spread(values),
                "bound": bound, "values": values,
            }
        out[workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "run_wall_s": [round(r["wall_s"], 1) for r in runs],
            "traced_wall_s": round(traced["wall_s"], 1),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    return out


def verdict(current: dict, previous: dict | None, better: dict) -> bool:
    ok = True
    for workload, w in current.items():
        for name, m in w["metrics"].items():
            line = (f"{workload:12} {name:16} median {m['median']:10.4f} "
                    f"spread {m['spread']:.4f} (bound {m['bound']})")
            if m["spread"] > m["bound"]:
                ok = False
                line += " SPREAD"
            before = (previous or {}).get(workload, {}).get("metrics", {})
            if name in before:
                worse = m["median"] / before[name]["median"] - 1
                if better[name] == "higher":
                    worse = -worse
                line += f"; vs previous set {worse:+.4f}"
                if worse > m["bound"]:
                    ok = False
                    line += " WORSE"
            print(line)
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.runs)]
    record = json.loads(args.out.read_text()) if args.out.exists() \
        else {"sets": []}
    same = [s for s in record["sets"] if s.get("fingerprint") == fingerprint()]
    previous = same[-1]["workloads"] if same else None
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    workloads = measure_set(args.workloads, seeds, seconds, bounds)
    record["sets"].append({
        "started": started,
        "fingerprint": fingerprint(),
        "host": host_facts(argparse.Namespace(
            workload="several", seed=seeds[0], seconds=seconds, trace=0)),
        "seeds": seeds,
        "workloads": workloads,
    })
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if verdict(workloads, previous, better) else 1


if __name__ == "__main__":
    sys.exit(main())
