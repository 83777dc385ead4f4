#!/usr/bin/env python3
"""Measure the run-to-run spread of one or more workloads.

    python3 perfbench/steady.py --workload char_cold [--workload ...]
        [--runs 10] [--first-seed 1] [--same-seed] [--seconds S] [--trace 0|1]

Runs `perfbench/run.py` RUNS times per workload from the current directory
(the root of a checkout), with seeds first-seed, first-seed+1, ... (or one
seed with --same-seed). For every metric it prints the median, the first and
third quartiles (Python's statistics.quantiles(values, n=4)) and their
distance as a share of the median, next to a third of the metric's bound
from BENCHMARK.json, which is the spread the benchmark aims to stay under.
It also prints the failed share of operations, which must be identical in
every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            runs.append(result)
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, {values}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, correct in all: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr/med':>8s} "
              f"{'bound/3':>8s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            target = f"{bound / 3:8.3f}" if bound is not None and args.trace == 0 else " " * 8
            if bound is not None and args.trace == 0 and name != "setup_s":
                worst = max(worst, spread / (bound / 3))
            print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {target}")
        print()
    if args.trace == 0:
        print(f"largest spread as a share of bound/3 (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
