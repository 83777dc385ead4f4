#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the harness (perfbench/CMakeLists.txt, which compiles the library
from ../src) into $CARGO_TARGET_DIR or .bench_build, then runs it. The
harness prints a commented header and, as its last line, one JSON object
with every value it measured; this script prints the header and, as the last
line, the same object holding only the metrics BENCHMARK.json declares for
the run (end-to-end with --trace 0, per-layer with --trace 1), with their
units. A per-layer metric of a layer the workload does not use reads 0.
Build output goes to stderr. Exits non-zero, printing no result, when the
library sources are missing or the build or run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target):
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail(f"no library sources at {os.path.dirname(src)}; run from the root of a checkout")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another source tree cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = next((l.split("=", 1)[1].strip() for l in f
                         if l.startswith("CMAKE_HOME_DIRECTORY:")), "")
        if os.path.realpath(home) != os.path.realpath(BENCH_DIR):
            shutil.rmtree(build_dir)
    if not os.path.isfile(cache):
        r = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr, check=False)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=False)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def declared_metrics(trace):
    """(name, unit) of the per-layer or end-to-end metrics in BENCHMARK.json."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-tests of the correctness checks")
    args = ap.parse_args()
    root = os.getcwd()

    if args.selftest:
        exe = build(root, "rwbench_selftest")
        sys.exit(subprocess.run([exe], cwd=root, check=False).returncode)
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")

    exe = build(root, "rwbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        fail(f"{args.workload} exited with code {proc.returncode}")
    measured = json.loads(lines[-1])
    metrics = {}
    for name, unit in declared_metrics(args.trace == 1):
        if name in measured["metrics"]:
            metrics[name] = {"value": measured["metrics"][name], "unit": unit}
        elif args.trace == 1:
            metrics[name] = {"value": 0, "unit": unit}  # a layer this workload does not use
        else:
            fail(f"{args.workload} did not measure the end-to-end metric {name}")
    measured["metrics"] = metrics
    sys.stdout.write("\n".join(lines[:-1]) + "\n" + json.dumps(measured) + "\n")


if __name__ == "__main__":
    main()
