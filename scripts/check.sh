#!/usr/bin/env bash
# Pre-merge entry point: strict build, full test suite, design-rule lint of
# the shipped fixtures, and (when installed) clang-tidy over src/.
#
# Usage: scripts/check.sh [build-dir]     (default: build-check)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (-Werror) =="
cmake -B "$BUILD_DIR" -S . -DRELIAWARE_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== rwlint: example fixtures must be clean =="
RWLINT="$BUILD_DIR/tools/rwlint"
"$RWLINT" --lib examples/fixtures/mini.lib examples/fixtures/clean.v
"$RWLINT" --lib examples/fixtures/merged.lib examples/fixtures/annotated.v

echo "== rwlint: seeded-broken fixture must fail =="
if "$RWLINT" --format json --lib examples/fixtures/mini.lib tests/fixtures/broken.v; then
  echo "error: rwlint accepted tests/fixtures/broken.v" >&2
  exit 1
else
  echo "rwlint rejected broken.v as expected (exit $?)"
fi

echo "== rwstress: clean fixture must be deterministic across thread counts =="
RWSTRESS="$BUILD_DIR/tools/rwstress"
"$RWSTRESS" --threads 1 --lib examples/fixtures/mini.lib examples/fixtures/clean.v > "$BUILD_DIR/rwstress.1t.out"
"$RWSTRESS" --threads "$JOBS" --lib examples/fixtures/mini.lib examples/fixtures/clean.v > "$BUILD_DIR/rwstress.nt.out"
diff "$BUILD_DIR/rwstress.1t.out" "$BUILD_DIR/rwstress.nt.out"
echo "rwstress output bitwise identical at 1 vs $JOBS threads"

echo "== rwactivity: proven toggle bounds must be deterministic across thread counts =="
RWACTIVITY="$BUILD_DIR/tools/rwactivity"
"$RWACTIVITY" --threads 1 --lib examples/fixtures/mini.lib examples/fixtures/clean.v > "$BUILD_DIR/rwactivity.1t.out"
"$RWACTIVITY" --threads "$JOBS" --lib examples/fixtures/mini.lib examples/fixtures/clean.v > "$BUILD_DIR/rwactivity.nt.out"
diff "$BUILD_DIR/rwactivity.1t.out" "$BUILD_DIR/rwactivity.nt.out"
echo "rwactivity output bitwise identical at 1 vs $JOBS threads"

echo "== rwprove: certified bounds must be deterministic across thread counts =="
RWPROVE="$BUILD_DIR/tools/rwprove"
"$RWPROVE" --threads 1 --fresh examples/fixtures/mini.lib \
  --lib examples/fixtures/proven.lib examples/fixtures/clean.v > "$BUILD_DIR/rwprove.1t.out"
"$RWPROVE" --threads "$JOBS" --fresh examples/fixtures/mini.lib \
  --lib examples/fixtures/proven.lib examples/fixtures/clean.v > "$BUILD_DIR/rwprove.nt.out"
diff "$BUILD_DIR/rwprove.1t.out" "$BUILD_DIR/rwprove.nt.out"
echo "rwprove output bitwise identical at 1 vs $JOBS threads"

echo "== perf smoke: flattened characterization must scale across threads =="
# The flattened (scenario × cell × arc × OPC) scheduler plus the
# structure-reusing solver: an N-thread library characterization must beat
# 1 thread by >1.5x. Only demonstrable with >=2 cores; single-core runners
# still exercise the path (and the counters) but skip the ratio gate.
PERF_MICRO="$BUILD_DIR/bench/perf_micro"
"$PERF_MICRO" --json-only --threads "$JOBS" --json-cells=8 \
  --json-out="$BUILD_DIR/perf_smoke.json"
SPEEDUP="$(sed -n 's/.*"char_library".*"speedup": \([0-9.]*\).*/\1/p' \
  "$BUILD_DIR/perf_smoke.json")"
echo "char_library speedup at $JOBS thread(s): ${SPEEDUP}x"
if [[ "$JOBS" -ge 2 ]]; then
  if ! awk -v s="$SPEEDUP" 'BEGIN{exit !(s > 1.5)}'; then
    echo "error: char_library $JOBS-thread speedup ${SPEEDUP}x <= 1.5x" >&2
    exit 1
  fi
else
  echo "single core: thread-speedup ratio gate skipped (needs >= 2 cores)"
fi

echo "== chaos: fixed-seed campaign in the plain tree =="
# Crash-only contract drill: every seeded trial (solver faults, deadlines,
# SIGKILL at stage boundaries) must either complete correctly or fail with
# a structured report and then resume bitwise-identically. The ctest run
# above already executed the chaos label once; this re-runs it explicitly
# so a filtered ctest invocation cannot silently drop the gate.
ctest --test-dir "$BUILD_DIR" -L chaos --output-on-failure

echo "== serve: crash-tolerant characterization service in the plain tree =="
# rwserved's failure contract: worker leases + SIGKILL redelivery, daemon
# restart with idempotent-id replay, cross-process dedup (exactly one SPICE
# campaign for concurrent duplicates), bounded overload shedding, SIGTERM
# drain — plus the 3-fixed-seed `rwchaos --serve` smoke. Re-run explicitly
# so a filtered ctest invocation cannot drop the gate.
ctest --test-dir "$BUILD_DIR" -L serve --output-on-failure

echo "== prove: certified interval-STA suite in the plain tree =="
# The soundness contract (simulated aged delay inside the proven interval,
# scalar collapse, PV verdicts, fixture exit codes). As with the chaos label,
# re-run explicitly so a filtered ctest invocation cannot drop the gate.
ctest --test-dir "$BUILD_DIR" -L prove --output-on-failure -j "$JOBS"

echo "== activity: switching-activity bounds suite in the plain tree =="
# The toggle-rate soundness contract (simulated rates inside the proven
# density intervals on every paper circuit, zero-width collapse to
# simulator-exact rates, CLI thread invariance + AC verdicts). Re-run
# explicitly so a filtered ctest invocation cannot drop the gate.
ctest --test-dir "$BUILD_DIR" -L activity --output-on-failure -j "$JOBS"

echo "== resilience + stress + chaos suites under ThreadSanitizer =="
# The fault-injection paths (injector arming, in-flight dedup failure
# propagation, manifest writes), the stress analyzer's levelized parallel
# evaluation, and the cancellation polls (token + watchdog + cv waiters)
# are concurrency surfaces; run them in a dedicated TSan tree alongside
# the plain-build run above.
if [[ "${RW_SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DRW_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$JOBS" --target \
    resilience_test thread_pool_test stress_test activity_test prove_test \
    cancel_test orchestrator_test flow_resume_test rwchaos rwprove \
    rwactivity perf_smoke_test adaptive_grid_test serve_test
  ctest --test-dir "$TSAN_DIR" -L resilience --output-on-failure -j "$JOBS"
  ctest --test-dir "$TSAN_DIR" -L stress --output-on-failure -j "$JOBS"
  # The density sweep shares the stress analyzer's levelized parallel
  # evaluation (one writer per output net); activity_test also drives the
  # rwactivity CLI's thread-invariance contract under TSan.
  ctest --test-dir "$TSAN_DIR" -L activity --output-on-failure -j "$JOBS"
  ctest --test-dir "$TSAN_DIR" -L prove --output-on-failure -j "$JOBS"
  ctest --test-dir "$TSAN_DIR" -L chaos --output-on-failure
  # The serve label (daemon supervisor, socketpair worker protocol, client
  # retry loop) forks real daemons; TSan watches the pre-fork pool shrink
  # and the supervisor's reap/redeliver bookkeeping.
  ctest --test-dir "$TSAN_DIR" -L serve --output-on-failure
  # The workspace-reuse solve path and the flattened batch scheduler are
  # the new concurrency surfaces: thread-local workspace caches, the shared
  # once-per-arc DC seed, and the batch's per-item error slots.
  ctest --test-dir "$TSAN_DIR" -L perf --output-on-failure -j "$JOBS"
else
  echo "RW_SKIP_TSAN=1; skipping"
fi

echo "== parser + interp + netlist + lint suites under UndefinedBehaviorSanitizer =="
# Index-heavy code (the Liberty parser, table interpolation, the netlist's
# open-addressing net-name index, the lint rules' fan-out tables) in a
# dedicated -fno-sanitize-recover UBSan tree: any UB finding fails a test.
if [[ "${RW_SKIP_UBSAN:-0}" != "1" ]]; then
  UBSAN_DIR="${BUILD_DIR}-ubsan"
  cmake -B "$UBSAN_DIR" -S . -DRW_SANITIZE=undefined
  cmake --build "$UBSAN_DIR" -j "$JOBS" --target util_test liberty_test netlist_test lint_test
  ctest --test-dir "$UBSAN_DIR" -L ubsan_smoke --output-on-failure -j "$JOBS"
else
  echo "RW_SKIP_UBSAN=1; skipping"
fi

echo "== clang-tidy (failing gate; --warnings-as-errors) =="
# A FAILING gate, not advisory: lint_cxx passes --warnings-as-errors=* so any
# clang-tidy finding (config in .clang-tidy) fails this script. Only skipped
# — loudly — when the binary is absent from the machine.
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build "$BUILD_DIR" --target lint_cxx
else
  echo "WARNING: clang-tidy not installed; gate SKIPPED (it fails the build when present)" >&2
fi

echo "== cppcheck (failing gate; scripts/cppcheck_suppressions.txt) =="
# Same contract: --error-exitcode=1 with the checked-in suppression list;
# new findings must be fixed or explicitly suppressed in that file.
if command -v cppcheck >/dev/null 2>&1; then
  cmake --build "$BUILD_DIR" --target cppcheck_cxx
else
  echo "WARNING: cppcheck not installed; gate SKIPPED (it fails the build when present)" >&2
fi

echo "== all checks passed =="
