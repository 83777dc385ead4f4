#pragma once

/// \file stats.hpp
/// Process-wide solver-level performance counters. Every counter is a
/// relaxed atomic: incrementing from worker threads is effectively free, and
/// the numbers are diagnostics (they never feed back into results, so
/// snapshot tearing across counters is acceptable). `bench/perf_micro`
/// resets them around each study and emits the snapshot into
/// BENCH_perf.json, making the perf trajectory attributable — how many
/// Newton solves ran, how many factorizations they needed, how often the DC
/// warm start hit, and how many solves interpolation avoided entirely.

#include <cstdint>

namespace rw::spice {

/// One snapshot of the counters (see `solver_counters()`).
struct SolverCounters {
  std::uint64_t newton_iterations = 0;   ///< Newton steps across all solves
  std::uint64_t factorizations = 0;      ///< sparse LU numeric refactorizations
  std::uint64_t dense_fallbacks = 0;     ///< pivot-failure falls to dense PP-LU
  std::uint64_t dc_solves = 0;           ///< full (cold) DC operating points
  std::uint64_t transient_attempts = 0;  ///< transient attempts incl. ladder rungs
  std::uint64_t warm_start_hits = 0;     ///< transients seeded from a shared DC
  std::uint64_t warm_start_misses = 0;   ///< warm seed rejected -> cold DC
  // `workspace_for` cache misses and hits. The cache is per thread, so a
  // topology is built once on each thread that solves it. One lookup per
  // transient attempt, cold DC solve and warm-start polish (not per Newton
  // iteration).
  std::uint64_t workspace_builds = 0;    ///< misses: symbolic analyses
  std::uint64_t workspace_reuses = 0;    ///< hits on the thread's cache
};

/// Current counter values (monotone since the last reset).
SolverCounters solver_counters();

/// Zeroes every counter (benches call this before a measured study).
void reset_solver_counters();

/// Internal increment hooks (relaxed atomics; safe from any thread).
namespace stats {
void add_newton_iterations(std::uint64_t n);
void add_factorization();
void add_dense_fallback();
void add_dc_solve();
void add_transient_attempt();
void add_warm_start_hit();
void add_warm_start_miss();
void add_workspace_build();
void add_workspace_reuse();
}  // namespace stats

}  // namespace rw::spice
