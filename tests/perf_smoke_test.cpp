#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "cells/catalog.hpp"
#include "charlib/characterizer.hpp"
#include "spice/stats.hpp"
#include "util/thread_pool.hpp"

namespace rw::charlib {
namespace {

CharacterizeOptions coarse_options() {
  CharacterizeOptions o;
  o.grid = OpcGrid::coarse();
  return o;
}

TEST(PerfSmoke, WorkspaceIsReusedAcrossSolves) {
  // The structure-reusing solver: one symbolic analysis (ordering + fill)
  // per circuit topology *per pool thread* — `workspace_for` keeps a
  // thread-local cache — then in-place refactorization for every Newton
  // iteration of every timestep. The build/reuse counters tick once per
  // solver driver (transient attempt, cold DC solve, warm-start polish),
  // not once per Newton iteration. INV_X1's rise and fall benches and their
  // shared DC solves differ only in element values, so they share one
  // topology: each thread that runs a task builds at most once, whatever
  // the pool size.
  const auto& spec = cells::find_cell("INV_X1");
  const auto scenario = aging::AgingScenario::worst_case(10);
  const CharacterizeOptions options = coarse_options();
  const std::uint64_t max_builds = std::min(util::ThreadPool::shared().size(),
                                            CellCharJob(spec, scenario, options).task_count());

  spice::reset_solver_counters();
  const liberty::Cell cell = characterize_cell(spec, scenario, options);
  ASSERT_FALSE(cell.arcs.empty());

  const spice::SolverCounters c = spice::solver_counters();
  EXPECT_GT(c.factorizations, 0u);
  EXPECT_GT(c.workspace_builds, 0u);
  // Every driver looks its workspace up exactly once: a build or a reuse.
  EXPECT_EQ(c.workspace_builds + c.workspace_reuses,
            c.transient_attempts + c.dc_solves + c.warm_start_hits + c.warm_start_misses);
  EXPECT_LE(c.workspace_builds, max_builds) << "workspace cache is not being reused";
  // Static pivoting holds on healthy cell matrices; the dense fallback is
  // for pivot collapse only.
  EXPECT_EQ(c.dense_fallbacks, 0u);
}

TEST(PerfSmoke, WarmStartSeedsEveryGridPoint) {
  // Every transient on an arc is seeded from the arc's shared DC operating
  // point; the seed polish should succeed for all of them (hits, no misses)
  // on a healthy cell.
  spice::reset_solver_counters();
  (void)characterize_cell(cells::find_cell("NAND2_X1"), aging::AgingScenario::worst_case(10),
                          coarse_options());
  const spice::SolverCounters c = spice::solver_counters();
  EXPECT_GT(c.warm_start_hits, 0u);
  EXPECT_EQ(c.warm_start_misses, 0u);
}

TEST(PerfSmoke, TaskQueueIsOrderAndThreadIndependent) {
  // The flattened scheduler may run a cell's (arc × OPC) tasks in any order
  // on any thread; the assembled cell must be bitwise identical. Run the
  // queue backwards serially and compare against the pooled path.
  const auto& spec = cells::find_cell("NOR2_X1");
  const auto scenario = aging::AgingScenario::worst_case(10);
  const CharacterizeOptions options = coarse_options();

  CellCharJob backwards(spec, scenario, options);
  for (std::size_t t = backwards.task_count(); t-- > 0;) backwards.run_task(t);
  const liberty::Cell reversed = backwards.finish();

  util::set_shared_thread_count(4);
  const liberty::Cell pooled = characterize_cell(spec, scenario, options);
  util::set_shared_thread_count(0);

  ASSERT_EQ(reversed.arcs.size(), pooled.arcs.size());
  for (std::size_t i = 0; i < reversed.arcs.size(); ++i) {
    EXPECT_EQ(reversed.arcs[i].rise.delay_ps.values(), pooled.arcs[i].rise.delay_ps.values());
    EXPECT_EQ(reversed.arcs[i].fall.delay_ps.values(), pooled.arcs[i].fall.delay_ps.values());
    EXPECT_EQ(reversed.arcs[i].rise.out_slew_ps.values(),
              pooled.arcs[i].rise.out_slew_ps.values());
    EXPECT_EQ(reversed.arcs[i].fall.out_slew_ps.values(),
              pooled.arcs[i].fall.out_slew_ps.values());
  }
}

}  // namespace
}  // namespace rw::charlib
