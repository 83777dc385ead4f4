#pragma once

/// \file common.hpp
/// Helpers the workloads share: the factory options of a private cache, the
/// timed-pass loop, and the SPICE counter snapshot as layer metrics.

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "charlib/factory.hpp"
#include "spice/stats.hpp"

namespace rwbench {

/// Factory options over `cache_dir` on the paper's 7x7 grid; everything
/// else at its default (the environment is already scrubbed by main()).
inline rw::charlib::LibraryFactory::Options factory_options(const std::string& cache_dir) {
  rw::charlib::LibraryFactory::Options o = rw::charlib::LibraryFactory::default_options();
  o.cache_dir = cache_dir;
  o.resume = false;
  return o;
}

/// Wall and CPU seconds of a timed stretch.
struct Lap {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + system of this process, all threads
};

/// Times from construction; `lap()` reads what has elapsed since.
class Stopwatch {
 public:
  Stopwatch() : wall0_(now_s()), cpu0_(self_cpu_s()) {}
  [[nodiscard]] Lap lap() const { return {now_s() - wall0_, self_cpu_s() - cpu0_}; }

 private:
  double wall0_;
  double cpu0_;
};

/// Wall and CPU time of each timed pass.
struct PassTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  double total_s = 0.0;

  [[nodiscard]] std::size_t passes() const { return wall_s.size(); }
};

/// Runs whole passes until `seconds` of wall time have been measured (at
/// least one). `pass(k)` returns the time it wants billed; the work it does
/// around that (checks, cleanup) is not timed.
inline PassTimes run_passes(double seconds, const std::function<Lap(int)>& pass) {
  PassTimes t;
  while (t.wall_s.empty() || t.total_s < seconds) {
    const Lap lap = pass(static_cast<int>(t.wall_s.size()));
    t.wall_s.push_back(lap.wall_s);
    t.cpu_s.push_back(lap.cpu_s);
    t.total_s += lap.wall_s;
  }
  return t;
}

/// The end-to-end metrics every workload reports: medians over the passes.
inline void set_end_to_end(Result& r, const PassTimes& t, double setup_s, double peak_rss_mb) {
  r.set("pass_s", median(t.wall_s));
  r.set("cpu_s", median(t.cpu_s));
  r.set("peak_rss_mb", peak_rss_mb);
  r.set("setup_s", setup_s);
  std::string walls;
  for (const double w : t.wall_s) walls += (walls.empty() ? "" : " ") + std::to_string(w);
  r.note("passes", std::to_string(t.passes()) + " (wall s: " + walls + ")");
}

/// SPICE solver counters as `spice.*` layer metrics (with the two ratios).
inline void set_spice_metrics(Result& r, const rw::spice::SolverCounters& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.set("spice.newton_iterations", d(c.newton_iterations));
  r.set("spice.factorizations", d(c.factorizations));
  r.set("spice.transient_attempts", d(c.transient_attempts));
  r.set("spice.dense_fallbacks", d(c.dense_fallbacks));
  r.set("spice.workspace_builds", d(c.workspace_builds));
  const double warm = d(c.warm_start_hits) + d(c.warm_start_misses);
  r.set("spice.warm_start_hit_rate", warm > 0 ? d(c.warm_start_hits) / warm : 0.0);
  r.set("spice.factorizations_per_newton",
        c.newton_iterations > 0 ? d(c.factorizations) / d(c.newton_iterations) : 0.0);
  r.set("spice.newton_per_transient",
        c.transient_attempts > 0 ? d(c.newton_iterations) / d(c.transient_attempts) : 0.0);
}

}  // namespace rwbench
