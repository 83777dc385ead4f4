#pragma once

/// \file bench.hpp
/// Shared pieces of the benchmark harness: the run configuration, the
/// result every workload fills, process clocks, and the span tracer. The
/// harness links the reliaware library and calls its public API the way a
/// user's program does; nothing here reaches into the library's internals.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rwbench {

/// Everything that defines one run. `seconds` is the length of the timed
/// phase: a workload repeats whole passes until it is reached.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t width = 1;        ///< pinned pool width of the timed passes
  std::size_t setup_width = 1;  ///< pool width of cold set-up work (host nproc)
  std::string work_dir;         ///< private, created and deleted by main()
};

/// What a workload reports. `metrics` holds every value it measured; main()
/// prints them all and run.py keeps those BENCHMARK.json declares.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures (make `correct` false)
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> header;  ///< extra recorded facts

  void error(const std::string& what) { errors.push_back(what); }
  void set(const std::string& name, double value) { metrics[name] = value; }
  void add(const std::string& name, double value) { metrics[name] += value; }
  void note(const std::string& key, const std::string& value) { header.emplace_back(key, value); }
};

/// Monotonic seconds since an arbitrary origin.
double now_s();
/// User + system CPU seconds of this process (all threads).
double self_cpu_s();
/// Peak resident set of this process in MB.
double self_peak_rss_mb();
/// Seconds since main() started.
double since_start_s();
void mark_start();

/// Median of `v` (the mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> v);

/// Span recorder for traced runs. Spans are taken around the harness's own
/// calls into each library module (name "<layer>.<call>"), kept in memory and
/// written as Chrome trace-event JSON at the end of the run. Disabled, a
/// span still times its scope (callers read `seconds()`), but records nothing.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the scope opened.
    [[nodiscard]] double seconds() const;

   private:
    Tracer& tracer_;
    int index_ = -1;
    double start_s_ = 0.0;
  };

  /// Writes `{"traceEvents": [...]}` (complete "X" events, microseconds).
  bool write_chrome_json(const std::string& path) const;
  /// Self time per layer (the span name up to its first '.'): each span's
  /// duration minus the time its direct children cover.
  [[nodiscard]] std::map<std::string, double> layer_self_s() const;
  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;
    int parent = -1;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices (harness main thread only)
};

inline Tracer::Scope span(std::string name) { return Tracer::Scope(Tracer::get(), std::move(name)); }

// Workloads. Each fills `result`; an exception escaping one is a failed run.
void run_char_cold(const RunConfig& cfg, Result& result);
void run_guardband_warm(const RunConfig& cfg, Result& result);
void run_synth_containment(const RunConfig& cfg, Result& result);

}  // namespace rwbench
