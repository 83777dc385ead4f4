/// rwbench — the repository's benchmark harness.
///
///   rwbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload (char_cold, guardband_warm, synth_containment) with
/// inputs drawn from the seed, checks the program's outputs, and prints a
/// commented header (host, pool width, build type, grid, seed, cache state,
/// RW_* knobs, every measured value) followed, as the last line, by one JSON
/// object: {"correct", "attempted", "failed", "metrics": {name: value}}.
/// `metrics` holds every value the run measured; perfbench/run.py picks the
/// end-to-end or per-layer set declared in BENCHMARK.json and adds units.
/// A traced run also writes a Chrome trace of its spans.
///
/// Hermetic: every RW_* variable of the caller's environment is cleared and
/// the harness sets its own; all files go to a private directory under
/// .bench_work that is deleted when the run ends.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace fs = std::filesystem;

namespace {

using rwbench::Result;
using rwbench::RunConfig;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Result&);
  const char* cache_state;
};

const Workload kWorkloads[] = {
    {"char_cold", rwbench::run_char_cold, "cold (an empty private disk cache per pass)"},
    {"guardband_warm", rwbench::run_guardband_warm,
     "warm (private disk cache filled cold in set-up)"},
    {"synth_containment", rwbench::run_synth_containment,
     "warm in memory (libraries characterized cold in set-up)"},
};

/// Pool width of the timed passes: fixed, so that a run measures the same
/// parallel schedule on any host with at least this many cores, and small
/// enough to leave cores for the rest of a shared host.
constexpr std::size_t kPoolWidth = 2;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rwbench: %s\nusage: rwbench --workload NAME --seed N --seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

/// Clears every RW_* variable inherited from the caller and sets the
/// harness's own, so no knob from the shell changes what is measured.
std::vector<std::pair<std::string, std::string>> set_knobs(const RunConfig& cfg) {
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RW_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      inherited.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                               : std::strlen(*e));
    }
  }
  for (const auto& name : inherited) unsetenv(name.c_str());
  const std::vector<std::pair<std::string, std::string>> knobs = {
      {"RW_LINT_MIN_SEVERITY", "error"},
      {"RW_THREADS", std::to_string(cfg.width)},
      {"RW_LIBCACHE", fs::absolute(cfg.work_dir + "/cache").string()},
  };
  for (const auto& [k, v] : knobs) setenv(k.c_str(), v.c_str(), 1);
  return knobs;
}

}  // namespace

int main(int argc, char** argv) {
  rwbench::mark_start();
  RunConfig cfg;
  const std::string work_root = ".bench_work";
  const std::string out_dir = ".bench_out";
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
      have_trace = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (cfg.workload.empty() || !have_trace || !(cfg.seconds > 0.0)) usage("missing arguments");
  const auto* workload = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                      [&](const Workload& w) { return cfg.workload == w.name; });
  if (workload == std::end(kWorkloads)) usage("unknown workload " + cfg.workload);
  cfg.width = std::min(kPoolWidth, nproc);
  cfg.setup_width = nproc;

  cfg.work_dir = work_root + "/" + cfg.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(cfg.work_dir, ec);
  fs::create_directories(cfg.work_dir + "/cache");
  const auto knobs = set_knobs(cfg);
  rw::util::set_shared_thread_count(cfg.width);
  auto& tracer = rwbench::Tracer::get();
  tracer.enable(cfg.trace);

  Result result;
  int code = 0;
  try {
    workload->run(cfg, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rwbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    code = 1;
  }
  fs::remove_all(cfg.work_dir, ec);
  if (fs::exists(work_root) && fs::is_empty(work_root, ec)) fs::remove(work_root, ec);
  if (code != 0) return code;

  if (cfg.trace) {
    for (const auto& [layer, s] : tracer.layer_self_s()) result.set("self_s." + layer, s);
    fs::create_directories(out_dir, ec);
    const std::string path =
        out_dir + "/trace-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".json";
    if (tracer.write_chrome_json(path)) result.note("trace_file", path);
  }

  std::printf("# workload: %s\n", cfg.workload.c_str());
  std::printf("# seed: %llu\n", static_cast<unsigned long long>(cfg.seed));
  std::printf("# host_nproc: %zu\n", nproc);
  std::printf("# pool_width: %zu (cold set-up work: %zu)\n", cfg.width, cfg.setup_width);
  std::printf("# build_type: %s\n", RWBENCH_BUILD_TYPE);
  std::printf("# opc_grid: 7x7\n");
  std::printf("# cache_state: %s\n", workload->cache_state);
  std::printf("# traced: %s (%zu spans)\n", cfg.trace ? "yes" : "no", tracer.span_count());
  std::string knob_text;
  for (const auto& [k, v] : knobs) knob_text += (knob_text.empty() ? "" : " ") + k + "=" + v;
  std::printf("# rw_knobs: %s (every other RW_* variable cleared)\n", knob_text.c_str());
  for (const auto& [k, v] : result.header) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  for (const auto& e : result.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  for (const auto& [k, v] : result.metrics) std::printf("# measured %s = %.17g\n", k.c_str(), v);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [k, v] : result.metrics) {
    std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
