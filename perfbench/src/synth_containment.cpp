/// synth_containment: the Fig. 6 aging-aware synthesis flow. Set-up
/// characterizes the fresh and worst_case(10) libraries cold; each timed pass
/// runs flow::run_containment at full effort (multi-start, buffering,
/// sizing) on RISC-5P and the FFT datapath (>10k instances), in a seeded
/// order. Nearly all of the time is in synth and in the full sta::Sta
/// rebuilds that sizing does. An operation is one circuit's containment.

#include <algorithm>
#include <filesystem>
#include <cmath>
#include <optional>

#include "checks.hpp"
#include "circuits/benchmarks.hpp"
#include "common.hpp"
#include "flow/aging_aware_synthesis.hpp"
#include "sta/analysis.hpp"
#include "synth/decompose.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace rwbench {

namespace {

constexpr double kYears = 10.0;
constexpr int kCosimCycles = 200;

struct Circuit {
  std::string name;
  rw::synth::Ir ir;
};

/// synthesize() taken apart into its public stages, each under its own span:
/// decompose once, then map → buffer → size per multi-start setting, keeping
/// the best critical path (the rule synthesize() uses).
rw::synth::SynthesisResult staged_synthesis(const rw::synth::Ir& ir,
                                            const rw::liberty::Library& library,
                                            const std::string& top,
                                            const rw::synth::SynthesisOptions& options,
                                            Result& r) {
  rw::synth::SubjectGraph graph;
  {
    auto s = span("synth.decompose");
    graph = rw::synth::decompose(ir);
    r.add("synth.decompose_s", s.seconds());
  }
  std::optional<rw::synth::SynthesisResult> best;
  for (const double slew : {40.0, 120.0}) {
    for (const double load_per_fanout : {1.0, 2.5}) {
      rw::synth::MapperOptions m = options.mapper;
      m.est_slew_ps = slew;
      m.est_load_per_fanout_ff = load_per_fanout;
      rw::synth::SynthesisResult c{rw::netlist::Module(top)};
      {
        auto s = span("synth.map_to_library");
        c.module = rw::synth::map_to_library(graph, library, m, top);
        r.add("synth.map_s", s.seconds());
      }
      {
        auto s = span("synth.buffer_high_fanout");
        (void)rw::synth::buffer_high_fanout(c.module, library, options.buffering);
        r.add("synth.buffer_s", s.seconds());
      }
      {
        auto s = span("synth.size_gates");
        c.sizing = rw::synth::size_gates(c.module, library, options.sizing);
        r.add("synth.size_s", s.seconds());
      }
      c.cp_ps = c.sizing.final_cp_ps;
      c.area_um2 = rw::synth::total_area_um2(c.module, library);
      c.gate_count = c.module.instances().size();
      r.add("synth.upsizes", c.sizing.upsizes);
      r.add("synth.downsizes", c.sizing.downsizes);
      r.add("synth.slew_buffers", c.sizing.slew_buffers);
      r.add("synth.instances", static_cast<double>(c.gate_count));
      if (!best || c.cp_ps < best->cp_ps) best = std::move(c);
    }
  }
  return std::move(*best);
}

}  // namespace

void run_synth_containment(const RunConfig& cfg, Result& r) {
  using rw::aging::AgingScenario;
  std::vector<Circuit> circuits;
  for (const auto& bc : rw::circuits::benchmark_suite()) {
    if (bc.name == "RISC-5P" || bc.name == "FFT") circuits.push_back(Circuit{bc.name, bc.build()});
  }
  if (circuits.size() != 2) throw std::runtime_error("synth_containment: circuits not found");
  rw::util::Rng order(cfg.seed);
  if (order.chance(0.5)) std::swap(circuits[0], circuits[1]);

  // Set-up: both libraries, characterized cold into the private cache.
  rw::util::set_shared_thread_count(cfg.setup_width);
  rw::spice::reset_solver_counters();
  rw::charlib::LibraryFactory factory(factory_options(fs::absolute(cfg.work_dir + "/cache")));
  const rw::liberty::Library& fresh = factory.library(AgingScenario::fresh());
  const rw::liberty::Library& aged = factory.library(AgingScenario::worst_case(kYears));
  for (const auto* lib : {&fresh, &aged}) {
    for (const auto& cell : lib->cells()) {
      for (const auto& p : table_problems(cell)) r.error(lib->name() + ": " + p);
    }
  }
  const rw::spice::SolverCounters setup_counters = rw::spice::solver_counters();
  rw::util::set_shared_thread_count(cfg.width);
  const double setup_s = since_start_s();

  const rw::synth::SynthesisOptions effort{};  // full effort
  const rw::sta::StaOptions& sta_opts = effort.sizing.sta;
  std::vector<rw::flow::ContainmentResult> firsts;
  const auto pass = [&](int k) {
    Lap lap;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const Circuit& c = circuits[i];
      std::optional<rw::flow::ContainmentResult> res;
      {
        auto s = span("flow.run_containment");
        const Stopwatch watch;
        res.emplace(rw::flow::run_containment(c.ir, fresh, aged, c.name, effort));
        const Lap one = watch.lap();
        lap.wall_s += one.wall_s;
        lap.cpu_s += one.cpu_s;
      }
      r.attempted += 1;
      // Untimed checks: reported cp/area against a new Sta and the cell
      // areas, and co-simulation of both netlists against the IR.
      for (const auto& [syn, lib] : {std::pair{&res->conventional, &fresh},
                                     std::pair{&res->aging_aware, &aged}}) {
        const std::string cp = cp_area_mismatch(*syn, *lib, sta_opts);
        if (!cp.empty()) r.error(cp);
        const std::string sim =
            cosim_mismatch(c.ir, syn->module, *lib, cfg.seed * 31 + i, kCosimCycles);
        if (!sim.empty()) r.error(sim);
      }
      if (res->aware_aged_cp_ps != res->aging_aware.cp_ps ||
          res->conventional_fresh_cp_ps != res->conventional.cp_ps) {
        r.error(c.name + ": the flow's STA stage disagrees with synthesis");
      }
      if (k == 0) {
        firsts.push_back(*res);
        r.note("containment",
               c.name + " instances " + std::to_string(res->conventional.gate_count) + "/" +
                   std::to_string(res->aging_aware.gate_count) + " reduction " +
                   std::to_string(res->guardband_reduction_pct()) + "%");
      } else {
        const std::string d = module_difference(res->conventional.module, firsts[i].conventional.module) +
                              module_difference(res->aging_aware.module, firsts[i].aging_aware.module);
        if (!d.empty()) r.error("a later pass synthesized a different netlist: " + d);
      }
    }
    return lap;
  };
  const PassTimes t = run_passes(cfg.seconds, pass);
  set_end_to_end(r, t, setup_s, self_peak_rss_mb());
  r.note("containment_s", std::to_string(median(t.wall_s)));
  if (!cfg.trace) return;

  // Traced probes: synthesize() by stage against the fresh library (the
  // result must be the conventional netlist run_containment returned; the
  // aged one would double a traced run that is already the longest), and
  // one full Sta of each final netlist.
  set_spice_metrics(r, setup_counters);
  double instances = 0.0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const rw::flow::ContainmentResult& first = firsts[i];
    const rw::synth::SynthesisResult& ref = first.conventional;
    const rw::synth::SynthesisResult staged =
        staged_synthesis(circuits[i].ir, fresh, circuits[i].name, effort, r);
    const std::string d = module_difference(staged.module, ref.module);
    if (!d.empty()) r.error("staged synthesis differs from synthesize(): " + d);
    if (staged.cp_ps != ref.cp_ps) r.error(circuits[i].name + ": staged synthesis cp differs");
    if (std::abs(staged.area_um2 - ref.area_um2) > 1e-9 * staged.area_um2) {
      r.error(circuits[i].name + ": staged synthesis area differs");
    }
    for (const auto& [syn, lib] : {std::pair{&ref, &fresh},
                                   std::pair{&first.aging_aware, &aged}}) {
      auto s = span("sta.full");
      (void)rw::sta::Sta(syn->module, *lib, sta_opts).critical_delay_ps();
      r.add("sta.full_s", s.seconds());
      instances += static_cast<double>(syn->module.instances().size());
    }
  }
  r.set("sta.instances_per_s", instances / r.metrics["sta.full_s"]);
}

}  // namespace rwbench
