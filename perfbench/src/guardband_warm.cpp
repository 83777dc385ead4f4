/// guardband_warm: the Fig. 4(b) guardband flows over a warm disk cache.
/// Set-up synthesizes DSP (~3.4k instances) and RISC-5P at estimation effort
/// and runs static_guardband, dynamic_workload_guardband (seeded stimulus)
/// and proven_guardband cold, which fills the private cache. Each timed pass
/// builds a new factory over the now-warm cache and runs the same three
/// analyses on the same netlists: no SPICE, only Liberty parsing, scalar and
/// interval STA, logic simulation, stress analysis and the lint oracles the
/// flows run. An operation is one analysis of one circuit.

#include <filesystem>
#include <memory>

#include "charlib/interval_query.hpp"
#include "checks.hpp"
#include "circuits/benchmarks.hpp"
#include "common.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "liberty/parser.hpp"
#include "logicsim/simulator.hpp"
#include "sta/analysis.hpp"
#include "sta/interval_sta.hpp"
#include "stress/activity_bounds.hpp"
#include "stress/analyzer.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace rwbench {

namespace {

constexpr double kYears = 10.0;
constexpr int kCycles = 1000;

struct Circuit {
  std::string name;
  rw::synth::Ir ir;
  std::unique_ptr<rw::synth::SynthesisResult> synth;
  std::uint64_t stimulus_seed = 0;
};

/// One pass's results, compared bitwise between passes.
struct Analyses {
  std::vector<double> values;
  std::size_t dynamic_corners = 0;
  std::size_t candidate_corners = 0;
};

/// Uniform random primary inputs, drawn from a fresh RNG on every call so
/// each pass simulates the same workload.
rw::flow::Stimulus make_stimulus(const rw::netlist::Module& module, std::uint64_t seed) {
  auto rng = std::make_shared<rw::util::Rng>(seed);
  return [rng, &module](rw::logicsim::CycleSimulator& sim, int) {
    for (const rw::netlist::NetId pi : module.inputs()) {
      if (pi != module.clock()) sim.set_input(pi, rng->chance(0.5));
    }
  };
}

Analyses analyze_all(std::vector<Circuit>& circuits, rw::charlib::LibraryFactory& factory,
                     Result& r, bool record) {
  Analyses out;
  for (const Circuit& c : circuits) {
    const rw::netlist::Module& m = c.synth->module;
    rw::sta::GuardbandReport st;
    {
      auto s = span("flow.static_guardband");
      st = rw::flow::static_guardband(m, factory, rw::aging::AgingScenario::worst_case(kYears));
      if (record) r.add("flow.static_s", s.seconds());
    }
    std::unique_ptr<rw::flow::DynamicAgingResult> dyn;
    {
      auto s = span("flow.dynamic_workload_guardband");
      dyn = std::make_unique<rw::flow::DynamicAgingResult>(rw::flow::dynamic_workload_guardband(
          m, factory, make_stimulus(m, c.stimulus_seed), kCycles, kYears));
      if (record) r.add("flow.dynamic_s", s.seconds());
    }
    std::unique_ptr<rw::flow::ProvenGuardbandResult> proven;
    {
      auto s = span("flow.proven_guardband");
      proven = std::make_unique<rw::flow::ProvenGuardbandResult>(
          rw::flow::proven_guardband(m, factory, kYears));
      if (record) r.add("flow.prove_s", s.seconds());
    }
    r.attempted += 3;
    // rwprove's soundness: the simulated workload's aged critical path lies
    // inside the proven interval.
    const auto& iv = proven->summary.aged_cp_ps;
    if (proven->summary.vacuous) r.error(c.name + ": vacuous proof");
    if (!contained(dyn->report.aged_cp_ps, iv)) {
      r.error(c.name + ": dynamic aged cp " + std::to_string(dyn->report.aged_cp_ps) +
              " ps outside the proven interval [" + std::to_string(iv.lo) + ", " +
              std::to_string(iv.hi) + "]");
    }
    if (st.fresh_cp_ps != proven->summary.fresh_cp_ps || st.fresh_cp_ps != dyn->report.fresh_cp_ps) {
      r.error(c.name + ": the flows disagree on the fresh critical path");
    }
    out.values.insert(out.values.end(), {st.fresh_cp_ps, st.aged_cp_ps, dyn->report.aged_cp_ps,
                                         iv.lo, iv.hi});
    out.dynamic_corners += dyn->corners.size();
    out.candidate_corners += proven->candidate_corners;
  }
  return out;
}

}  // namespace

void run_guardband_warm(const RunConfig& cfg, Result& r) {
  using rw::aging::AgingScenario;
  const std::string cache = fs::absolute(cfg.work_dir + "/cache").string();
  std::vector<Circuit> circuits;
  for (const auto& bc : rw::circuits::benchmark_suite()) {
    if (bc.name != "DSP" && bc.name != "RISC-5P") continue;
    circuits.push_back(Circuit{bc.name, bc.build(), nullptr,
                               cfg.seed * 1000003ULL + circuits.size()});
  }
  if (circuits.size() != 2) throw std::runtime_error("guardband_warm: circuits not found");

  // Set-up: synthesize at estimation effort, check the netlists, then run
  // every analysis cold to fill the private disk cache.
  rw::util::set_shared_thread_count(cfg.setup_width);
  rw::spice::reset_solver_counters();
  rw::synth::SynthesisOptions effort;
  effort.multi_start = false;
  {
    rw::charlib::LibraryFactory cold(factory_options(cache));
    const rw::liberty::Library& fresh = cold.library(AgingScenario::fresh());
    for (Circuit& c : circuits) {
      auto s = span("synth.synthesize");
      c.synth = std::make_unique<rw::synth::SynthesisResult>(
          rw::synth::synthesize(c.ir, fresh, c.name, effort));
    }
    for (Circuit& c : circuits) {
      const std::string cp = cp_area_mismatch(*c.synth, fresh, effort.sizing.sta);
      if (!cp.empty()) r.error(cp);
      const std::string sim = cosim_mismatch(c.ir, c.synth->module, fresh, c.stimulus_seed, 300);
      if (!sim.empty()) r.error(sim);
      r.note("circuit", c.name + " " + std::to_string(c.synth->module.instances().size()) +
                            " instances");
    }
    for (const auto& cell : fresh.cells()) {
      for (const auto& p : table_problems(cell)) r.error("fresh: " + p);
    }
    Result scratch;  // the cold pass's operations are set-up, not measured
    (void)analyze_all(circuits, cold, scratch, false);
    for (const auto& e : scratch.errors) r.error("cold pass: " + e);
  }
  const rw::spice::SolverCounters setup_counters = rw::spice::solver_counters();
  rw::util::set_shared_thread_count(cfg.width);
  const double setup_s = since_start_s();

  std::unique_ptr<Analyses> first;
  const auto pass = [&](int) {
    rw::spice::reset_solver_counters();
    const Stopwatch watch;
    rw::charlib::LibraryFactory warm(factory_options(cache));
    const Analyses a = analyze_all(circuits, warm, r, cfg.trace);
    const Lap lap = watch.lap();
    if (rw::spice::solver_counters().transient_attempts != 0) {
      r.error("the warm pass ran SPICE: the disk cache was not reused");
    }
    if (!first) {
      first = std::make_unique<Analyses>(a);
    } else if (a.values != first->values) {
      r.error("a warm pass differs from the first warm pass");
    }
    return lap;
  };
  const PassTimes t = run_passes(cfg.seconds, pass);
  set_end_to_end(r, t, setup_s, self_peak_rss_mb());
  r.note("guardband_s", std::to_string(median(t.wall_s)));
  r.note("dynamic_corners", std::to_string(first->dynamic_corners));
  r.note("candidate_corners", std::to_string(first->candidate_corners));
  if (!cfg.trace) return;

  // Traced probes over one more warm factory: the per-pass flow times are
  // medians, the layer calls below are timed once each.
  for (const char* k : {"flow.static_s", "flow.dynamic_s", "flow.prove_s"}) {
    r.set(k, r.metrics[k] / static_cast<double>(t.passes()));
  }
  set_spice_metrics(r, setup_counters);
  r.set("flow.dynamic_corners", static_cast<double>(first->dynamic_corners));
  r.set("flow.candidate_corners", static_cast<double>(first->candidate_corners));
  rw::charlib::LibraryFactory warm(factory_options(cache));
  {
    auto s = span("charlib.warm_load");
    (void)warm.library(AgingScenario::fresh());
    (void)warm.library(AgingScenario::worst_case(kYears));
    r.set("charlib.warm_load_s", s.seconds());
  }
  const rw::liberty::Library& fresh = warm.library(AgingScenario::fresh());
  {
    std::vector<std::string> files;
    for (const auto& e : fs::recursive_directory_iterator(cache)) {
      if (e.is_regular_file() && e.path().extension() == ".lib") files.push_back(e.path());
    }
    double bytes = 0.0;
    auto s = span("liberty.parse");
    for (const auto& f : files) {
      bytes += static_cast<double>(fs::file_size(f));
      (void)rw::liberty::parse_library_file(f);
    }
    r.set("liberty.parse_s", s.seconds());
    r.set("liberty.bytes", bytes);
    r.set("liberty.parse_mb_per_s", bytes / 1e6 / r.metrics["liberty.parse_s"]);
  }
  double instances = 0.0;
  double gate_evals = 0.0;
  for (const Circuit& c : circuits) {
    const rw::netlist::Module& m = c.synth->module;
    instances += static_cast<double>(m.instances().size());
    {
      auto s = span("sta.full");
      (void)rw::sta::Sta(m, fresh).critical_delay_ps();
      r.add("sta.full_s", s.seconds());
    }
    std::unique_ptr<rw::stress::StressReport> stress;
    {
      auto s = span("stress.analyze");
      stress = std::make_unique<rw::stress::StressReport>(rw::stress::analyze(m, fresh));
      r.add("stress.analyze_s", s.seconds());
    }
    {
      auto s = span("stress.activity");
      (void)rw::stress::analyze_activity(m, fresh);
      r.add("stress.activity_s", s.seconds());
    }
    {
      std::vector<rw::charlib::InstanceCorners> corners;
      {
        auto s = span("charlib.corners_from_factory");
        corners = rw::charlib::corners_from_factory(m, *stress, warm, kYears);
      }
      auto s = span("sta.interval");
      const rw::sta::IntervalSta ista(m, fresh, corners);
      (void)ista.critical_interval_ps();
      r.add("sta.interval_s", s.seconds());
    }
    {
      rw::logicsim::CycleSimulator sim(m, fresh);
      const rw::flow::Stimulus stimulus = make_stimulus(m, c.stimulus_seed);
      std::size_t comb = 0;
      for (const auto& inst : m.instances()) comb += fresh.at(inst.cell).is_flop ? 0 : 1;
      auto s = span("logicsim.cycle_sim");
      for (int k = 0; k < kCycles; ++k) {
        stimulus(sim, k);
        sim.step();
      }
      r.add("logicsim.cycle_sim_s", s.seconds());
      gate_evals += static_cast<double>(comb) * kCycles;
    }
    r.add("logicsim.cycles", kCycles);
  }
  r.set("sta.instances_per_s", instances / r.metrics["sta.full_s"]);
  r.set("logicsim.gate_evals_per_s", gate_evals / r.metrics["logicsim.cycle_sim_s"]);
}

}  // namespace rwbench
