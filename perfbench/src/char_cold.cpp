/// char_cold: the full catalog characterized on the paper's 7x7 grid into an
/// empty private disk cache through LibraryFactory::merged(), over the fresh
/// corner and worst_case(10). One pass is one merged() call with a new
/// factory over a new empty cache; an operation is one (scenario, cell)
/// pair. Almost all of the time is SPICE.

#include <filesystem>
#include <memory>
#include <set>

#include "cells/catalog.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace rwbench {

namespace {

constexpr double kYears = 10.0;

/// fresh and worst_case(10). No seeded λ corners: DFF_X2's load-axis dip
/// shows at some λ corners and not at others (see CHANGES.md), so they would
/// make the failed share depend on the seed.
const std::vector<rw::aging::AgingScenario> kScenarios = {
    rw::aging::AgingScenario::fresh(), rw::aging::AgingScenario::worst_case(kYears)};

}  // namespace

void run_char_cold(const RunConfig& cfg, Result& r) {
  using rw::aging::AgingScenario;
  const auto& scenarios = kScenarios;
  std::vector<std::string> cells;
  for (const auto& spec : rw::cells::catalog()) cells.push_back(spec.name);
  const std::size_t pairs = scenarios.size() * cells.size();
  std::string corner_text;
  for (const auto& s : scenarios) corner_text += (corner_text.empty() ? "" : " ") + s.id();
  r.note("scenarios", corner_text);
  r.note("pairs_per_pass", std::to_string(pairs));

  // Set-up: the oracle for the thread-invariance check — a combinational
  // cell and a flop under a seeded scenario, characterized directly at one
  // thread. The cells are fixed so that set-up work does not depend on the
  // seed (characterization time differs several-fold between cells).
  const rw::charlib::CharacterizeOptions char_opts = factory_options("").characterize;
  rw::util::Rng rng(cfg.seed);
  const AgingScenario& sample_scenario = scenarios[rng.next_below(scenarios.size())];
  const std::vector<std::string> sample_cells = {"NAND2_X1", "DFF_X1"};
  r.note("invariance_sample", sample_scenario.id() + " " + sample_cells[0] + " " + sample_cells[1]);
  std::vector<rw::liberty::Cell> oracle;
  rw::util::set_shared_thread_count(1);
  for (const auto& name : sample_cells) {
    oracle.push_back(
        rw::charlib::characterize_cell(rw::cells::find_cell(name), sample_scenario, char_opts));
  }
  rw::util::set_shared_thread_count(cfg.width);
  const double setup_s = since_start_s();

  std::set<std::string> dips;  // one entry per failing pair, with its first finding
  rw::spice::SolverCounters first_pass{};
  std::unique_ptr<rw::charlib::LibraryFactory> last;  // the last pass, kept for the traced probes
  const auto pass = [&](int k) {
    const std::string dir = cfg.work_dir + "/pass" + std::to_string(k);
    auto factory = std::make_unique<rw::charlib::LibraryFactory>(factory_options(dir));
    rw::spice::reset_solver_counters();
    Lap lap;
    {
      auto s = span("charlib.merged");
      const Stopwatch watch;
      const rw::liberty::Library merged = factory->merged(scenarios);
      lap = watch.lap();
      if (merged.size() != pairs) r.error("merged() returned " + std::to_string(merged.size()) +
                                          " cells, expected " + std::to_string(pairs));
    }
    if (k == 0) first_pass = rw::spice::solver_counters();
    for (const auto& q : factory->quarantined()) r.error("quarantined " + q.scenario + "/" + q.cell);
    for (const auto& sc : scenarios) {
      for (const auto& name : cells) {
        const rw::liberty::Cell& cell = factory->cell(name, sc);
        for (const auto& p : table_problems(cell)) r.error(sc.id() + ": " + p);
        const auto d = load_dips(cell);
        r.attempted += 1;
        if (!d.empty()) {
          r.failed += 1;
          dips.insert(sc.id() + "/" + name + ": " + d.front());
        }
      }
    }
    for (std::size_t i = 0; i < sample_cells.size(); ++i) {
      const std::string diff =
          cell_difference(factory->cell(sample_cells[i], sample_scenario), oracle[i]);
      if (!diff.empty()) r.error("thread invariance (" + sample_scenario.id() + "): " + diff);
    }
    last = std::move(factory);
    fs::remove_all(dir);
    return lap;
  };
  const PassTimes t = run_passes(cfg.seconds, pass);
  set_end_to_end(r, t, setup_s, self_peak_rss_mb());
  r.note("char_cells_per_s", std::to_string(static_cast<double>(pairs) / median(t.wall_s)));
  for (const auto& text : dips) r.note("load_dip", text);
  if (!cfg.trace) return;

  // Traced probes: SPICE counters of the first pass, Liberty write/parse of
  // every characterized cell, each pair characterized directly at one
  // thread (bitwise against merged()), and merged() itself at one thread.
  set_spice_metrics(r, first_pass);
  r.set("charlib.pairs", static_cast<double>(pairs));
  std::vector<std::string> texts;
  {
    auto s = span("liberty.write");
    for (const auto& sc : scenarios) {
      for (const auto& name : cells) {
        rw::liberty::Library one("reliaware_" + sc.id());
        one.add_cell(last->cell(name, sc));
        texts.push_back(rw::liberty::write_library(one));
      }
    }
    r.set("liberty.write_s", s.seconds());
  }
  double bytes = 0.0;
  for (const auto& text : texts) bytes += static_cast<double>(text.size());
  r.set("liberty.bytes", bytes);
  {
    auto s = span("liberty.parse");
    for (const auto& text : texts) {
      if (rw::liberty::parse_library(text).size() != 1) r.error("parse of a written cell failed");
    }
    r.set("liberty.parse_s", s.seconds());
    r.set("liberty.parse_mb_per_s", bytes / 1e6 / r.metrics["liberty.parse_s"]);
  }

  rw::util::set_shared_thread_count(1);
  std::vector<double> comb_s;
  std::vector<double> flop_s;
  double serial_s = 0.0;
  for (const auto& sc : scenarios) {
    for (const auto& spec : rw::cells::catalog()) {
      auto s = span("charlib.characterize_cell");
      const rw::liberty::Cell cell = rw::charlib::characterize_cell(spec, sc, char_opts);
      const double dt = s.seconds();
      serial_s += dt;
      (spec.is_flop ? flop_s : comb_s).push_back(dt);
      const std::string diff = cell_difference(last->cell(spec.name, sc), cell);
      if (!diff.empty()) r.error("thread invariance (" + sc.id() + "): " + diff);
    }
  }
  double merged_1_s = 0.0;
  {
    const std::string dir = cfg.work_dir + "/serial";
    rw::charlib::LibraryFactory factory(factory_options(dir));
    auto s = span("charlib.merged_1thread");
    (void)factory.merged(scenarios);
    merged_1_s = s.seconds();
  }
  rw::util::set_shared_thread_count(cfg.width);
  r.set("charlib.cell_s.comb_p50", median(comb_s));
  r.set("charlib.cell_s.flop_p50", median(flop_s));
  r.set("charlib.serial_s", serial_s);
  r.set("charlib.parallel_efficiency",
        serial_s / (static_cast<double>(cfg.width) * median(t.wall_s)));
  r.set("charlib.factory_overhead_s", merged_1_s - serial_s);
}

}  // namespace rwbench
