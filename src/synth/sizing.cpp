#include "synth/sizing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "sta/analysis.hpp"
#include "sta/paths.hpp"
#include "synth/buffering.hpp"

namespace rw::synth {

namespace {

/// Next larger / smaller drive variant of the same family, or nullptr.
const liberty::Cell* drive_variant(const liberty::Library& library, const liberty::Cell& cell,
                                   bool larger) {
  const auto family = library.family(cell.family);
  const liberty::Cell* best = nullptr;
  for (const liberty::Cell* candidate : family) {
    if (larger) {
      if (candidate->drive_x > cell.drive_x &&
          (best == nullptr || candidate->drive_x < best->drive_x)) {
        best = candidate;
      }
    } else {
      if (candidate->drive_x < cell.drive_x &&
          (best == nullptr || candidate->drive_x > best->drive_x)) {
        best = candidate;
      }
    }
  }
  return best;
}

/// Worst delay through an instance at the given input slews/load.
double worst_cell_delay(const liberty::Cell& cell, const sta::Sta& sta,
                        const netlist::Instance& inst, double load_ff) {
  double worst = 0.0;
  const auto input_pins = cell.input_pins();
  for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
    const liberty::TimingArc* arc = cell.arc_from(input_pins[p]->name);
    if (arc == nullptr) continue;
    const auto& t = sta.timing(inst.fanin[p]);
    const double slew = std::max({t.slew_ps[0], t.slew_ps[1], 1.0});
    if (!arc->rise.empty()) worst = std::max(worst, arc->rise.delay_ps.lookup(slew, load_ff));
    if (!arc->fall.empty()) worst = std::max(worst, arc->fall.delay_ps.lookup(slew, load_ff));
  }
  return worst;
}

/// Local gain estimate for replacing `inst`'s cell: own-delay change at the
/// real load plus the driver-side penalty from the input-cap change.
double estimate_gain_ps(const sta::Sta& sta, const netlist::Module& module, int inst_idx,
                        const liberty::Cell& now, const liberty::Cell& candidate) {
  const auto& inst = module.instances()[static_cast<std::size_t>(inst_idx)];
  const double load = sta.load_ff(inst.out);
  const double own_now = worst_cell_delay(now, sta, inst, load);
  const double own_new = worst_cell_delay(candidate, sta, inst, load);

  // Driver penalty: each fanin's driver sees a load delta; approximate the
  // delay shift with the driver's worst arc evaluated at old vs new load.
  double driver_penalty = 0.0;
  const auto now_pins = now.input_pins();
  const auto cand_pins = candidate.input_pins();
  for (std::size_t p = 0; p < inst.fanin.size(); ++p) {
    const double delta_cap = cand_pins[p]->cap_ff - now_pins[p]->cap_ff;
    if (delta_cap == 0.0) continue;
    const int drv = module.driver(inst.fanin[p]);
    if (drv < 0) continue;
    const auto& drv_inst = module.instances()[static_cast<std::size_t>(drv)];
    const liberty::Cell& drv_cell = sta.library().at(drv_inst.cell);
    const double drv_load = sta.load_ff(drv_inst.out);
    driver_penalty += worst_cell_delay(drv_cell, sta, drv_inst, drv_load + delta_cap) -
                      worst_cell_delay(drv_cell, sta, drv_inst, drv_load);
  }
  return (own_now - own_new) - driver_penalty;
}

}  // namespace

SizingReport size_gates(netlist::Module& module, const liberty::Library& library,
                        const SizingOptions& options) {
  SizingReport report;
  double cp = sta::Sta(module, library, options.sta).critical_delay_ps();
  report.initial_cp_ps = cp;
  report.final_cp_ps = cp;

  // Upsizing: per pass, gather instances on the worst endpoint paths, apply
  // every move with a positive local gain estimate, verify with one STA and
  // roll back in halves when the batch hurt.
  for (int pass = 0; pass < options.max_upsize_passes; ++pass) {
    // The estimating Sta is dropped before the verifying ones are built, so
    // only one full analysis is alive at a time.
    std::vector<std::pair<std::size_t, std::string>> applied;
    {
      const sta::Sta sta(module, library, options.sta);
      const auto paths = sta::worst_endpoint_paths(sta, 8);
      std::set<int> seen;
      std::vector<std::pair<double, int>> candidates;  // (incr, instance)
      for (const auto& path : paths) {
        for (const auto& step : path.steps) {
          if (step.instance >= 0 && seen.insert(step.instance).second) {
            candidates.emplace_back(step.incr_ps, step.instance);
          }
        }
      }
      std::sort(candidates.rbegin(), candidates.rend());
      if (static_cast<int>(candidates.size()) > options.candidates_per_pass) {
        candidates.resize(static_cast<std::size_t>(options.candidates_per_pass));
      }

      for (const auto& [incr, idx] : candidates) {
        auto& inst = module.instances()[static_cast<std::size_t>(idx)];
        const liberty::Cell& now = library.at(inst.cell);
        const liberty::Cell* one_up = drive_variant(library, now, /*larger=*/true);
        if (one_up == nullptr) continue;
        // Consider jumping two drive steps at once: chains stuck at small
        // drives often only pay off past the next size.
        const liberty::Cell* two_up = drive_variant(library, *one_up, /*larger=*/true);
        const double gain_one = estimate_gain_ps(sta, module, idx, now, *one_up);
        const double gain_two =
            two_up != nullptr ? estimate_gain_ps(sta, module, idx, now, *two_up)
                              : std::numeric_limits<double>::lowest();
        const liberty::Cell* pick = gain_two > gain_one ? two_up : one_up;
        // A slightly negative individual estimate is allowed: gates on a
        // chain only pay off when their neighbours upsize too, and the
        // batch is verified (and rolled back) against a real STA anyway.
        if (std::max(gain_one, gain_two) <= -2.0) continue;
        applied.emplace_back(static_cast<std::size_t>(idx), inst.cell);
        inst.cell = pick->name;
      }
    }
    if (applied.empty()) break;

    double new_cp = sta::Sta(module, library, options.sta).critical_delay_ps();
    while (new_cp > cp - 1e-9 && !applied.empty()) {
      const std::size_t keep = applied.size() / 2;
      for (std::size_t k = keep; k < applied.size(); ++k) {
        module.instances()[applied[k].first].cell = applied[k].second;
      }
      applied.resize(keep);
      new_cp = sta::Sta(module, library, options.sta).critical_delay_ps();
    }
    if (applied.empty()) break;
    report.upsizes += static_cast<int>(applied.size());
    cp = new_cp;
    report.final_cp_ps = cp;
  }

  // Slew-sharpening buffers: the paper's Section 4.3 explicitly names input
  // buffering as a lever the aging-aware library unlocks — a sharp slew
  // moves a gate into the OPC region where its (aged) delay is small. Try a
  // buffer in front of the worst-slew critical-path pins; verify with STA.
  for (int round = 0; round < options.max_buffer_rounds; ++round) {
    // The round's (instance, pin) candidates on the worst path, read before
    // its Sta is dropped: only one full analysis is alive during the trials.
    struct SlewPin {
      int instance;
      int pin;
      netlist::NetId net;
    };
    std::vector<SlewPin> pins;
    double cp_before = 0.0;
    {
      const sta::Sta sta(module, library, options.sta);
      cp_before = sta.critical_delay_ps();
      for (const auto& step : sta::worst_path(sta).steps) {
        if (step.instance < 0 || step.input_pin < 0) continue;
        const auto& inst = module.instances()[static_cast<std::size_t>(step.instance)];
        const netlist::NetId in_net = inst.fanin[static_cast<std::size_t>(step.input_pin)];
        const auto& in_t = sta.timing(in_net);
        const double slew = std::max(in_t.slew_ps[0], in_t.slew_ps[1]);
        if (slew < options.buffer_slew_threshold_ps) continue;
        if (module.driver(in_net) < 0) continue;  // don't buffer primary inputs
        pins.push_back(SlewPin{step.instance, step.input_pin, in_net});
      }
    }
    bool inserted = false;
    for (const auto& [instance, pin, in_net] : pins) {
      // Insert BUF between the net and this one pin.
      const std::string buf_cell = find_buffer_cell(library, options.buffer_cell)->name;
      const netlist::NetId buffered = module.new_net("slewbuf");
      const std::size_t buf_idx = module.add_instance(
          "sbuf$" + std::to_string(report.slew_buffers + round * 100), buf_cell,
          {in_net}, buffered);
      module.instances()[static_cast<std::size_t>(instance)]
          .fanin[static_cast<std::size_t>(pin)] = buffered;

      const double cp_after = sta::Sta(module, library, options.sta).critical_delay_ps();
      if (cp_after < cp_before - 1e-9) {
        ++report.slew_buffers;
        report.final_cp_ps = cp_after;
        inserted = true;
        break;  // re-run STA-based selection on the new worst path
      }
      // Revert: restore the pin and drop the buffer instance (it is the
      // last one added and drives a net nothing else uses).
      module.instances()[static_cast<std::size_t>(instance)]
          .fanin[static_cast<std::size_t>(pin)] = in_net;
      module.remove_last_instance(buf_idx);
    }
    if (!inserted) break;
  }

  // Area recovery: downsize everything with comfortable slack, verify once.
  if (options.enable_area_recovery) {
    std::vector<std::pair<std::size_t, std::string>> applied;
    {
      const sta::Sta sta(module, library, options.sta);
      cp = sta.critical_delay_ps();
      for (std::size_t i = 0; i < module.instances().size(); ++i) {
        auto& inst = module.instances()[i];
        const liberty::Cell& current = library.at(inst.cell);
        if (current.drive_x <= 1) continue;
        const double slack = sta.slack_ps(inst.out);
        if (!std::isfinite(slack) || slack < options.downsize_slack_margin_ps) continue;
        const liberty::Cell* smaller = drive_variant(library, current, /*larger=*/false);
        if (smaller == nullptr) continue;
        applied.emplace_back(i, inst.cell);
        inst.cell = smaller->name;
      }
    }
    if (!applied.empty()) {
      double new_cp = sta::Sta(module, library, options.sta).critical_delay_ps();
      while (new_cp > cp + 1e-9 && !applied.empty()) {
        const std::size_t keep = applied.size() / 2;
        for (std::size_t k = keep; k < applied.size(); ++k) {
          module.instances()[applied[k].first].cell = applied[k].second;
        }
        applied.resize(keep);
        new_cp = sta::Sta(module, library, options.sta).critical_delay_ps();
      }
      report.downsizes = static_cast<int>(applied.size());
      report.final_cp_ps = new_cp;
    }
  }
  return report;
}

}  // namespace rw::synth
