#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <tuple>

#include "logicsim/simulator.hpp"
#include "sta/analysis.hpp"
#include "util/rng.hpp"

namespace rwbench {

namespace {

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0, double d = 0.0,
                double e = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c, d, e);
  return buf;
}

struct NamedTable {
  const rw::util::Table2D* table;
  std::string name;
  bool is_slew;
};

std::vector<NamedTable> tables_of(const rw::liberty::Cell& cell) {
  std::vector<NamedTable> out;
  for (const auto& arc : cell.arcs) {
    const std::string base = cell.name + " " + arc.related_pin + "->" + cell.output_pin;
    out.push_back({&arc.rise.delay_ps, base + " rise delay", false});
    out.push_back({&arc.rise.out_slew_ps, base + " rise slew", true});
    out.push_back({&arc.fall.delay_ps, base + " fall delay", false});
    out.push_back({&arc.fall.out_slew_ps, base + " fall slew", true});
  }
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string table_difference(const rw::util::Table2D& a, const rw::util::Table2D& b) {
  if (!same_bits(a.x_axis().points(), b.x_axis().points())) return "slew axis differs";
  if (!same_bits(a.y_axis().points(), b.y_axis().points())) return "load axis differs";
  if (!same_bits(a.values(), b.values())) return "table values differ";
  return "";
}

}  // namespace

std::vector<std::string> table_problems(const rw::liberty::Cell& cell) {
  std::vector<std::string> out;
  for (const auto& t : tables_of(cell)) {
    if (t.table->values().empty()) {
      out.push_back(t.name + ": empty table");
      continue;
    }
    for (const double v : t.table->values()) {
      if (!std::isfinite(v)) {
        out.push_back(t.name + ": non-finite entry");
        break;
      }
      if (t.is_slew && !(v > 0.0)) {
        out.push_back(t.name + fmt(": output slew %.6g ps is not > 0", v));
        break;
      }
    }
  }
  if (!std::isfinite(cell.setup_ps) || !std::isfinite(cell.area_um2)) {
    out.push_back(cell.name + ": non-finite setup or area");
  }
  return out;
}

std::vector<std::string> load_dips(const rw::liberty::Cell& cell) {
  std::vector<std::string> out;
  for (const auto& t : tables_of(cell)) {
    const auto& tab = *t.table;
    bool found = false;
    for (std::size_t i = 0; i < tab.x_axis().size() && !found; ++i) {
      for (std::size_t j = 1; j < tab.y_axis().size(); ++j) {
        const double prev = tab.at(i, j - 1);
        const double cur = tab.at(i, j);
        if (cur + 1e-9 + 1e-6 * std::abs(prev) >= prev) continue;
        out.push_back(t.name + fmt(" drops from %.4f to %.4f ps between loads %.2f and %.2f fF "
                                   "(slew %.2f ps)",
                                   prev, cur, tab.y_axis()[j - 1], tab.y_axis()[j],
                                   tab.x_axis()[i]));
        found = true;
        break;
      }
    }
  }
  return out;
}

std::string cell_difference(const rw::liberty::Cell& a, const rw::liberty::Cell& b) {
  const std::string who = a.name + ": ";
  if (a.name != b.name || a.family != b.family || a.drive_x != b.drive_x) return who + "identity";
  if (!same_bits(a.area_um2, b.area_um2) || a.is_flop != b.is_flop ||
      !same_bits(a.setup_ps, b.setup_ps) || !same_bits(a.hold_ps, b.hold_ps)) {
    return who + "area or flop constraints";
  }
  if (a.truth != b.truth || a.output_pin != b.output_pin || a.pins.size() != b.pins.size()) {
    return who + "function or pins";
  }
  for (std::size_t p = 0; p < a.pins.size(); ++p) {
    if (a.pins[p].name != b.pins[p].name || !same_bits(a.pins[p].cap_ff, b.pins[p].cap_ff)) {
      return who + "pin " + a.pins[p].name;
    }
  }
  if (a.arcs.size() != b.arcs.size()) return who + "arc count";
  for (std::size_t k = 0; k < a.arcs.size(); ++k) {
    const auto& x = a.arcs[k];
    const auto& y = b.arcs[k];
    if (x.related_pin != y.related_pin || x.sense != y.sense || x.clocked != y.clocked) {
      return who + "arc " + x.related_pin;
    }
    for (const auto& [p, q, what] :
         {std::tuple{&x.rise.delay_ps, &y.rise.delay_ps, "rise delay"},
          std::tuple{&x.rise.out_slew_ps, &y.rise.out_slew_ps, "rise slew"},
          std::tuple{&x.fall.delay_ps, &y.fall.delay_ps, "fall delay"},
          std::tuple{&x.fall.out_slew_ps, &y.fall.out_slew_ps, "fall slew"}}) {
      const std::string d = table_difference(*p, *q);
      if (!d.empty()) return who + "arc " + x.related_pin + " " + what + ": " + d;
    }
  }
  if (!(a.fallbacks == b.fallbacks) || !(a.interp == b.interp)) return who + "markers";
  return "";
}

std::string cosim_mismatch(const rw::synth::Ir& ir, const rw::netlist::Module& module,
                           const rw::liberty::Library& library, std::uint64_t seed, int cycles) {
  rw::synth::IrSimulator gold(ir);
  rw::logicsim::CycleSimulator gate(module, library);
  std::vector<std::pair<std::string, rw::netlist::NetId>> ins;
  std::vector<std::pair<std::string, rw::netlist::NetId>> outs;
  for (const auto& [name, node] : ir.inputs()) {
    const rw::netlist::NetId net = module.find_net(name);
    if (net == rw::netlist::kNoNet) return "module has no input net " + name;
    ins.emplace_back(name, net);
  }
  for (const auto& [name, node] : ir.outputs()) {
    const rw::netlist::NetId net = module.find_net(name);
    if (net == rw::netlist::kNoNet) return "module has no output net " + name;
    outs.emplace_back(name, net);
  }
  rw::util::Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const auto& [name, net] : ins) {
      const bool bit = rng.chance(0.5);
      gold.set_input(name, bit);
      gate.set_input(net, bit);
    }
    gold.evaluate();
    gate.evaluate();
    for (const auto& [name, net] : outs) {
      if (gate.value(net) != gold.output(name)) {
        return module.name() + ": output " + name + " differs from the IR at cycle " +
               std::to_string(cycle);
      }
    }
    gold.clock_edge();
    gate.clock_edge();
  }
  return "";
}

std::string cp_area_mismatch(const rw::synth::SynthesisResult& result,
                             const rw::liberty::Library& library,
                             const rw::sta::StaOptions& options) {
  const double cp = rw::sta::Sta(result.module, library, options).critical_delay_ps();
  if (!same_bits(cp, result.cp_ps)) {
    return result.module.name() + fmt(": reported cp %.17g ps, a new Sta gives %.17g ps",
                                      result.cp_ps, cp);
  }
  double area = 0.0;
  for (const auto& inst : result.module.instances()) {
    const rw::liberty::Cell* cell = library.find(inst.cell);
    if (cell == nullptr) return result.module.name() + ": unknown cell " + inst.cell;
    area += cell->area_um2;
  }
  if (std::abs(area - result.area_um2) > 1e-9 * std::max(1.0, std::abs(area))) {
    return result.module.name() +
           fmt(": reported area %.17g um2, the cells sum to %.17g um2", result.area_um2, area);
  }
  if (result.gate_count != result.module.instances().size()) {
    return result.module.name() + ": reported gate count differs from the module";
  }
  return "";
}

std::string module_difference(const rw::netlist::Module& a, const rw::netlist::Module& b) {
  if (a.name() != b.name()) return "module name " + a.name() + " vs " + b.name();
  if (a.net_count() != b.net_count()) return a.name() + ": net count";
  for (int n = 0; n < a.net_count(); ++n) {
    if (a.net_name(n) != b.net_name(n)) return a.name() + ": net " + a.net_name(n);
  }
  if (a.inputs() != b.inputs() || a.outputs() != b.outputs() || a.clock() != b.clock()) {
    return a.name() + ": ports";
  }
  if (a.instances().size() != b.instances().size()) return a.name() + ": instance count";
  for (std::size_t i = 0; i < a.instances().size(); ++i) {
    const auto& x = a.instances()[i];
    const auto& y = b.instances()[i];
    if (x.name != y.name || x.cell != y.cell || x.fanin != y.fanin || x.out != y.out) {
      return a.name() + ": instance " + x.name;
    }
  }
  return "";
}

bool contained(double value, const rw::stress::RealInterval& interval) {
  constexpr double kEps = 1e-6;
  return value >= interval.lo - kEps && value <= interval.hi + kEps;
}

}  // namespace rwbench
