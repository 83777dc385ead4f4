/// rwbench_selftest — shows that every correctness check of the benchmark
/// can fail. Each case runs a check once on a healthy input (it must pass)
/// and once on a copy broken on purpose (it must fail). The inputs come from
/// a small accumulator circuit synthesized against a coarse-grid library of
/// a few cells, characterized in memory.
///
///   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "charlib/factory.hpp"
#include "checks.hpp"
#include "circuits/arith.hpp"
#include "flow/guardband_flow.hpp"
#include "flow/prove_flow.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// acc <= acc + a (4 bits), with the sum and the register both visible.
rw::synth::Ir accumulator_ir() {
  using namespace rw::circuits;
  rw::synth::Ir ir;
  const Word a = input_word(ir, "a", 4);
  const Word acc = register_placeholder(ir, 4);
  const Word sum = add(ir, acc, a);
  connect_register(ir, acc, sum);
  output_word(ir, "s", sum);
  output_word(ir, "q", acc);
  return ir;
}

/// A cell with the same input count as `cell` but another function.
const rw::liberty::Cell* other_function(const rw::liberty::Library& lib,
                                        const rw::liberty::Cell& cell) {
  for (const auto& c : lib.cells()) {
    if (!c.is_flop && c.n_inputs() == cell.n_inputs() && c.truth != cell.truth) return &c;
  }
  return nullptr;
}

}  // namespace

int main() {
  using namespace rwbench;
  setenv("RW_LINT_MIN_SEVERITY", "error", 1);
  rw::util::set_shared_thread_count(2);
  rw::charlib::LibraryFactory::Options fo;
  fo.characterize.grid = rw::charlib::OpcGrid::coarse();
  fo.cell_subset = {"INV_X1",  "INV_X2",  "BUF_X1",  "BUF_X2",   "BUF_X4",  "NAND2_X1",
                    "NOR2_X1", "AND2_X1", "OR2_X1",  "XOR2_X1",  "XNOR2_X1", "DFF_X1"};
  fo.cache_dir = "";  // in memory only
  rw::charlib::LibraryFactory factory(fo);
  const rw::liberty::Library& fresh = factory.library(rw::aging::AgingScenario::fresh());

  const rw::synth::Ir ir = accumulator_ir();
  rw::synth::SynthesisOptions opts;
  opts.multi_start = false;
  opts.sizing.buffer_cell = "BUF_X2";
  opts.buffering.buffer_cell = "BUF_X4";
  const rw::synth::SynthesisResult syn = rw::synth::synthesize(ir, fresh, "acc", opts);

  // Co-simulation: the mapped netlist matches the IR; swapping the function
  // of the instance that drives output s0 must be caught.
  expect(cosim_mismatch(ir, syn.module, fresh, 7, 200).empty(), "co-simulation accepts the netlist");
  {
    rw::netlist::Module broken = syn.module;
    const int drv = broken.driver(broken.find_net("s0"));
    auto& inst = broken.instances()[static_cast<std::size_t>(drv)];
    const rw::liberty::Cell* swap = other_function(fresh, fresh.at(inst.cell));
    inst.cell = swap != nullptr ? swap->name : inst.cell;
    expect(swap != nullptr && !cosim_mismatch(ir, broken, fresh, 7, 200).empty(),
           "co-simulation rejects a netlist with " + syn.module.instances()[drv].cell + " -> " +
               inst.cell + " on the driver of s0");
    expect(!module_difference(syn.module, broken).empty(), "module comparison sees the swap");
  }

  // Reported critical path and area against a new Sta and the cell areas.
  expect(cp_area_mismatch(syn, fresh, opts.sizing.sta).empty(), "cp/area check accepts synthesize()");
  {
    rw::synth::SynthesisResult wrong = syn;
    wrong.cp_ps = std::nextafter(syn.cp_ps, 1e9);
    expect(!cp_area_mismatch(wrong, fresh, opts.sizing.sta).empty(), "cp check rejects cp + 1 ulp");
    wrong = syn;
    wrong.area_um2 += 0.01;
    expect(!cp_area_mismatch(wrong, fresh, opts.sizing.sta).empty(), "area check rejects area + 0.01");
  }

  // rwprove soundness: the dynamic aged critical path lies in the proven
  // interval; the same path shifted past its upper end must not.
  {
    rw::util::Rng rng(3);
    const rw::netlist::Module& m = syn.module;
    const rw::flow::Stimulus stimulus = [&](rw::logicsim::CycleSimulator& sim, int) {
      for (const auto pi : m.inputs()) {
        if (pi != m.clock()) sim.set_input(pi, rng.chance(0.5));
      }
    };
    const auto dyn = rw::flow::dynamic_workload_guardband(m, factory, stimulus, 200, 10.0);
    const auto proven = rw::flow::proven_guardband(m, factory, 10.0);
    const auto& iv = proven.summary.aged_cp_ps;
    expect(contained(dyn.report.aged_cp_ps, iv), "containment accepts the dynamic aged cp");
    expect(!contained(dyn.report.aged_cp_ps + (iv.hi - dyn.report.aged_cp_ps) + 1.0, iv),
           "containment rejects the aged cp shifted 1 ps past the proven upper bound");
  }

  // Table checks on a characterized cell.
  const rw::liberty::Cell& inv = fresh.at("INV_X1");
  expect(table_problems(inv).empty() && load_dips(inv).empty(), "table checks accept INV_X1");
  {
    rw::liberty::Cell dip = inv;
    auto& t = dip.arcs.front().rise.delay_ps;
    t.at(1, 2) = t.at(1, 1) - 0.5;
    expect(!load_dips(dip).empty(), "monotonicity rejects a 0.5 ps dip along the load axis");
    rw::liberty::Cell nan = inv;
    nan.arcs.front().fall.delay_ps.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
    expect(!table_problems(nan).empty(), "finiteness rejects a NaN entry");
    rw::liberty::Cell flat = inv;
    flat.arcs.front().rise.out_slew_ps.at(0, 0) = 0.0;
    expect(!table_problems(flat).empty(), "slew check rejects a 0 ps output slew");
  }

  // Bitwise cell identity.
  {
    rw::liberty::Cell copy = inv;
    expect(cell_difference(copy, inv).empty(), "cell identity accepts a copy");
    double& v = copy.arcs.back().fall.out_slew_ps.at(2, 2);
    v = std::nextafter(v, 1e9);
    expect(!cell_difference(copy, inv).empty(), "cell identity rejects a 1-ulp change");
  }

  std::printf("%s: %d check(s) failed to behave\n", g_failures == 0 ? "OK" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
