#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cells/catalog.hpp"
#include "charlib/factory.hpp"
#include "circuits/arith.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/guardband_flow.hpp"
#include "logicsim/activity.hpp"
#include "logicsim/simulator.hpp"
#include "netlist/builder.hpp"
#include "stress/analyzer.hpp"
#include "stress/interval.hpp"
#include "stress/stacks.hpp"
#include "synth/synthesizer.hpp"
#include "util/rng.hpp"

namespace rw::stress {
namespace {

charlib::LibraryFactory& factory() {
  static charlib::LibraryFactory f = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    o.cell_subset = {"INV_X1", "INV_X2", "NAND2_X1", "NAND2_X2", "NOR2_X1",
                     "AND2_X1", "XOR2_X1", "BUF_X2",  "DFF_X1"};
    return charlib::LibraryFactory(o);
  }();
  return f;
}

const liberty::Library& lib() { return factory().library(aging::AgingScenario::fresh()); }

// ---------------------------------------------------------------- interval --

TEST(Interval, BasicAlgebra) {
  const Interval v{0.2, 0.7};
  EXPECT_DOUBLE_EQ(v.complement().lo, 0.3);
  EXPECT_DOUBLE_EQ(v.complement().hi, 0.8);
  EXPECT_TRUE(v.contains(0.2));
  EXPECT_TRUE(v.contains(0.7));
  EXPECT_FALSE(v.contains(0.71));
  EXPECT_TRUE(Interval::full().contains(v));
  EXPECT_FALSE(v.is_constant());
  EXPECT_TRUE(Interval::point(1.0).is_constant());
  const Interval h = Interval{0.0, 0.3}.hull(Interval{0.5, 0.6});
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 0.6);
  const Interval avg = average(2, [](std::size_t i) {
    return i == 0 ? Interval{0.0, 0.5} : Interval{1.0, 1.0};
  });
  EXPECT_DOUBLE_EQ(avg.lo, 0.5);
  EXPECT_DOUBLE_EQ(avg.hi, 0.75);
  EXPECT_EQ(v.str(), "[0.2000, 0.7000]");
}

// ---------------------------------------------------------------- transfer --

constexpr std::uint64_t kAnd2Truth = 0b1000;  // bit p set iff both inputs 1

TEST(Transfer, IndependentIsExactForAnd) {
  const Interval in[2] = {Interval{0.2, 0.4}, Interval{0.5, 0.5}};
  const Interval out = transfer_independent(kAnd2Truth, 2, in);
  EXPECT_DOUBLE_EQ(out.lo, 0.1);
  EXPECT_DOUBLE_EQ(out.hi, 0.2);
}

TEST(Transfer, CorrelatedAdmitsComplementPair) {
  // AND(a, b) where b could be ¬a: the true probability is 0, which the
  // independence product (0.25) would wrongly exclude.
  const Interval in[2] = {Interval{0.5, 0.5}, Interval{0.5, 0.5}};
  const Interval out = transfer_correlated(kAnd2Truth, 2, in);
  EXPECT_DOUBLE_EQ(out.lo, 0.0);
  EXPECT_DOUBLE_EQ(out.hi, 0.5);  // Fréchet upper: min of the marginals
}

TEST(Transfer, CorrelatedIsExactWithConstantInput) {
  const Interval in[2] = {Interval{1.0, 1.0}, Interval{0.3, 0.6}};
  const Interval out = transfer_correlated(kAnd2Truth, 2, in);
  EXPECT_DOUBLE_EQ(out.lo, 0.3);
  EXPECT_DOUBLE_EQ(out.hi, 0.6);
}

TEST(Transfer, ConstantFunctionsCollapse) {
  const Interval in[2] = {Interval::full(), Interval::full()};
  EXPECT_TRUE(transfer_correlated(0b0000, 2, in).is_constant());
  EXPECT_TRUE(transfer_correlated(0b1111, 2, in).is_constant());
  EXPECT_TRUE(transfer_independent(0b1111, 2, in).is_constant());
}

// ---------------------------------------------------------------- analyzer --

/// y = AND(a, INV(a)) — identically 0, invisible to independence reasoning.
TEST(Analyzer, ReconvergenceWidensSoundly) {
  netlist::Module m("reconv");
  const auto a = m.add_net("a");
  m.mark_input(a);
  netlist::NetlistBuilder b(m, lib());
  const auto n1 = b.gate("INV_X1", {a});
  const auto y = b.gate("AND2_X1", {a, n1});
  m.mark_output(y);

  AnalyzeOptions options;
  options.input_intervals["a"] = Interval::point(0.5);
  const StressReport r = analyze(m, lib(), options);
  EXPECT_TRUE(r.converged);
  // Sound: the true value 0 is inside the bound; precise-ish: ≤ 0.5.
  EXPECT_TRUE(r.net[static_cast<std::size_t>(y)].contains(0.0));
  EXPECT_LE(r.net[static_cast<std::size_t>(y)].hi, 0.5);
  EXPECT_NE(r.net_widened[static_cast<std::size_t>(y)], 0);
  EXPECT_TRUE(r.instances[1].widened);
  EXPECT_EQ(r.widened_net_count(), 1u);
}

/// y = NAND2(n1, n1) with n1 = INV(a): one instance with the same net on
/// both pins levelizes after its driver (it is not a cycle) and sees a
/// single variable, y = a.
TEST(Analyzer, SameNetOnTwoPinsIsNotACycle) {
  netlist::Module m("dup");
  const auto a = m.add_net("a");
  m.mark_input(a);
  netlist::NetlistBuilder b(m, lib());
  const auto n1 = b.gate("INV_X1", {a});
  const auto y = b.gate("NAND2_X1", {n1, n1});
  m.mark_output(y);

  AnalyzeOptions options;
  options.input_intervals["a"] = Interval::point(0.25);
  const StressReport r = analyze(m, lib(), options);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.net[static_cast<std::size_t>(y)].contains(0.25));
}

TEST(Analyzer, SequentialConstantReachesFixpoint) {
  netlist::Module m("pipe");
  const auto a = m.add_net("a");
  m.mark_input(a);
  m.set_clock(m.add_net("clk"));
  netlist::NetlistBuilder b(m, lib());
  const auto q1 = b.flop("DFF_X1", a);
  const auto q2 = b.flop("DFF_X1", q1);
  m.mark_output(q2);

  AnalyzeOptions options;
  options.input_intervals["a"] = Interval::point(1.0);
  const StressReport r = analyze(m, lib(), options);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.iterations, 2);
  EXPECT_TRUE(r.net[static_cast<std::size_t>(q1)].is_constant());
  EXPECT_TRUE(r.net[static_cast<std::size_t>(q2)].is_constant());
  EXPECT_DOUBLE_EQ(r.net[static_cast<std::size_t>(q2)].lo, 1.0);
}

TEST(Analyzer, FlopFeedbackStaysTopAndConverges) {
  // Toggle flop: Q -> INV -> D. The concrete duty is 0.5, the abstract
  // fixed point is ⊤ — sound, and the iteration must still terminate.
  netlist::Module m("toggle");
  m.set_clock(m.add_net("clk"));
  const auto q = m.add_net("q");
  netlist::NetlistBuilder b(m, lib());
  const auto d = b.gate("INV_X1", {q});
  m.add_instance("r0", "DFF_X1", {d, m.clock()}, q);
  m.mark_output(q);

  const StressReport r = analyze(m, lib(), {});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.net[static_cast<std::size_t>(q)], Interval::full());
}

TEST(Analyzer, FlopLambdaMatchesSimulatorClockConvention) {
  // With unconstrained inputs a flop still gets λn ∈ [0.25, 0.75]: the mean
  // of D ∈ [0,1] and the CK pin pinned at 0.5 (extract_duty_cycles parity).
  netlist::Module m("ff");
  const auto a = m.add_net("a");
  m.mark_input(a);
  m.set_clock(m.add_net("clk"));
  netlist::NetlistBuilder b(m, lib());
  const auto q = b.flop("DFF_X1", a);
  m.mark_output(q);

  const StressReport r = analyze(m, lib(), {});
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_n.lo, 0.25);
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_n.hi, 0.75);
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_p.lo, 0.25);
  EXPECT_DOUBLE_EQ(r.instances[0].lambda_p.hi, 0.75);
}

// ------------------------------------------------------------- determinism --

synth::Ir small_datapath() {
  synth::Ir ir;
  const auto a = circuits::input_word(ir, "a", 6);
  const auto b = circuits::input_word(ir, "b", 6);
  const auto ra = circuits::register_word(ir, a);
  const auto rb = circuits::register_word(ir, b);
  const auto sum = circuits::add(ir, ra, rb);
  circuits::output_word(ir, "s", circuits::register_word(ir, sum));
  return ir;
}

netlist::Module mapped_design() {
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  return synth::synthesize(small_datapath(), lib(), "dp", opt).module;
}

TEST(Analyzer, ParallelAndSerialReportsAreBitIdentical) {
  const netlist::Module m = mapped_design();
  AnalyzeOptions par;
  AnalyzeOptions ser;
  ser.parallel = false;
  const StressReport a = analyze(m, lib(), par);
  const StressReport b = analyze(m, lib(), ser);
  ASSERT_EQ(a.net.size(), b.net.size());
  EXPECT_EQ(a.iterations, b.iterations);
  for (std::size_t i = 0; i < a.net.size(); ++i) {
    EXPECT_EQ(a.net[i], b.net[i]) << "net " << i;
    EXPECT_EQ(a.net_widened[i], b.net_widened[i]) << "net " << i;
  }
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].lambda_n, b.instances[i].lambda_n) << "inst " << i;
    EXPECT_EQ(a.instances[i].lambda_p, b.instances[i].lambda_p) << "inst " << i;
  }
}

// -------------------------------------------------------------- soundness --

/// The acceptance property: on every paper benchmark circuit, for several
/// RNG workloads, the simulated per-instance (λp, λn) lies inside the
/// statically proven interval.
TEST(Soundness, SimulatedLambdaInsideProvenBoundsOnEveryBenchmark) {
  constexpr int kWarmup = 64;    // flop reset transient is outside the
  constexpr int kMeasure = 512;  // steady-state semantics of the bounds
  synth::SynthesisOptions opt;
  opt.multi_start = false;
  for (const auto& bc : circuits::benchmark_suite()) {
    const netlist::Module m = synth::synthesize(bc.build(), lib(), bc.name, opt).module;

    // Workload-independent run: default [0,1] inputs, exact containment.
    const StressReport bounds = analyze(m, lib(), {});
    EXPECT_TRUE(bounds.converged) << bc.name;

    // Narrowed run: per-input Bernoulli rates declared with a slack that
    // covers the finite-sample noise of the simulated frequencies.
    AnalyzeOptions narrowed;
    std::vector<double> rate;
    {
      int k = 0;
      for (netlist::NetId pi : m.inputs()) {
        if (pi == m.clock()) continue;
        const double p = 0.15 + 0.7 * ((k * 37) % 100) / 100.0;
        rate.push_back(p);
        narrowed.input_intervals[m.net_name(pi)] =
            Interval{p - 0.06, p + 0.06}.clamped();
        ++k;
      }
    }
    const StressReport narrow_bounds = analyze(m, lib(), narrowed);

    for (unsigned seed = 1; seed <= 3; ++seed) {
      util::Rng rng(seed);
      logicsim::CycleSimulator sim(m, lib());
      logicsim::ActivityCollector activity(m.net_count());
      for (int cycle = 0; cycle < kWarmup + kMeasure; ++cycle) {
        int k = 0;
        for (netlist::NetId pi : m.inputs()) {
          if (pi == m.clock()) continue;
          sim.set_input(pi, rng.chance(rate[static_cast<std::size_t>(k)]));
          ++k;
        }
        sim.evaluate();
        if (cycle >= kWarmup) activity.observe(sim);
        sim.clock_edge();
      }
      const auto duties = logicsim::extract_duty_cycles(m, lib(), activity);
      ASSERT_EQ(duties.size(), m.instances().size());
      for (std::size_t i = 0; i < duties.size(); ++i) {
        const auto& inst = m.instances()[i];
        // Exact containment against the workload-independent bounds.
        EXPECT_TRUE(bounds.instances[i].lambda_n.contains(duties[i].lambda_n))
            << bc.name << " seed " << seed << " inst " << inst.name << " λn "
            << duties[i].lambda_n << " ∉ " << bounds.instances[i].lambda_n.str();
        EXPECT_TRUE(bounds.instances[i].lambda_p.contains(duties[i].lambda_p))
            << bc.name << " seed " << seed << " inst " << inst.name << " λp "
            << duties[i].lambda_p << " ∉ " << bounds.instances[i].lambda_p.str();
        // Containment with sampling slack against the narrowed bounds
        // (independent Bernoulli inputs match the declared model).
        constexpr double kEps = 0.05;
        const Interval& nb = narrow_bounds.instances[i].lambda_n;
        EXPECT_GE(duties[i].lambda_n, nb.lo - kEps)
            << bc.name << " seed " << seed << " inst " << inst.name << " " << nb.str();
        EXPECT_LE(duties[i].lambda_n, nb.hi + kEps)
            << bc.name << " seed " << seed << " inst " << inst.name << " " << nb.str();
      }
    }
  }
}

// ------------------------------------------------------------ stack bounds --

TEST(Stacks, Nand2TransistorBounds) {
  const cells::CellSpec& spec = cells::find_cell("NAND2_X1");
  const std::vector<Interval> pins = {Interval::point(0.3), Interval::point(0.7)};
  const auto stresses = transistor_stress_bounds(spec, pins);
  ASSERT_EQ(stresses.size(), 4u);  // 2 nMOS series + 2 pMOS parallel
  for (const auto& t : stresses) {
    const double p_high = t.gate == "A" ? 0.3 : 0.7;
    if (t.type == device::MosType::kNmos) {
      EXPECT_DOUBLE_EQ(t.lambda.lo, p_high) << t.gate;
    } else {
      EXPECT_DOUBLE_EQ(t.lambda.lo, 1.0 - p_high) << t.gate;
    }
    EXPECT_TRUE(t.lambda.is_point());
  }
  const double spread =
      max_stack_spread(stresses, Interval::point(0.5), Interval::point(0.5));
  EXPECT_NEAR(spread, 0.2, 1e-12);  // per-device stress vs footnote-2 average
}

TEST(Stacks, MultiStageInternalNodesArePropagated) {
  // AND2 = NAND2 + INV: the inverter stage's transistors see the internal
  // node, whose interval must follow from the first stage.
  const cells::CellSpec& spec = cells::find_cell("AND2_X1");
  const std::vector<Interval> pins = {Interval::point(1.0), Interval::point(1.0)};
  const auto stresses = transistor_stress_bounds(spec, pins);
  ASSERT_GE(stresses.size(), 6u);
  for (const auto& t : stresses) {
    if (t.gate == "A" || t.gate == "B") continue;
    // Internal NAND output with both inputs at 1 is constant 0.
    const double p_high = 0.0;
    if (t.type == device::MosType::kNmos) {
      EXPECT_DOUBLE_EQ(t.lambda.hi, p_high) << t.gate;
    } else {
      EXPECT_DOUBLE_EQ(t.lambda.lo, 1.0 - p_high) << t.gate;
    }
  }
}

// ------------------------------------------------------- bounded-static flow --

TEST(BoundedStatic, GuardbandAtMostOneCornerStatic) {
  const netlist::Module m = mapped_design();
  const auto bounded = flow::bounded_static_guardband(m, factory(), 10.0);
  const auto worst = flow::static_guardband(m, factory(), aging::AgingScenario::worst_case(10));
  EXPECT_GT(bounded.report.guardband_ps(), 0.0);
  EXPECT_LE(bounded.report.guardband_ps(), worst.guardband_ps() + 1e-6);
  EXPECT_FALSE(bounded.corners.empty());
  EXPECT_TRUE(bounded.stress.converged);
  EXPECT_GT(bounded.candidate_corners, 0u);
  // Every chosen corner is λ-indexed and couples λp = 1 − λn.
  for (const auto& [lp, ln] : bounded.corners) {
    EXPECT_NEAR(lp + ln, 1.0, 1e-9);
  }
}

TEST(BoundedStatic, NarrowedInputsCannotWorsenTheGuardband) {
  const netlist::Module m = mapped_design();
  const auto wide = flow::bounded_static_guardband(m, factory(), 10.0);
  AnalyzeOptions narrowed;
  for (netlist::NetId pi : m.inputs()) {
    if (pi != m.clock()) narrowed.input_intervals[m.net_name(pi)] = Interval{0.45, 0.55};
  }
  const auto tight = flow::bounded_static_guardband(m, factory(), 10.0, narrowed);
  EXPECT_LE(tight.report.guardband_ps(), wide.report.guardband_ps() + 1e-6);
  EXPECT_LE(tight.candidate_corners, wide.candidate_corners);
}

// ------------------------------------------------------------------- CLI ----

std::string run_cli(const std::string& args, int& exit_code) {
  const std::string out_path = std::string(::testing::TempDir()) + "rwstress_out.txt";
  const std::string cmd = std::string(RWSTRESS_BIN) + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::remove(out_path.c_str());
  return ss.str();
}

TEST(RwstressCli, OutputIsThreadCountInvariant) {
  const std::string fixture =
      "--lib " RW_REPO_DIR "/examples/fixtures/mini.lib " RW_REPO_DIR
      "/examples/fixtures/clean.v";
  int code1 = -1;
  int codeN = -1;
  const std::string one = run_cli("--threads 1 " + fixture, code1);
  const std::string many = run_cli("--threads 8 " + fixture, codeN);
  EXPECT_EQ(code1, 0) << one;
  EXPECT_EQ(codeN, 0) << many;
  EXPECT_EQ(one, many);
  EXPECT_NE(one.find("lambda_n"), std::string::npos);
}

TEST(RwstressCli, DeclaredConstantsSurfaceAsSp002Warnings) {
  int code = -1;
  const std::string out = run_cli("--input a=0:0 --format json --lib " RW_REPO_DIR
                                  "/examples/fixtures/mini.lib " RW_REPO_DIR
                                  "/examples/fixtures/clean.v",
                                  code);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("\"SP002\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"worst\":\"warning\""), std::string::npos) << out;
}

TEST(RwstressCli, UsageErrorsExitSixtyFour) {
  int code = -1;
  run_cli("--input bogus --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
  run_cli("--default 0.9:0.1 --lib x.lib y.v", code);
  EXPECT_EQ(code, 64);
}

}  // namespace
}  // namespace rw::stress
