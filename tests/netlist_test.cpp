#include <gtest/gtest.h>

#include "charlib/factory.hpp"
#include "netlist/annotate.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sdf.hpp"
#include "netlist/verilog.hpp"
#include "sta/analysis.hpp"

namespace rw::netlist {
namespace {

/// Shared coarse-grid library with the handful of cells these tests use.
const liberty::Library& lib() {
  static charlib::LibraryFactory factory = [] {
    charlib::LibraryFactory::Options o;
    o.characterize.grid = charlib::OpcGrid::coarse();
    o.cell_subset = {"INV_X1", "NAND2_X1", "NOR2_X1", "AND2_X1", "DFF_X1", "BUF_X2"};
    return charlib::LibraryFactory(o);
  }();
  return factory.library(aging::AgingScenario::fresh());
}

Module small_design() {
  Module m("top");
  const NetId a = m.add_net("a");
  const NetId b = m.add_net("b");
  m.mark_input(a);
  m.mark_input(b);
  m.set_clock(m.add_net("clk"));
  NetlistBuilder builder(m, lib());
  const NetId n1 = builder.gate("NAND2_X1", {a, b});
  const NetId n2 = builder.gate("INV_X1", {n1});
  const NetId q = builder.flop("DFF_X1", n2);
  const NetId z = builder.gate("AND2_X1", {q, a});
  m.mark_output(z);
  return m;
}

TEST(Module, StructureQueries) {
  const Module m = small_design();
  EXPECT_EQ(m.instances().size(), 4u);
  EXPECT_EQ(m.inputs().size(), 3u);  // a, b, clk
  EXPECT_EQ(m.outputs().size(), 1u);
  const NetId a = m.find_net("a");
  EXPECT_EQ(m.driver(a), -1);
  // a feeds the NAND and the AND.
  EXPECT_EQ(m.sinks(a).size(), 2u);
  EXPECT_EQ(m.fanout_count(a), 2);
  m.validate();
}

TEST(Module, RejectsDoubleDriver) {
  Module m("t");
  const NetId x = m.add_net("x");
  const NetId y = m.add_net("y");
  m.mark_input(x);
  m.add_instance("g1", "INV_X1", {x}, y);
  EXPECT_THROW(m.add_instance("g2", "INV_X1", {x}, y), std::invalid_argument);
}

TEST(Module, ValidateCatchesUndrivenUsedNet) {
  Module m("t");
  const NetId x = m.add_net("x");
  const NetId y = m.add_net("y");
  m.add_instance("g1", "INV_X1", {x}, y);  // x undriven, not an input
  m.mark_output(y);
  EXPECT_THROW(m.validate(), std::runtime_error);
}

TEST(Module, RenameNet) {
  Module m("t");
  const NetId x = m.add_net("x");
  m.rename_net(x, "better");
  EXPECT_EQ(m.find_net("x"), kNoNet);
  EXPECT_EQ(m.find_net("better"), x);
  const NetId y = m.add_net("y");
  EXPECT_THROW(m.rename_net(y, "better"), std::invalid_argument);
}

TEST(Module, NetNameIndexSurvivesGrowthRenamesAndCopies) {
  // Enough nets for the index to grow many times; user names with '$'
  // beside generated "n$k" names.
  Module m("big");
  std::vector<NetId> ids;
  for (int i = 0; i < 12000; ++i) {
    ids.push_back(i % 3 == 0 ? m.new_net() : m.add_net("u$" + std::to_string(i)));
  }
  ASSERT_EQ(m.net_count(), 12000);
  for (const NetId id : ids) EXPECT_EQ(m.find_net(m.net_name(id)), id);
  EXPECT_EQ(m.find_net("n$0"), ids[0]);
  EXPECT_EQ(m.find_net("u$1"), ids[1]);
  EXPECT_EQ(m.find_net("u$0"), kNoNet);
  EXPECT_EQ(m.find_net("n$4000"), kNoNet);
  EXPECT_EQ(m.find_net(""), kNoNet);

  EXPECT_THROW(m.add_net("u$1"), std::invalid_argument);
  EXPECT_THROW(m.add_net("n$5"), std::invalid_argument);

  // Rename every fifth net: the old names disappear and can be added again.
  for (std::size_t k = 0; k < ids.size(); k += 5) {
    const std::string old_name = m.net_name(ids[k]);
    m.rename_net(ids[k], "renamed$" + std::to_string(k));
    EXPECT_EQ(m.find_net(old_name), kNoNet);
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const std::string expected =
        k % 5 == 0 ? "renamed$" + std::to_string(k) : m.net_name(ids[k]);
    ASSERT_EQ(m.net_name(ids[k]), expected);
    ASSERT_EQ(m.find_net(expected), ids[k]) << expected;
  }
  const NetId again = m.add_net("u$5");  // freed by the rename of net 5
  EXPECT_EQ(m.find_net("u$5"), again);
  EXPECT_EQ(m.find_net("renamed$5"), ids[5]);
  EXPECT_THROW(m.rename_net(ids[1], "renamed$0"), std::invalid_argument);

  const Module copy = m;
  ASSERT_EQ(copy.net_count(), m.net_count());
  for (NetId n = 0; n < copy.net_count(); ++n) EXPECT_EQ(copy.find_net(m.net_name(n)), n);
  // The copy's index is its own.
  Module changed = copy;
  changed.rename_net(again, "moved");
  EXPECT_EQ(changed.find_net("u$5"), kNoNet);
  EXPECT_EQ(copy.find_net("u$5"), again);
}

TEST(Verilog, RoundTrip) {
  const Module m = small_design();
  const std::string text = write_verilog(m, lib());
  const Module parsed = parse_verilog(text, lib());

  EXPECT_EQ(parsed.name(), "top");
  EXPECT_EQ(parsed.instances().size(), m.instances().size());
  EXPECT_EQ(parsed.inputs().size(), m.inputs().size());
  EXPECT_EQ(parsed.outputs().size(), m.outputs().size());
  EXPECT_NE(parsed.clock(), kNoNet);
  EXPECT_EQ(parsed.net_name(parsed.clock()), "clk");
  parsed.validate();
  // Same structure: instance cells and connection names match.
  for (std::size_t i = 0; i < m.instances().size(); ++i) {
    EXPECT_EQ(parsed.instances()[i].cell, m.instances()[i].cell);
    EXPECT_EQ(parsed.net_name(parsed.instances()[i].out), m.net_name(m.instances()[i].out));
  }
}

TEST(Verilog, ParserRejectsUnknownCellAndPin) {
  EXPECT_THROW(parse_verilog("module t (input a); FOO u (.A(a)); endmodule", lib()),
               std::runtime_error);
  EXPECT_THROW(
      parse_verilog("module t (input a, output z); wire z; INV_X1 u (.BAD(a), .Z(z)); endmodule",
                    lib()),
      std::runtime_error);
}

TEST(Annotate, RenamesWithQuantizedDuties) {
  Module m = small_design();
  std::vector<InstanceDuty> duties(m.instances().size(), InstanceDuty{0.42, 0.58});
  duties[1] = InstanceDuty{1.0, 0.0};
  const auto corners = annotate_with_duty_cycles(m, duties);
  EXPECT_EQ(m.instances()[0].cell, "NAND2_X1_0.40_0.60");
  EXPECT_EQ(m.instances()[1].cell, "INV_X1_1.00_0.00");
  ASSERT_EQ(corners.size(), 2u);
}

TEST(Annotate, RejectsSizeMismatch) {
  Module m = small_design();
  EXPECT_THROW(annotate_with_duty_cycles(m, {}), std::invalid_argument);
}

TEST(Sdf, AnnotationAndWriter) {
  const Module m = small_design();
  const sta::Sta sta(m, lib());
  const DelayAnnotation ann = compute_delay_annotation(sta);
  ASSERT_EQ(ann.arcs.size(), m.instances().size());
  // Every combinational arc got a positive delay.
  EXPECT_GT(ann.arcs[0][0].out_rise_ps, 0.0);
  EXPECT_GT(ann.arcs[0][1].out_fall_ps, 0.0);
  // Flop CK entry holds the CK->Q delay.
  EXPECT_GT(ann.arcs[2][1].out_rise_ps, 5.0);

  const std::string sdf = write_sdf(m, lib(), ann);
  EXPECT_NE(sdf.find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(sdf.find("(CELLTYPE \"NAND2_X1\")"), std::string::npos);
  EXPECT_NE(sdf.find("IOPATH A Z"), std::string::npos);
  EXPECT_NE(sdf.find("(TIMESCALE 1ps)"), std::string::npos);
}

}  // namespace
}  // namespace rw::netlist
