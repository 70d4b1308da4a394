// Integration tests over the committed testdata decks: parse real-looking
// inputs, run the full analysis stack, and check the paper's invariants on
// every probe/load — the closest thing to a user's end-to-end flow.

#include <gtest/gtest.h>

#include <string>

#include "core/bounds.hpp"
#include "core/penfield_rubinstein.hpp"
#include "core/report.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/spef.hpp"
#include "sim/exact.hpp"

#ifndef RCT_TESTDATA_DIR
#define RCT_TESTDATA_DIR "testdata"
#endif

namespace rct {
namespace {

std::string data(const char* file) { return std::string(RCT_TESTDATA_DIR) + "/" + file; }

void check_tree_invariants(const RCTree& t, const std::vector<NodeId>& focus) {
  const sim::ExactAnalysis exact(t);
  const auto bounds = core::delay_bounds(t);
  const core::PrhBounds prh(t);
  for (NodeId i : focus) {
    const double actual = exact.step_delay(i);
    EXPECT_LE(actual, bounds[i].upper * (1 + 1e-9)) << t.name(i);
    EXPECT_GE(actual, bounds[i].lower * (1 - 1e-9)) << t.name(i);
    EXPECT_LE(prh.t_min(i, 0.5), actual * (1 + 1e-9)) << t.name(i);
    EXPECT_GE(prh.t_max(i, 0.5), actual * (1 - 1e-9)) << t.name(i);
  }
}

TEST(Testdata, ClockSpineParsesAndObeysBounds) {
  const ParsedNetlist p = parse_netlist_file(data("clock_spine.sp"));
  EXPECT_EQ(p.title, "clock_spine");
  EXPECT_GE(p.tree.size(), 20u);
  ASSERT_GE(p.probes.size(), 5u);
  check_tree_invariants(p.tree, p.probes);
}

TEST(Testdata, BusBitParsesAndObeysBounds) {
  const ParsedNetlist p = parse_netlist_file(data("bus_bit.sp"));
  ASSERT_EQ(p.probes.size(), 2u);
  check_tree_invariants(p.tree, p.probes);
  // The far receiver is slower than the mid-route one.
  const sim::ExactAnalysis exact(p.tree);
  EXPECT_GT(exact.step_delay(p.tree.at("rx2")), exact.step_delay(p.tree.at("rx1")));
}

TEST(Testdata, BusBitReportRenders) {
  const ParsedNetlist p = parse_netlist_file(data("bus_bit.sp"));
  const std::string text = core::format_report(p.tree, core::build_report(p.tree));
  EXPECT_NE(text.find("rx1"), std::string::npos);
  EXPECT_NE(text.find("rx2"), std::string::npos);
}

TEST(Testdata, SpefTwoNetsFullFlow) {
  const SpefFile f = parse_spef_file(data("two_nets.spef"));
  ASSERT_EQ(f.nets.size(), 2u);
  EXPECT_EQ(f.design, "testdata");
  for (const SpefNet& net : f.nets) {
    ASSERT_FALSE(net.loads.empty());
    check_tree_invariants(net.tree, net.loads);
  }
}

TEST(Testdata, SpefRoundTripPreservesLoadsAndTopology) {
  const SpefFile f = parse_spef_file(data("two_nets.spef"));
  const SpefFile back = parse_spef(write_spef(f));
  ASSERT_EQ(back.nets.size(), f.nets.size());
  for (std::size_t n = 0; n < f.nets.size(); ++n) {
    EXPECT_EQ(back.nets[n].tree.size(), f.nets[n].tree.size());
    EXPECT_EQ(back.nets[n].loads.size(), f.nets[n].loads.size());
  }
}

TEST(Testdata, NetlistRoundTripThroughSpef) {
  // deck -> tree -> SPEF -> tree: Elmore delays survive the format hop.
  const ParsedNetlist p = parse_netlist_file(data("clock_spine.sp"));
  const SpefFile back = parse_spef(write_spef(spef_from_tree(p.tree, "clk")));
  const auto td_a = moments::elmore_delays(p.tree);
  const auto td_b = moments::elmore_delays(back.nets[0].tree);
  for (NodeId i = 0; i < p.tree.size(); ++i) {
    const NodeId j = back.nets[0].tree.at(p.tree.name(i));
    EXPECT_NEAR(td_b[j], td_a[i], 1e-5 * td_a[i]);
  }
}

}  // namespace
}  // namespace rct
