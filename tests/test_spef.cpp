#include "rctree/spef.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/generators.hpp"

namespace rct {
namespace {

constexpr const char* kSpef = R"(*SPEF "IEEE 1481-1998"
*DESIGN "demo_chip"
*DATE "2026"
*VENDOR "rct"
*T_UNIT 1 NS
*C_UNIT 1 PF
*R_UNIT 1 OHM

*D_NET clk_leaf 0.24
*CONN
*P drv I
*I u1:A O
*I u2:A O
*CAP
1 n1 0.08
2 u1:A 0.10
3 u2:A 0.06
*RES
1 drv n1 120
2 n1 u1:A 80
3 n1 u2:A 95
*END

*D_NET small 0.01
*CONN
*P p2 I
*I s1 O
*CAP
1 s1 0.01
*RES
1 p2 s1 50
*END
)";

TEST(SpefParser, ParsesHeaderAndUnits) {
  const SpefFile f = parse_spef(kSpef);
  EXPECT_EQ(f.design, "demo_chip");
  EXPECT_DOUBLE_EQ(f.time_unit, 1e-9);
  EXPECT_DOUBLE_EQ(f.cap_unit, 1e-12);
  EXPECT_DOUBLE_EQ(f.res_unit, 1.0);
  ASSERT_EQ(f.nets.size(), 2u);
}

TEST(SpefParser, BuildsTreeWithScaledValues) {
  const SpefFile f = parse_spef(kSpef);
  const SpefNet& net = f.nets[0];
  EXPECT_EQ(net.name, "clk_leaf");
  EXPECT_EQ(net.driver, "drv");
  ASSERT_EQ(net.tree.size(), 3u);
  EXPECT_DOUBLE_EQ(net.tree.capacitance(net.tree.at("n1")), 0.08e-12);
  EXPECT_DOUBLE_EQ(net.tree.resistance(net.tree.at("u1:A")), 80.0);
  ASSERT_EQ(net.loads.size(), 2u);
  EXPECT_EQ(net.tree.name(net.loads[0]), "u1:A");
}

TEST(SpefParser, AlternateUnitsScale) {
  const SpefFile f = parse_spef(
      "*C_UNIT 1 FF\n*R_UNIT 1 KOHM\n"
      "*D_NET n 1\n*CONN\n*P a I\n*CAP\n1 b 5\n*RES\n1 a b 2\n*END\n");
  EXPECT_DOUBLE_EQ(f.nets[0].tree.capacitance(0), 5e-15);
  EXPECT_DOUBLE_EQ(f.nets[0].tree.resistance(0), 2000.0);
}

TEST(SpefParser, CouplingCapRejected) {
  EXPECT_THROW((void)parse_spef("*D_NET n 1\n*CONN\n*P a I\n*CAP\n1 b c 5\n*RES\n1 a b 2\n*END\n"),
               SpefError);
}

TEST(SpefParser, InductanceRejected) {
  EXPECT_THROW((void)parse_spef("*D_NET n 1\n*CONN\n*P a I\n*INDUC\n"), SpefError);
}

TEST(SpefParser, MissingDriverRejected) {
  EXPECT_THROW(
      (void)parse_spef("*D_NET n 1\n*CONN\n*I b O\n*CAP\n1 b 5\n*RES\n1 a b 2\n*END\n"),
      SpefError);
}

TEST(SpefParser, LoopRejectedWithLineNumber) {
  try {
    (void)parse_spef(
        "*D_NET n 1\n*CONN\n*P a I\n*CAP\n1 b 1\n1 c 1\n*RES\n"
        "1 a b 2\n2 a c 2\n3 b c 2\n*END\n");
    FAIL() << "expected SpefError";
  } catch (const SpefError& e) {
    EXPECT_NE(std::string(e.what()).find("loop"), std::string::npos);
  }
}

TEST(SpefParser, EmptyFileRejected) {
  EXPECT_THROW((void)parse_spef("*SPEF \"x\"\n"), SpefError);
}

TEST(SpefParser, UnknownLoadPinRejected) {
  EXPECT_THROW((void)parse_spef("*D_NET n 1\n*CONN\n*P a I\n*I zz O\n*CAP\n1 b 1\n*RES\n"
                                "1 a b 2\n*END\n"),
               SpefError);
}

TEST(SpefParser, ManyLoadsResolveInOrderWithDanglingDiagnostics) {
  // A 3000-node net with 1500 *I loads: 1498 real pins in a scrambled
  // order, one pin that names no node and one that names the driver (the
  // ideal source is not a tree node).  Loads resolve through the parser's
  // name table, not a per-load scan of the tree.
  const RCTree tree = gen::random_tree(3000, 17);
  std::vector<std::string> pins;
  for (std::size_t k = 0; k < 1498; ++k) pins.push_back(tree.name((k * 1013) % 2999));
  SpefFile file;
  SpefNet net;
  net.name = "clk";
  net.driver = "drv";
  net.tree = tree;
  file.nets.push_back(std::move(net));
  std::string text = write_spef(file);

  std::string conn;
  std::size_t line = 1 + static_cast<std::size_t>(
                             std::count(text.begin(), text.begin() + text.find("*P drv"), '\n'));
  std::size_t ghost_line = 0, driver_line = 0;
  for (std::size_t k = 0; k < pins.size(); ++k) {
    if (k == 600) {
      conn += "*I ghost O\n";
      ghost_line = ++line;
    }
    if (k == 1100) {
      conn += "*I drv O\n";
      driver_line = ++line;
    }
    conn += "*I " + pins[k] + " O\n";
    ++line;
  }
  const std::size_t at = text.find('\n', text.find("*P drv")) + 1;
  text.insert(at, conn);

  SpefParseOptions lenient;
  lenient.lenient = true;
  const SpefFile parsed = parse_spef(text, lenient);
  ASSERT_EQ(parsed.nets.size(), 1u);
  const SpefNet& got = parsed.nets[0];
  ASSERT_EQ(got.loads.size(), pins.size());
  for (std::size_t k = 0; k < pins.size(); ++k) EXPECT_EQ(got.tree.name(got.loads[k]), pins[k]);
  ASSERT_EQ(parsed.diagnostics.size(), 2u);
  EXPECT_EQ(parsed.diagnostics[0].code, robust::Code::kDanglingLoad);
  EXPECT_EQ(parsed.diagnostics[0].location.line, ghost_line);
  EXPECT_EQ(parsed.diagnostics[0].message,
            "dropped dangling load: net 'clk': load pin 'ghost' not in parasitics");
  EXPECT_EQ(parsed.diagnostics[1].code, robust::Code::kDanglingLoad);
  EXPECT_EQ(parsed.diagnostics[1].location.line, driver_line);
  EXPECT_EQ(parsed.diagnostics[1].message,
            "dropped dangling load: net 'clk': load pin 'drv' not in parasitics");

  try {
    (void)parse_spef(text);
    FAIL() << "strict mode accepted a dangling load";
  } catch (const SpefError& e) {
    EXPECT_EQ(e.code(), robust::Code::kDanglingLoad);
    EXPECT_EQ(e.location().line, ghost_line);
    EXPECT_EQ(e.message(), "net 'clk': load pin 'ghost' not in parasitics");
  }
}

TEST(SpefWriter, RoundTripPreservesElmore) {
  // random tree -> SPEF text -> parse -> same Elmore delays per node name.
  const RCTree t = gen::random_tree(30, 123);
  const SpefFile out = spef_from_tree(t, "rt_net");
  const SpefFile back = parse_spef(write_spef(out));
  ASSERT_EQ(back.nets.size(), 1u);
  const RCTree& u = back.nets[0].tree;
  ASSERT_EQ(u.size(), t.size());
  const auto td_t = moments::elmore_delays(t);
  const auto td_u = moments::elmore_delays(u);
  for (NodeId i = 0; i < t.size(); ++i) {
    const NodeId j = u.at(t.name(i));
    EXPECT_NEAR(td_u[j], td_t[i], 1e-5 * td_t[i]) << t.name(i);
  }
}

TEST(SpefWriter, ShortestFormattingRoundTripsExactly) {
  // write_spef emits shortest-round-trip decimals (std::to_chars), so
  // resistances — written unscaled, OHM units — must survive write -> parse
  // BIT-exactly, even for values the old "%.6g" truncated.
  RCTreeBuilder builder;
  const NodeId a = builder.add_node("a", kSource, 1.0 / 3.0, 0.1e-12);
  const NodeId b = builder.add_node("b", a, 123.456789012345678, 2.5e-15);
  (void)builder.add_node("c", b, 1e-3 + 1e-19, 7.000000000000001e-13);
  const SpefFile out = spef_from_tree(std::move(builder).build(), "exact");
  const RCTree& t = out.nets[0].tree;
  const SpefFile back = parse_spef(write_spef(out));
  const RCTree& u = back.nets[0].tree;
  ASSERT_EQ(u.size(), t.size());
  for (NodeId i = 0; i < t.size(); ++i) {
    const NodeId j = u.at(t.name(i));
    EXPECT_EQ(u.resistance(j), t.resistance(i)) << t.name(i);
  }
  // Caps cross the PF scaling (c / 1e-12 on write, * 1e-12 on parse), so a
  // single cycle may move the value by an ulp — but the cycle must be a
  // fixed point: a second write/parse changes nothing.
  const SpefFile twice = parse_spef(write_spef(back));
  EXPECT_EQ(write_spef(back), write_spef(twice));
  for (NodeId i = 0; i < u.size(); ++i) {
    const NodeId j = twice.nets[0].tree.at(u.name(i));
    EXPECT_EQ(twice.nets[0].tree.capacitance(j), u.capacitance(i)) << u.name(i);
  }
}

TEST(SpefWriter, LoadsSurviveRoundTrip) {
  const RCTree t = testing::small_tree();
  const SpefFile back = parse_spef(write_spef(spef_from_tree(t, "n")));
  ASSERT_EQ(back.nets[0].loads.size(), t.leaves().size());
}

TEST(SpefParser, FileNotFoundThrows) {
  EXPECT_THROW((void)parse_spef_file("/nonexistent.spef"), SpefError);
}

}  // namespace
}  // namespace rct
