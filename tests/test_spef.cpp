#include "rctree/spef.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "helpers.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/generators.hpp"
#include "robust/error.hpp"

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

// --- the line scanner, pinned ----------------------------------------------
// Each case parses one deck in strict and in lenient mode and compares a
// rendering of everything the parse hands back: units and design, every
// net's nodes (name, parent, R and C as exact hex floats) and loads, every
// diagnostic's code, line, net and message, and the strict error.  The
// expected renderings were captured from the parser as it stood before its
// one-pass line scanner.

/// A double as an exact hex float.
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// `s` with its control bytes other than '\n' spelled \xNN.
std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if ((c >= 0 && c < 0x20 && c != '\n') || c == 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", static_cast<unsigned>(c));
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Everything a parse hands back, one fact a line.
std::string render(const SpefFile& f) {
  std::string out;
  out.append("design '").append(f.design).append("' units ").append(hex(f.time_unit));
  out.append(" ").append(hex(f.cap_unit)).append(" ").append(hex(f.res_unit)).append("\n");
  for (const SpefNet& net : f.nets) {
    const RCTree& t = net.tree;
    out.append("net ").append(net.name).append(" driver ").append(net.driver).append("\n");
    for (NodeId i = 0; i < t.size(); ++i) {
      out.append("  ").append(t.name(i)).append(" <- ");
      out.append(t.parent(i) == kSource ? std::string("source") : t.name(t.parent(i)));
      out.append(" R ").append(hex(t.resistance(i))).append(" C ");
      out.append(hex(t.capacitance(i))).append("\n");
    }
    out.append("  loads");
    for (const NodeId l : net.loads) out.append(" ").append(t.name(l));
    out.append("\n");
  }
  for (const robust::Diagnostic& d : f.diagnostics) {
    out.append("diag ").append(robust::code_name(d.code)).append(" line ");
    out.append(std::to_string(d.location.line)).append(" net '").append(d.net);
    out.append("': ").append(d.message).append("\n");
  }
  out.append("rejected ").append(std::to_string(f.nets_rejected)).append("\n");
  return escaped(out);
}

/// render() of a parse of `text`, or the strict error.  The text is copied
/// into a heap buffer of its exact size, so a read past its end trips
/// AddressSanitizer.
std::string parse_rendered(std::string_view text, bool lenient) {
  const auto exact = std::make_unique<char[]>(text.size());
  std::memcpy(exact.get(), text.data(), text.size());
  SpefParseOptions options;
  options.lenient = lenient;
  try {
    return render(parse_spef(std::string_view(exact.get(), text.size()), options));
  } catch (const SpefError& e) {
    return escaped(std::string("error ")
                       .append(robust::code_name(e.code()))
                       .append(" line ")
                       .append(std::to_string(e.location().line))
                       .append(": ")
                       .append(e.message())
                       .append("\n"));
  }
}

void expect_scan(std::string_view text, std::string_view strict, std::string_view lenient) {
  EXPECT_EQ(parse_rendered(text, /*lenient=*/false), strict);
  EXPECT_EQ(parse_rendered(text, /*lenient=*/true), lenient);
}

TEST(SpefScanner, CommentsCutMidTokenAndAfterTheValue) {
  // `//` cuts a line wherever it starts, mid-token too; a lone `/` is a name
  // or value character, also as the last byte of a line and of the file.
  expect_scan("*SPEF \"x\" // header comment\n"
              "// a whole-line comment\n"
              "*D_NET n1//cut inside the name 1\n"
              "*CONN\n"
              "*P drv I // driver\n"
              "*I b//pin O\n"
              "*I a/b O\n"
              "*CAP\n"
              "1 b 0.5// after the value\n"
              "2 c 0.25 // spaced\n"
              "3 a/b 0.125\n"
              "*RES\n"
              "1 drv b 10//\n"
              "2 b c 2.5e1 // tail\n"
              "3 c a/b 4//\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x//y 0.5\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 0.5/\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 0.5\n"
              "*RES\n"
              "1 drv x 4 /\n"
              "*END\n"
              "*D_NET n5 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 0.5\n"
              "*RES\n"
              "1 drv x 4/\n"
              "*END /",
              R"(error syntax line 21: *CAP entry requires: index node value
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  b <- source R 0x1.4p+3 C 0x1.19799812dea11p-41
  c <- b R 0x1.9p+4 C 0x1.19799812dea11p-42
  a/b <- c R 0x1p+2 C 0x1.19799812dea11p-43
  loads b a/b
diag syntax line 21 net 'n2': *CAP entry requires: index node value
diag bad-number line 29 net 'n3': bad number '0.5/'
diag syntax line 39 net 'n4': *RES entry requires: index nodeA nodeB value
diag bad-number line 47 net 'n5': bad number '4/'
rejected 4
)");
}

TEST(SpefScanner, CrlfAndControlCharacterSeparators) {
  // CR, tab, vertical tab and form feed separate tokens like a space.
  expect_scan("*SPEF \"x\"\r\n"
              "*T_UNIT\t1\tNS\r\n"
              "*D_NET\vn1\f1\r\n"
              "*CONN\r\n"
              "*P drv I\r\n"
              "*I\tb\tO\r\n"
              "\r\n"
              " \t\v\f\r\n"
              "*CAP\r\n"
              "1\tb\v0.5\f\r\n"
              "2 c\t0.25\r\r\n"
              "*RES\r\n"
              "1\fdrv\vb\t10\r\n"
              "2 b c\r25\r\n"
              "*END\r\n"
              "*D_NET n2 1\r\n"
              "*CONN\r\n"
              "*P drv I\r\n"
              "*CAP\r\n"
              "1 x\r0.5\r9\r\n"
              "*RES\r\n"
              "1 drv x 1\r\n"
              "*END\r\n"
              "*D_NET n3 1\r\n"
              "*CONN\r\n"
              "*P drv I\r\n"
              "*CAP\r\n"
              "1 x 0.5\r\n"
              "*RES\r\n"
              "1 drv x\f1\v\r",
              R"(error unsupported line 20: coupling capacitors are not supported (RC trees only)
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  b <- source R 0x1.4p+3 C 0x1.19799812dea11p-41
  c <- b R 0x1.9p+4 C 0x1.19799812dea11p-42
  loads b
net n3 driver drv
  x <- source R 0x1p+0 C 0x1.19799812dea11p-41
  loads
diag unsupported line 20 net 'n2': coupling capacitors are not supported (RC trees only)
rejected 1
)");
}

TEST(SpefScanner, StrtodSlowPathValues) {
  // Values from_chars does not take whole go through strtod's acceptance.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b +1.5\n"
              "2 c .5\n"
              "3 d 5.\n"
              "4 e 0X1P-3\n"
              "*RES\n"
              "1 drv b 0x1p-3\n"
              "2 b c 1E2\n"
              "3 c d +2e+1\n"
              "4 d e 0x.8p1\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 0x\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x 1.5x\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x -\n"
              "*END\n"
              "*D_NET n5 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x ++1\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n",
              R"(error bad-number line 19: bad number '0x'
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  b <- source R 0x1p-3 C 0x1.a636641c4df1ap-40
  c <- b R 0x1.9p+6 C 0x1.19799812dea11p-41
  d <- c R 0x1.4p+4 C 0x1.5fd7fe1796495p-38
  e <- d R 0x1p+0 C 0x1.19799812dea11p-43
  loads
diag bad-number line 19 net 'n2': bad number '0x'
diag bad-number line 29 net 'n3': bad number '1.5x'
diag bad-number line 37 net 'n4': bad number '-'
diag bad-number line 43 net 'n5': bad number '++1'
rejected 4
)");
}

TEST(SpefScanner, OverflowAndNanValues) {
  // Out-of-range and non-finite values are typed nan-value or non-physical defects.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1e400\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x nan\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x inf\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x -nan\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n5 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x 1e-400\n"
              "*END\n"
              "*D_NET n6 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1e-320\n"
              "*RES\n"
              "1 drv x -1e400\n"
              "*END\n"
              "*D_NET n7 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1e-320\n"
              "*RES\n"
              "1 drv x 1e308\n"
              "*END\n",
              R"(error nan-value line 5: capacitance '1e400' is not finite
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n7 driver drv
  x <- source R 0x1.1ccf385ebc8ap+1023 C 0x0p+0
  loads
diag nan-value line 5 net 'n1': capacitance '1e400' is not finite
diag nan-value line 15 net 'n2': resistance 'nan' is not finite
diag nan-value line 21 net 'n3': capacitance 'inf' is not finite
diag nan-value line 29 net 'n4': capacitance '-nan' is not finite
diag non-physical-value line 39 net 'n5': non-physical resistance 1e-400 (must be > 0)
diag nan-value line 47 net 'n6': resistance '-1e400' is not finite
rejected 6
)");
}

TEST(SpefScanner, NegativeZeroAndNegativeCapacitance) {
  // -0 is a capacitance of zero; a negative one is an error, or repaired in
  // lenient mode with a diagnostic.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b -0\n"
              "2 c -0.0e0\n"
              "*RES\n"
              "1 drv b 1\n"
              "2 b c 2\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x -0.5\n"
              "2 x 0.25\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x -0\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x -1\n"
              "*END\n",
              R"(error non-physical-value line 15: non-physical capacitance -0.5 at node 'x' (must be >= 0)
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  b <- source R 0x1p+0 C 0x0p+0
  c <- b R 0x1p+1 C 0x0p+0
  loads
net n2 driver drv
  x <- source R 0x1p+0 C 0x1.19799812dea11p-42
  loads
diag non-physical-value line 15 net 'n2': repaired negative capacitance -0.5 at node 'x' to 0F
diag non-physical-value line 26 net 'n3': non-physical resistance -0 (must be > 0)
diag non-physical-value line 34 net 'n4': non-physical resistance -1 (must be > 0)
rejected 2
)");
}

TEST(SpefScanner, CapTokenCounts) {
  // *CAP takes three tokens; four is a coupling capacitor whatever its value.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b c 0.5\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b c xyz\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b c d 0.5\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n"
              "*D_NET n5 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b xyz\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n"
              "*D_NET n6 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n",
              R"(error unsupported line 5: coupling capacitors are not supported (RC trees only)
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
diag unsupported line 5 net 'n1': coupling capacitors are not supported (RC trees only)
diag unsupported line 13 net 'n2': coupling capacitors are not supported (RC trees only)
diag syntax line 21 net 'n3': *CAP entry requires: index node value
diag syntax line 29 net 'n4': *CAP entry requires: index node value
diag bad-number line 37 net 'n5': bad number 'xyz'
diag syntax line 45 net 'n6': *CAP entry requires: index node value
rejected 6
)");
}

TEST(SpefScanner, ResTokenCountsAndShorts) {
  // *RES takes four tokens; a short is found before its value is read; names
  // intern in order a then b.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*I z O\n"
              "*CAP\n"
              "1 z 1\n"
              "2 w 2\n"
              "*RES\n"
              "1 y x 1\n"
              "2 drv y 2\n"
              "3 x z 3\n"
              "4 w y 4\n"
              "5 x v 5\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b 1\n"
              "*RES\n"
              "1 drv b\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b 1\n"
              "*RES\n"
              "1 drv b 5 6\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b 1\n"
              "*RES\n"
              "1 drv b 1\n"
              "2 b b 5\n"
              "*END\n"
              "*D_NET n5 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b 1\n"
              "*RES\n"
              "1 drv b 1\n"
              "2 b b xyz\n"
              "*END\n"
              "*D_NET n6 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 b 1\n"
              "*RES\n"
              "1 drv b xyz extra\n"
              "*END\n",
              R"(error syntax line 21: *RES entry requires: index nodeA nodeB value
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  y <- source R 0x1p+1 C 0x0p+0
  x <- y R 0x1p+0 C 0x0p+0
  w <- y R 0x1p+2 C 0x1.19799812dea11p-39
  z <- x R 0x1.8p+1 C 0x1.19799812dea11p-40
  v <- x R 0x1.4p+2 C 0x0p+0
  loads z
diag syntax line 21 net 'n2': *RES entry requires: index nodeA nodeB value
diag syntax line 29 net 'n3': *RES entry requires: index nodeA nodeB value
diag duplicate-node line 38 net 'n4': resistor shorts node 'b' to itself
diag duplicate-node line 47 net 'n5': resistor shorts node 'b' to itself
diag syntax line 55 net 'n6': *RES entry requires: index nodeA nodeB value
rejected 5
)");
}

TEST(SpefScanner, LowercaseKeywords) {
  // Keywords and units match in any case.
  expect_scan("*spef \"x\"\n"
              "*design \"low case\"\n"
              "*t_unit 1 ps\n"
              "*c_unit 1 ff\n"
              "*r_unit 2 kohm\n"
              "*d_net n1 1\n"
              "*conn\n"
              "*p drv i\n"
              "*i b o\n"
              "*cap\n"
              "1 b 2\n"
              "*res\n"
              "1 drv b 3\n"
              "*end\n"
              "*D_Net n2 1\n"
              "*Conn\n"
              "*P drv I\n"
              "*Cap\n"
              "1 b 2\n"
              "*Res\n"
              "1 drv b 3\n"
              "*End\n"
              "*d_net n3 1\n"
              "*conn\n"
              "*p drv i\n"
              "*induc\n"
              "1 drv b 3\n"
              "*end\n",
              R"(error unsupported line 26: *INDUC sections are not supported (RC trees only)
)",
              R"(design 'low' units 0x1.19799812dea11p-40 0x1.203af9ee75616p-50 0x1.f4p+10
net n1 driver drv
  b <- source R 0x1.77p+12 C 0x1.203af9ee75616p-49
  loads b
net n2 driver drv
  b <- source R 0x1.77p+12 C 0x1.203af9ee75616p-49
  loads
diag unsupported line 26 net 'n3': *INDUC sections are not supported (RC trees only)
rejected 1
)");
}

TEST(SpefScanner, DataLinesStartingWithAStar) {
  // A first token that starts with `*` but is no keyword is data.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "*1 b 0.5\n"
              "*12 c 0.25\n"
              "*P d 1\n"
              "*CAPX e 2\n"
              "*RES\n"
              "*1 drv b 1\n"
              "*2 b c 2\n"
              "*I c d 3\n"
              "*RESX d e 4\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*5 x\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CONNX x\n"
              "*CAP\n"
              "1 x 1\n"
              "*RES\n"
              "1 drv x 1\n"
              "*END\n",
              R"(error unsupported line 18: unsupported *CONN entry '*5'
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  b <- source R 0x1p+0 C 0x1.19799812dea11p-41
  c <- b R 0x1p+1 C 0x1.19799812dea11p-42
  d <- c R 0x1.8p+1 C 0x1.19799812dea11p-40
  e <- d R 0x1p+2 C 0x1.19799812dea11p-39
  loads
diag unsupported line 18 net 'n2': unsupported *CONN entry '*5'
diag unsupported line 27 net 'n3': unsupported *CONN entry '*CONNX'
rejected 2
)");
}

TEST(SpefScanner, SectionsOfOnlyComments) {
  // Comment-only lines are blank lines.
  expect_scan("*D_NET n1 1\n"
              "// only comments\n"
              "   // indented\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "// none\n"
              "*RES\n"
              "//none either\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "// c\n"
              "*P drv I\n"
              "*CAP\n"
              "//\n"
              "1 b 1\n"
              "*RES\n"
              "  //\n"
              "1 drv b 1\n"
              "*END\n",
              R"(error no-driver line 4: net 'n1' has no *P driving port
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n3 driver drv
  b <- source R 0x1p+0 C 0x1.19799812dea11p-40
  loads
diag no-driver line 4 net 'n1': net 'n1' has no *P driving port
diag empty-tree line 12 net 'n2': net 'n2': no resistors
rejected 2
)");
}

TEST(SpefScanner, KeywordLineTokenCounts) {
  // Keyword lines check their own token counts and values.
  expect_scan("*DESIGN\n"
              "*T_UNIT 1\n"
              "*C_UNIT 1 XF\n"
              "*R_UNIT 1 OHM extra\n"
              "*T_UNIT x NS\n"
              "stray line\n"
              "*DESIGN \"d\"\n"
              "*D_NET\n"
              "*D_NET n1 1\n"
              "1 b 1\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P\n"
              "*END\n"
              "*D_NET n3 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*I\n"
              "*END\n"
              "*D_NET n4 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*P drv2 I\n"
              "*END\n"
              "*D_NET n5 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*I b O\n"
              "*CAP\n"
              "1 b 1\n"
              "*RES\n"
              "1 drv b 1\n"
              "*END\n",
              R"(error syntax line 2: *T_UNIT requires: value unit
)",
              R"(design 'd' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n5 driver drv
  b <- source R 0x1p+0 C 0x1.19799812dea11p-40
  loads b
diag syntax line 2 net '': *T_UNIT requires: value unit
diag bad-unit line 3 net '': unknown unit 'XF'
diag syntax line 4 net '': *R_UNIT requires: value unit
diag bad-number line 5 net '': bad number 'x'
diag syntax line 6 net '': unexpected statement 'stray' outside *D_NET
diag syntax line 8 net '': *D_NET requires a net name
diag syntax line 10 net 'n1': statement before any *CONN/*CAP/*RES section
diag syntax line 14 net 'n2': *P requires a port name
diag syntax line 19 net 'n3': *I requires a pin name
diag syntax line 24 net 'n4': multiple *P driving ports on one net
rejected 4
)");
}

TEST(SpefScanner, NamesOfEveryLengthAndByte) {
  // Names of 1 to 17 bytes and names holding control bytes intern once and
  // resolve as loads.
  expect_scan("*D_NET n1 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*I abcdefgh O\n"
              "*I abcdefghijklmnop O\n"
              "*I ctl\x01""name_x9 O\n"
              "*I q O\n"
              "*I abcdefghi O\n"
              "*CAP\n"
              "1 a 1\n"
              "2 abcdefg 2\n"
              "3 abcdefgh 3\n"
              "4 abcdefghi 4\n"
              "5 abcdefghijklmnop 5\n"
              "6 abcdefghijklmnopq 6\n"
              "7 ctl\x01""name_x9 7\n"
              "8 b\x7f""c 8\n"
              "9 q 9\n"
              "*RES\n"
              "1 drv a 1\n"
              "2 a abcdefg 2\n"
              "3 abcdefg abcdefgh 3\n"
              "4 abcdefgh abcdefghi 4\n"
              "5 a abcdefghijklmnop 5\n"
              "6 abcdefghijklmnop abcdefghijklmnopq 6\n"
              "7 abcdefghi ctl\x01""name_x9 7\n"
              "8 ctl\x01""name_x9 b\x7f""c 8\n"
              "9 b\x7f""c q 9\n"
              "*END\n"
              "*D_NET n2 1\n"
              "*CONN\n"
              "*P drv I\n"
              "*CAP\n"
              "1 abcdefgh 1\n"
              "*RES\n"
              "1 drv abcdefgh 1\n"
              "2 abcdefgh abcdefgh 2\n"
              "*END\n",
              R"(error duplicate-node line 37: resistor shorts node 'abcdefgh' to itself
)",
              R"(design '' units 0x1.12e0be826d695p-30 0x1.19799812dea11p-40 0x1p+0
net n1 driver drv
  a <- source R 0x1p+0 C 0x1.19799812dea11p-40
  abcdefg <- a R 0x1p+1 C 0x1.19799812dea11p-39
  abcdefghijklmnop <- a R 0x1.4p+2 C 0x1.5fd7fe1796495p-38
  abcdefgh <- abcdefg R 0x1.8p+1 C 0x1.a636641c4df1ap-39
  abcdefghijklmnopq <- abcdefghijklmnop R 0x1.8p+2 C 0x1.a636641c4df1ap-38
  abcdefghi <- abcdefgh R 0x1p+2 C 0x1.19799812dea11p-38
  ctl\x01name_x9 <- abcdefghi R 0x1.cp+2 C 0x1.ec94ca210599ep-38
  b\x7fc <- ctl\x01name_x9 R 0x1p+3 C 0x1.19799812dea11p-37
  q <- b\x7fc R 0x1.2p+3 C 0x1.3ca8cb153a753p-37
  loads abcdefgh abcdefghijklmnop ctl\x01name_x9 q abcdefghi
diag duplicate-node line 37 net 'n2': resistor shorts node 'abcdefgh' to itself
rejected 1
)");
}

}  // namespace
}  // namespace rct
