// Robustness suite: hostile input must produce typed errors, never crashes
// or silent garbage.  Seeded pseudo-fuzz over the two text parsers plus
// structured mutations of valid decks.

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "rctree/netlist_parser.hpp"
#include "rctree/spef.hpp"

namespace rct {
namespace {

std::string random_soup(std::mt19937_64& rng, std::size_t len) {
  static constexpr char kChars[] =
      "abcXYZ0189.*-+_ \t\n\"RCrpnl()=;/";
  std::uniform_int_distribution<std::size_t> pick(0, sizeof(kChars) - 2);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) s.push_back(kChars[pick(rng)]);
  return s;
}

TEST(Robustness, NetlistParserNeverCrashesOnSoup) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 300; ++i) {
    const std::string soup = random_soup(rng, 20 + (i * 7) % 400);
    try {
      const ParsedNetlist p = parse_netlist(soup);
      // Accepting soup is fine as long as the result is a valid tree.
      EXPECT_GT(p.tree.size(), 0u);
    } catch (const NetlistError&) {
      // Expected path.
    }
  }
}

TEST(Robustness, SpefParserNeverCrashesOnSoup) {
  std::mt19937_64 rng(2);
  for (int i = 0; i < 300; ++i) {
    const std::string soup = "*SPEF\n" + random_soup(rng, 20 + (i * 11) % 400);
    try {
      const SpefFile f = parse_spef(soup);
      EXPECT_FALSE(f.nets.empty());
    } catch (const SpefError&) {
    }
  }
}

TEST(Robustness, MutatedValidDeckAlwaysTypedError) {
  const std::string base =
      ".input in\nR1 in n1 100\nC1 n1 0 1p\nR2 n1 n2 50\nC2 n2 0 2p\n.probe n2\n.end\n";
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<int> ch(32, 126);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = base;
    // 1-3 point mutations.
    for (int m = 0; m <= i % 3; ++m) mutated[pos(rng)] = static_cast<char>(ch(rng));
    try {
      const ParsedNetlist p = parse_netlist(mutated);
      EXPECT_GT(p.tree.size(), 0u);
      for (NodeId n = 0; n < p.tree.size(); ++n) {
        EXPECT_GT(p.tree.resistance(n), 0.0);
        EXPECT_GE(p.tree.capacitance(n), 0.0);
      }
    } catch (const NetlistError&) {
    }
  }
}

TEST(Robustness, TruncatedSpefAlwaysTypedError) {
  const std::string base =
      "*SPEF \"x\"\n*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n"
      "*D_NET n 0.1\n*CONN\n*P drv I\n*I a O\n*CAP\n1 a 0.1\n*RES\n1 drv a 50\n*END\n";
  for (std::size_t cut = 1; cut < base.size(); cut += 3) {
    try {
      (void)parse_spef(base.substr(0, cut));
    } catch (const SpefError&) {
    }
  }
}

TEST(Robustness, DeeplyNestedTreesParseWithoutStackIssues) {
  // A 50k-deep chain exercises every non-recursive code path end to end.
  std::string deck = ".input in\n";
  std::string prev = "in";
  for (int i = 0; i < 50000; ++i) {
    const std::string idx = std::to_string(i);
    const std::string cur = std::string("n").append(idx);
    deck.append("R").append(idx).append(" ").append(prev).append(" ").append(cur).append(" 1\n");
    deck.append("C").append(idx).append(" ").append(cur).append(" 0 1f\n");
    prev = cur;
  }
  const ParsedNetlist p = parse_netlist(deck);
  EXPECT_EQ(p.tree.size(), 50000u);
  EXPECT_EQ(p.tree.depth(p.tree.size() - 1), 50000u);
}

TEST(Robustness, HugeValuesStayFinite) {
  const ParsedNetlist p = parse_netlist(
      ".input in\nR1 in n1 1t\nC1 n1 0 1t\n");
  EXPECT_DOUBLE_EQ(p.tree.resistance(0), 1e12);
  EXPECT_DOUBLE_EQ(p.tree.capacitance(0), 1e12);
}

TEST(Robustness, EmptyAndWhitespaceOnlyInputs) {
  EXPECT_THROW((void)parse_netlist(""), NetlistError);
  EXPECT_THROW((void)parse_netlist("\n\n  \t\n"), NetlistError);
  EXPECT_THROW((void)parse_spef(""), SpefError);
  EXPECT_THROW((void)parse_spef("   \n\t\n"), SpefError);
}

}  // namespace
}  // namespace rct
