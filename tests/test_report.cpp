#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "analysis/tree_context.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "rctree/circuits.hpp"
#include "rctree/generators.hpp"
#include "sim/exact.hpp"

namespace rct::core {
namespace {

// Rows are content (a node id, never a name): copying one is a flat copy,
// and a heap-owning field would make the row cache's hit copies allocate.
static_assert(std::is_trivially_copyable_v<NodeReport>);

TEST(Report, RowsCoverAllNodes) {
  const RCTree t = circuits::fig1();
  const auto rows = build_report(t);
  ASSERT_EQ(rows.size(), t.size());
  EXPECT_EQ(rows.capacity(), rows.size());  // no spare capacity into a cache
  for (NodeId i = 0; i < t.size(); ++i) {
    const NodeReport& r = rows[i];
    EXPECT_EQ(r.node, i);
    EXPECT_TRUE(r.exact_delay.has_value());
    EXPECT_TRUE(r.exact_rise.has_value());
  }
}

TEST(Report, LeavesOnlyFilter) {
  const RCTree t = circuits::fig1();
  ReportOptions opt;
  opt.leaves_only = true;
  const auto rows = build_report(t, opt);
  ASSERT_EQ(rows.size(), 2u);  // n5 and n7
  EXPECT_EQ(rows.capacity(), rows.size());
  EXPECT_EQ(t.name(rows[0].node), "n5");
  EXPECT_EQ(t.name(rows[1].node), "n7");
}

TEST(Report, WithoutExactSkipsEigensolve) {
  const RCTree t = circuits::fig1();
  ReportOptions opt;
  opt.with_exact = false;
  const auto rows = build_report(t, opt);
  for (const auto& r : rows) EXPECT_FALSE(r.exact_delay.has_value());
}

TEST(Report, InvariantsPerRow) {
  const RCTree t = circuits::tree25();
  for (const auto& r : build_report(t)) {
    EXPECT_GE(*r.exact_delay, r.prh_tmin * (1 - 1e-9));
    EXPECT_LE(*r.exact_delay, r.prh_tmax * (1 + 1e-9));
    EXPECT_LE(*r.exact_delay, r.elmore * (1 + 1e-9));
    EXPECT_GE(*r.exact_delay, r.lower_bound * (1 - 1e-9));
    EXPECT_GE(r.skewness, 0.0);
    EXPECT_GT(r.sigma, 0.0);
  }
}

TEST(Report, MomentOracleAcceptsSolvedRowsAndFiresOnPerturbedOnes) {
  const RCTree t = circuits::tree25();
  const analysis::TreeContext ctx(t);
  const sim::ExactAnalysis exact(t);
  const auto td = ctx.elmore_delays();
  for (NodeId i = 0; i < t.size(); ++i)
    EXPECT_TRUE(exact_row_consistent(exact.coefficient_row(i), exact.poles(), td[i]));

  const NodeId node = t.size() - 1;
  std::vector<double> row = exact.step_coefficients(node);
  // m0: take 1e-8 off the slowest pole's residue.
  row.front() -= 1e-8;
  EXPECT_FALSE(exact_row_consistent(row, exact.poles(), td[node]));
  // m1 alone: swap residue between two poles while keeping the sum at 1.
  row = exact.step_coefficients(node);
  row[0] -= 1e-6;
  row[1] += 1e-6;
  EXPECT_FALSE(exact_row_consistent(row, exact.poles(), td[node]));
  // ...and a slack as large as the shift admits it again.
  const double shift = 1e-6 * (1.0 / exact.poles()[0] - 1.0 / exact.poles()[1]);
  EXPECT_TRUE(exact_row_consistent(row, exact.poles(), td[node], 2.0 * shift));
  // A wrong Elmore reference fires too.
  EXPECT_FALSE(exact_row_consistent(exact.coefficient_row(node), exact.poles(), td[node] * 1.01));
}

TEST(Report, ZeroCapacitanceRowsPassTheMomentOracle) {
  // The solver floors zero caps at 1e-9 * Cmax; the oracle's slack admits
  // exactly that shift, so no row degrades.
  RCTreeBuilder b;
  const NodeId n1 = b.add_node("n1", kSource, 100.0, 1e-12);
  NodeId prev = n1;
  for (int k = 0; k < 40; ++k)
    prev = b.add_node(std::string("z").append(std::to_string(k)), prev, 1e4, 0.0);
  b.add_node("load", prev, 100.0, 1e-15);
  const RCTree t = std::move(b).build();
  for (const auto& r : build_report(t)) {
    EXPECT_FALSE(r.degraded) << t.name(r.node);
    EXPECT_TRUE(r.exact_delay.has_value());
  }
}

TEST(Report, CustomFraction) {
  const RCTree t = circuits::fig1();
  ReportOptions opt;
  opt.fraction = 0.9;
  const auto rows = build_report(t, opt);
  // 90% delays exceed 50% delays.
  const auto rows50 = build_report(t);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_GT(*rows[i].exact_delay, *rows50[i].exact_delay);
}

TEST(Report, FormatContainsHeaderAndEveryNode) {
  const RCTree t = circuits::fig1();
  const std::string text = format_report(t, build_report(t));
  EXPECT_NE(text.find("elmore"), std::string::npos);
  for (NodeId i = 0; i < t.size(); ++i)
    EXPECT_NE(text.find(t.name(i)), std::string::npos) << t.name(i);
}

/// Every counter value plus every histogram sample count in the global
/// metrics snapshot: how many instrument updates the process has made.
std::uint64_t instrument_updates() {
  const auto snapshot = json::parse(obs::registry().to_json());
  EXPECT_TRUE(snapshot.has_value());
  if (!snapshot) return 0;
  std::uint64_t total = 0;
  for (const json::Member& c : snapshot->at("counters").members) total += *c.value.as_u64();
  for (const json::Member& h : snapshot->at("histograms").members)
    total += *h.value.at("count").as_u64();
  return total;
}

TEST(Report, InstrumentationCostIsPerReportNotPerRow) {
  // The bound rows cost ~60 ns each, so a per-row counter or histogram
  // observe is a large share of the moments-only report.  RCT_OBS=OFF
  // leaves counters and histograms live, so the wall-clock overhead gate
  // cannot see such a hook; the update count can, in both builds.
  ReportOptions opt;
  opt.with_exact = false;
  const auto updates_for = [&](std::size_t segments) {
    const RCTree tree = gen::line(segments, 100.0, 0.1e-12, 50.0, 0.05e-12);
    const std::uint64_t before = instrument_updates();
    const auto rows = build_report(tree, opt);
    EXPECT_EQ(rows.size(), tree.size());
    return instrument_updates() - before;
  };
  const std::uint64_t small = updates_for(1000);
  const std::uint64_t large = updates_for(4000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace rct::core
