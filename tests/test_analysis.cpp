// Tests for src/analysis: the TreeContext derived-array layer.
//
// The load-bearing guarantees:
//   * every eager array matches the per-call RCTree accessor it replaces,
//   * every derived quantity is bit-identical to the src/moments free
//     function that computes it (a report built from a context matches
//     one built from the tree to the ULP),
//   * the lazy members are safe to first-use from several threads.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "analysis/tree_context.hpp"
#include "helpers.hpp"
#include "moments/central.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/circuits.hpp"
#include "rctree/generators.hpp"

namespace rct::analysis {
namespace {

using testing::ExpectRel;

std::vector<RCTree> sample_trees() {
  std::vector<RCTree> trees;
  trees.push_back(testing::single_rc());
  trees.push_back(testing::two_rc());
  trees.push_back(testing::small_tree());
  trees.push_back(circuits::fig1());
  trees.push_back(circuits::tree25());
  trees.push_back(gen::line(40, 100.0, 0.1e-12, 50.0, 0.05e-12));
  trees.push_back(gen::random_tree(60, 17));
  trees.push_back(gen::random_tree(60, 18, {.bushiness = 0.0}));  // line-like
  return trees;
}

// ---------------------------------------------------------------------------
// Eager arrays
// ---------------------------------------------------------------------------

TEST(TreeContext, EagerArraysMatchAccessors) {
  for (const RCTree& t : sample_trees()) {
    const TreeContext ctx(t);
    const auto depths = ctx.depths();
    const auto rpath = ctx.path_resistances();
    const auto ctot = ctx.subtree_capacitances();
    ASSERT_EQ(depths.size(), t.size());
    ASSERT_EQ(rpath.size(), t.size());
    ASSERT_EQ(ctot.size(), t.size());
    ASSERT_EQ(ctx.elmore_delays().size(), t.size());
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_EQ(depths[i], t.depth(i));
      // The walk-based accessors sum in a different order, so compare to a
      // relative tolerance; the array-based moments functions are compared
      // bitwise below.
      ExpectRel(rpath[i], t.path_resistance(i), 1e-12);
      ExpectRel(ctot[i], t.subtree_capacitance(i), 1e-12);
    }
  }
}

TEST(TreeContext, EagerArraysBitIdenticalToMomentsFunctions) {
  for (const RCTree& t : sample_trees()) {
    const TreeContext ctx(t);
    const auto rpath = moments::path_resistances(t);
    const auto ctot = moments::subtree_capacitances(t);
    const auto td = moments::elmore_delays(t);
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_EQ(ctx.path_resistances()[i], rpath[i]);
      EXPECT_EQ(ctx.subtree_capacitances()[i], ctot[i]);
      EXPECT_EQ(ctx.elmore_delays()[i], td[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy, computed-once quantities
// ---------------------------------------------------------------------------

TEST(TreeContext, ImpulseStatsAndPrhTermsBitIdentical) {
  for (const RCTree& t : sample_trees()) {
    const TreeContext ctx(t);
    const auto stats = moments::impulse_stats(t);
    const auto got = ctx.impulse_stats();
    ASSERT_EQ(got.size(), stats.size());
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_EQ(got[i].mean, stats[i].mean);
      EXPECT_EQ(got[i].mu2, stats[i].mu2);
      EXPECT_EQ(got[i].mu3, stats[i].mu3);
      EXPECT_EQ(got[i].sigma, stats[i].sigma);
      EXPECT_EQ(got[i].skewness, stats[i].skewness);
    }
    const moments::PrhTerms want = moments::prh_terms(t);
    const moments::PrhTerms& prh = ctx.prh_terms();
    EXPECT_EQ(prh.tp, want.tp);
    EXPECT_EQ(prh.td, want.td);
    EXPECT_EQ(prh.tr, want.tr);
  }
}

TEST(TreeContext, ConcurrentLazyAccessIsConsistent) {
  const RCTree t = gen::random_tree(80, 41);
  const TreeContext ctx(t);
  const auto stats = moments::impulse_stats(t);
  const moments::PrhTerms want_prh = moments::prh_terms(t);
  std::vector<std::thread> threads;
  std::vector<const moments::ImpulseStats*> seen(8);
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&ctx, &stats, &want_prh, &seen, w] {
      // Every thread races the first use of both lazy members; the context
      // must compute each once and hand all of them the same (bit-identical)
      // arrays.
      const auto s = ctx.impulse_stats();
      EXPECT_EQ(s[w].mean, stats[w].mean);
      EXPECT_EQ(s[w].sigma, stats[w].sigma);
      const moments::PrhTerms& prh = ctx.prh_terms();
      EXPECT_EQ(prh.td[w], want_prh.td[w]);
      EXPECT_EQ(prh.tr[w], want_prh.tr[w]);
      seen[w] = s.data();
    });
  }
  for (auto& th : threads) th.join();
  for (const moments::ImpulseStats* p : seen) EXPECT_EQ(p, ctx.impulse_stats().data());
}

}  // namespace
}  // namespace rct::analysis
