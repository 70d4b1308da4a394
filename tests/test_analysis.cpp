// Tests for src/analysis: the shared TreeContext derived-array layer.
//
// The load-bearing guarantees:
//   * every eager array matches the per-call RCTree accessor it replaces,
//   * every derived quantity is bit-identical to the src/moments free
//     function it memoizes (consumers may swap freely without perturbing
//     a ULP),
//   * lazy extension is incremental and thread-safe,
//   * the context-taking overloads across core/sim agree with their
//     tree-taking originals.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "analysis/tree_context.hpp"
#include "core/bounds.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/sensitivity.hpp"
#include "helpers.hpp"
#include "moments/central.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/circuits.hpp"
#include "rctree/generators.hpp"
#include "sim/mna.hpp"
#include "sim/sources.hpp"

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
    ASSERT_EQ(ctx.size(), t.size());
    EXPECT_EQ(ctx.total_capacitance(), t.total_capacitance());
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_EQ(ctx.depth(i), t.depth(i));
      // The walk-based accessors sum in a different order, so compare to a
      // relative tolerance; the array-based moments functions are compared
      // bitwise below.
      ExpectRel(ctx.path_resistance(i), t.path_resistance(i), 1e-12);
      ExpectRel(ctx.subtree_capacitance(i), t.subtree_capacitance(i), 1e-12);
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
      EXPECT_EQ(ctx.elmore_delay(i), td[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Pre-order and subtree intervals
// ---------------------------------------------------------------------------

/// Reference ancestor-or-self test by parent walk.
bool in_subtree_slow(const RCTree& t, NodeId root, NodeId node) {
  for (NodeId v = node; v != kSource; v = t.parent(v))
    if (v == root) return true;
  return false;
}

TEST(TreeContext, PreorderIsParentFirstPermutation) {
  for (const RCTree& t : sample_trees()) {
    const TreeContext ctx(t);
    const auto pre = ctx.preorder();
    ASSERT_EQ(pre.size(), t.size());
    std::vector<char> seen(t.size(), 0);
    for (std::size_t pos = 0; pos < pre.size(); ++pos) {
      const NodeId v = pre[pos];
      ASSERT_LT(v, t.size());
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
      EXPECT_EQ(ctx.preorder_index()[v], pos);
      const NodeId p = t.parent(v);
      if (p != kSource) {
        EXPECT_LT(ctx.preorder_index()[p], pos);
      }
    }
  }
}

TEST(TreeContext, SubtreeIntervalsMatchParentWalk) {
  for (const RCTree& t : sample_trees()) {
    const TreeContext ctx(t);
    for (NodeId root = 0; root < t.size(); ++root) {
      std::size_t members = 0;
      for (NodeId node = 0; node < t.size(); ++node) {
        const bool expect = in_subtree_slow(t, root, node);
        EXPECT_EQ(ctx.in_subtree(root, node), expect) << root << " " << node;
        if (expect) ++members;
      }
      EXPECT_EQ(ctx.subtree_size(root), members);
      EXPECT_EQ(ctx.subtree_end(root) - ctx.subtree_begin(root), members);
    }
  }
}

TEST(TreeContext, SubtreeIntervalIsContiguousPreorderRun) {
  const RCTree t = gen::random_tree(50, 23);
  const TreeContext ctx(t);
  for (NodeId root = 0; root < t.size(); ++root) {
    for (std::size_t pos = ctx.subtree_begin(root); pos < ctx.subtree_end(root); ++pos)
      EXPECT_TRUE(in_subtree_slow(t, root, ctx.preorder()[pos]));
  }
}

// ---------------------------------------------------------------------------
// Lazy memoization
// ---------------------------------------------------------------------------

TEST(TreeContext, MomentsExtendIncrementallyAndBitIdentical) {
  const RCTree t = circuits::tree25();
  const TreeContext ctx(t);
  EXPECT_EQ(ctx.moments_computed(), 0u);
  ctx.ensure_moments(2);
  EXPECT_EQ(ctx.moments_computed(), 3u);  // m_0..m_2
  ctx.ensure_moments(1);                  // no-op, never shrinks
  EXPECT_EQ(ctx.moments_computed(), 3u);

  // Extending 2 -> 5 must land exactly where a fresh full run lands.
  const auto direct = moments::transfer_moments(t, 5);
  for (std::size_t k = 0; k <= 5; ++k) {
    const auto& mk = ctx.transfer_moment(k);
    ASSERT_EQ(mk.size(), t.size());
    for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(mk[i], direct[k][i]);
  }
  EXPECT_EQ(ctx.moments_computed(), 6u);
}

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

TEST(TreeContext, ReturnedReferencesSurviveLazyExtension) {
  const RCTree t = gen::random_tree(30, 5);
  const TreeContext ctx(t);
  const std::vector<double>& m1 = ctx.transfer_moment(1);
  const double first = m1[0];
  ctx.ensure_moments(8);  // deque growth must not move earlier vectors
  EXPECT_EQ(&m1, &ctx.transfer_moment(1));
  EXPECT_EQ(m1[0], first);
}

TEST(TreeContext, ConcurrentLazyAccessIsConsistent) {
  const RCTree t = gen::random_tree(80, 41);
  const TreeContext ctx(t);
  const auto direct = moments::transfer_moments(t, 6);
  const auto stats = moments::impulse_stats(t);
  const moments::PrhTerms want_prh = moments::prh_terms(t);
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&ctx, &direct, &stats, &want_prh, w] {
      // Every thread races extension and reads; memoization must hand all of
      // them the same (bit-identical) arrays.
      const auto& mk = ctx.transfer_moment(1 + static_cast<std::size_t>(w % 6));
      EXPECT_EQ(mk, direct[1 + static_cast<std::size_t>(w % 6)]);
      const auto s = ctx.impulse_stats();
      EXPECT_EQ(s[w].mean, stats[w].mean);
      const moments::PrhTerms& prh = ctx.prh_terms();
      EXPECT_EQ(prh.td[w], want_prh.td[w]);
      ctx.ensure_moments(6);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ctx.moments_computed(), 7u);
}

TEST(TreeContext, OwningConstructorKeepsTreeAlive) {
  std::unique_ptr<TreeContext> ctx;
  {
    auto tree = std::make_shared<const RCTree>(testing::small_tree());
    ctx = std::make_unique<TreeContext>(tree);
  }  // the shared_ptr in this scope is gone; the context still owns the tree
  EXPECT_EQ(ctx->tree().name(0), "a");
  EXPECT_EQ(ctx->impulse_stats().size(), 4u);
  EXPECT_THROW(TreeContext(std::shared_ptr<const RCTree>{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Context-taking overloads agree with their tree-taking originals
// ---------------------------------------------------------------------------

TEST(ContextOverloads, CoreAnalysesMatchTreeVersions) {
  for (const RCTree& t : sample_trees()) {
    const TreeContext ctx(t);

    const auto db_tree = core::delay_bounds(t);
    const auto db_ctx = core::delay_bounds(ctx);
    ASSERT_EQ(db_tree.size(), db_ctx.size());
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_EQ(db_tree[i].elmore, db_ctx[i].elmore);
      EXPECT_EQ(db_tree[i].sigma, db_ctx[i].sigma);
      EXPECT_EQ(db_tree[i].lower, db_ctx[i].lower);
      EXPECT_EQ(db_tree[i].upper, db_ctx[i].upper);
    }
    const NodeId last = t.size() - 1;
    EXPECT_EQ(core::delay_bounds_at(t, last).lower, core::delay_bounds_at(ctx, last).lower);
    EXPECT_EQ(core::rise_time_estimate(t, last), core::rise_time_estimate(ctx, last));

    const sim::SaturatedRampSource ramp(1e-9);
    const auto gb_tree = core::generalized_bounds(t, last, ramp);
    const auto gb_ctx = core::generalized_bounds(ctx, last, ramp);
    EXPECT_EQ(gb_tree.out_mean, gb_ctx.out_mean);
    EXPECT_EQ(gb_tree.out_sigma, gb_ctx.out_sigma);
    EXPECT_EQ(gb_tree.delay_upper, gb_ctx.delay_upper);
    EXPECT_EQ(gb_tree.delay_lower, gb_ctx.delay_lower);

    const auto dm_tree = core::delay_metrics(t);
    const auto dm_ctx = core::delay_metrics(ctx);
    ASSERT_EQ(dm_tree.size(), dm_ctx.size());
    for (NodeId i = 0; i < t.size(); ++i) {
      EXPECT_EQ(dm_tree[i].elmore, dm_ctx[i].elmore);
      EXPECT_EQ(dm_tree[i].d2m, dm_ctx[i].d2m);
      EXPECT_EQ(dm_tree[i].scaled_elmore, dm_ctx[i].scaled_elmore);
      EXPECT_EQ(dm_tree[i].lower_unimodal, dm_ctx[i].lower_unimodal);
    }

    EXPECT_EQ(core::elmore_cap_sensitivities(t, last),
              core::elmore_cap_sensitivities(ctx, last));
    EXPECT_EQ(core::elmore_res_sensitivities(t, last),
              core::elmore_res_sensitivities(ctx, last));
  }
}

TEST(ContextOverloads, MnaMatchesTreeVersion) {
  const RCTree t = testing::small_tree();
  const TreeContext ctx(t);
  const sim::Mna a = sim::assemble_mna(t);
  const sim::Mna b = sim::assemble_mna(ctx);
  EXPECT_EQ(a.capacitance, b.capacitance);
  EXPECT_EQ(a.injection, b.injection);
  for (NodeId i = 0; i < t.size(); ++i)
    for (NodeId j = 0; j < t.size(); ++j) EXPECT_EQ(a.conductance(i, j), b.conductance(i, j));
  EXPECT_EQ(sim::mna_moments(t, 3), sim::mna_moments(ctx, 3));
}

}  // namespace
}  // namespace rct::analysis
