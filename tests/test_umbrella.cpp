// Compile-level test: the umbrella header pulls in every public module and
// the layers interoperate in one translation unit.

#include "rct.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, OneSymbolFromEveryLayer) {
  // rctree
  rct::RCTreeBuilder b;
  const rct::NodeId n1 = b.add_node("n1", rct::kSource, 100.0, 1e-12);
  b.add_node("n2", n1, 200.0, 2e-12);
  const rct::RCTree tree = std::move(b).build();
  EXPECT_EQ(tree.size(), 2u);

  // moments
  const auto td = rct::moments::elmore_delays(tree);
  EXPECT_GT(td.back(), 0.0);

  // core
  const auto bounds = rct::core::delay_bounds_at(tree, 1);
  EXPECT_GT(bounds.upper, bounds.lower);

  // sim
  const rct::sim::ExactAnalysis exact(tree);
  EXPECT_LE(exact.step_delay(1), bounds.upper * (1 + 1e-9));

  // linalg (via a metric)
  const auto metrics = rct::core::delay_metrics(tree);
  EXPECT_LT(metrics[1].single_pole, metrics[1].elmore);

  // analysis
  const rct::analysis::TreeContext ctx(tree);
  EXPECT_EQ(ctx.depths()[1], 2u);
  EXPECT_DOUBLE_EQ(ctx.elmore_delays()[1], td[1]);

  // engine
  rct::engine::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);

  // obs
  rct::obs::registry().counter("umbrella.test").add();
  EXPECT_GE(rct::obs::registry().counter("umbrella.test").value(), 1u);

  // dot export renders
  EXPECT_FALSE(rct::to_dot(tree).empty());
}

}  // namespace
