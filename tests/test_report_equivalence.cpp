// Equivalence gate for the analysis::TreeContext refactor.
//
// build_report() used to derive everything itself: per-node impulse stats,
// PRH bounds, and an O(depth) RCTree::depth walk per row.  This suite pins
// the refactored pipeline (tree overload -> TreeContext overload -> batch
// engine) to a golden replica of that pre-refactor algorithm, captured here
// as reference_build_report(): every field of every row must be
// bit-identical on every checked-in testdata deck and the paper circuits,
// under all ReportOptions the CLI can produce.  The batch renderers must in
// turn be byte-identical across thread counts and cache settings.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "analysis/tree_context.hpp"
#include "core/penfield_rubinstein.hpp"
#include "core/report.hpp"
#include "engine/batch.hpp"
#include "moments/central.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/circuits.hpp"
#include "rctree/generators.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/spef.hpp"
#include "sim/exact.hpp"

namespace rct {
namespace {

std::string testdata(const std::string& name) {
  return std::string(RCT_TESTDATA_DIR) + "/" + name;
}

/// Pre-refactor build_report(), transcribed verbatim: per-call derivations,
/// walk-based depth accessor, member-function PRH bounds.  The refactored
/// pipeline must reproduce this bit for bit.
std::vector<core::NodeReport> reference_build_report(const RCTree& tree,
                                                     const core::ReportOptions& options) {
  const auto stats = moments::impulse_stats(tree);
  const core::PrhBounds prh(tree);
  std::optional<sim::ExactAnalysis> exact;
  if (options.with_exact && tree.size() <= options.exact_node_limit) exact.emplace(tree);

  std::vector<core::NodeReport> rows;
  for (NodeId i = 0; i < tree.size(); ++i) {
    if (options.leaves_only && !tree.is_leaf(i)) continue;
    core::NodeReport r;
    r.node = i;
    r.depth = tree.depth(i);
    r.elmore = stats[i].mean;
    r.sigma = stats[i].sigma;
    r.skewness = stats[i].skewness;
    r.lower_bound = std::max(r.elmore - r.sigma, 0.0);
    r.single_pole = -std::log(1.0 - options.fraction) * r.elmore;
    r.prh_tmin = prh.t_min(i, options.fraction);
    r.prh_tmax = prh.t_max(i, options.fraction);
    if (exact) {
      r.exact_delay = exact->step_delay(i, options.fraction);
      r.exact_rise = exact->step_rise_time_10_90(i);
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

void expect_rows_bitwise(const std::vector<core::NodeReport>& got,
                         const std::vector<core::NodeReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_EQ(got[i].depth, want[i].depth);
    EXPECT_EQ(got[i].elmore, want[i].elmore);
    EXPECT_EQ(got[i].sigma, want[i].sigma);
    EXPECT_EQ(got[i].skewness, want[i].skewness);
    EXPECT_EQ(got[i].lower_bound, want[i].lower_bound);
    EXPECT_EQ(got[i].single_pole, want[i].single_pole);
    EXPECT_EQ(got[i].prh_tmin, want[i].prh_tmin);
    EXPECT_EQ(got[i].prh_tmax, want[i].prh_tmax);
    EXPECT_EQ(got[i].exact_delay, want[i].exact_delay);
    EXPECT_EQ(got[i].exact_rise, want[i].exact_rise);
  }
}

std::vector<core::ReportOptions> option_variants() {
  std::vector<core::ReportOptions> variants;
  variants.push_back({});  // defaults: exact on, 50%, all nodes
  core::ReportOptions no_exact;
  no_exact.with_exact = false;
  variants.push_back(no_exact);
  core::ReportOptions leaves;
  leaves.leaves_only = true;
  variants.push_back(leaves);
  core::ReportOptions ninety;
  ninety.fraction = 0.9;
  ninety.with_exact = false;
  variants.push_back(ninety);
  return variants;
}

void check_tree(const RCTree& tree) {
  for (const core::ReportOptions& opt : option_variants()) {
    const auto want = reference_build_report(tree, opt);
    expect_rows_bitwise(core::build_report(tree, opt), want);
    const analysis::TreeContext ctx(tree);
    expect_rows_bitwise(core::build_report(ctx, opt), want);
  }
}

TEST(ReportEquivalence, PaperCircuits) {
  check_tree(circuits::fig1());
  check_tree(circuits::tree25());
}

TEST(ReportEquivalence, NetlistDecks) {
  for (const char* deck : {"bus_bit.sp", "clock_spine.sp"})
    check_tree(parse_netlist_file(testdata(deck)).tree);
}

TEST(ReportEquivalence, SpefNets) {
  const SpefFile file = parse_spef_file(testdata("two_nets.spef"));
  ASSERT_FALSE(file.nets.empty());
  for (const SpefNet& net : file.nets) check_tree(net.tree);
}

TEST(ReportEquivalence, GeneratedTopologies) {
  check_tree(gen::line(64, 100.0, 0.1e-12, 50.0, 0.05e-12));
  check_tree(gen::random_tree(80, 29));
}

// ---------------------------------------------------------------------------
// Batch engine: byte-identical output for every --jobs / cache combination
// ---------------------------------------------------------------------------

TEST(BatchEquivalence, RenderersByteIdenticalAcrossJobsAndCache) {
  const SpefFile file = parse_spef_file(testdata("two_nets.spef"));
  engine::BatchOptions base;
  base.jobs = 1;
  const engine::BatchResult baseline = engine::analyze_batch(file, base);
  const std::string text = engine::format_batch(baseline);
  const std::string json = engine::format_batch_json(baseline);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool use_cache : {true, false}) {
      engine::BatchOptions opt;
      opt.jobs = jobs;
      opt.use_cache = use_cache;
      const engine::BatchResult r = engine::analyze_batch(file, opt);
      EXPECT_EQ(engine::format_batch(r), text) << jobs << " cache=" << use_cache;
      EXPECT_EQ(engine::format_batch_json(r), json) << jobs << " cache=" << use_cache;
    }
  }
}

TEST(BatchEquivalence, BatchRowsMatchReferenceReport) {
  const SpefFile file = parse_spef_file(testdata("two_nets.spef"));
  engine::BatchOptions opt;
  opt.jobs = 2;
  const engine::BatchResult r = engine::analyze_batch(file, opt);
  ASSERT_EQ(r.nets.size(), file.nets.size());
  for (std::size_t i = 0; i < file.nets.size(); ++i) {
    ASSERT_TRUE(r.nets[i].ok());
    expect_rows_bitwise(r.nets[i].rows, reference_build_report(file.nets[i].tree, opt.report));
  }
}

TEST(BatchEquivalence, ContextCountersObserveSharing) {
  // Five stamps of one physical net plus one unique net.
  const RCTree base = gen::random_tree(30, 7);
  auto renamed = [](const RCTree& t, const std::string& prefix) {
    RCTreeBuilder b;
    for (NodeId i = 0; i < t.size(); ++i)
      b.add_node(prefix + std::to_string(i), t.parent(i), t.resistance(i), t.capacitance(i));
    return std::move(b).build();
  };
  auto make_net = [](std::string name, RCTree tree) {
    SpefNet net;
    net.name = std::move(name);
    net.driver = tree.name(tree.children_of_source().front());
    net.loads = tree.leaves();
    net.tree = std::move(tree);
    return net;
  };
  std::vector<SpefNet> nets;
  for (int i = 0; i < 5; ++i)
    nets.push_back(make_net(std::string("stamp").append(std::to_string(i)),
                            renamed(base, std::string("s").append(std::to_string(i)) + "_")));
  nets.push_back(make_net("unique", renamed(gen::random_tree(30, 8), "u_")));

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    engine::BatchOptions opt;
    opt.jobs = jobs;
    opt.report.with_exact = false;
    const engine::BatchResult with_cache = engine::analyze_nets(nets, opt);
    // Every analyzed net is one task; the stamped twins share rows.
    EXPECT_EQ(with_cache.stats.tasks_run + with_cache.stats.cache_hits, nets.size());
    EXPECT_GE(with_cache.stats.tasks_run, 2u);  // two distinct contents

    opt.use_cache = false;
    const engine::BatchResult no_cache = engine::analyze_nets(nets, opt);
    EXPECT_EQ(no_cache.stats.tasks_run, nets.size());
    EXPECT_EQ(no_cache.stats.cache_hits, 0u);

    // Sharing must not leak donor names or perturb values.
    for (std::size_t i = 0; i < nets.size(); ++i) {
      ASSERT_TRUE(with_cache.nets[i].ok());
      expect_rows_bitwise(with_cache.nets[i].rows, no_cache.nets[i].rows);
      ASSERT_EQ(with_cache.nets[i].load_names.size(), nets[i].loads.size());
      for (std::size_t k = 0; k < nets[i].loads.size(); ++k)
        EXPECT_EQ(with_cache.nets[i].load_names[k], nets[i].tree.name(nets[i].loads[k]));
    }
  }
}

}  // namespace
}  // namespace rct
