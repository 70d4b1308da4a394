#include "analysis/tree_context.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rct::analysis {
namespace {

obs::Counter& build_counter() {
  static obs::Counter& c = obs::registry().counter("analysis.context.builds");
  return c;
}
obs::Histogram& build_histogram() {
  static obs::Histogram& h = obs::registry().histogram("analysis.context.build_seconds");
  return h;
}

}  // namespace

TreeContext::TreeContext(const RCTree& tree) : tree_(&tree) {
  const obs::Span span("analysis.context.build", "analysis", {}, &build_histogram());
  build_counter().add();
  const std::size_t n = tree.size();

  // depth / path resistance: parents precede children, one forward sweep.
  depth_.resize(n);
  rpath_.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId p = tree.parent(i);
    depth_[i] = (p == kSource) ? 1 : depth_[p] + 1;
    rpath_[i] = tree.resistance(i) + (p == kSource ? 0.0 : rpath_[p]);
  }

  // Subtree capacitance / Elmore delay: same recurrences (and therefore the
  // same floating-point results) as the src/moments free functions.
  ctot_ = moments::subtree_capacitances(tree);
  td_ = moments::elmore_delays_from(tree, ctot_);
}

std::span<const moments::ImpulseStats> TreeContext::impulse_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!stats_) stats_.emplace(moments::impulse_stats(*tree_));
  return {stats_->data(), stats_->size()};
}

const moments::PrhTerms& TreeContext::prh_terms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!prh_) prh_.emplace(moments::prh_terms_from(*tree_, ctot_, rpath_, td_));
  return *prh_;
}

}  // namespace rct::analysis
