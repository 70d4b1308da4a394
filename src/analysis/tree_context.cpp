#include "analysis/tree_context.hpp"

#include "obs/instruments.hpp"
#include "obs/trace.hpp"

namespace rct::analysis {

TreeContext::TreeContext(const RCTree& tree) : tree_(&tree) {
  const obs::Span span("analysis.context.build", "analysis", {},
                       &obs::histogram(obs::H::kAnalysisContextBuild));
  obs::counter(obs::C::kAnalysisContextBuilds).add();
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
