#include "analysis/tree_context.hpp"

#include <stdexcept>
#include <utility>

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
obs::Counter& moment_extension_counter() {
  static obs::Counter& c = obs::registry().counter("analysis.moments.extensions");
  return c;
}
obs::Gauge& moment_order_gauge() {
  static obs::Gauge& g = obs::registry().gauge("analysis.moments.max_order");
  return g;
}

}  // namespace

TreeContext::TreeContext(const RCTree& tree) : tree_(&tree) { build_arrays(); }

TreeContext::TreeContext(std::shared_ptr<const RCTree> tree)
    : owned_(std::move(tree)), tree_(owned_.get()) {
  if (tree_ == nullptr) throw std::invalid_argument("TreeContext: null tree");
  build_arrays();
}

void TreeContext::build_arrays() {
  const obs::Span span("analysis.context.build", "analysis", {}, &build_histogram());
  build_counter().add();
  const RCTree& t = *tree_;
  const std::size_t n = t.size();

  // depth / path resistance: parents precede children, one forward sweep.
  depth_.resize(n);
  rpath_.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId p = t.parent(i);
    depth_[i] = (p == kSource) ? 1 : depth_[p] + 1;
    rpath_[i] = t.resistance(i) + (p == kSource ? 0.0 : rpath_[p]);
  }

  // Subtree capacitance / Elmore delay: same recurrences (and therefore the
  // same floating-point results) as the src/moments free functions.
  ctot_ = moments::subtree_capacitances(t);
  td_ = moments::elmore_delays_from(t, ctot_);
  total_cap_ = t.total_capacitance();

  // DFS pre-order; pushing children in reverse keeps sibling order natural.
  pre_.reserve(n);
  pre_index_.resize(n);
  std::vector<NodeId> stack;
  const auto push_reversed = [&stack](std::span<const NodeId> kids) {
    for (std::size_t k = kids.size(); k-- > 0;) stack.push_back(kids[k]);
  };
  push_reversed(t.children_of_source());
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    pre_index_[v] = pre_.size();
    pre_.push_back(v);
    push_reversed(t.children(v));
  }

  // Subtree sizes by one reverse index sweep (children have larger ids);
  // a DFS subtree is the contiguous pre-order run starting at its root.
  std::vector<std::size_t> sub_size(n, 1);
  for (NodeId i = n; i-- > 0;) {
    const NodeId p = t.parent(i);
    if (p != kSource) sub_size[p] += sub_size[i];
  }
  sub_end_.resize(n);
  for (NodeId i = 0; i < n; ++i) sub_end_[i] = pre_index_[i] + sub_size[i];
}

void TreeContext::ensure_moments_locked(std::size_t order) const {
  if (moments_.empty()) moments_.emplace_back(size(), 1.0);  // m_0 = 1
  while (moments_.size() <= order) {
    moments_.push_back(moments::next_transfer_moment(*tree_, moments_.back()));
    moment_extension_counter().add();
  }
  moment_order_gauge().max_of(static_cast<double>(moments_.size() - 1));
}

void TreeContext::ensure_moments(std::size_t order) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ensure_moments_locked(order);
}

std::size_t TreeContext::moments_computed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return moments_.size();
}

const std::vector<double>& TreeContext::transfer_moment(std::size_t k) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ensure_moments_locked(k);
  return moments_[k];
}

std::span<const moments::ImpulseStats> TreeContext::impulse_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!stats_) {
    ensure_moments_locked(3);
    std::vector<moments::ImpulseStats> s(size());
    for (NodeId i = 0; i < size(); ++i)
      s[i] = moments::stats_from_transfer_moments(moments_[1][i], moments_[2][i], moments_[3][i]);
    stats_.emplace(std::move(s));
  }
  return {stats_->data(), stats_->size()};
}

const moments::PrhTerms& TreeContext::prh_terms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!prh_) prh_.emplace(moments::prh_terms_from(*tree_, ctot_, rpath_, td_));
  return *prh_;
}

}  // namespace rct::analysis
