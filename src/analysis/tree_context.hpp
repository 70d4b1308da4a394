#pragma once
// analysis::TreeContext — the per-tree derived arrays one report reads.
//
// Motivation: a report row needs the node depth, the Elmore delay T_D, the
// impulse-response stats (sigma for Corollary 1's lower bound) and the
// Penfield-Rubinstein terms.  The per-call RCTree accessors
// (RCTree::depth / RCTree::path_resistance / RCTree::subtree_capacitance)
// walk the tree per call — O(depth) or O(subtree) — which made per-node
// report loops quadratic on line topologies.  A TreeContext computes the
// arrays in a fixed set of O(N) passes over contiguous storage instead.
//
// Contents:
//  * eager (built in the constructor): per-node depth, path resistance,
//    subtree capacitance and Elmore delay.
//  * lazy (computed on first use, then kept): impulse-response stats from
//    the transfer moments m_1..m_3, and the Penfield-Rubinstein terms.
//    They stay lazy because not every reader wants them (`rct dot` reads
//    only the Elmore delays) and construction alone is on every cold net's
//    path.
//
// All derived values are bit-identical to the corresponding src/moments
// free functions — the context calls the exact same recurrences — so a
// report built from a context matches one built from the tree to the ULP.
//
// Lifetime: a context is built per net, used by one build_report call (or
// one CLI command) and dropped; nothing retains it.  It borrows the RCTree,
// which must outlive it.  The lazy members are guarded by a mutex, so
// concurrent first uses of a const context are still safe.

#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "moments/central.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/rctree.hpp"

namespace rct::analysis {

class TreeContext {
 public:
  /// Builds the eager arrays for `tree` (borrowed; must outlive the
  /// context).  O(N) total.
  explicit TreeContext(const RCTree& tree);

  TreeContext(const TreeContext&) = delete;
  TreeContext& operator=(const TreeContext&) = delete;

  [[nodiscard]] const RCTree& tree() const { return *tree_; }

  // --- eager per-node arrays --------------------------------------------

  /// Edges from the source to each node (RCTree::depth, precomputed).
  [[nodiscard]] std::span<const std::size_t> depths() const { return depth_; }
  /// Source-to-node path resistance R_ii at every node.
  [[nodiscard]] std::span<const double> path_resistances() const { return rpath_; }
  /// Downstream (subtree) capacitance at every node.
  [[nodiscard]] std::span<const double> subtree_capacitances() const { return ctot_; }
  /// Elmore delay T_D at every node.
  [[nodiscard]] std::span<const double> elmore_delays() const { return td_; }

  // --- lazy, computed once on first use ---------------------------------

  /// Per-node impulse-response statistics (mean/sigma/skewness...), from
  /// moments m_1..m_3; equals moments::impulse_stats(tree()).
  [[nodiscard]] std::span<const moments::ImpulseStats> impulse_stats() const;

  /// The three Penfield-Rubinstein terms T_P / T_D / T_R.  The reference
  /// stays valid for the context's lifetime.
  [[nodiscard]] const moments::PrhTerms& prh_terms() const;

 private:
  const RCTree* tree_;

  std::vector<std::size_t> depth_;
  std::vector<double> rpath_;
  std::vector<double> ctot_;
  std::vector<double> td_;

  // Lazy state: each optional is emplaced once and never reset.
  mutable std::mutex mutex_;
  mutable std::optional<std::vector<moments::ImpulseStats>> stats_;
  mutable std::optional<moments::PrhTerms> prh_;
};

}  // namespace rct::analysis
