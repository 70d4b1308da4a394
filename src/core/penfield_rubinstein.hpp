#pragma once
// Penfield-Rubinstein(-Horowitz) step-response waveform bounds for RC trees
// (paper eq. 15-16; originally [18],[23]).  For any threshold fraction v in
// [0, 1) they bound the time at which the step response reaches v:
//
//   t_min(v) <= t_exact(v) <= t_max(v)
//
// using the three path-traced terms T_P, T_D(i), T_R(i).  The paper's
// Table I compares these at v = 0.5 against the Elmore bound.

#include <utility>
#include <vector>

#include "moments/path_tracing.hpp"
#include "rctree/rctree.hpp"

namespace rct::core {

/// Lower bound on the time to reach `fraction` of the final value, from
/// precomputed PRH terms.  Throws std::invalid_argument unless fraction is
/// in [0, 1).
[[nodiscard]] double prh_t_min(const moments::PrhTerms& terms, NodeId node, double fraction);

/// Upper bound on the time to reach `fraction`, from precomputed PRH terms.
[[nodiscard]] double prh_t_max(const moments::PrhTerms& terms, NodeId node, double fraction);

/// Precomputed PRH bound evaluator for one tree.
class PrhBounds {
 public:
  explicit PrhBounds(const RCTree& tree) : terms_(moments::prh_terms(tree)) {}
  /// Adopts already-computed terms.
  explicit PrhBounds(moments::PrhTerms terms) : terms_(std::move(terms)) {}

  /// Lower bound on the time to reach `fraction` of the final value.
  [[nodiscard]] double t_min(NodeId node, double fraction) const {
    return prh_t_min(terms_, node, fraction);
  }

  /// Upper bound on the time to reach `fraction`.
  [[nodiscard]] double t_max(NodeId node, double fraction) const {
    return prh_t_max(terms_, node, fraction);
  }

  [[nodiscard]] double tp() const { return terms_.tp; }
  [[nodiscard]] double td(NodeId node) const { return terms_.td[node]; }
  [[nodiscard]] double tr(NodeId node) const { return terms_.tr[node]; }

 private:
  moments::PrhTerms terms_;
};

}  // namespace rct::core
