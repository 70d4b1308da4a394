#pragma once
// The paper's delay bounds (Theorem + Corollaries 1-2):
//
//   upper:  t_50% <= T_D                      (mean >= median; Theorem)
//   lower:  t_50% >= max(T_D - sigma, 0)      (Corollary 1, via the
//                                              Cantelli/Camp-Meidell step)
//
// and their generalized-input forms (Section IV): for a monotone input with
// unimodal derivative, the output-derivative density has
//     mean  = T_D + mean(v_i'),   mu2 = mu2(h) + mu2(v_i'),
//     mu3   = mu3(h) + mu3(v_i')
// (central moments add under convolution, Appendix B), so the output 50%
// crossing obeys  mean - sigma <= t_50% <= mean, and the 50-to-50 *delay*
// obeys  delay <= T_D + (mean(v_i') - t_in,50%)  — which is exactly T_D for
// any input with a symmetric derivative (step, saturated ramp, ...).

#include <vector>

#include "moments/central.hpp"
#include "rctree/rctree.hpp"
#include "sim/sources.hpp"

namespace rct::core {

/// Step-response delay bounds at a node.
struct DelayBounds {
  double elmore;  ///< T_D: the upper bound on the 50% delay
  double sigma;   ///< sqrt(mu2) of the impulse response
  double lower;   ///< max(T_D - sigma, 0)
  double upper;   ///< == elmore (kept explicit for readability at call sites)
};

/// Bounds at every node, O(N).
[[nodiscard]] std::vector<DelayBounds> delay_bounds(const RCTree& tree);

/// Bounds at one node.
[[nodiscard]] DelayBounds delay_bounds_at(const RCTree& tree, NodeId node);

/// Output threshold-crossing and 50-50 delay bounds for a generalized input.
struct GeneralizedBounds {
  double out_mean;       ///< mean of v_o' = T_D + mean(v_i')
  double out_sigma;      ///< sqrt(mu2(h) + mu2(v_i'))
  double out_mu3;        ///< mu3(h) + mu3(v_i')
  double out_skewness;   ///< gamma of v_o'; -> 0 as rise time grows (Cor. 3)
  double crossing_upper; ///< upper bound on the output 50% crossing time
  double crossing_lower; ///< max(out_mean - out_sigma, 0)
  double delay_upper;    ///< upper bound on the 50-to-50 delay
  double delay_lower;    ///< crossing_lower - t_in,50% (may be negative; 0-clamped)
};

/// Corollary 2/3 bounds at `node` for `input`.  The input's derivative must
/// be unimodal (checked; throws std::invalid_argument otherwise — the
/// theorem does not apply).
[[nodiscard]] GeneralizedBounds generalized_bounds(const RCTree& tree, NodeId node,
                                                   const sim::Source& input);

/// sigma-based output transition-time estimate (paper Sec. III-B, eq. 38,
/// Elmore's "radius of gyration").  Returns sigma of the step response
/// derivative, i.e. of h(t), at the node.
[[nodiscard]] double rise_time_estimate(const RCTree& tree, NodeId node);

}  // namespace rct::core
