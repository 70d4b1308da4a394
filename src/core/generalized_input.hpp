#pragma once
// Section IV experiments as a library: delay vs. input rise time (Fig. 12),
// relative Elmore error vs. node depth and rise time (Table II / Fig. 14),
// and the Corollary-3 asymptote delay(t_r) -> T_D.
//
// "Delay" throughout is the 50%-to-50% delay: output 50% crossing minus
// input 50% crossing (for a step, the plain 50% crossing).

#include <vector>

#include "rctree/rctree.hpp"
#include "sim/exact.hpp"
#include "sim/sources.hpp"

namespace rct::core {

/// One point of a delay curve.
struct DelayCurvePoint {
  double rise_time;       ///< input rise time (s)
  double delay;           ///< exact 50-50 delay (s)
  double elmore;          ///< T_D at the node (constant across the curve)
  double relative_error;  ///< (elmore - delay) / delay, the paper's "% error"
};

/// Exact 50-50 delays for saturated-ramp inputs over a sweep of rise times
/// (Fig. 12).  `exact` must be built on `tree`.
[[nodiscard]] std::vector<DelayCurvePoint> delay_curve(const RCTree& tree,
                                                       const sim::ExactAnalysis& exact,
                                                       NodeId node,
                                                       const std::vector<double>& rise_times);

/// Log-spaced rise-time sweep [lo, hi] with `points` samples.
[[nodiscard]] std::vector<double> log_sweep(double lo, double hi, std::size_t points);

/// Relative Elmore error (elmore - delay)/delay at one node for one source.
[[nodiscard]] double relative_elmore_error(const RCTree& tree, const sim::ExactAnalysis& exact,
                                           NodeId node, const sim::Source& input);

/// Eq. (48): area between input and output waveforms equals T_D.  Returns
/// the numerically integrated area for verification experiments.
[[nodiscard]] double input_output_area(const sim::ExactAnalysis& exact, NodeId node,
                                       const sim::Source& input, double t_end,
                                       std::size_t samples = 4000);

}  // namespace rct::core
