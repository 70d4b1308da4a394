#pragma once
// Uniform RLC ladder — the negative control for the paper's theorem.
//
// The Elmore bound rests on two RC-tree facts: monotone step responses and
// unimodal, positively-skewed impulse responses.  Adding series inductance
// breaks both: responses ring, h(t) oscillates, and the 50% delay is no
// longer bounded by the first moment (which inductance does not even
// enter).  This module simulates a driven uniform R-L-C ladder by
// trapezoidal integration of the state-space equations
//
//   L di_k/dt = v_{k-1} - v_k - R i_k        (v_0 = vin - R_d i_1)
//   C dv_k/dt = i_k - i_{k+1}
//
// so the repository can *measure* the failure instead of asserting it
// (bench/ablation_rlc_counterexample).

#include <cstddef>

#include "sim/waveform.hpp"

namespace rct::sim {

/// A driven uniform RLC ladder with an open far end.
class RlcLine {
 public:
  /// segments >= 1; r_seg >= 0 (0 gives a lossless LC ladder),
  /// l_seg > 0, c_seg > 0, r_driver >= 0.
  RlcLine(std::size_t segments, double r_driver, double r_seg, double l_seg, double c_seg);

  [[nodiscard]] std::size_t segments() const { return n_; }

  /// Elmore delay of the far node computed exactly as for the RC ladder
  /// (inductance does not contribute to the first moment).
  [[nodiscard]] double elmore_delay() const;

  /// A time long enough for the step response to settle (heuristic based on
  /// both the RC and LC timescales).
  [[nodiscard]] double settle_horizon() const;

  /// Far-end unit-step response, trapezoidal integration with `steps`
  /// uniform steps over [0, t_end].
  [[nodiscard]] Waveform step_response(double t_end, std::size_t steps = 4000) const;

  /// First 50% (or `fraction`) crossing of the far-end step response.
  /// Throws robust::Error (kNonConvergence) if it never crosses within the horizon.
  [[nodiscard]] double step_delay(double fraction = 0.5) const;

  /// Peak value of the far-end step response (> 1 means overshoot/ringing).
  [[nodiscard]] double overshoot() const;

 private:
  std::size_t n_;
  double rd_;
  double r_;
  double l_;
  double c_;
};

}  // namespace rct::sim
