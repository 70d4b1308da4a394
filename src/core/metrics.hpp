#pragma once
// A zoo of closed-form, moment-based 50% delay metrics, plus the improved
// bounds the paper's conclusion anticipates ("Improved bounds may be
// possible with more moments").
//
// Metrics (all computable from the O(N) path-traced moments):
//   elmore        T_D = -m1                      — proven upper bound (paper)
//   single_pole   ln(2) T_D                      — eq. 14
//   d2m           ln(2) m1^2 / sqrt(m2)          — Alpert et al.'s "Delay
//                                                  with Two Moments": scales
//                                                  Elmore down by a skew
//                                                  factor; accurate but NOT
//                                                  a bound
//   scaled_elmore gamma-fit median: fit a gamma density to (mean, sigma)
//                 and take its median via the Banneheka-Ekanayake
//                 approximation T_D (3k - 0.8)/(3k + 0.2), shape
//                 k = T_D^2/sigma^2, clamped at 0.  Reduces to ~ln(2) T_D
//                 in the single-pole limit (k = 1) and to T_D as
//                 sigma -> 0; accurate but NOT a bound
//
// Bounds:
//   elmore upper          t50 <= T_D                         (Theorem)
//   cantelli lower        t50 >= T_D - sigma                 (Corollary 1)
//   unimodal (Johnson-Rogers) lower
//                         t50 >= T_D - sqrt(3/5) sigma
//     For *unimodal* distributions the mean-median distance is at most
//     sqrt(3/5) sigma (Johnson & Rogers 1951) — and Lemma 1 proves RC-tree
//     impulse responses are unimodal, so this tightens Corollary 1 by 23%
//     for free.  This is exactly the kind of refinement the conclusion
//     points at.

#include <vector>

#include "rctree/rctree.hpp"

namespace rct::core {

/// Every closed-form metric at one node, in seconds.
struct DelayMetrics {
  double elmore;
  double single_pole;
  double d2m;
  double scaled_elmore;
  double lower_cantelli;   ///< max(T_D - sigma, 0)
  double lower_unimodal;   ///< max(T_D - sqrt(3/5) sigma, 0); tighter
};

/// Computes the metric zoo from the first two transfer moments (m1 < 0,
/// m2 > 0 for RC trees).
[[nodiscard]] DelayMetrics metrics_from_moments(double m1, double m2);

/// Metric zoo at every node, O(N).
[[nodiscard]] std::vector<DelayMetrics> delay_metrics(const RCTree& tree);

}  // namespace rct::core
