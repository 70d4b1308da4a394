#include "core/metrics.hpp"

#include <cmath>
#include <stdexcept>

#include "moments/path_tracing.hpp"

namespace rct::core {

DelayMetrics metrics_from_moments(double m1, double m2) {
  if (m1 > 0.0 || m2 < 0.0)
    throw std::invalid_argument("metrics_from_moments: expected m1 <= 0, m2 >= 0 (RC tree)");
  DelayMetrics d{};
  const double td = -m1;
  const double mu2 = 2.0 * m2 - m1 * m1;
  const double sigma = (mu2 > 0.0) ? std::sqrt(mu2) : 0.0;

  d.elmore = td;
  d.single_pole = std::log(2.0) * td;
  d.d2m = (m2 > 0.0) ? std::log(2.0) * m1 * m1 / std::sqrt(m2) : d.single_pole;

  if (sigma > 0.0 && td > 0.0) {
    // Gamma-median approximation median ~ mean (3k - 0.8)/(3k + 0.2)
    // (Banneheka & Ekanayake); valid down to small shapes, clamped at 0
    // where the gamma median genuinely collapses toward the origin.
    const double k = td * td / (sigma * sigma);  // gamma shape
    d.scaled_elmore = td * std::max(3.0 * k - 0.8, 0.0) / (3.0 * k + 0.2);
  } else {
    d.scaled_elmore = td;
  }

  d.lower_cantelli = std::max(td - sigma, 0.0);
  d.lower_unimodal = std::max(td - std::sqrt(3.0 / 5.0) * sigma, 0.0);
  return d;
}

std::vector<DelayMetrics> delay_metrics(const RCTree& tree) {
  const auto m = moments::transfer_moments(tree, 2);
  std::vector<DelayMetrics> out(tree.size());
  for (NodeId i = 0; i < tree.size(); ++i) out[i] = metrics_from_moments(m[1][i], m[2][i]);
  return out;
}

}  // namespace rct::core
