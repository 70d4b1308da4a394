#include "sim/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/root_find.hpp"
#include "robust/error.hpp"

namespace rct::sim {

std::complex<double> AcAnalysis::transfer(NodeId node, double freq_hz) const {
  const auto a = exact_->step_coefficients(node);
  const auto& poles = exact_->poles();
  const std::complex<double> s(0.0, 2.0 * M_PI * freq_hz);
  std::complex<double> acc = 0.0;
  for (std::size_t j = 0; j < poles.size(); ++j) acc += a[j] * poles[j] / (s + poles[j]);
  return acc;
}

double AcAnalysis::magnitude(NodeId node, double freq_hz) const {
  return std::abs(transfer(node, freq_hz));
}

double AcAnalysis::phase(NodeId node, double freq_hz) const {
  return std::arg(transfer(node, freq_hz));
}

double AcAnalysis::bandwidth_3db(NodeId node) const {
  const double target = 1.0 / std::sqrt(2.0);
  // The slowest pole sets the scale; |H| is monotone decreasing for RC
  // trees, so bracket upward from f0.
  const double f0 = exact_->poles().front() / (2.0 * M_PI);
  auto f = [&](double freq) { return magnitude(node, freq) - target; };
  const auto root = linalg::bracket_and_solve(f, 0.01 * f0, 1e9 * f0);
  if (!root)
    throw robust::Error(robust::Code::kNonConvergence, "bandwidth_3db: no -3dB crossing found");
  return *root;
}

std::vector<AcAnalysis::BodePoint> AcAnalysis::bode(NodeId node, double f_lo, double f_hi,
                                                    std::size_t points) const {
  if (!(f_lo > 0.0 && f_hi > f_lo) || points < 2)
    throw std::invalid_argument("bode: need 0 < f_lo < f_hi and points >= 2");
  std::vector<BodePoint> out;
  out.reserve(points);
  const double step = std::log(f_hi / f_lo) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) {
    const double freq = f_lo * std::exp(step * static_cast<double>(i));
    const auto h = transfer(node, freq);
    out.push_back({freq, 20.0 * std::log10(std::abs(h)), std::arg(h) * 180.0 / M_PI});
  }
  return out;
}

}  // namespace rct::sim
