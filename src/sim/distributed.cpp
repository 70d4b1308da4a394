#include "sim/distributed.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/root_find.hpp"
#include "robust/error.hpp"

namespace rct::sim {

DistributedLine::DistributedLine(double total_res, double total_cap, double driver_resistance,
                                 std::size_t modes) {
  if (!(total_res > 0.0) || !(total_cap > 0.0) || driver_resistance < 0.0 || modes < 1)
    throw std::invalid_argument("DistributedLine: bad parameters");
  rc_ = total_res * total_cap;
  k_ = driver_resistance / total_res;
  rd_c_ = driver_resistance * total_cap;

  lambda_.reserve(modes);
  coeff_.reserve(modes);
  for (std::size_t n = 1; n <= modes; ++n) {
    double beta;
    if (k_ == 0.0) {
      // cos(beta) = 0.
      beta = (2.0 * static_cast<double>(n) - 1.0) * M_PI / 2.0;
    } else {
      // Root of cos(beta) = k beta sin(beta) in ((n-1)pi, (n-1)pi + pi/2).
      const double lo = (static_cast<double>(n) - 1.0) * M_PI + 1e-12;
      const double hi = (static_cast<double>(n) - 1.0) * M_PI + M_PI / 2.0 - 1e-12;
      auto g = [&](double b) { return std::cos(b) - k_ * b * std::sin(b); };
      linalg::RootOptions opt;
      opt.x_tol = 1e-14;
      const auto root = linalg::brent_root(g, lo, hi, opt);
      if (!root)
        throw robust::Error(robust::Code::kNonConvergence,
                            "DistributedLine: eigenvalue bracketing failed");
      beta = *root;
    }
    lambda_.push_back(beta * beta / rc_);
    // Step-series coefficient (residue of H(s)/s at the pole):
    //   a_n = 2 / (beta [(1+k) sin(beta) + k beta cos(beta)]).
    const double denom =
        beta * ((1.0 + k_) * std::sin(beta) + k_ * beta * std::cos(beta));
    coeff_.push_back(2.0 / denom);
  }
}

double DistributedLine::elmore_delay() const { return rd_c_ + 0.5 * rc_; }

double DistributedLine::mu2() const {
  // mu2 = R^2 C^2 (1/6 + 2k/3 + k^2), from the series expansion of H.
  return rc_ * rc_ * (1.0 / 6.0 + 2.0 / 3.0 * k_ + k_ * k_);
}

double DistributedLine::step_response(double t) const {
  if (t <= 0.0) return 0.0;
  double acc = 1.0;
  for (std::size_t n = 0; n < lambda_.size(); ++n)
    acc -= coeff_[n] * std::exp(-lambda_[n] * t);
  return acc;
}

double DistributedLine::impulse_response(double t) const {
  if (t <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t n = 0; n < lambda_.size(); ++n)
    acc += coeff_[n] * lambda_[n] * std::exp(-lambda_[n] * t);
  return acc;
}

double DistributedLine::step_delay(double fraction) const {
  if (!(fraction > 0.0 && fraction < 1.0))
    throw std::invalid_argument("DistributedLine: fraction must be in (0,1)");
  const double tau = 1.0 / lambda_.front();
  auto f = [&](double t) { return step_response(t) - fraction; };
  linalg::RootOptions opt;
  opt.x_tol = 1e-12 * tau;
  const auto root = linalg::bracket_and_solve(f, tau, 1e6 * tau, opt);
  if (!root)
    throw robust::Error(robust::Code::kNonConvergence, "DistributedLine: crossing not found");
  return *root;
}

}  // namespace rct::sim
