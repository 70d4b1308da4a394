#include "sim/rlc_line.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/dense_matrix.hpp"
#include "robust/error.hpp"

namespace rct::sim {

RlcLine::RlcLine(std::size_t segments, double r_driver, double r_seg, double l_seg,
                 double c_seg)
    : n_(segments), rd_(r_driver), r_(r_seg), l_(l_seg), c_(c_seg) {
  if (segments < 1 || r_driver < 0.0 || r_seg < 0.0 || !(l_seg > 0.0) || !(c_seg > 0.0))
    throw std::invalid_argument("RlcLine: bad parameters");
}

double RlcLine::elmore_delay() const {
  // RC-ladder Elmore at the far node: each node k holds c_ and sees the
  // shared-path resistance Rd + k*R, so T_D = C * sum_k (Rd + kR).
  double td = 0.0;
  for (std::size_t k = 1; k <= n_; ++k) td += (rd_ + static_cast<double>(k) * r_) * c_;
  return td;
}

double RlcLine::settle_horizon() const {
  const double rc = (rd_ + r_ * static_cast<double>(n_)) * c_ * static_cast<double>(n_);
  const double lc = std::sqrt(l_ * c_) * static_cast<double>(n_);
  // Ringing decays like 2L/R per segment; cover all three scales.
  const double decay = (r_ + rd_ > 0.0) ? 2.0 * l_ * static_cast<double>(n_) / (r_ + rd_) : 0.0;
  return 30.0 * std::max({rc, lc, decay});
}

Waveform RlcLine::step_response(double t_end, std::size_t steps) const {
  if (!(t_end > 0.0) || steps < 2) throw std::invalid_argument("RlcLine: bad time grid");
  const std::size_t dim = 2 * n_;  // [i_1..i_n, v_1..v_n]
  // x' = A x + B u.
  linalg::Matrix a(dim, dim);
  std::vector<double> bvec(dim, 0.0);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t ik = k;
    const std::size_t vk = n_ + k;
    // L i_k' = v_{k-1} - v_k - R_eff i_k; the driver resistance folds into
    // the first inductor branch.
    const double r_eff = r_ + (k == 0 ? rd_ : 0.0);
    if (k == 0) {
      bvec[ik] = 1.0 / l_;
    } else {
      a(ik, n_ + k - 1) += 1.0 / l_;
    }
    a(ik, vk) -= 1.0 / l_;
    a(ik, ik) -= r_eff / l_;
    // C v_k' = i_k - i_{k+1}.
    a(vk, ik) += 1.0 / c_;
    if (k + 1 < n_) a(vk, ik + 1) -= 1.0 / c_;
  }

  // Trapezoidal: (I - h/2 A) x1 = (I + h/2 A) x0 + h/2 B (u0 + u1), u = 1.
  const double h = t_end / static_cast<double>(steps);
  linalg::Matrix lhs(dim, dim);
  linalg::Matrix rhs_m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      lhs(i, j) = (i == j ? 1.0 : 0.0) - 0.5 * h * a(i, j);
      rhs_m(i, j) = (i == j ? 1.0 : 0.0) + 0.5 * h * a(i, j);
    }
  }
  const linalg::LuFactor lu(lhs);

  std::vector<double> x(dim, 0.0);
  std::vector<double> t_grid(steps + 1);
  std::vector<double> v_far(steps + 1, 0.0);
  for (std::size_t s = 1; s <= steps; ++s) {
    std::vector<double> rhs = rhs_m.multiply(x);
    for (std::size_t i = 0; i < dim; ++i) rhs[i] += h * bvec[i];  // u0 = u1 = 1
    lu.solve_in_place(rhs);
    x.swap(rhs);
    t_grid[s] = h * static_cast<double>(s);
    v_far[s] = x[2 * n_ - 1];
  }
  return {std::move(t_grid), std::move(v_far)};
}

double RlcLine::step_delay(double fraction) const {
  const Waveform w = step_response(settle_horizon(), 20000);
  const auto c = w.first_rise_crossing(fraction);
  if (!c)
    throw robust::Error(robust::Code::kNonConvergence,
                        "RlcLine: response never crosses the threshold");
  return *c;
}

double RlcLine::overshoot() const {
  const Waveform w = step_response(settle_horizon(), 20000);
  double peak = 0.0;
  for (double v : w.values()) peak = std::max(peak, v);
  return peak;
}

}  // namespace rct::sim
