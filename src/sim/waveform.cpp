#include "sim/waveform.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "robust/error.hpp"

namespace rct::sim {

Waveform::Waveform(std::vector<double> t, std::vector<double> v)
    : t_(std::move(t)), v_(std::move(v)) {
  if (t_.size() != v_.size()) throw std::invalid_argument("Waveform: size mismatch");
  if (t_.empty()) throw std::invalid_argument("Waveform: empty");
  for (std::size_t i = 1; i < t_.size(); ++i)
    if (!(t_[i] > t_[i - 1]))
      throw std::invalid_argument("Waveform: times must be strictly increasing");
}

double Waveform::value_at(double t) const {
  if (t <= t_.front()) return v_.front();
  if (t >= t_.back()) return v_.back();
  const auto it = std::upper_bound(t_.begin(), t_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - t_.begin());
  const std::size_t lo = hi - 1;
  const double f = (t - t_[lo]) / (t_[hi] - t_[lo]);
  return v_[lo] + f * (v_[hi] - v_[lo]);
}

std::optional<double> Waveform::first_rise_crossing(double level) const {
  for (std::size_t i = 1; i < size(); ++i) {
    if (v_[i - 1] < level && v_[i] >= level) {
      const double f = (level - v_[i - 1]) / (v_[i] - v_[i - 1]);
      return t_[i - 1] + f * (t_[i] - t_[i - 1]);
    }
  }
  if (!v_.empty() && v_.front() >= level) return t_.front();
  return std::nullopt;
}

std::optional<double> Waveform::last_crossing(double level) const {
  for (std::size_t i = size(); i-- > 1;) {
    const double a = v_[i - 1] - level;
    const double b = v_[i] - level;
    if ((a <= 0.0 && b > 0.0) || (a >= 0.0 && b < 0.0) || b == 0.0) {
      if (b == 0.0) return t_[i];
      const double f = -a / (b - a);
      return t_[i - 1] + f * (t_[i] - t_[i - 1]);
    }
  }
  return std::nullopt;
}

std::optional<double> Waveform::rise_time_10_90(double v_final) const {
  const auto t10 = first_rise_crossing(0.1 * v_final);
  const auto t90 = first_rise_crossing(0.9 * v_final);
  if (!t10 || !t90) return std::nullopt;
  return *t90 - *t10;
}

bool Waveform::is_monotone_nondecreasing(double tol) const {
  for (std::size_t i = 1; i < size(); ++i)
    if (v_[i] < v_[i - 1] - tol) return false;
  return true;
}

bool Waveform::is_unimodal(double tol) const {
  // Rising phase up to the global max, falling after.
  const std::size_t peak = argmax();
  for (std::size_t i = 1; i <= peak; ++i)
    if (v_[i] < v_[i - 1] - tol) return false;
  for (std::size_t i = peak + 1; i < size(); ++i)
    if (v_[i] > v_[i - 1] + tol) return false;
  return true;
}

std::size_t Waveform::argmax() const {
  return static_cast<std::size_t>(std::max_element(v_.begin(), v_.end()) - v_.begin());
}

double Waveform::integrate() const {
  double acc = 0.0;
  for (std::size_t i = 1; i < size(); ++i)
    acc += 0.5 * (v_[i] + v_[i - 1]) * (t_[i] - t_[i - 1]);
  return acc;
}

Waveform Waveform::integral() const {
  std::vector<double> out(size(), 0.0);
  for (std::size_t i = 1; i < size(); ++i)
    out[i] = out[i - 1] + 0.5 * (v_[i] + v_[i - 1]) * (t_[i] - t_[i - 1]);
  return {t_, std::move(out)};
}

Waveform Waveform::derivative() const {
  const std::size_t n = size();
  std::vector<double> d(n, 0.0);
  if (n == 1) return {t_, std::move(d)};
  d[0] = (v_[1] - v_[0]) / (t_[1] - t_[0]);
  d[n - 1] = (v_[n - 1] - v_[n - 2]) / (t_[n - 1] - t_[n - 2]);
  for (std::size_t i = 1; i + 1 < n; ++i) d[i] = (v_[i + 1] - v_[i - 1]) / (t_[i + 1] - t_[i - 1]);
  return {t_, std::move(d)};
}

double Waveform::density_moment(int n) const {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 1; i < size(); ++i) {
    const double dt = t_[i] - t_[i - 1];
    num += 0.5 * (std::pow(t_[i], n) * v_[i] + std::pow(t_[i - 1], n) * v_[i - 1]) * dt;
    den += 0.5 * (v_[i] + v_[i - 1]) * dt;
  }
  if (den == 0.0)
    throw robust::Error(robust::Code::kNonPhysicalValue,
                        "Waveform::density_moment: zero total area");
  return num / den;
}

double Waveform::density_central_moment(int n) const {
  const double mu = density_mean();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 1; i < size(); ++i) {
    const double dt = t_[i] - t_[i - 1];
    num += 0.5 *
           (std::pow(t_[i] - mu, n) * v_[i] + std::pow(t_[i - 1] - mu, n) * v_[i - 1]) * dt;
    den += 0.5 * (v_[i] + v_[i - 1]) * dt;
  }
  return num / den;
}

double Waveform::density_median() const {
  const double total = integrate();
  if (total <= 0.0)
    throw robust::Error(robust::Code::kNonPhysicalValue,
                        "Waveform::density_median: nonpositive area");
  double acc = 0.0;
  for (std::size_t i = 1; i < size(); ++i) {
    const double seg = 0.5 * (v_[i] + v_[i - 1]) * (t_[i] - t_[i - 1]);
    if (acc + seg >= 0.5 * total) {
      // Fill within this segment assuming constant average height —
      // ample at experiment sample densities.
      const double need = 0.5 * total - acc;
      const double frac = (seg > 0.0) ? need / seg : 0.5;
      return t_[i - 1] + frac * (t_[i] - t_[i - 1]);
    }
    acc += seg;
  }
  return t_.back();
}

double Waveform::density_skewness() const {
  const double mu2 = density_central_moment(2);
  const double mu3 = density_central_moment(3);
  if (mu2 <= 0.0) return 0.0;
  return mu3 / std::pow(mu2, 1.5);
}

std::vector<double> uniform_grid(double t_end, std::size_t samples) {
  if (samples < 2) throw std::invalid_argument("uniform_grid: need >= 2 samples");
  if (!(t_end > 0.0)) throw std::invalid_argument("uniform_grid: t_end must be positive");
  std::vector<double> t(samples);
  for (std::size_t i = 0; i < samples; ++i)
    t[i] = t_end * static_cast<double>(i) / static_cast<double>(samples - 1);
  return t;
}

}  // namespace rct::sim
