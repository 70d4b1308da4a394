#include "sim/exact.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/root_find.hpp"
#include "robust/error.hpp"

namespace rct::sim {
namespace {

// -expm1(-x) = 1 - e^{-x}, accurate for small x.
double one_minus_exp(double x) { return -std::expm1(-x); }

using robust::Code;
using robust::Error;

/// The pencil G - sigma*C of one RC tree, factored by the same zero-fill
/// leaf-to-root LDL^T elimination as TreeSystem, but for any real shift:
/// the factor is indefinite below the top pole, and the number of negative
/// pivots is the number of poles below sigma (Sylvester's law of inertia).
class TreePencil {
 public:
  explicit TreePencil(const RCTree& tree) {
    const std::size_t n = tree.size();
    parent_.resize(n);
    g_.resize(n);
    g2_.resize(n);
    gdiag_.assign(n, 0.0);
    cap_.resize(n);
    pivot_.resize(n);
    inv_pivot_.resize(n);
    double cmax = 0.0;
    for (NodeId i = 0; i < n; ++i) cmax = std::max(cmax, tree.capacitance(i));
    if (cmax <= 0.0) throw std::invalid_argument("ExactAnalysis: tree has no capacitance");
    const double floor_c = ExactAnalysis::kCapacitanceFloor * cmax;
    for (NodeId i = 0; i < n; ++i) {
      parent_[i] = tree.parent(i);
      g_[i] = 1.0 / tree.resistance(i);
      g2_[i] = g_[i] * g_[i];
      gdiag_[i] += g_[i];
      if (parent_[i] != kSource) gdiag_[parent_[i]] += g_[i];
      const double c = tree.capacitance(i);
      if (c < floor_c) floor_added_ += floor_c - c;
      cap_[i] = std::max(c, floor_c);
    }
    double gmax = 0.0;
    for (const double g : gdiag_) gmax = std::max(gmax, g);
    tiny_pivot_ = std::numeric_limits<double>::min() * std::max(1.0, gmax * gmax);
  }

  [[nodiscard]] std::size_t size() const { return cap_.size(); }
  [[nodiscard]] double floor_added() const { return floor_added_; }

  /// Search window that provably holds every pole: sum_j 1/lambda_j =
  /// trace(G^-1 C) = sum_i C_i R_path(i) bounds the slowest pole from
  /// below, and diagonal dominance of G bounds every pole by
  /// max_i 2 G_ii / C_i.
  [[nodiscard]] std::pair<double, double> pole_window() const {
    std::vector<double> r_path(size());
    double trace = 0.0;
    double top = 0.0;
    for (NodeId i = 0; i < size(); ++i) {
      r_path[i] = 1.0 / g_[i] + (parent_[i] == kSource ? 0.0 : r_path[parent_[i]]);
      trace += cap_[i] * r_path[i];
      top = std::max(top, 2.0 * gdiag_[i] / cap_[i]);
    }
    return {0.5 / trace, 1.01 * top};
  }

  /// Number of poles below sigma: the negative pivots of G - sigma*C.
  std::size_t count(double sigma) { return eliminate<false>(sigma, nullptr); }

  /// One inverse-iteration step: x <- (G - sigma*C)^-1 C x, made
  /// C-orthogonal to `basis` and C-normalised.  Returns the new x's
  /// Rayleigh quotient; `below` receives the pole count below sigma.
  double inverse_step(double sigma, const std::vector<double>& basis, std::vector<double>& x,
                      std::size_t& below) {
    for (NodeId i = 0; i < size(); ++i) x[i] *= cap_[i];
    below = eliminate<true>(sigma, x.data());
    project_out(basis, x);
    return normalize(x);
  }

  /// Removes from x its C-components along the C-orthonormal vectors
  /// stored back to back in `basis`.
  void project_out(const std::vector<double>& basis, std::vector<double>& x) const {
    const std::size_t n = size();
    for (std::size_t at = 0; at < basis.size(); at += n) {
      const double* q = basis.data() + at;
      double dot = 0.0;
      for (NodeId i = 0; i < n; ++i) dot += q[i] * cap_[i] * x[i];
      for (NodeId i = 0; i < n; ++i) x[i] -= dot * q[i];
    }
  }

  /// Scales x to unit C-norm (x^T C x = 1) and returns its Rayleigh
  /// quotient x^T G x / x^T C x, summed as positive edge terms
  /// g_i (x_i - x_parent)^2 so slow poles keep full relative accuracy.
  double normalize(std::vector<double>& x) const {
    const auto sums = [&](double& num, double& den) {
      num = den = 0.0;
      for (NodeId i = 0; i < size(); ++i) {
        const NodeId p = parent_[i];
        const double dv = x[i] - (p == kSource ? 0.0 : x[p]);
        num += g_[i] * dv * dv;
        den += cap_[i] * x[i] * x[i];
      }
    };
    double num = 0.0;
    double den = 0.0;
    sums(num, den);
    if (!(den > kTiny && den < kHuge)) {
      // The shift sat on a pole (or the input vanished): rescale first.
      double scale = 0.0;
      for (const double v : x) scale = std::max(scale, std::abs(v));
      if (scale > 0.0 && std::isfinite(scale)) {
        for (double& v : x) v /= scale;
        sums(num, den);
      }
      if (!(den > 0.0) || !std::isfinite(den) || !std::isfinite(num))
        throw Error(Code::kNonConvergence, "ExactAnalysis: inverse iteration broke down");
    }
    const double inv = 1.0 / std::sqrt(den);
    for (double& v : x) v *= inv;
    return num / den;
  }

  /// b^T x: the source drives every root through its edge conductance.
  [[nodiscard]] double input_projection(const std::vector<double>& x) const {
    double acc = 0.0;
    for (NodeId i = 0; i < size(); ++i)
      if (parent_[i] == kSource) acc += g_[i] * x[i];
    return acc;
  }

  /// C^{-1} b.
  [[nodiscard]] std::vector<double> cap_inverse_input() const {
    std::vector<double> v(size(), 0.0);
    for (NodeId i = 0; i < size(); ++i)
      if (parent_[i] == kSource) v[i] = g_[i] / cap_[i];
    return v;
  }

 private:
  static constexpr double kTiny = 1e-280;
  static constexpr double kHuge = 1e280;

  /// Leaf-to-root LDL^T of G - sigma*C (zero fill: eliminating child i only
  /// updates its parent's pivot); with kSolve, also solves
  /// (G - sigma*C) y = x in place.  Returns the number of negative pivots.
  template <bool kSolve>
  std::size_t eliminate(double sigma, double* x) {
    const std::size_t n = size();
    std::fill(pivot_.begin(), pivot_.end(), 0.0);  // child Schur terms accumulate here
    std::size_t negative = 0;
    for (NodeId i = n; i-- > 0;) {
      double d = gdiag_[i] - sigma * cap_[i] - pivot_[i];
      if (std::abs(d) < tiny_pivot_) d = -tiny_pivot_;
      negative += d < 0.0;
      const double inv = 1.0 / d;
      inv_pivot_[i] = inv;
      const NodeId p = parent_[i];
      if (p == kSource) continue;
      pivot_[p] += g2_[i] * inv;
      if constexpr (kSolve) x[p] += g_[i] * inv * x[i];
    }
    if constexpr (kSolve) {
      for (NodeId i = 0; i < n; ++i) {
        const NodeId p = parent_[i];
        x[i] = (x[i] + (p == kSource ? 0.0 : g_[i] * x[p])) * inv_pivot_[i];
      }
    }
    return negative;
  }

  std::vector<NodeId> parent_;
  std::vector<double> g_;      ///< edge-to-parent conductance
  std::vector<double> g2_;     ///< g_^2
  std::vector<double> gdiag_;  ///< G_ii
  std::vector<double> cap_;    ///< floored capacitance
  std::vector<double> pivot_;
  std::vector<double> inv_pivot_;
  double tiny_pivot_ = 0.0;
  double floor_added_ = 0.0;
};

/// A shift interval and the pole counts at its ends (poles below lo / hi).
struct Interval {
  double lo, hi;
  std::size_t below_lo, below_hi;
};

/// Intervals are split at the geometric midpoint until each holds one pole
/// and spans at most this factor; Rayleigh iteration takes over from there.
constexpr double kIsolatedSpan = 4.0;
/// Several poles in an interval this narrow (relative) are one degenerate
/// cluster: inertia counts cannot split them, and neither can anything else.
constexpr double kClusterWidth = 1e-13;
/// Eigenvectors of poles closer than this (relative) are only determined
/// together: each is refined C-orthogonal to its near neighbours' vectors,
/// so a nearly symmetric pair splits its joint residue correctly.
constexpr double kNeighbourGap = 1e-3;
/// Rayleigh iteration has converged when the quotient moves less than this
/// (relative) in one step; convergence is cubic, so the vector of that
/// step is accurate to working precision.
constexpr double kRayleighTol = 1e-13;
constexpr int kMaxRefineSteps = 200;

/// Deterministic start vector for Rayleigh iteration: generic (no
/// structured zeros), so it has a component along every eigenvector.
std::vector<double> start_vector(std::size_t n) {
  std::vector<double> x(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (double& v : x) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = 0.5 + static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  return x;
}

/// Refines the single pole in `iv` and its C-normalised eigenvector `x`
/// by Rayleigh-quotient iteration, safeguarded by the interval: every
/// factorization's inertia count shrinks it, and a quotient outside it is
/// replaced by the geometric midpoint.  The iterate stays C-orthogonal to
/// `neighbours` (eigenvectors of nearby poles).  Returns the pole.
double refine_pole(TreePencil& pencil, Interval iv, const std::vector<double>& start,
                   const std::vector<double>& neighbours, std::vector<double>& x) {
  x = start;
  pencil.project_out(neighbours, x);
  pencil.normalize(x);
  double sigma = std::sqrt(iv.lo * iv.hi);
  for (int step = 0; step < kMaxRefineSteps; ++step) {
    std::size_t below = 0;
    const double rho = pencil.inverse_step(sigma, neighbours, x, below);
    (below > iv.below_lo ? iv.hi : iv.lo) = sigma;
    if (std::abs(rho - sigma) <= kRayleighTol * rho) return rho;
    if (iv.hi - iv.lo <= 4.0 * std::numeric_limits<double>::epsilon() * iv.hi)
      return std::clamp(rho, iv.lo, iv.hi);
    sigma = (rho > iv.lo && rho < iv.hi) ? rho : std::sqrt(iv.lo * iv.hi);
  }
  throw Error(Code::kNonConvergence, "ExactAnalysis: pole refinement did not converge");
}

/// Sum of a_j e^{-lambda_j t} over one row, with its first two
/// t-derivatives, from one exp pass.  Poles ascend, so the pass stops once
/// lambda_j t passes kExpCutoff (e^-50 ~ 2e-22: below rounding).
struct ModeSum {
  double value = 0.0;
  double slope = 0.0;      ///< -d/dt of value: the impulse response
  double curvature = 0.0;  ///< d^2/dt^2 of value
};
constexpr double kExpCutoff = 50.0;
/// Halley converges cubically: after a step of relative size d the error is
/// about K d^3, with K of order (lambda t)^2 for the mode that dominates at
/// the crossing (at most ~2500 below the exp cutoff), so stopping once
/// d <= 1e-5 leaves ~1e-12 at worst (measured <= 3e-14 on random and stiff
/// trees).
constexpr double kHalleyStep = 1e-5;

ModeSum mode_sum(const double* a, const std::vector<double>& lambda, double t) {
  ModeSum s;
  for (std::size_t j = 0; j < lambda.size(); ++j) {
    const double x = lambda[j] * t;
    if (x > kExpCutoff) break;
    const double e = a[j] * std::exp(-x);
    s.value += e;
    s.slope += lambda[j] * e;
    s.curvature += lambda[j] * lambda[j] * e;
  }
  return s;
}

}  // namespace

ExactAnalysis::ExactAnalysis(const RCTree& tree) {
  TreePencil pencil(tree);
  const std::size_t n = pencil.size();
  floor_added_ = pencil.floor_added();
  lambda_.assign(n, 0.0);
  coeff_.assign(n * n, 0.0);
  mean_.assign(n, 0.0);
  sigma_.assign(n, 0.0);

  // The whole spectrum lies in the window; check it by inertia.
  auto [lo, hi] = pencil.pole_window();
  if (pencil.count(lo) != 0 || pencil.count(hi) != n)
    throw Error(Code::kNonConvergence, "ExactAnalysis: poles escape the inertia window");

  const std::vector<double> start = start_vector(n);
  std::vector<double> x(n);
  // Residues of pole j from its C-normalised eigenvector q:
  // a_ij = q_i (q^T b) / lambda_j.  Each row's own moments sum a/lambda
  // and a/lambda^2 (into mean_ and sigma_) as the columns arrive.
  const auto store = [&](std::size_t j, double pole, const std::vector<double>& q) {
    lambda_[j] = pole;
    const double w = pencil.input_projection(q) / pole;
    const double w1 = w / pole;
    const double w2 = w1 / pole;
    for (NodeId i = 0; i < n; ++i) {
      coeff_[i * n + j] = q[i] * w;
      mean_[i] += q[i] * w1;
      sigma_[i] += q[i] * w2;
    }
  };

  // Eigenvectors of the poles just below the current interval (back to
  // back, ascending) for refine_pole.
  std::vector<double> neighbours;
  std::vector<double> neighbour_poles;
  const auto keep_neighbour = [&](double pole, const std::vector<double>& q) {
    neighbours.insert(neighbours.end(), q.begin(), q.end());
    neighbour_poles.push_back(pole);
  };
  const auto drop_neighbours_below = [&](double edge) {
    std::size_t k = 0;
    while (k < neighbour_poles.size() && neighbour_poles[k] < edge * (1.0 - kNeighbourGap)) ++k;
    neighbours.erase(neighbours.begin(), neighbours.begin() + static_cast<std::ptrdiff_t>(k * n));
    neighbour_poles.erase(neighbour_poles.begin(),
                          neighbour_poles.begin() + static_cast<std::ptrdiff_t>(k));
  };

  // Depth-first bisection, lower half first, so poles come out ascending.
  std::vector<Interval> stack{{lo, hi, 0, n}};
  while (!stack.empty()) {
    const Interval iv = stack.back();
    stack.pop_back();
    const std::size_t count = iv.below_hi - iv.below_lo;
    if (count == 0) continue;
    if (count == 1 && iv.hi <= kIsolatedSpan * iv.lo) {
      drop_neighbours_below(iv.lo);
      const double pole = refine_pole(pencil, iv, start, neighbours, x);
      store(iv.below_lo, pole, x);
      keep_neighbour(pole, x);
      continue;
    }
    if (count > 1 && iv.hi - iv.lo <= kClusterWidth * iv.hi) {
      // A degenerate cluster: the input reaches it only through the
      // C-orthogonal projection of C^-1 b onto its eigenspace, and inverse
      // iteration from C^-1 b converges to exactly that vector.  If its
      // quotient stays in the cluster it carries the cluster's whole
      // residue; if it leaves, the input has no component there.
      const double sigma = std::sqrt(iv.lo * iv.hi);
      drop_neighbours_below(iv.lo);
      x = pencil.cap_inverse_input();
      pencil.normalize(x);
      double rho = 0.0;
      for (int step = 0; step < 3; ++step) {
        std::size_t below = 0;
        rho = pencil.inverse_step(sigma, neighbours, x, below);
      }
      for (std::size_t j = iv.below_lo; j < iv.below_hi; ++j) lambda_[j] = sigma;
      if (std::abs(rho - sigma) <= 1e-10 * sigma) {
        store(iv.below_lo, sigma, x);
        keep_neighbour(sigma, x);
      }
      continue;
    }
    const double mid = std::sqrt(iv.lo * iv.hi);
    const std::size_t below =
        std::clamp(pencil.count(mid), iv.below_lo, iv.below_hi);
    stack.push_back({mid, iv.hi, below, iv.below_hi});
    stack.push_back({iv.lo, mid, iv.below_lo, below});
  }
  // sigma^2 = mu2 = 2 sum a/lambda^2 - mu^2.
  for (NodeId i = 0; i < n; ++i)
    sigma_[i] = std::sqrt(std::max(2.0 * sigma_[i] - mean_[i] * mean_[i], 0.0));
}

std::vector<double> ExactAnalysis::step_coefficients(NodeId node) const {
  return {row(node), row(node) + size()};
}

std::span<const double> ExactAnalysis::coefficient_row(NodeId node) const {
  return {row(node), size()};
}

double ExactAnalysis::step_response(NodeId node, double t) const {
  if (t <= 0.0) return 0.0;
  const double* a = row(node);
  double acc = 0.0;
  for (std::size_t j = 0; j < size(); ++j) acc += a[j] * std::exp(-lambda_[j] * t);
  return 1.0 - acc;
}

double ExactAnalysis::impulse_response(NodeId node, double t) const {
  if (t < 0.0) return 0.0;
  const double* a = row(node);
  double acc = 0.0;
  for (std::size_t j = 0; j < size(); ++j) acc += a[j] * lambda_[j] * std::exp(-lambda_[j] * t);
  return acc;
}

double ExactAnalysis::step_response_integral(NodeId node, double t) const {
  if (t <= 0.0) return 0.0;
  const double* a = row(node);
  double acc = t;
  for (std::size_t j = 0; j < size(); ++j)
    acc -= a[j] / lambda_[j] * one_minus_exp(lambda_[j] * t);
  return acc;
}

double ExactAnalysis::ramp_response(NodeId node, double t, double rise_time) const {
  if (!(rise_time > 0.0)) throw std::invalid_argument("ramp_response: rise_time must be > 0");
  const double upper = step_response_integral(node, t);
  const double lower = step_response_integral(node, t - rise_time);
  return (upper - lower) / rise_time;
}

double ExactAnalysis::response(NodeId node, const Source& input, double t) const {
  if (input.is_step()) return step_response(node, t);
  if (const auto* ramp = dynamic_cast<const SaturatedRampSource*>(&input))
    return ramp_response(node, t, ramp->rise_time());
  if (t <= 0.0) return 0.0;
  // v_o(t) = int_0^min(t, settle) v_i'(tau) s(t - tau) dtau  (+ tail where the
  // source has settled to 1, folded in because value() == 1 there and
  // derivative == 0).  Composite Simpson over the active span.
  const double hi = std::min(t, input.settle_time());
  if (hi <= 0.0) return step_response(node, t);  // source already settled at 0+
  const std::size_t panels = 1 << 13;
  const double h = hi / static_cast<double>(panels);
  auto f = [&](double tau) { return input.derivative(tau) * step_response(node, t - tau); };
  double acc = f(0.0) + f(hi);
  for (std::size_t k = 1; k < panels; ++k) acc += (k % 2 ? 4.0 : 2.0) * f(h * static_cast<double>(k));
  double integral = acc * h / 3.0;
  // If the source settled before t, the remaining input mass is exactly the
  // derivative integral = 1 over [0, hi]; nothing further to add — the step
  // convolution above already accounts for all of v'.
  return integral;
}

double ExactAnalysis::step_delay(NodeId node, double fraction) const {
  if (!(fraction > 0.0 && fraction < 1.0))
    throw std::invalid_argument("step_delay: fraction must be in (0,1)");
  const double* a = row(node);
  const double mu = mean_[node];
  const double sigma = sigma_[node];
  // Theorem 1 and Corollary 1: max(mu - sigma, 0) <= t50 <= mu, widened by
  // build_report's slack; lower fractions cross earlier, higher ones later.
  constexpr double kSlack = 1e-6;
  const double guess = -std::log1p(-fraction) * mu;
  double cap = std::numeric_limits<double>::infinity();  // theory's upper end, unverified
  double t = guess;
  if (fraction <= 0.5) {
    cap = mu * (1.0 + kSlack);
    const double floor_t = fraction == 0.5 ? std::max(mu - sigma - kSlack * mu, 0.0) : 0.0;
    t = std::clamp(guess, floor_t, cap);
  }
  // Safeguarded Halley iteration on f(t) = 1 - fraction - sum a e^{-lambda t},
  // inside the verified bracket f(lo) < 0 <= f(hi).
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 100; ++iter) {
    const ModeSum s = mode_sum(a, lambda_, t);
    const double f = 1.0 - fraction - s.value;
    if (f == 0.0) return t;
    (f < 0.0 ? lo : hi) = t;
    if (t == cap && f < 0.0) cap = std::numeric_limits<double>::infinity();
    const double denom = 2.0 * s.slope * s.slope + f * s.curvature;
    const bool halley = denom > 0.0;
    double next = halley ? t - 2.0 * f * s.slope / denom : t - f / s.slope;
    const double upper = std::min(hi, cap);
    if (next >= cap && hi > cap) {
      t = cap;  // probe the theory's unverified end once
      continue;
    }
    const bool inside = next > lo && next < upper;
    if (!inside) next = std::isfinite(upper) ? 0.5 * (lo + upper) : 2.0 * std::max(t, lo);
    // Newton and bisection steps are only trusted once they stall.
    const double tol = halley && inside ? kHalleyStep : 1e-13;
    if (std::abs(next - t) <= tol * next) return next;
    t = next;
  }
  throw Error(Code::kNonConvergence, "step_delay: crossing not found");
}

double ExactAnalysis::response_crossing(NodeId node, const Source& input,
                                        double fraction) const {
  if (input.is_step()) return step_delay(node, fraction);
  if (!(fraction > 0.0 && fraction < 1.0))
    throw std::invalid_argument("response_crossing: fraction must be in (0,1)");
  const double tau = dominant_time_constant() + input.settle_time();
  auto f = [&](double t) { return response(node, input, t) - fraction; };
  linalg::RootOptions opt;
  opt.x_tol = 1e-12 * tau;
  const auto root = linalg::bracket_and_solve(f, tau, 1e6 * tau, opt);
  if (!root) throw Error(Code::kNonConvergence, "response_crossing: crossing not found");
  return *root;
}

double ExactAnalysis::delay_50_50(NodeId node, const Source& input) const {
  return response_crossing(node, input, 0.5) - input.crossing_time(0.5);
}

double ExactAnalysis::step_rise_time_10_90(NodeId node) const {
  return step_delay(node, 0.9) - step_delay(node, 0.1);
}

Waveform ExactAnalysis::step_waveform(NodeId node, const std::vector<double>& grid) const {
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = step_response(node, grid[i]);
  return {grid, std::move(v)};
}

Waveform ExactAnalysis::impulse_waveform(NodeId node, const std::vector<double>& grid) const {
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = impulse_response(node, grid[i]);
  return {grid, std::move(v)};
}

Waveform ExactAnalysis::response_waveform(NodeId node, const Source& input,
                                          const std::vector<double>& grid) const {
  std::vector<double> v(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) v[i] = response(node, input, grid[i]);
  return {grid, std::move(v)};
}

std::vector<double> ExactAnalysis::suggested_grid(std::size_t samples, double source_settle,
                                                  double pad) const {
  return uniform_grid(pad * (dominant_time_constant() + source_settle), samples);
}

double ExactAnalysis::distribution_moment(NodeId node, int q) const {
  if (q < 0) throw std::invalid_argument("distribution_moment: q must be >= 0");
  const double* a = row(node);
  double fact = 1.0;
  for (int k = 2; k <= q; ++k) fact *= k;
  double acc = 0.0;
  for (std::size_t j = 0; j < size(); ++j) acc += a[j] / std::pow(lambda_[j], q);
  return fact * acc;
}

}  // namespace rct::sim
