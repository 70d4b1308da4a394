#pragma once
// Exact (to machine precision) analysis of an RC tree from its poles and
// residues.
//
// The MNA system C v' = -G v + b u(t) has real poles lambda_j (G q = lambda C q)
// and, with C-normalised eigenvectors q_j, the step response at node i takes
// the closed form
//
//     s_i(t) = 1 - sum_j a_ij exp(-lambda_j t),   a_ij = q_j[i] (q_j^T b) / lambda_j,
//
// with sum_j a_ij = 1.  The poles come from the tree itself, never a dense
// matrix: G - sigma C factors leaf to root with zero fill in O(N), and its
// negative pivots count the poles below sigma (Sylvester inertia).  Interval
// splitting on that count isolates every pole; Rayleigh-quotient iteration
// through the same O(N) solve, kept inside the isolating interval, refines
// each pole and its eigenvector together (~1.4 counts + ~5 solves per pole),
// so the whole decomposition costs O(N^2) time and the residue table O(N^2)
// memory.  Nearly equal poles are refined C-orthogonal to each other, and
// degenerate clusters (identical branches) get one vector, inverse
// iteration from C^-1 b, which carries the cluster's whole residue.
//
// Impulse responses, saturated-ramp responses and responses to arbitrary
// monotone sources (by quadrature against the closed-form step) all follow.
// Step threshold crossings are safeguarded Halley iterations on the closed
// form, bracketed by the row's own moments (Theorem 1 / Corollary 1: the 50%
// point lies in [max(mu - sigma, 0), mu]).  This engine regenerates every
// "actual delay" number in the paper's evaluation.
//
// Nodes with zero capacitance are supported by a relative-1e-9 capacitance
// floor (documented substitution: the perturbation is far below the
// reproduction tolerances used anywhere in this repo).

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "rctree/rctree.hpp"
#include "sim/sources.hpp"
#include "sim/waveform.hpp"

namespace rct::sim {

/// Pole/residue exact solver for one RC tree.
class ExactAnalysis {
 public:
  /// Capacitances below this fraction of the largest one are raised to it.
  static constexpr double kCapacitanceFloor = 1e-9;

  /// Decomposes the tree (O(N^2) time and memory).
  explicit ExactAnalysis(const RCTree& tree);

  [[nodiscard]] std::size_t size() const { return lambda_.size(); }

  /// Circuit pole magnitudes lambda_j (all positive), ascending.
  [[nodiscard]] const std::vector<double>& poles() const { return lambda_; }

  /// Step-response expansion coefficients a_ij at node i (sum to 1).
  [[nodiscard]] std::vector<double> step_coefficients(NodeId node) const;

  /// The same coefficients, without the copy (aligned with poles()).
  [[nodiscard]] std::span<const double> coefficient_row(NodeId node) const;

  /// Capacitance the floor added over the whole tree (farads, 0 when no
  /// node sat below it).  It shifts each Elmore delay by at most
  /// R_path(i) times this.
  [[nodiscard]] double floor_added_capacitance() const { return floor_added_; }

  /// Slowest time constant 1/lambda_min.
  [[nodiscard]] double dominant_time_constant() const { return 1.0 / lambda_.front(); }

  // --- closed-form responses -------------------------------------------

  /// Unit-step response at `node`, time t.
  [[nodiscard]] double step_response(NodeId node, double t) const;

  /// Unit-impulse response h(t) at `node`.
  [[nodiscard]] double impulse_response(NodeId node, double t) const;

  /// Running integral of the step response, int_0^t s(u) du.
  [[nodiscard]] double step_response_integral(NodeId node, double t) const;

  /// Response to a saturated ramp with rise time tr (closed form).
  [[nodiscard]] double ramp_response(NodeId node, double t, double rise_time) const;

  /// Response to an arbitrary monotone source: quadrature of
  /// v'(tau) s(t - tau) over the source transition (steps and saturated
  /// ramps dispatch to their closed forms).
  [[nodiscard]] double response(NodeId node, const Source& input, double t) const;

  // --- delay / slew measurements ---------------------------------------

  /// Exact time at which the step response crosses `fraction` of its final
  /// value (fraction in (0,1)); the 50% point is the paper's "actual delay".
  /// A function of (node, fraction) alone; ~3 O(N) exp passes.
  [[nodiscard]] double step_delay(NodeId node, double fraction = 0.5) const;

  /// 50%-to-50% delay for an arbitrary source: output crossing minus input
  /// crossing (equals step_delay for a step input).
  [[nodiscard]] double delay_50_50(NodeId node, const Source& input) const;

  /// Threshold crossing of the response to `input` at `fraction`.
  [[nodiscard]] double response_crossing(NodeId node, const Source& input,
                                         double fraction) const;

  /// Exact 10-90% rise time of the step response.
  [[nodiscard]] double step_rise_time_10_90(NodeId node) const;

  // --- sampled waveforms -------------------------------------------------

  [[nodiscard]] Waveform step_waveform(NodeId node, const std::vector<double>& grid) const;
  [[nodiscard]] Waveform impulse_waveform(NodeId node, const std::vector<double>& grid) const;
  [[nodiscard]] Waveform response_waveform(NodeId node, const Source& input,
                                           const std::vector<double>& grid) const;

  /// A grid that comfortably covers the settling of the slowest mode plus
  /// the source transition: [0, pad * (tau_max + settle)] with `samples`
  /// points.
  [[nodiscard]] std::vector<double> suggested_grid(std::size_t samples = 2000,
                                                   double source_settle = 0.0,
                                                   double pad = 12.0) const;

  // --- moment cross-checks ----------------------------------------------

  /// q-th distribution moment  int t^q h(t) dt  in closed form:
  /// sum_j a_ij q! / lambda_j^q.  (q = 1 is the Elmore delay.)
  [[nodiscard]] double distribution_moment(NodeId node, int q) const;

 private:
  std::vector<double> lambda_;         // poles, ascending
  std::vector<double> coeff_;          // a_ij, row-major [node * n + mode]
  std::vector<double> mean_;           // per node: sum_j a_ij / lambda_j (T_D)
  std::vector<double> sigma_;          // per node: sqrt(mu2) of the impulse response
  double floor_added_ = 0.0;
  [[nodiscard]] const double* row(NodeId node) const { return coeff_.data() + node * size(); }
};

}  // namespace rct::sim
