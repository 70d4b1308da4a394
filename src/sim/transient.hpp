#pragma once
// Time-domain transient simulation of RC trees with arbitrary input
// sources, using the O(N) tree solver per step.
//
// Backward Euler (L-stable, 1st order) and trapezoidal (A-stable, 2nd
// order) companion models are provided.  This is the scalable counterpart
// of ExactAnalysis: O(N) per step instead of O(N^2) setup, used for the
// perf benches and as an independent cross-check of the closed forms.

#include <vector>

#include "rctree/rctree.hpp"
#include "sim/sources.hpp"
#include "sim/waveform.hpp"

namespace rct::sim {

/// Integration method for transient analysis.
enum class Method {
  kBackwardEuler,
  kTrapezoidal,
};

/// Transient run configuration.
struct TransientOptions {
  double t_end = 0.0;      ///< required: simulation end time (> 0)
  std::size_t steps = 2000;  ///< uniform step count
  Method method = Method::kTrapezoidal;
};

/// Result: one waveform per probed node (in probe order).
struct TransientResult {
  std::vector<double> time;                 ///< shared time base (steps+1 points)
  std::vector<std::vector<double>> values;  ///< values[p][k] = probe p at time[k]
  [[nodiscard]] Waveform waveform(std::size_t probe) const { return {time, values[probe]}; }
};

/// Simulates the tree driven by `input`, recording the given probes.
/// Throws std::invalid_argument for bad options or probe ids.
[[nodiscard]] TransientResult simulate(const RCTree& tree, const Source& input,
                                       const std::vector<NodeId>& probes,
                                       const TransientOptions& options);

}  // namespace rct::sim
