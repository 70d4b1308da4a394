#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rct::core {

std::vector<DelayBounds> delay_bounds(const RCTree& tree) {
  const std::vector<moments::ImpulseStats> stats = moments::impulse_stats(tree);
  std::vector<DelayBounds> out(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    out[i].elmore = stats[i].mean;
    out[i].sigma = stats[i].sigma;
    out[i].lower = std::max(stats[i].mean - stats[i].sigma, 0.0);
    out[i].upper = stats[i].mean;
  }
  return out;
}

DelayBounds delay_bounds_at(const RCTree& tree, NodeId node) {
  return delay_bounds(tree)[node];
}

GeneralizedBounds generalized_bounds(const RCTree& tree, NodeId node,
                                     const sim::Source& input) {
  if (!input.derivative_unimodal())
    throw std::invalid_argument(
        "generalized_bounds: Corollary 2 requires a unimodal input derivative");
  const moments::ImpulseStats stats = moments::impulse_stats(tree)[node];
  const sim::DerivativeStats in = input.derivative_stats();

  GeneralizedBounds g{};
  g.out_mean = stats.mean + in.mean;
  const double mu2 = stats.mu2 + in.mu2;
  g.out_sigma = (mu2 > 0.0) ? std::sqrt(mu2) : 0.0;
  g.out_mu3 = stats.mu3 + in.mu3;
  g.out_skewness = (g.out_sigma > 0.0) ? g.out_mu3 / std::pow(g.out_sigma, 3.0) : 0.0;
  g.crossing_upper = g.out_mean;
  g.crossing_lower = std::max(g.out_mean - g.out_sigma, 0.0);
  const double t_in_50 = input.crossing_time(0.5);
  g.delay_upper = g.crossing_upper - t_in_50;
  g.delay_lower = std::max(g.crossing_lower - t_in_50, 0.0);
  return g;
}

double rise_time_estimate(const RCTree& tree, NodeId node) {
  return moments::impulse_stats(tree)[node].sigma;
}

}  // namespace rct::core
