#include "core/generalized_input.hpp"

#include <cmath>
#include <stdexcept>

#include "moments/path_tracing.hpp"

namespace rct::core {

std::vector<DelayCurvePoint> delay_curve(const RCTree& tree, const sim::ExactAnalysis& exact,
                                         NodeId node, const std::vector<double>& rise_times) {
  const double elmore = moments::elmore_delays(tree)[node];
  std::vector<DelayCurvePoint> out;
  out.reserve(rise_times.size());
  for (double tr : rise_times) {
    const sim::SaturatedRampSource ramp(tr);
    const double d = exact.delay_50_50(node, ramp);
    out.push_back({tr, d, elmore, (elmore - d) / d});
  }
  return out;
}

std::vector<double> log_sweep(double lo, double hi, std::size_t points) {
  if (!(lo > 0.0 && hi > lo) || points < 2)
    throw std::invalid_argument("log_sweep: need 0 < lo < hi and points >= 2");
  std::vector<double> out(points);
  const double step = std::log(hi / lo) / static_cast<double>(points - 1);
  for (std::size_t i = 0; i < points; ++i) out[i] = lo * std::exp(step * static_cast<double>(i));
  return out;
}

double relative_elmore_error(const RCTree& tree, const sim::ExactAnalysis& exact, NodeId node,
                             const sim::Source& input) {
  const double elmore = moments::elmore_delays(tree)[node];
  const double d = exact.delay_50_50(node, input);
  return (elmore - d) / d;
}

double input_output_area(const sim::ExactAnalysis& exact, NodeId node, const sim::Source& input,
                         double t_end, std::size_t samples) {
  // trapezoid of (v_i - v_o) over [0, t_end]; t_end must cover settling.
  if (samples < 2) throw std::invalid_argument("input_output_area: samples >= 2");
  double acc = 0.0;
  const double h = t_end / static_cast<double>(samples - 1);
  auto gap = [&](double t) { return input.value(t) - exact.response(node, input, t); };
  double prev = gap(0.0);
  for (std::size_t i = 1; i < samples; ++i) {
    const double cur = gap(h * static_cast<double>(i));
    acc += 0.5 * (prev + cur) * h;
    prev = cur;
  }
  return acc;
}

}  // namespace rct::core
