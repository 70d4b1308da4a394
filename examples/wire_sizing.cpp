// Wire sizing with the Elmore metric — the use case the paper's intro
// motivates: "It is used during performance driven placement and routing
// because it is the only delay metric which is easily measured in terms of
// net widths and lengths."
//
// A 10-segment line connects a driver to a sink.  Each segment's width w
// scales its resistance as r0/w and capacitance as c0*w (+ fixed fringe).
// We minimize the sink's Elmore delay over the widths with Nelder-Mead
// (total wire area capped via a penalty), then validate the "optimized beats
// uniform" conclusion with the exact simulator — the point of the paper's
// bound is precisely that Elmore-driven optimization is trustworthy.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/elmore.hpp"
#include "linalg/nelder_mead.hpp"
#include "rctree/rctree.hpp"
#include "rctree/units.hpp"
#include "sim/exact.hpp"

using namespace rct;

namespace {

constexpr int kSegments = 10;
constexpr double kDriverRes = 400.0;
constexpr double kSinkCap = 30e-15;
constexpr double kR0 = 150.0;     // ohm per segment at w = 1
constexpr double kC0 = 40e-15;    // area cap per segment at w = 1
constexpr double kFringe = 15e-15;  // width-independent cap per segment
constexpr double kAreaBudget = kSegments * 1.0;  // sum of widths allowed

RCTree build(const std::vector<double>& widths) {
  RCTreeBuilder b;
  NodeId prev = b.add_node("drv", kSource, kDriverRes, 0.0);
  for (int i = 0; i < kSegments; ++i) {
    const double w = widths[i];
    const double cap = kC0 * w + kFringe + (i == kSegments - 1 ? kSinkCap : 0.0);
    prev = b.add_node(std::string("n").append(std::to_string(i + 1)), prev, kR0 / w, cap);
  }
  return std::move(b).build();
}

double sink_elmore(const std::vector<double>& widths) {
  const RCTree t = build(widths);
  return core::elmore_delays(t).back();
}

}  // namespace

int main() {
  std::printf("Elmore-driven wire sizing (10-segment line, area-capped)\n\n");

  const std::vector<double> uniform(kSegments, 1.0);
  const double td_uniform = sink_elmore(uniform);

  // Optimize log-widths; penalize exceeding the area budget.
  auto loss = [](const std::vector<double>& logw) {
    std::vector<double> w(kSegments);
    double area = 0.0;
    for (int i = 0; i < kSegments; ++i) {
      w[i] = std::exp(logw[i]);
      if (w[i] < 0.2 || w[i] > 8.0) return 1.0;  // manufacturable range
      area += w[i];
    }
    const double over = std::max(0.0, area - kAreaBudget);
    return sink_elmore(w) * 1e9 + 10.0 * over * over;
  };
  linalg::NelderMeadOptions opt;
  opt.max_iter = 20000;
  auto res = linalg::nelder_mead(loss, std::vector<double>(kSegments, 0.0), opt);
  res = linalg::nelder_mead(loss, res.x, opt);

  std::vector<double> best(kSegments);
  double area = 0.0;
  for (int i = 0; i < kSegments; ++i) {
    best[i] = std::exp(res.x[i]);
    area += best[i];
  }
  const double td_best = sink_elmore(best);

  std::printf("segment widths (driver -> sink):\n  uniform:   ");
  for (double w : uniform) std::printf("%5.2f", w);
  std::printf("\n  optimized: ");
  for (double w : best) std::printf("%5.2f", w);
  std::printf("\n  (area %.2f / budget %.2f — classic taper: wide near driver)\n\n", area,
              kAreaBudget);

  // Validate with the exact simulator: the Elmore win must be a real win.
  const sim::ExactAnalysis sim_u(build(uniform));
  const sim::ExactAnalysis sim_o(build(best));
  const double exact_u = sim_u.step_delay(build(uniform).size() - 1);
  const double exact_o = sim_o.step_delay(build(best).size() - 1);

  std::printf("%-12s %14s %14s\n", "", "elmore", "exact 50%");
  std::printf("%-12s %14s %14s\n", "uniform", format_time(td_uniform).c_str(),
              format_time(exact_u).c_str());
  std::printf("%-12s %14s %14s\n", "optimized", format_time(td_best).c_str(),
              format_time(exact_o).c_str());
  std::printf("\nelmore improvement %.1f%%, confirmed exact improvement %.1f%%\n",
              100.0 * (1.0 - td_best / td_uniform), 100.0 * (1.0 - exact_o / exact_u));

  const bool ok = td_best < td_uniform && exact_o < exact_u;
  std::printf("optimizing the bound improved the true delay: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
