// Calibration of the paper's unpublished component values.
//
// The paper prints the Fig. 1 topology and the Table I metrics, but not the
// R/C values; likewise for the 25-node tree behind Table II / Figs. 13-14.
// This tool recovers values by Nelder-Mead on log-parameters, minimizing the
// squared relative mismatch against the published metrics, and prints C++
// initializers to paste into src/rctree/circuits.cpp plus the residual per
// target.  Run once; the repository ships with its output.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/bounds.hpp"
#include "core/penfield_rubinstein.hpp"
#include "linalg/nelder_mead.hpp"
#include "moments/central.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/rctree.hpp"
#include "sim/exact.hpp"

using namespace rct;

namespace {

constexpr double kNs = 1e-9;

RCTree build_fig1(const std::vector<double>& logp) {
  // logp: log of R1..R7 (ohms), C1..C7 (farads).
  auto r = [&](int i) { return std::exp(logp[i]); };
  auto c = [&](int i) { return std::exp(logp[7 + i]); };
  RCTreeBuilder b;
  const NodeId n1 = b.add_node("n1", kSource, r(0), c(0));
  const NodeId n2 = b.add_node("n2", n1, r(1), c(1));
  const NodeId n3 = b.add_node("n3", n2, r(2), c(2));
  const NodeId n4 = b.add_node("n4", n3, r(3), c(3));
  b.add_node("n5", n4, r(4), c(4));
  const NodeId n6 = b.add_node("n6", n1, r(5), c(5));
  b.add_node("n7", n6, r(6), c(6));
  return std::move(b).build();
}

struct Fig1Metrics {
  double td[3];      // n1 n5 n7
  double actual[3];
  double tmax[3];
  double tmin[3];
  double lower[3];
};

Fig1Metrics measure_fig1(const RCTree& t) {
  Fig1Metrics m{};
  const NodeId ids[3] = {t.at("n1"), t.at("n5"), t.at("n7")};
  const auto stats = moments::impulse_stats(t);
  const core::PrhBounds prh(t);
  const sim::ExactAnalysis exact(t);
  for (int k = 0; k < 3; ++k) {
    const NodeId i = ids[k];
    m.td[k] = stats[i].mean;
    m.actual[k] = exact.step_delay(i);
    m.tmax[k] = prh.t_max(i, 0.5);
    m.tmin[k] = prh.t_min(i, 0.5);
    m.lower[k] = std::max(stats[i].mean - stats[i].sigma, 0.0);
  }
  return m;
}

// Hinge penalty keeping log-value inside [log(lo), log(hi)] — without it the
// optimizer drifts to physically absurd values (GOhm resistors, 1e-23 F).
double window_penalty(double logv, double lo, double hi) {
  const double a = std::log(lo);
  const double b = std::log(hi);
  double p = 0.0;
  if (logv < a) p = (a - logv);
  if (logv > b) p = (logv - b);
  return 4.0 * p * p;
}

double fig1_loss(const std::vector<double>& logp) {
  RCTree t = build_fig1(logp);
  Fig1Metrics m;
  try {
    m = measure_fig1(t);
  } catch (const std::exception&) {
    return 1e9;
  }
  const double td_t[3] = {0.55, 1.20, 0.75};
  const double ac_t[3] = {0.196, 0.919, 0.450};
  const double tx_t[3] = {0.55, 1.32, 1.02};
  const double tn_t[3] = {0.0, 0.51, 0.054};
  const double lo_t[3] = {0.0, 0.20, 0.0};
  auto rel = [](double got, double want) {
    const double g = got / kNs;
    if (want == 0.0) return (g / 0.05) * (g / 0.05);  // push toward 0 on a 50ps scale
    return (g - want) / want * ((g - want) / want);
  };
  double loss = 0.0;
  for (int k = 0; k < 3; ++k) {
    loss += 2.0 * rel(m.td[k], td_t[k]);      // Elmore values are exact in the paper
    loss += 2.0 * rel(m.actual[k], ac_t[k]);  // actual delays
    loss += rel(m.tmax[k], tx_t[k]);
    loss += rel(m.tmin[k], tn_t[k]);
    loss += rel(m.lower[k], lo_t[k]);
  }
  for (int i = 0; i < 7; ++i) loss += window_penalty(logp[i], 50.0, 50e3);
  for (int i = 7; i < 14; ++i) loss += window_penalty(logp[i], 1e-15, 1e-12);
  return loss;
}

void fit_fig1() {
  std::vector<double> x0;
  const double r0[7] = {1000, 500, 500, 500, 500, 500, 500};
  const double c0[7] = {0.10e-12, 0.08e-12, 0.08e-12, 0.08e-12, 0.08e-12, 0.08e-12, 0.05e-12};
  for (double v : r0) x0.push_back(std::log(v));
  for (double v : c0) x0.push_back(std::log(v));

  linalg::NelderMeadOptions opt;
  opt.max_iter = 20000;
  opt.initial_step = 0.4;
  auto res = linalg::nelder_mead(fig1_loss, x0, opt);
  // Restarts help on a 14-dim landscape.
  for (int round = 0; round < 10; ++round) res = linalg::nelder_mead(fig1_loss, res.x, opt);

  std::printf("== fig1 ==  loss %.6g after restarts\n", res.f);
  for (int i = 0; i < 7; ++i) std::printf("R%d = %.6g ohm\n", i + 1, std::exp(res.x[i]));
  for (int i = 0; i < 7; ++i) std::printf("C%d = %.6g F\n", i + 1, std::exp(res.x[7 + i]));

  const RCTree t = build_fig1(res.x);
  const Fig1Metrics m = measure_fig1(t);
  const char* names[3] = {"C1", "C5", "C7"};
  std::printf("%-4s %10s %10s %10s %10s %10s (ns)\n", "node", "TD", "actual", "tmax", "tmin",
              "mu-sigma");
  for (int k = 0; k < 3; ++k)
    std::printf("%-4s %10.4f %10.4f %10.4f %10.4f %10.4f\n", names[k], m.td[k] / kNs,
                m.actual[k] / kNs, m.tmax[k] / kNs, m.tmin[k] / kNs, m.lower[k] / kNs);
}

// ---------------------------------------------------------------------------

RCTree build_tree25(const std::vector<double>& logp) {
  // logp: log of r_drv, c_A, r_seg, c_seg, c_branch.
  const double r_drv = std::exp(logp[0]);
  const double c_a = std::exp(logp[1]);
  const double r_seg = std::exp(logp[2]);
  const double c_seg = std::exp(logp[3]);
  const double c_br = std::exp(logp[4]);
  RCTreeBuilder b;
  NodeId prev = b.add_node("A", kSource, r_drv, c_a);
  std::vector<NodeId> main_line;
  for (int i = 1; i <= 15; ++i) {
    std::string name = (i == 8) ? "B" : std::string("m").append(std::to_string(i));
    prev = b.add_node(std::move(name), prev, r_seg, c_seg);
    main_line.push_back(prev);
  }
  b.add_node("C", prev, r_seg, c_seg);
  NodeId s = main_line[2];
  for (int i = 1; i <= 4; ++i)
    s = b.add_node(std::string("p").append(std::to_string(i)), s, r_seg, c_br);
  s = main_line[10];
  for (int i = 1; i <= 4; ++i)
    s = b.add_node(std::string("q").append(std::to_string(i)), s, r_seg, c_br);
  return std::move(b).build();
}

double tree25_loss(const std::vector<double>& logp) {
  RCTree t;
  std::vector<double> td;
  try {
    t = build_tree25(logp);
    td = moments::elmore_delays(t);
  } catch (const std::exception&) {
    return 1e9;
  }
  const double want[3] = {0.02, 1.13, 1.56};
  const NodeId ids[3] = {t.at("A"), t.at("B"), t.at("C")};
  double loss = 0.0;
  for (int k = 0; k < 3; ++k) {
    const double g = td[ids[k]] / kNs;
    loss += (g - want[k]) / want[k] * ((g - want[k]) / want[k]);
  }
  loss += window_penalty(logp[0], 10.0, 200.0);     // driver resistance
  loss += window_penalty(logp[1], 10e-15, 300e-15); // cap at A
  loss += window_penalty(logp[2], 50.0, 500.0);     // segment resistance
  loss += window_penalty(logp[3], 20e-15, 300e-15); // segment cap
  loss += window_penalty(logp[4], 10e-15, 200e-15); // branch cap
  return loss;
}

void fit_tree25() {
  std::vector<double> x0 = {std::log(25.0), std::log(0.1e-12), std::log(120.0),
                            std::log(0.1e-12), std::log(0.06e-12)};
  linalg::NelderMeadOptions opt;
  opt.max_iter = 20000;
  opt.initial_step = 0.4;
  auto res = linalg::nelder_mead(tree25_loss, x0, opt);
  for (int round = 0; round < 4; ++round) res = linalg::nelder_mead(tree25_loss, res.x, opt);

  std::printf("\n== tree25 ==  loss %.6g\n", res.f);
  const char* names[5] = {"r_drv", "c_A", "r_seg", "c_seg", "c_branch"};
  for (int i = 0; i < 5; ++i) std::printf("%s = %.6g\n", names[i], std::exp(res.x[i]));
  const RCTree t = build_tree25(res.x);
  const auto td = moments::elmore_delays(t);
  std::printf("TD(A) = %.4f ns, TD(B) = %.4f ns, TD(C) = %.4f ns\n", td[t.at("A")] / kNs,
              td[t.at("B")] / kNs, td[t.at("C")] / kNs);
}

}  // namespace

int main() {
  fit_fig1();
  fit_tree25();
  return 0;
}
