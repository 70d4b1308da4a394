// perf_report — build_report() cost with and without a shared TreeContext,
// against a replica of the pre-refactor algorithm.
//
// The pre-refactor build_report derived everything per call and read
// RCTree::depth per row — an O(depth) walk that turns the per-node report
// loop quadratic on line topologies.  The refactored pipeline does a fixed
// set of linear passes (TreeContext) shared by every consumer.  This
// benchmark pins the claim: on a 2^14-node line the refactored
// build_report (exact solve disabled) must be >= 5x faster than the legacy
// replica.
//
//   Legacy  — pre-refactor replica (per-call stats/PRH + depth walks)
//   Fresh   — build_report(tree): one-shot context built inside the call
//   Shared  — build_report(context): context built once, reused per call
//   Exact   — build_report(context) with the exact path on (pole/residue
//             solve, moment oracle, three crossings per row), random
//             trees of 16/96/250/1000 nodes
//
// It also carries the obs overhead gate: build_report is instrumented with
// src/obs spans/timers/counters, and with tracing disarmed (the default)
// that instrumentation must cost < 2% against an uninstrumented replica of
// the same loop — the "disabled overhead is near zero" claim, measured.
// The gate's obs metrics snapshot lands in BENCH_obs.json.
//
// By default results land in BENCH_report.json (benchmark's JSON format);
// pass your own --benchmark_out to override.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "analysis/tree_context.hpp"
#include "core/penfield_rubinstein.hpp"
#include "core/report.hpp"
#include "moments/central.hpp"
#include "obs/metrics.hpp"
#include "rctree/generators.hpp"
#include "robust/fault.hpp"
#include "sim/exact.hpp"

namespace {

using namespace rct;

core::ReportOptions bench_options() {
  core::ReportOptions opt;
  opt.with_exact = false;  // isolate the bound pipeline from the exact solve
  return opt;
}

RCTree make_tree(bool line, std::size_t nodes) {
  if (line) return gen::line(nodes, 100.0, 0.1e-12, 50.0, 0.05e-12);
  return gen::random_tree(nodes, /*seed=*/12345);
}

/// Pre-refactor build_report replica: per-call derivations and the
/// O(depth)-per-row RCTree::depth accessor.
std::vector<core::NodeReport> legacy_build_report(const RCTree& tree,
                                                  const core::ReportOptions& options) {
  const auto stats = moments::impulse_stats(tree);
  const core::PrhBounds prh(tree);
  std::vector<core::NodeReport> rows;
  for (NodeId i = 0; i < tree.size(); ++i) {
    if (options.leaves_only && !tree.is_leaf(i)) continue;
    core::NodeReport r;
    r.name = tree.name(i);
    r.depth = tree.depth(i);
    r.elmore = stats[i].mean;
    r.sigma = stats[i].sigma;
    r.skewness = stats[i].skewness;
    r.lower_bound = std::max(r.elmore - r.sigma, 0.0);
    r.single_pole = -std::log(1.0 - options.fraction) * r.elmore;
    r.prh_tmin = prh.t_min(i, options.fraction);
    r.prh_tmax = prh.t_max(i, options.fraction);
    rows.push_back(std::move(r));
  }
  return rows;
}

void BM_ReportLegacy(benchmark::State& state, bool line) {
  const RCTree tree = make_tree(line, static_cast<std::size_t>(state.range(0)));
  const core::ReportOptions opt = bench_options();
  for (auto _ : state) {
    auto rows = legacy_build_report(tree, opt);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ReportFresh(benchmark::State& state, bool line) {
  const RCTree tree = make_tree(line, static_cast<std::size_t>(state.range(0)));
  const core::ReportOptions opt = bench_options();
  for (auto _ : state) {
    auto rows = core::build_report(tree, opt);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ReportShared(benchmark::State& state, bool line) {
  const RCTree tree = make_tree(line, static_cast<std::size_t>(state.range(0)));
  const analysis::TreeContext ctx(tree);
  const core::ReportOptions opt = bench_options();
  for (auto _ : state) {
    auto rows = core::build_report(ctx, opt);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ContextBuild(benchmark::State& state, bool line) {
  const RCTree tree = make_tree(line, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    analysis::TreeContext ctx(tree);
    benchmark::DoNotOptimize(ctx.elmore_delays().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ReportExact(benchmark::State& state) {
  const RCTree tree = make_tree(/*line=*/false, static_cast<std::size_t>(state.range(0)));
  const analysis::TreeContext ctx(tree);
  const core::ReportOptions opt;  // exact on, 50%, every node
  for (auto _ : state) {
    auto rows = core::build_report(ctx, opt);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// Replica of the current build_report(context) with ONLY the src/obs
/// hooks stripped — everything else (deadline polling, fault sites, the
/// per-row isfinite/degraded checks) must stay, or their cost gets billed
/// to the obs instrumentation.  Keep in sync with src/core/report.cpp.
/// noinline: the real build_report is an out-of-line library call, so the
/// replica must be one too — letting it inline into the timing loop hands
/// it optimizations the library call cannot get, and the difference would
/// be billed to the obs hooks.
__attribute__((noinline)) std::vector<core::NodeReport> nohooks_build_report(
    const analysis::TreeContext& context, const core::ReportOptions& options) {
  constexpr NodeId kDeadlineStride = 64;
  const RCTree& tree = context.tree();
  if (options.deadline) options.deadline->check("core.report.build");
  const auto stats = context.impulse_stats();
  const moments::PrhTerms& prh = context.prh_terms();
  const auto depths = context.depths();
  const auto td = context.elmore_delays();
  const auto rpath = context.path_resistances();
  std::optional<sim::ExactAnalysis> exact;
  bool eigensolve_invalid = false;
  if (options.with_exact && tree.size() <= options.exact_node_limit) {
    if (options.deadline) options.deadline->check("core.report.eigensolve");
    robust::fault::maybe_throw("core.report.eigensolve", robust::Code::kNonConvergence);
    exact.emplace(tree);
    bool valid = true;
    for (const double l : exact->poles())
      if (!std::isfinite(l) || l <= 0.0) valid = false;
    if (!valid) {
      exact.reset();
      eigensolve_invalid = true;
    }
  }
  constexpr double kBoundRelTol = 1e-6;

  std::vector<core::NodeReport> rows;
  for (NodeId i = 0; i < tree.size(); ++i) {
    if (options.deadline && i % kDeadlineStride == 0) options.deadline->check("core.report.rows");
    if (options.leaves_only && !tree.is_leaf(i)) continue;
    core::NodeReport r;
    r.name = tree.name(i);
    r.depth = depths[i];
    r.elmore = stats[i].mean;
    r.sigma = stats[i].sigma;
    r.skewness = stats[i].skewness;
    r.lower_bound = std::max(r.elmore - r.sigma, 0.0);
    r.single_pole = -std::log(1.0 - options.fraction) * r.elmore;
    r.prh_tmin = core::prh_t_min(prh, i, options.fraction);
    r.prh_tmax = core::prh_t_max(prh, i, options.fraction);
    if (!std::isfinite(r.elmore) || !std::isfinite(r.sigma)) r.degraded = true;
    if (eigensolve_invalid) r.degraded = true;
    if (exact && !core::exact_row_consistent(exact->coefficient_row(i), exact->poles(), td[i],
                                             exact->floor_added_capacitance() * rpath[i])) {
      r.degraded = true;
    } else if (exact) {
      double d = exact->step_delay(i, options.fraction);
      d = robust::fault::corrupt("core.report.exact_delay", d);
      const double tol = kBoundRelTol * std::max(std::abs(r.elmore), 1e-18);
      const bool median = options.fraction == 0.5;
      if (!std::isfinite(d) || (median && (d < r.lower_bound - tol || d > r.elmore + tol))) {
        r.degraded = true;
      } else {
        r.exact_delay = d;
        r.exact_rise = exact->step_rise_time_10_90(i);
      }
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Obs overhead gate: instrumented build_report vs the no-hooks replica on
/// a 2^14-node line, min-of-repeats timing (min filters scheduler noise).
/// Returns false when the instrumented path is > `tolerance` slower.
bool run_obs_overhead_gate(double tolerance) {
  const RCTree tree = make_tree(/*line=*/true, 1 << 14);
  const analysis::TreeContext ctx(tree);
  const core::ReportOptions opt = bench_options();
  // Warm the lazy context members so both paths measure only the row loop.
  (void)core::build_report(ctx, opt);
  (void)nohooks_build_report(ctx, opt);

  const auto time_once = [&](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 3; ++i) {
      auto rows = fn();
      benchmark::DoNotOptimize(rows);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  // Preemption and frequency drift only ever ADD time, so the pairs with
  // the smallest COMBINED time are the ones that ran on a quiet machine —
  // and within a pair both variants saw the same machine state, so the
  // per-pair ratio cancels drift.  Take the median ratio over the quietest
  // quarter of many interleaved pairs (order alternating inside each pair,
  // so neither variant systematically runs with warmer caches).
  struct Pair {
    double nohooks, hooked;
  };
  std::vector<Pair> pairs;
  double nohooks_s = 1e300;
  double hooked_s = 1e300;
  for (int rep = 0; rep < 150; ++rep) {
    double n;
    double h;
    if (rep % 2 == 0) {
      n = time_once([&] { return nohooks_build_report(ctx, opt); });
      h = time_once([&] { return core::build_report(ctx, opt); });
    } else {
      h = time_once([&] { return core::build_report(ctx, opt); });
      n = time_once([&] { return nohooks_build_report(ctx, opt); });
    }
    pairs.push_back({n, h});
    nohooks_s = std::min(nohooks_s, n);
    hooked_s = std::min(hooked_s, h);
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.nohooks + a.hooked < b.nohooks + b.hooked;
  });
  pairs.resize(pairs.size() / 4);  // the quiet-machine pairs
  std::vector<double> ratios;
  ratios.reserve(pairs.size());
  for (const Pair& p : pairs) ratios.push_back(p.hooked / p.nohooks);
  std::sort(ratios.begin(), ratios.end());
  const double overhead = ratios[ratios.size() / 2] - 1.0;
  std::printf("obs overhead gate: instrumented %.3f ms vs no-hooks %.3f ms -> %+.2f%% "
              "(tolerance %.0f%%)\n",
              hooked_s * 1e3 / 3, nohooks_s * 1e3 / 3, overhead * 100.0, tolerance * 100.0);
  return overhead < tolerance;
}

// N = 2^10 .. 2^16; the legacy replica is capped at 2^14 (its quadratic
// depth walks make 2^16 lines take minutes).
constexpr std::int64_t kMin = 1 << 10, kMax = 1 << 16, kLegacyMax = 1 << 14;

BENCHMARK_CAPTURE(BM_ReportLegacy, line, true)->RangeMultiplier(4)->Range(kMin, kLegacyMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReportLegacy, random, false)->RangeMultiplier(4)->Range(kMin, kLegacyMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReportFresh, line, true)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReportFresh, random, false)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReportShared, line, true)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReportShared, random, false)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ContextBuild, line, true)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReportExact)->Arg(16)->Arg(96)->Arg(250)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to a JSON datapoint file unless the caller chose their own.
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_report.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Noise on a shared box only ever inflates the reading, so one quiet
  // round under tolerance proves the claim; retry through load spikes.
  bool gate_ok = false;
  for (int round = 0; round < 3 && !gate_ok; ++round)
    gate_ok = run_obs_overhead_gate(/*tolerance=*/0.02);
  // The gate run itself populated the core/analysis metrics; persist the
  // snapshot as the first point of the observability bench trajectory.
  if (!rct::obs::registry().write_json("BENCH_obs.json"))
    std::fprintf(stderr, "warning: cannot write BENCH_obs.json\n");
  if (!gate_ok) {
    std::fprintf(stderr, "FAIL: obs instrumentation-disabled overhead exceeds 2%%\n");
    return 1;
  }
  return 0;
}
