// perf_report — build_report() cost with and without a shared TreeContext.
//
//   Fresh   — build_report(tree): one-shot context built inside the call
//   Shared  — build_report(context): context built once, reused per call
//   Context — TreeContext construction alone
//   Exact   — build_report(context) with the exact path on (pole/residue
//             solve, moment oracle, three crossings per row), random
//             trees of 16/96/250/1000 nodes
//
// scripts/check.sh runs it with --benchmark_repetitions and diffs the median
// aggregates against the committed BENCH_report.json through
// scripts/perf_compare.py.  The obs overhead gate lives in
// scripts/obs_gate.py (real RCT_OBS=ON vs OFF builds, see bench/obs_probe.cpp).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "analysis/tree_context.hpp"
#include "core/report.hpp"
#include "rctree/generators.hpp"

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

/// Interquartile range of the repetitions: the spread perf_compare.py
/// prints next to each median.
double iqr(const std::vector<double>& v) {
  std::vector<double> s(v);
  std::sort(s.begin(), s.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
  };
  return s.empty() ? 0.0 : quantile(0.75) - quantile(0.25);
}

// N = 2^10 .. 2^16.
constexpr std::int64_t kMin = 1 << 10, kMax = 1 << 16;

BENCHMARK_CAPTURE(BM_ReportFresh, line, true)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("iqr", iqr);
BENCHMARK_CAPTURE(BM_ReportFresh, random, false)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("iqr", iqr);
BENCHMARK_CAPTURE(BM_ReportShared, line, true)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("iqr", iqr);
BENCHMARK_CAPTURE(BM_ReportShared, random, false)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("iqr", iqr);
BENCHMARK_CAPTURE(BM_ContextBuild, line, true)->RangeMultiplier(4)->Range(kMin, kMax)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("iqr", iqr);
BENCHMARK(BM_ReportExact)->Arg(16)->Arg(96)->Arg(250)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("iqr", iqr);

}  // namespace
