// Perf P2: simulation engines — O(N) tree-LDL transient step vs the O(N^2)
// exact pole/residue setup, and the per-query cost of the closed forms.

#include <benchmark/benchmark.h>

#include "rctree/generators.hpp"
#include "sim/exact.hpp"
#include "sim/transient.hpp"
#include "sim/tree_solver.hpp"

using namespace rct;

namespace {

void BM_TreeSolverFactor(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    sim::TreeSystem sys(t, 1e9);
    benchmark::DoNotOptimize(sys);
  }
  state.SetComplexityN(state.range(0));
}

void BM_TreeSolverSolve(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::TreeSystem sys(t, 1e9);
  std::vector<double> rhs(t.size(), 1.0);
  for (auto _ : state) {
    auto x = rhs;
    sys.solve_in_place(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetComplexityN(state.range(0));
}

void BM_TransientStep1000(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::StepSource step;
  sim::TransientOptions opt;
  opt.t_end = 1e-8;
  opt.steps = 1000;
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate(t, step, {t.size() - 1}, opt));
  state.SetComplexityN(state.range(0));
}

void BM_ExactSetup(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    sim::ExactAnalysis e(t);
    benchmark::DoNotOptimize(e);
  }
  state.SetComplexityN(state.range(0));
}

void BM_ExactDelayQuery(benchmark::State& state) {
  const RCTree t = gen::random_tree(static_cast<std::size_t>(state.range(0)), 7);
  const sim::ExactAnalysis e(t);
  for (auto _ : state) benchmark::DoNotOptimize(e.step_delay(t.size() - 1));
}

}  // namespace

BENCHMARK(BM_TreeSolverFactor)->RangeMultiplier(8)->Range(1 << 10, 1 << 19)->Complexity(benchmark::oN);
BENCHMARK(BM_TreeSolverSolve)->RangeMultiplier(8)->Range(1 << 10, 1 << 19)->Complexity(benchmark::oN);
BENCHMARK(BM_TransientStep1000)->RangeMultiplier(4)->Range(1 << 8, 1 << 14);
BENCHMARK(BM_ExactSetup)->RangeMultiplier(2)->Range(32, 512)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_ExactDelayQuery)->RangeMultiplier(2)->Range(32, 512);
