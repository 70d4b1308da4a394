// Fig. 13 reproduction: impulse responses at nodes A (driving point),
// B (middle), C (leaf) of the 25-node tree — showing the response becoming
// less skewed (more symmetric) away from the driving point.

#include <cstdio>

#include "analysis/tree_context.hpp"
#include "bench_common.hpp"
#include "rctree/circuits.hpp"
#include "sim/exact.hpp"

using namespace rct;

int main() {
  bench::header("Fig. 13: impulse responses at A (driver), B (middle), C (leaf)",
                "Gupta/Tutuianu/Pileggi DAC'95, Figure 13");

  const RCTree tree = circuits::tree25();
  const sim::ExactAnalysis exact(tree);
  const auto observed = circuits::tree25_observed(tree);
  const analysis::TreeContext ctx(tree);
  const auto stats = ctx.impulse_stats();

  std::printf("%12s %14s %14s %14s   (h in 1/ns)\n", "t(ns)", "A", "B", "C");
  bench::rule();
  for (double t : sim::uniform_grid(6e-9, 61)) {
    std::printf("%12.2f", bench::ns(t));
    for (NodeId n : observed) std::printf(" %14.6f", exact.impulse_response(n, t) * 1e-9);
    std::printf("\n");
  }
  bench::rule();
  std::printf("# skew statistics behind the figure (gamma must fall A -> B -> C):\n");
  for (NodeId n : observed)
    std::printf("# node %-2s depth %2zu  sigma %.3fns  skewness %8.3f\n", tree.name(n).c_str(),
                ctx.depths()[n], bench::ns(stats[n].sigma), stats[n].skewness);

  const bool ok = stats[observed[0]].skewness > stats[observed[1]].skewness &&
                  stats[observed[1]].skewness > stats[observed[2]].skewness;
  std::printf("# skewness-decreases-downstream: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
