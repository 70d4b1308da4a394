// Fig. 14 reproduction: relative Elmore error (T_D - delay)/delay as a
// function of node position along the signal path, for several input rise
// times — the error falls both with distance from the driving point and
// with rise time.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/tree_context.hpp"
#include "bench_common.hpp"
#include "core/elmore.hpp"
#include "core/generalized_input.hpp"
#include "rctree/circuits.hpp"
#include "sim/exact.hpp"

using namespace rct;

int main() {
  bench::header("Fig. 14: relative Elmore error vs. node position and input rise time",
                "Gupta/Tutuianu/Pileggi DAC'95, Figure 14");

  const RCTree tree = circuits::tree25();
  const sim::ExactAnalysis exact(tree);
  const analysis::TreeContext ctx(tree);
  // Walk the main path: A, m1..m7, B, m9..m15, C.
  std::vector<NodeId> path;
  NodeId cursor = tree.at("C");
  while (cursor != kSource) {
    path.push_back(cursor);
    cursor = tree.parent(cursor);
  }
  std::reverse(path.begin(), path.end());

  const double rise_times[] = {1e-9, 2e-9, 5e-9, 10e-9};
  std::printf("%6s %-5s", "depth", "node");
  for (double tr : rise_times) std::printf(" %9.0fns", bench::ns(tr));
  std::printf("   (%% error)\n");
  bench::rule();

  std::vector<std::vector<double>> errs(path.size());
  for (std::size_t k = 0; k < path.size(); ++k) {
    const NodeId n = path[k];
    std::printf("%6zu %-5s", ctx.depths()[n], tree.name(n).c_str());
    for (double tr : rise_times) {
      const sim::SaturatedRampSource ramp(tr);
      const double err = core::relative_elmore_error(tree, exact, n, ramp);
      errs[k].push_back(err);
      std::printf(" %11.2f", 100.0 * err);
    }
    std::printf("\n");
  }
  bench::rule();

  // Shape: for each rise time, error at the driving point exceeds error at
  // the leaf; and for each node, error falls with rise time.
  bool ok = true;
  for (std::size_t r = 0; r < 4; ++r) ok = ok && errs.front()[r] > errs.back()[r];
  for (const auto& e : errs)
    for (std::size_t r = 1; r < e.size(); ++r) ok = ok && e[r] < e[r - 1];
  std::printf("# error-decreases-with-depth-and-rise-time: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
