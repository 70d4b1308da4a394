// Quickstart: parse an RC-tree netlist, compute the Elmore delay and the
// paper's bounds at every node, and cross-check against the exact simulator.
//
//   $ ./quickstart            # uses a built-in demo deck
//   $ ./quickstart net.sp     # or your own deck (see README for the format)

#include <cstdio>
#include <string>

#include "core/report.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/units.hpp"

namespace {

constexpr const char* kDemoDeck = R"(* demo: a small gate + interconnect model
.title quickstart net
.input drv
Rdrv drv  n1 180
C1   n1   0  40f
Rw1  n1   n2 95
C2   n2   0  85f
Rw2  n2   n3 95
C3   n3   0  85f
Rbr  n1   n4 140
C4   n4   0  60f
Rw3  n3   sink1 60
Cs1  sink1 0 22f
Rw4  n4   sink2 60
Cs2  sink2 0 18f
.probe sink1
.probe sink2
.end
)";

}  // namespace

int main(int argc, char** argv) {
  rct::ParsedNetlist parsed;
  try {
    parsed = (argc > 1) ? rct::parse_netlist_file(argv[1]) : rct::parse_netlist(kDemoDeck);
  } catch (const rct::NetlistError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const std::string& w : parsed.warnings) std::printf("warning: %s\n", w.c_str());
  std::printf("netlist '%s': %zu nodes, total C = %s\n\n", parsed.title.c_str(),
              parsed.tree.size(),
              rct::format_engineering(parsed.tree.total_capacitance(), "F").c_str());

  // One call computes every Table-I-style metric, including the exact 50%
  // delay from the eigendecomposition-based simulator.
  const auto rows = rct::core::build_report(parsed.tree);
  std::printf("%s\n", rct::core::format_report(parsed.tree, rows).c_str());

  std::printf("reading the table: the paper proves  exact <= elmore  (Theorem) and\n");
  std::printf("exact >= lower = max(elmore - sigma, 0) (Corollary 1); PRH brackets it.\n");
  if (!parsed.probes.empty()) {
    std::printf("\nprobed sinks:\n");
    for (rct::NodeId p : parsed.probes) {
      std::printf("  %-8s elmore %s, exact %s\n", parsed.tree.name(p).c_str(),
                  rct::format_time(rows[p].elmore).c_str(),
                  rct::format_time(*rows[p].exact_delay).c_str());
    }
  }
  return 0;
}
