// SPEF flow: the "drop-in timer backend" use case.  Read extracted
// parasitics (SPEF-lite), report guaranteed delay bounds per net, and
// write the parasitics back out.
//
//   $ ./spef_flow              # uses a built-in two-net SPEF
//   $ ./spef_flow chip.spef

#include <cstdio>
#include <string>

#include "core/bounds.hpp"
#include "rctree/spef.hpp"
#include "rctree/units.hpp"
#include "sim/exact.hpp"

using namespace rct;

namespace {

constexpr const char* kDemoSpef = R"(*SPEF "IEEE 1481-1998"
*DESIGN "spef_flow_demo"
*T_UNIT 1 NS
*C_UNIT 1 PF
*R_UNIT 1 OHM

*D_NET clk_branch 0.355
*CONN
*P clkdrv I
*I reg1:CK O
*I reg2:CK O
*CAP
1 t1 0.075
2 t2 0.060
3 reg1:CK 0.110
4 reg2:CK 0.110
*RES
1 clkdrv t1 140
2 t1 t2 95
3 t1 reg1:CK 180
4 t2 reg2:CK 120
*END

*D_NET data_short 0.09
*CONN
*P u7:Z I
*I u9:A O
*CAP
1 m1 0.040
2 u9:A 0.050
*RES
1 u7:Z m1 75
2 m1 u9:A 60
*END
)";

}  // namespace

int main(int argc, char** argv) {
  SpefFile file;
  try {
    file = (argc > 1) ? parse_spef_file(argv[1]) : parse_spef(kDemoSpef);
  } catch (const SpefError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("design '%s': %zu nets\n\n", file.design.c_str(), file.nets.size());
  for (const SpefNet& net : file.nets) {
    const RCTree& t = net.tree;
    const sim::ExactAnalysis exact(t);
    const auto bounds = core::delay_bounds(t);

    std::printf("net %-12s  %zu nodes, Ctot %s\n", net.name.c_str(), t.size(),
                format_engineering(t.total_capacitance(), "F").c_str());
    for (NodeId load : net.loads) {
      const double exact_d = exact.step_delay(load);
      std::printf("  sink %-10s exact %-9s in guaranteed [%s, %s]\n",
                  t.name(load).c_str(), format_time(exact_d).c_str(),
                  format_time(bounds[load].lower).c_str(),
                  format_time(bounds[load].upper).c_str());
      if (exact_d > bounds[load].upper || exact_d < bounds[load].lower) {
        std::fprintf(stderr, "BOUND VIOLATION (bug) at %s\n", t.name(load).c_str());
        return 1;
      }
    }
  }

  std::printf("\nround-trip: re-emitting SPEF-lite (%zu bytes)\n",
              write_spef(file).size());
  return 0;
}
