// obs_probe — a shared module that times the library's own build_report, so
// the obs overhead gate (scripts/obs_gate.py) can compare an RCT_OBS=ON
// build against an RCT_OBS=OFF build of the SAME code in one process.
//
// Two child processes cannot resolve a 2% difference on a shared box (an
// A/A run swings by double-digit percents); two modules loaded side by side
// and called in alternation see the same machine state.  Each module carries
// a private copy of the library: it is linked with hidden visibility,
// -Bsymbolic and --exclude-libs, and the gate loads it RTLD_LOCAL, so the
// ON and OFF copies (metrics registry and tracer included) never alias.
//
// The workload is the gate's 2^14-node line with the exact solve off: the
// moment-bound rows the paper is about, where a per-row hook shows most.
//
// Exported C ABI:
//   int    rct_obs_probe_timing_enabled()  1 in an RCT_OBS=ON build, else 0
//   int    rct_obs_probe_setup()           builds the line + context and
//                                          warms its lazy members; 0 on success
//   double rct_obs_probe_time(int calls)   seconds for `calls` back-to-back
//                                          build_report calls, < 0 on error

#include <chrono>
#include <memory>

#include "analysis/tree_context.hpp"
#include "core/report.hpp"
#include "obs/trace.hpp"
#include "rctree/generators.hpp"

#define RCT_PROBE_EXPORT extern "C" __attribute__((visibility("default")))

namespace {

struct Probe {
  rct::RCTree tree = rct::gen::line(1 << 14, 100.0, 0.1e-12, 50.0, 0.05e-12);
  rct::analysis::TreeContext context{tree};
  rct::core::ReportOptions options{.with_exact = false};
};

std::unique_ptr<Probe> g_probe;

}  // namespace

RCT_PROBE_EXPORT int rct_obs_probe_timing_enabled() { return rct::obs::kTimingEnabled ? 1 : 0; }

RCT_PROBE_EXPORT int rct_obs_probe_setup() {
  try {
    g_probe = std::make_unique<Probe>();
    // Fill the context's lazy arrays so timed calls measure only the report.
    (void)rct::core::build_report(g_probe->context, g_probe->options);
    return 0;
  } catch (...) {
    return 1;
  }
}

RCT_PROBE_EXPORT double rct_obs_probe_time(int calls) {
  if (!g_probe) return -1.0;
  try {
    std::size_t rows = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i)
      rows += rct::core::build_report(g_probe->context, g_probe->options).size();
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return rows == static_cast<std::size_t>(calls) * g_probe->tree.size() ? s : -1.0;
  } catch (...) {
    return -1.0;
  }
}
