#pragma once
// Per-layer measurements of the traced run: span accounting over
// obs::tracer() events, and direct timings of single layers through their
// public calls (SPEF parse, TreeContext, sim eigensolve and crossings).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "rctree/rctree.hpp"

namespace rctbench {

/// Self-time totals of one span name.
struct SpanSelf {
  std::size_t count = 0;
  double dur_s = 0.0;   ///< summed durations
  double self_s = 0.0;  ///< summed durations minus same-thread child coverage
};

/// Accounting of the traced region: every root span named `root` (on the
/// benchmark's thread) is one measured operation.
struct TraceSplit {
  double wall_s = 0.0;            ///< summed root durations
  double unaccounted_frac = 0.0;  ///< root time not covered by a child span
  /// Self seconds per module across all threads (the span category; the
  /// engine's pool counts as engine).
  std::map<std::string, double> module_self_s;
  std::map<std::string, SpanSelf> by_name;
  std::size_t events = 0;
};

/// Spans nest per thread: a span's children are the spans of the same
/// thread inside its interval, and its self time is its duration minus the
/// part of it they cover.
[[nodiscard]] TraceSplit split_trace(const std::vector<rct::obs::TraceEvent>& events,
                                     const char* root);

/// The split as a JSON object for the detail line.
[[nodiscard]] std::string split_json(const TraceSplit& split);

/// Largest main-thread gap the traced run tolerates, as a share of wall time.
inline constexpr double kUnaccountedTolerance = 0.05;

/// Throws OracleError when the split leaves more than the tolerance
/// unaccounted, or recorded no root span at all.
void check_accounting(const TraceSplit& split, std::string_view what);

/// `sim` layer on a seeded sample: rct::sim::ExactAnalysis construction per
/// size class and the per-row crossing search (step_delay(.,0.5) +
/// step_rise_time_10_90), timed back to back with the whole exact-path
/// core::build_report on the same trees.  Trees of a class are taken from
/// `deck` in deck order; a class the deck lacks is filled with seeded
/// random trees.
struct SimLayer {
  double eigensolve_ms[3] = {0, 0, 0};   ///< per kExactSizes class, mean per net
  double crossing_us_per_row[3] = {0, 0, 0};
  double crossing_us_per_row_all = 0.0;  ///< over every sampled row
  double report_ms[3] = {0, 0, 0};       ///< core::build_report, mean per net
  std::size_t sampled[3] = {0, 0, 0};
  /// Share of exact-path analysis time the sim layer takes on `trees`: each
  /// tree costs its nearest class's eigensolve plus one crossing search per
  /// node, against that class's build_report.
  [[nodiscard]] double share_of_analyze(const std::vector<const rct::RCTree*>& trees) const;
};
[[nodiscard]] SimLayer time_sim(const std::vector<const rct::RCTree*>& deck, std::uint64_t seed);

/// Every per-layer metric of the traced run.  A layer the workload does not
/// exercise stays 0 (the server layers on the batch workloads, say).
struct Layers {
  double parse_s = 0, parse_mb_per_s = 0, index_s = 0;
  double context_build_us = 0;
  SimLayer sim;
  double sim_share = 0;
  double report_self_ms = 0;
  double exact_path = 0, moments_only = 0, degraded_rows = 0;
  double pool_util = 0, queue_wait_p50_us = 0, cache_hit_ratio = 0;
  double render_s = 0, render_mb_per_s = 0;
  double handle_us_p50 = 0, handle_us_p99 = 0, io_us_p50 = 0, response_kb = 0;
  double queue_depth_max = 0, requests_shed = 0, store_writes = 0, gen_late_ms = 0;
  double trace_overhead_frac = 0, unaccounted_frac = 0;
};

/// The metrics in BENCHMARK.json's per_layer order.
[[nodiscard]] std::vector<Metric> layer_metrics(const Layers& layers);

/// The rctree, analysis and sim layers, timed through their public calls on
/// the deck at `path`: engine::parse_spef_parallel_file (median of 3),
/// TreeContext on up to 5000 of its nets, and time_sim.  `exact` says
/// whether the workload's nets take the exact path (sim_share stays 0 if
/// not).
void measure_deck_layers(const std::string& path, std::size_t jobs, std::uint64_t seed,
                         bool exact, Layers& out);

/// Mean self time of the spans named `name`, milliseconds (0 when none).
[[nodiscard]] double mean_self_ms(const TraceSplit& split, const char* name);

}  // namespace rctbench
