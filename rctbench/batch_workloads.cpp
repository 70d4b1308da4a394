// The two batch workloads: the way `rct batch --json` drives the library —
// engine::analyze_spef_file (fused parse + analyze) then
// engine::format_batch_json — repeated over one deck.
//
//   batch_exact            100 distinct nets, 16/96/250 nodes, exact path
//                          on at the default exact_node_limit, 2 workers
//   batch_moments_stamped  10k 24-node nets, half stamped copies, exact
//                          disabled by exact_node_limit < 24, 3 workers
//
// Untraced (end-to-end): kSetupReps cold set-up passes, each in a forked
// child, then timed passes until the window closes; throughput_per_s is the
// fastest pass.  Decks are kept small so a pass lasts a fraction of a
// second: other tenants of a shared host slow the CPU in bursts, and only a
// short pass regularly falls between them.  Traced: the per-layer metrics
// (see README.md).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/batch.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rctbench {
namespace {

/// Cold passes behind setup_s (the median is reported).
constexpr int kSetupReps = 5;

struct Config {
  bool exact = false;
  rct::engine::BatchOptions batch;
};

Config config_for(const std::string& workload) {
  Config c;
  c.exact = workload == "batch_exact";
  c.batch.jobs = c.exact ? 2 : 3;
  c.batch.use_cache = true;
  // The paper's bounds-only path: an exact limit below every net's size.
  if (!c.exact) c.batch.report.exact_node_limit = kStampedNodes - 1;
  return c;
}

/// One parse -> analyze -> render pass.
struct Pass {
  rct::engine::FileBatchResult result;
  std::string json;
  double wall_s = 0.0;
  double analyze_s = 0.0;  ///< analyze_spef_file alone
  double render_s = 0.0;   ///< format_batch_json alone
};

Pass run_pass(const std::string& path, const Config& config) {
  Pass p;
  const Clock::time_point t0 = Clock::now();
  {
    const rct::obs::Span root("bench.batch.pass", "bench");
    {
      const rct::obs::Span call("bench.engine.analyze_spef_file", "engine");
      p.result = rct::engine::analyze_spef_file(path, config.batch);
    }
    p.analyze_s = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    {
      const rct::obs::Span call("bench.engine.format_batch_json", "engine");
      p.json = rct::engine::format_batch_json(p.result.batch);
    }
    p.render_s = seconds_since(t1);
  }
  p.wall_s = seconds_since(t0);
  return p;
}

/// Wall time of one cold pass, made in a forked child: a process has only
/// one cold pass (allocator, pool and code first touch), so each set-up
/// sample needs a fresh one.  Call before this process starts any thread.
double cold_pass_s(const std::string& path, const Config& config) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    double s = -1.0;
    try {
      s = run_pass(path, config).wall_s;
    } catch (...) {
    }
    const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent && s >= 0.0 ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up pass failed in its child process");
  return s;
}

/// Row-level oracle over every node of every net (not only the rendered
/// loads): zero failed nets, and the paper's sandwich on each exact row.
struct RowCounts {
  std::size_t rows = 0;
  std::size_t exact_rows = 0;
  std::size_t degraded_rows = 0;
};

RowCounts check_rows(const rct::engine::BatchResult& batch, bool expect_exact) {
  RowCounts c;
  for (const rct::engine::NetResult& net : batch.nets) {
    if (!net.ok()) throw OracleError("net '" + net.name + "' failed: " + net.error);
    for (const rct::core::NodeReport& row : net.rows) {
      ++c.rows;
      if (row.degraded) ++c.degraded_rows;
      if (row.exact_delay) {
        check_sandwich(row.lower_bound, *row.exact_delay, row.elmore, net.name);
        ++c.exact_rows;
      }
    }
  }
  if (expect_exact != (c.exact_rows > 0))
    throw OracleError(expect_exact ? "exact path produced no exact rows"
                                   : "bounds-only workload produced exact rows");
  return c;
}

/// Identity of the checked first pass's JSON: every later pass must render
/// the same bytes.
struct Rendered {
  std::size_t bytes = 0;
  std::size_t hash = 0;
  explicit Rendered(const std::string& json)
      : bytes(json.size()), hash(std::hash<std::string>{}(json)) {}
};

void check_same_output(const Pass& pass, const Rendered& reference) {
  if (pass.result.batch.stats.failures != 0)
    throw OracleError(std::to_string(pass.result.batch.stats.failures) + " net(s) failed");
  if (Rendered(pass.json).hash != reference.hash || pass.json.size() != reference.bytes)
    throw OracleError("format_batch_json output differs between passes of one deck");
}

Result traced(const RunOptions& opt, const Config& config, const Rendered& reference,
              std::size_t nets) {
  const std::string path = deck_path(opt.deck_dir);
  const Clock::time_point start = Clock::now();
  Layers l;
  measure_deck_layers(path, config.batch.jobs, opt.seed, config.exact, l);

  // Untraced / traced passes, alternating, over a fresh registry.
  rct::obs::registry().reset();
  rct::obs::tracer().clear();
  std::vector<double> plain_wall, traced_wall, render_s;
  double render_bytes = 0.0;
  std::size_t hits = 0;
  while (traced_wall.size() < 2 ||
         (traced_wall.size() < 5 && seconds_since(start) < opt.seconds)) {
    const Pass plain = run_pass(path, config);
    check_same_output(plain, reference);
    plain_wall.push_back(plain.wall_s);
    render_s.push_back(plain.render_s);
    render_bytes = static_cast<double>(plain.json.size());
    hits = plain.result.batch.stats.cache_hits;
    rct::obs::tracer().set_enabled(true);
    const Pass with_trace = run_pass(path, config);
    rct::obs::tracer().set_enabled(false);
    check_same_output(with_trace, reference);
    traced_wall.push_back(with_trace.wall_s);
  }
  const double passes = static_cast<double>(plain_wall.size() + traced_wall.size());
  const TraceSplit split = split_trace(rct::obs::tracer().events(), "bench.batch.pass");
  rct::obs::tracer().clear();
  check_accounting(split, opt.workload);

  const rct::obs::MetricsRegistry& reg = rct::obs::registry();
  const auto per_pass = [&](const char* counter) {
    return static_cast<double>(reg.counter_value(counter)) / passes;
  };
  const auto span_dur = [&](const char* name) {
    const auto it = split.by_name.find(name);
    return it != split.by_name.end() ? it->second.dur_s : 0.0;
  };
  const double analyze_wall = span_dur("engine.batch.analyze");
  const double workers = static_cast<double>(config.batch.jobs);
  const rct::obs::Histogram* queue_wait = reg.find_histogram("engine.task.queue_wait_seconds");

  l.report_self_ms = mean_self_ms(split, "core.report.build");
  l.exact_path = per_pass("core.report.exact_path");
  l.moments_only = per_pass("core.report.moments_only");
  l.degraded_rows = per_pass("core.report.degraded_rows");
  l.pool_util =
      analyze_wall > 0.0 ? span_dur("engine.net.analyze") / (workers * analyze_wall) : 0.0;
  l.queue_wait_p50_us = queue_wait != nullptr ? queue_wait->quantile(0.5) * 1e6 : 0.0;
  l.cache_hit_ratio = static_cast<double>(hits) / static_cast<double>(nets);
  l.render_s = median(render_s);
  l.render_mb_per_s = render_bytes / l.render_s / 1e6;
  l.trace_overhead_frac = median(traced_wall) / median(plain_wall) - 1.0;
  l.unaccounted_frac = split.unaccounted_frac;

  Result r;
  r.attempted = static_cast<std::uint64_t>(passes) * nets;
  r.metrics = layer_metrics(l);
  r.detail_json = JsonObject()
                      .num("passes", passes)
                      .num("sim_report_ms_n16", l.sim.report_ms[0])
                      .num("sim_report_ms_n96", l.sim.report_ms[1])
                      .num("sim_report_ms_n250", l.sim.report_ms[2])
                      .num("sim_sampled_n16", static_cast<double>(l.sim.sampled[0]))
                      .num("sim_sampled_n96", static_cast<double>(l.sim.sampled[1]))
                      .num("sim_sampled_n250", static_cast<double>(l.sim.sampled[2]))
                      .raw("trace", split_json(split))
                      .done();
  return r;
}

}  // namespace

Result run_batch(const RunOptions& opt) {
  const Config config = config_for(opt.workload);
  const std::string path = deck_path(opt.deck_dir);

  // Set-up: the cold first pass, untimed in the throughput.  setup_s is the
  // median of kSetupReps of them; this process's own first pass (not
  // timed) supplies the output every later pass is checked against.
  std::vector<double> setups;
  for (int rep = 0; !opt.trace && rep < kSetupReps; ++rep)
    setups.push_back(cold_pass_s(path, config));
  const double setup_s = median(setups);
  std::size_t nets = 0;
  std::size_t cache_hits = 0;
  RowCounts rows;
  std::size_t json_exact_rows = 0;
  const Rendered reference = [&] {
    const Pass first = run_pass(path, config);
    rows = check_rows(first.result.batch, config.exact);
    json_exact_rows = check_json(first.json, "format_batch_json");
    if (config.exact && json_exact_rows == 0) throw OracleError("no exact rows in the JSON");
    nets = first.result.batch.nets.size();
    cache_hits = first.result.batch.stats.cache_hits;
    return Rendered(first.json);
  }();

  if (opt.trace) return traced(opt, config, reference, nets);

  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  while (walls.size() < 3 || seconds_since(start) < opt.seconds) {
    const Pass p = run_pass(path, config);
    check_same_output(p, reference);
    walls.push_back(p.wall_s);
  }
  // Other tenants of a shared host only ever slow a pass down, so the
  // fastest pass is the steadiest reading of the program's own speed.
  const double fastest = *std::min_element(walls.begin(), walls.end());

  Result r;
  r.attempted = walls.size() * nets;
  r.failed = 0;  // check_same_output refuses any pass with a failed net
  r.metrics = {
      {"throughput_per_s", static_cast<double>(nets) / fastest, "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.detail_json =
      JsonObject()
          .num("nets", static_cast<double>(nets))
          .num("passes", static_cast<double>(walls.size()))
          .num("median_pass_nets_per_s", static_cast<double>(nets) / median(walls))
          .num("turnaround_ms", median(walls) * 1e3)
          .raw("pass_s", [&] {
            std::string list = "[";
            for (const double w : walls) list += (list.size() > 1 ? "," : "") + std::to_string(w);
            return list + "]";
          }())
          .num("pass_s_q1", quantile(walls, 0.25))
          .num("pass_s_q3", quantile(walls, 0.75))
          .num("failed_frac", 0.0)
          .num("degraded_row_frac",
               static_cast<double>(rows.degraded_rows) / static_cast<double>(rows.rows))
          .num("rows", static_cast<double>(rows.rows))
          .num("exact_rows_checked", static_cast<double>(rows.exact_rows))
          .num("json_exact_rows_checked", static_cast<double>(json_exact_rows))
          .num("json_mb", static_cast<double>(reference.bytes) / 1e6)
          .num("cache_hits", static_cast<double>(cache_hits))
          .done();
  return r;
}

}  // namespace rctbench
