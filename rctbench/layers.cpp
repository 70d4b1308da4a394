// Per-layer measurements of the traced run (see layers.hpp).

#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "analysis/tree_context.hpp"
#include "bench.hpp"
#include "core/report.hpp"
#include "engine/parallel_parse.hpp"
#include "rctree/generators.hpp"
#include "sim/exact.hpp"

namespace rctbench {

TraceSplit split_trace(const std::vector<rct::obs::TraceEvent>& events, const char* root) {
  TraceSplit out;
  out.events = events.size();
  std::map<std::uint32_t, std::vector<const rct::obs::TraceEvent*>> by_thread;
  for (const rct::obs::TraceEvent& e : events) by_thread[e.tid].push_back(&e);

  double root_child_s = 0.0;
  for (auto& [tid, list] : by_thread) {
    // Parents first: earlier start, or the same start and a longer span.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    struct Open {
      const rct::obs::TraceEvent* event;
      std::uint64_t child_ns;
    };
    std::vector<Open> stack;
    const auto close = [&](const Open& o) {
      const double dur = static_cast<double>(o.event->dur_ns) * 1e-9;
      const std::uint64_t covered = std::min(o.child_ns, o.event->dur_ns);
      const double self = static_cast<double>(o.event->dur_ns - covered) * 1e-9;
      SpanSelf& s = out.by_name[o.event->name];
      ++s.count;
      s.dur_s += dur;
      s.self_s += self;
      if (std::strcmp(o.event->name, root) == 0) {
        out.wall_s += dur;
        root_child_s += dur - self;
      } else {
        const char* cat = o.event->cat;
        out.module_self_s[std::strcmp(cat, "pool") == 0 ? "engine" : cat] += self;
      }
    };
    for (const rct::obs::TraceEvent* e : list) {
      const auto end_of = [](const Open& o) { return o.event->ts_ns + o.event->dur_ns; };
      while (!stack.empty() && end_of(stack.back()) <= e->ts_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Clip a child that overruns its parent (clock granularity).
        stack.back().child_ns += std::min(e->ts_ns + e->dur_ns, end_of(stack.back())) - e->ts_ns;
      }
      stack.push_back({e, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  out.unaccounted_frac = out.wall_s > 0.0 ? 1.0 - root_child_s / out.wall_s : 1.0;
  return out;
}

std::string split_json(const TraceSplit& split) {
  JsonObject modules;
  for (const auto& [module, self] : split.module_self_s) modules.num(module, self);
  JsonObject spans;
  for (const auto& [name, s] : split.by_name)
    spans.raw(name, JsonObject()
                        .num("count", static_cast<double>(s.count))
                        .num("dur_s", s.dur_s)
                        .num("self_s", s.self_s)
                        .done());
  return JsonObject()
      .num("wall_s", split.wall_s)
      .num("unaccounted_frac", split.unaccounted_frac)
      .num("events", static_cast<double>(split.events))
      .raw("module_self_s", modules.done())
      .raw("spans", spans.done())
      .done();
}

void check_accounting(const TraceSplit& split, std::string_view what) {
  if (split.wall_s <= 0.0)
    throw OracleError(std::string(what) + ": traced run recorded no spans");
  if (split.unaccounted_frac > kUnaccountedTolerance)
    throw OracleError(std::string(what) + ": per-module self times leave " +
                      std::to_string(split.unaccounted_frac * 100.0) +
                      "% of the wall time unaccounted (tolerance " +
                      std::to_string(kUnaccountedTolerance * 100.0) + "%)");
}

double SimLayer::share_of_analyze(const std::vector<const rct::RCTree*>& trees) const {
  double sim_ms = 0.0;
  double report = 0.0;
  for (const rct::RCTree* t : trees) {
    const std::size_t nodes = t->size();
    std::size_t c = 0;  // nearest size class
    const auto gap = [&](std::size_t k) {
      return kExactSizes[k] > nodes ? kExactSizes[k] - nodes : nodes - kExactSizes[k];
    };
    for (std::size_t k = 1; k < std::size(kExactSizes); ++k)
      if (gap(k) < gap(c)) c = k;
    sim_ms += eigensolve_ms[c] + crossing_us_per_row[c] * 1e-3 * static_cast<double>(nodes);
    report += report_ms[c];
  }
  return report > 0.0 ? sim_ms / report : 0.0;
}

SimLayer time_sim(const std::vector<const rct::RCTree*>& deck, std::uint64_t seed) {
  // Sample sizes keep the whole measurement near a second on any class mix.
  constexpr std::size_t kSample[] = {48, 12, 4};
  SimLayer out;
  double crossing_s_all = 0.0;
  std::size_t rows_all = 0;
  for (std::size_t c = 0; c < std::size(kExactSizes); ++c) {
    std::vector<const rct::RCTree*> sample;
    for (const rct::RCTree* t : deck)
      if (t->size() == kExactSizes[c] && sample.size() < kSample[c]) sample.push_back(t);
    std::vector<rct::RCTree> generated;
    generated.reserve(kSample[c]);
    while (sample.size() + generated.size() < kSample[c])
      generated.push_back(
          rct::gen::random_tree(kExactSizes[c], seed * 1000 + c * 100 + generated.size()));
    for (const rct::RCTree& t : generated) sample.push_back(&t);

    double eig_s = 0.0;
    double crossing_s = 0.0;
    double report_s = 0.0;
    std::size_t rows = 0;
    double sink = 0.0;
    for (const rct::RCTree* t : sample) {
      const Clock::time_point t0 = Clock::now();
      const rct::sim::ExactAnalysis exact(*t);
      eig_s += seconds_since(t0);
      const Clock::time_point t1 = Clock::now();
      for (rct::NodeId i = 0; i < t->size(); ++i)
        sink += exact.step_delay(i, 0.5) + exact.step_rise_time_10_90(i);
      crossing_s += seconds_since(t1);
      const Clock::time_point t2 = Clock::now();
      sink += static_cast<double>(rct::core::build_report(*t).size());
      report_s += seconds_since(t2);
      rows += t->size();
    }
    if (!(sink > 0.0)) throw OracleError("sim sample produced no positive delays");
    out.sampled[c] = sample.size();
    out.eigensolve_ms[c] = eig_s * 1e3 / static_cast<double>(sample.size());
    out.report_ms[c] = report_s * 1e3 / static_cast<double>(sample.size());
    out.crossing_us_per_row[c] = crossing_s * 1e6 / static_cast<double>(rows);
    crossing_s_all += crossing_s;
    rows_all += rows;
  }
  out.crossing_us_per_row_all = crossing_s_all * 1e6 / static_cast<double>(rows_all);
  return out;
}

namespace {

/// `analysis` layer: mean microseconds of TreeContext construction plus
/// impulse_stats() and prh_terms() per tree.
double time_context_build_us(const std::vector<const rct::RCTree*>& trees) {
  if (trees.empty()) return 0.0;
  double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (const rct::RCTree* t : trees) {
    const rct::analysis::TreeContext ctx(*t);
    sink += ctx.impulse_stats().front().mean;
    sink += ctx.prh_terms().tp;
  }
  const double us = seconds_since(t0) * 1e6 / static_cast<double>(trees.size());
  if (!(sink > 0.0)) throw OracleError("TreeContext sample produced no positive moments");
  return us;
}

}  // namespace

void measure_deck_layers(const std::string& path, std::size_t jobs, std::uint64_t seed,
                         bool exact, Layers& out) {
  std::vector<double> parse_s, index_s;
  rct::engine::ParsedSpef parsed;
  for (int rep = 0; rep < 3; ++rep) {
    rct::engine::ParseOptions po;
    po.jobs = jobs;
    parsed = rct::engine::parse_spef_parallel_file(path, po);
    parse_s.push_back(parsed.stats.total_seconds);
    index_s.push_back(parsed.stats.index_seconds);
  }
  out.parse_s = median(parse_s);
  out.parse_mb_per_s = static_cast<double>(parsed.stats.bytes) / out.parse_s / 1e6;
  out.index_s = median(index_s);

  std::vector<const rct::RCTree*> trees;
  for (const rct::SpefNet& n : parsed.file.nets) trees.push_back(&n.tree);
  std::vector<const rct::RCTree*> context_sample;
  const std::size_t stride = std::max<std::size_t>(1, trees.size() / 5000);
  for (std::size_t i = 0; i < trees.size(); i += stride) context_sample.push_back(trees[i]);
  out.context_build_us = time_context_build_us(context_sample);
  out.sim = time_sim(trees, seed);
  out.sim_share = exact ? out.sim.share_of_analyze(trees) : 0.0;
}

double mean_self_ms(const TraceSplit& split, const char* name) {
  const auto it = split.by_name.find(name);
  if (it == split.by_name.end() || it->second.count == 0) return 0.0;
  return it->second.self_s * 1e3 / static_cast<double>(it->second.count);
}

std::vector<Metric> layer_metrics(const Layers& l) {
  return {
      {"rctree.parse_s", l.parse_s, "s"},
      {"rctree.parse_mb_per_s", l.parse_mb_per_s, "MB/s"},
      {"rctree.index_s", l.index_s, "s"},
      {"analysis.context_build_us", l.context_build_us, "us"},
      {"sim.eigensolve_ms.n16", l.sim.eigensolve_ms[0], "ms"},
      {"sim.eigensolve_ms.n96", l.sim.eigensolve_ms[1], "ms"},
      {"sim.eigensolve_ms.n250", l.sim.eigensolve_ms[2], "ms"},
      {"sim.crossing_us_per_row", l.sim.crossing_us_per_row_all, "us"},
      {"sim.share_of_analyze", l.sim_share, "ratio"},
      {"core.report_self_ms", l.report_self_ms, "ms"},
      {"core.exact_path", l.exact_path, "count"},
      {"core.moments_only", l.moments_only, "count"},
      {"core.degraded_rows", l.degraded_rows, "count"},
      {"engine.pool_util", l.pool_util, "ratio"},
      {"engine.queue_wait_p50_us", l.queue_wait_p50_us, "us"},
      {"engine.cache_hit_ratio", l.cache_hit_ratio, "ratio"},
      {"engine.render_s", l.render_s, "s"},
      {"engine.render_mb_per_s", l.render_mb_per_s, "MB/s"},
      {"server.handle_us_p50", l.handle_us_p50, "us"},
      {"server.handle_us_p99", l.handle_us_p99, "us"},
      {"server.io_us_p50", l.io_us_p50, "us"},
      {"server.response_kb", l.response_kb, "KB"},
      {"server.queue_depth_max", l.queue_depth_max, "count"},
      {"server.requests_shed", l.requests_shed, "count"},
      {"server.store_writes", l.store_writes, "count"},
      {"serve.gen_late_ms", l.gen_late_ms, "ms"},
      {"obs.trace_overhead_frac", l.trace_overhead_frac, "ratio"},
      {"obs.unaccounted_frac", l.unaccounted_frac, "ratio"},
  };
}

}  // namespace rctbench
