#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "analysis/tree_context.hpp"
#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/mapped_file.hpp"
#include "rctree/units.hpp"
#include "robust/deadline.hpp"
#include "robust/fault.hpp"

namespace rct::engine {
namespace {

/// Wall + process-CPU stopwatch for one phase.
class PhaseTimer {
 public:
  PhaseTimer()
      : wall_start_(std::chrono::steady_clock::now()), cpu_start_(std::clock()) {}

  [[nodiscard]] PhaseTime elapsed() const {
    PhaseTime t;
    t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
                   .count();
    t.cpu_s = static_cast<double>(std::clock() - cpu_start_) / CLOCKS_PER_SEC;
    return t;
  }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  std::clock_t cpu_start_;
};

/// Cached references into the global obs registry.  These counters ARE the
/// engine's bookkeeping: EngineStats is computed as per-run deltas over
/// them (see run_batch), so the stderr summary, the `--metrics-out`
/// snapshot and the `--progress` meter all read one source of truth.
struct EngineCounters {
  obs::Counter& nets_total = obs::registry().counter("engine.nets.total");
  obs::Counter& nets_completed = obs::registry().counter("engine.nets.completed");
  obs::Counter& nets_failed = obs::registry().counter("engine.nets.failed");
  obs::Counter& nets_degraded = obs::registry().counter("engine.nets.degraded");
  obs::Counter& nets_retried = obs::registry().counter("engine.nets.retried");
  obs::Counter& nets_timed_out = obs::registry().counter("engine.nets.timed_out");
  obs::Counter& nets_cancelled = obs::registry().counter("engine.nets.cancelled");
  obs::Counter& tasks_run = obs::registry().counter("engine.tasks.run");
  /// Incremented by NetCache itself (engine.cache.hits); read for deltas.
  obs::Counter& cache_hits = obs::registry().counter("engine.cache.hits");

  static EngineCounters& get() {
    static EngineCounters instance;
    return instance;
  }
};

obs::Histogram& net_analyze_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.net.analyze_seconds");
  return h;
}
obs::Histogram& queue_wait_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.task.queue_wait_seconds");
  return h;
}
obs::Histogram& analyze_phase_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.batch.analyze_seconds");
  return h;
}
obs::Histogram& merge_phase_histogram() {
  static obs::Histogram& h = obs::registry().histogram("engine.batch.merge_seconds");
  return h;
}

/// One analysis attempt; never throws (failures land in result.error with
/// a typed code).  `report` is the per-attempt option set — the deadline
/// pointer and the retry's with_exact flip live there, not in
/// options.report.
NetResult analyze_one_impl(const SpefNet& net, const core::ReportOptions& report,
                           NetCache* cache) {
  const obs::Span span("engine.net.analyze", "engine", net.name, &net_analyze_histogram());
  EngineCounters& ec = EngineCounters::get();
  NetResult r;
  r.name = net.name;
  r.driver = net.driver;
  r.loads = net.loads;
  r.nodes = net.tree.size();
  try {
    robust::fault::maybe_sleep("engine.net.analyze");
    robust::fault::maybe_throw("engine.net.analyze", robust::Code::kTaskFailure);
    if (net.tree.empty())
      throw robust::Error(robust::Code::kEmptyTree,
                          "net '" + net.name + "' has an empty RC tree");
    r.total_capacitance = net.tree.total_capacitance();
    std::optional<NetKey> key;
    if (cache != nullptr) {
      key = NetKey::of(net.tree, report);
      if (auto hit = cache->lookup(*key, net.tree)) {
        r.rows = std::move(*hit);
        r.from_cache = true;
        return r;
      }
    }
    // A miss builds a transient context: within one batch every net shares
    // one ReportOptions, so a row miss means no twin has built one either.
    ec.tasks_run.add();
    const analysis::TreeContext ctx(net.tree);
    r.rows = core::build_report(ctx, report);
    if (key.has_value()) cache->insert(*key, r.rows);
  } catch (const robust::Error& e) {
    r.rows.clear();
    r.error = e.what();
    r.code = e.code();
  } catch (const std::exception& e) {
    // Untyped escapee (lower-layer solver, allocator, ...): record it as a
    // task failure so it still gets a structured code and a retry shot.
    r.rows.clear();
    r.error = e.what();
    r.code = robust::Code::kTaskFailure;
  }
  return r;
}

/// analyze_one_impl plus the per-attempt observability shell: a flight
/// recorder event covering the attempt (named by `phase`) and plain-chrono
/// wall timing into NetResult::analyze_seconds.  The chrono clock is
/// deliberately independent of RCT_OBS so `--top-slow` works in every
/// build.
NetResult analyze_one(const SpefNet& net, const core::ReportOptions& report, NetCache* cache,
                      const char* phase) {
  obs::flight::Recorder& fr = obs::flight::recorder();
  obs::flight::Recorder::Handle flight = fr.begin(net.name, phase);
  const auto wall_start = std::chrono::steady_clock::now();
  NetResult r = analyze_one_impl(net, report, cache);
  r.analyze_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  obs::flight::Outcome outcome = obs::flight::Outcome::kOk;
  if (!r.ok()) {
    outcome = r.code == robust::Code::kTimeout ? obs::flight::Outcome::kTimeout
                                               : obs::flight::Outcome::kFailed;
  }
  fr.end(flight, outcome, r.code);
  return r;
}

/// Full per-net policy: first attempt under the configured options, then —
/// when the exact path failed for a non-structural reason — one automatic
/// retry on the moments path with a fresh deadline.
NetResult run_net(const SpefNet& net, const BatchOptions& options, NetCache* cache) {
  EngineCounters& ec = EngineCounters::get();
  core::ReportOptions report = options.report;
  const robust::Deadline deadline = robust::Deadline::after_ms(options.net_timeout_ms);
  if (deadline.armed()) report.deadline = &deadline;

  NetResult r = analyze_one(net, report, cache, "analyze");
  if (!r.ok()) {
    r.phase = "analyze";
    if (r.code == robust::Code::kTimeout) {
      r.timed_out = true;
      ec.nets_timed_out.add();
      obs::log::warn("engine.net.timeout",
                     {{"net", net.name},
                      {"phase", "analyze"},
                      {"timeout_ms", options.net_timeout_ms}});
    }
    // Parse/topology defects fail identically on any path; everything else
    // (non-convergence, NaN, timeout, task failure) deserves the cheap
    // O(N) moments path before we give up on the net.
    const robust::Category cat = robust::category_of(r.code);
    const bool retryable = options.retry_on_failure && report.with_exact &&
                           cat != robust::Category::kParse &&
                           cat != robust::Category::kTopology;
    if (retryable) {
      ec.nets_retried.add();
      obs::log::info("engine.net.retry",
                     {{"net", net.name}, {"code", robust::code_name(r.code)}});
      core::ReportOptions moments = report;
      moments.with_exact = false;
      const robust::Deadline retry_deadline = robust::Deadline::after_ms(options.net_timeout_ms);
      moments.deadline = retry_deadline.armed() ? &retry_deadline : nullptr;
      NetResult second = analyze_one(net, moments, cache, "retry");
      second.retried = true;
      second.timed_out = r.timed_out;
      second.analyze_seconds += r.analyze_seconds;  // both attempts cost this net
      if (second.ok()) {
        r = std::move(second);
      } else {
        // Keep the retry's record: it is the failure that made the net
        // unsalvageable.
        second.phase = "retry";
        if (second.code == robust::Code::kTimeout) {
          second.timed_out = true;
          ec.nets_timed_out.add();
          obs::log::warn("engine.net.timeout",
                         {{"net", net.name},
                          {"phase", "retry"},
                          {"timeout_ms", options.net_timeout_ms}});
        }
        r = std::move(second);
      }
    }
  }
  if (!r.ok()) {
    obs::log::warn("engine.net.failed", {{"net", net.name},
                                         {"code", robust::code_name(r.code)},
                                         {"phase", r.phase},
                                         {"error", r.error}});
  }
  if (r.retried) r.degraded = true;
  for (const core::NodeReport& row : r.rows) {
    if (row.degraded) {
      r.degraded = true;
      break;
    }
  }
  if (r.degraded) ec.nets_degraded.add();
  return r;
}

/// The complete per-net task: queue-wait sample, failure-budget
/// cancellation, run_net, completion counters.  Shared by analyze_nets()
/// (as the task body) and analyze_spef_file() (run inline right after the
/// net's section is parsed).
void run_net_slot(const SpefNet& net, NetResult& slot, const BatchOptions& options,
                  NetCache* cache, std::size_t budget, std::atomic<std::size_t>& failed_so_far,
                  std::uint64_t enqueue_ns) {
  EngineCounters& ec = EngineCounters::get();
  obs::record_wait("engine.task.queue_wait", "engine", enqueue_ns, &queue_wait_histogram());
  if (budget != 0 && failed_so_far.load(std::memory_order_relaxed) >= budget) {
    slot.name = net.name;
    slot.driver = net.driver;
    slot.loads = net.loads;
    slot.nodes = net.tree.size();
    slot.error = "cancelled: failure budget (" + std::to_string(budget) + ") exhausted";
    slot.code = robust::Code::kCancelled;
    slot.phase = "cancelled";
    ec.nets_cancelled.add();
    ec.nets_failed.add();
    ec.nets_completed.add();
    obs::flight::recorder().record(net.name, "cancelled", obs::flight::Outcome::kCancelled,
                                   robust::Code::kCancelled, 0);
    obs::log::debug("engine.net.cancelled", {{"net", net.name}});
    return;
  }
  slot = run_net(net, options, cache);
  if (!slot.ok()) {
    ec.nets_failed.add();
    failed_so_far.fetch_add(1, std::memory_order_relaxed);
  }
  ec.nets_completed.add();
}

/// Frees the finished row cache on the pool's workers, one share of its
/// shards each, while the calling thread merges; the pool's drain joins
/// them before the cache (declared first) is destroyed.
void clear_on(ThreadPool& pool, NetCache& cache) {
  const std::size_t parts = pool.thread_count();
  for (std::size_t k = 0; k < parts; ++k)
    pool.submit([&cache, k, parts] { cache.clear(k, parts); });
}

/// Hands `garbage` to a pool task that only drops it, so its frees run on
/// a worker; the pool's drain joins them.
template <class T>
void free_on(ThreadPool& pool, T garbage) {
  pool.submit([dead = std::move(garbage)] {});
}

}  // namespace

std::string EngineStats::summary() const {
  std::ostringstream os;
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "engine: %zu net(s), %zu analyzed, %zu cache hit(s), %zu failed, %zu thread(s); "
                "analyze %.3fs wall / %.3fs cpu, total %.3fs wall",
                nets, tasks_run, cache_hits, failures, threads, analyze.wall_s, analyze.cpu_s,
                total.wall_s);
  os << buf;
  // Robustness line items only when something actually went sideways.
  if (degraded != 0 || retried != 0 || timed_out != 0 || cancelled != 0) {
    std::snprintf(buf, sizeof(buf),
                  "; robustness: %zu degraded, %zu retried, %zu timed out, %zu cancelled",
                  degraded, retried, timed_out, cancelled);
    os << buf;
  }
  // Per-net latency quantiles from the global histogram (process-lifetime,
  // not per-run — runs are sequential in practice, see the struct comment).
  // Absent when nothing was observed, which is also the -DRCT_OBS=OFF path:
  // Spans observe no histogram there, so it stays empty.
  if (const obs::Histogram* h = obs::registry().find_histogram("engine.net.analyze_seconds");
      h != nullptr && h->count() > 0) {
    os << "; analyze latency p50 " << format_time(h->quantile(0.50)) << " / p95 "
       << format_time(h->quantile(0.95)) << " / p99 " << format_time(h->quantile(0.99));
  }
  return os.str();
}

BatchResult analyze_nets(std::span<const SpefNet> nets, const BatchOptions& options) {
  const PhaseTimer total;
  BatchResult out;
  out.nets.resize(nets.size());
  out.stats.nets = nets.size();

  NetCache cache(16, options.cache_max_entries);
  if (options.cache_backend != nullptr) cache.set_backend(options.cache_backend);
  NetCache* cache_ptr = options.use_cache ? &cache : nullptr;

  // EngineStats is a per-run delta over the process-global registry: runs
  // are assumed not to interleave (concurrent analyze_nets calls would fold
  // into each other's deltas, while the registry totals stay correct).
  EngineCounters& ec = EngineCounters::get();
  const std::uint64_t base_tasks = ec.tasks_run.value();
  const std::uint64_t base_hits = ec.cache_hits.value();
  ec.nets_total.add(nets.size());

  // More workers than nets is pure thread-create/join overhead.
  const std::size_t jobs =
      options.jobs == 0 ? 0 : std::min(options.jobs, std::max<std::size_t>(nets.size(), 1));

  // Failure budget: once `budget` nets have failed, remaining tasks skip
  // their analysis and record kCancelled instead (cooperative — running
  // nets finish).  0 = unlimited.
  const std::size_t budget =
      options.fail_fast ? std::size_t{1} : options.max_failures;
  std::atomic<std::size_t> failed_so_far{0};

  obs::log::info("engine.batch.start",
                 {{"nets", static_cast<std::uint64_t>(nets.size())},
                  {"jobs", static_cast<std::uint64_t>(jobs)},
                  {"use_cache", options.use_cache},
                  {"net_timeout_ms", options.net_timeout_ms}});

  const PhaseTimer analyze;
  ThreadPool pool(jobs);  // declared after `cache`: drains before it is destroyed
  out.stats.threads = pool.thread_count();
  {
    const obs::Span span("engine.batch.analyze", "engine");
    // One task per net; each writes only its own preassigned slot, so the
    // merged order is the input order regardless of scheduling.
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const SpefNet& net = nets[i];
      NetResult& slot = out.nets[i];
      const std::uint64_t enqueue_ns = obs::timestamp_ns();
      pool.submit([&net, &slot, &options, cache_ptr, enqueue_ns, budget, &failed_so_far] {
        run_net_slot(net, slot, options, cache_ptr, budget, failed_so_far, enqueue_ns);
      });
    }
    pool.wait_idle();
  }
  out.stats.analyze = analyze.elapsed();
  clear_on(pool, cache);

  const PhaseTimer merge;
  {
    const obs::Span span("engine.batch.merge", "engine");
    out.stats.tasks_run = ec.tasks_run.value() - base_tasks;
    out.stats.cache_hits = ec.cache_hits.value() - base_hits;
    // Deterministic robustness tallies straight from the merged results
    // (the global counters feed --metrics-out; these feed the summary).
    for (const NetResult& r : out.nets) {
      if (!r.ok()) ++out.stats.failures;
      if (r.degraded) ++out.stats.degraded;
      if (r.retried) ++out.stats.retried;
      if (r.timed_out) ++out.stats.timed_out;
      if (r.code == robust::Code::kCancelled) ++out.stats.cancelled;
    }
  }
  out.stats.merge = merge.elapsed();
  out.stats.total = total.elapsed();
  if constexpr (obs::kTimingEnabled) {
    analyze_phase_histogram().observe(out.stats.analyze.wall_s);
    merge_phase_histogram().observe(out.stats.merge.wall_s);
  }
  obs::log::info("engine.batch.done",
                 {{"nets", static_cast<std::uint64_t>(out.stats.nets)},
                  {"failures", static_cast<std::uint64_t>(out.stats.failures)},
                  {"cache_hits", static_cast<std::uint64_t>(out.stats.cache_hits)},
                  {"wall_s", out.stats.total.wall_s}});
  return out;
}

BatchResult analyze_batch(const SpefFile& file, const BatchOptions& options) {
  BatchResult out = analyze_nets(file.nets, options);
  out.design = file.design;
  return out;
}

FileBatchResult analyze_spef_file(const std::string& path, const BatchOptions& options,
                                  const ParseOptions& parse_options) {
  const PhaseTimer total;
  FileBatchResult out;

  MappedFile mapped;
  if (!mapped.open(path))
    throw SpefError(robust::Code::kFileOpen, "cannot open '" + path + "'", {path, 0}, "spef");
  SpefParseOptions spef_opts = parse_options.spef;
  if (spef_opts.path.empty()) spef_opts.path = path;
  const std::string_view text = mapped.view();
  out.parse.bytes = text.size();

  NetCache cache(16, options.cache_max_entries);
  if (options.cache_backend != nullptr) cache.set_backend(options.cache_backend);
  NetCache* cache_ptr = options.use_cache ? &cache : nullptr;

  // One pool for the whole pass, created before the index it stripes (so
  // it is sized by `jobs` alone: the section count is not known yet) and
  // declared after `cache`, so its drain runs before the cache dies.
  ThreadPool pool(options.jobs);
  out.batch.stats.threads = pool.thread_count();
  out.parse.threads = pool.thread_count();

  const PhaseTimer index_timer;
  spef::ParsePlan plan = [&] {
    const obs::Span span("engine.batch.index", "engine");
    return detail::prepare_on(&pool, text, spef_opts);
  }();
  out.parse.index_seconds = index_timer.elapsed().wall_s;
  if constexpr (obs::kTimingEnabled)
    obs::registry().histogram("parse.index.seconds").observe(out.parse.index_seconds);

  const std::size_t n = plan.layout.sections.size();
  out.parse.sections = n;
  obs::registry().counter("parse.sections.total").add(n);

  EngineCounters& ec = EngineCounters::get();
  const std::uint64_t base_tasks = ec.tasks_run.value();
  const std::uint64_t base_hits = ec.cache_hits.value();

  const std::size_t budget = options.fail_fast ? std::size_t{1} : options.max_failures;
  std::atomic<std::size_t> failed_so_far{0};

  // Same event names as analyze_nets() — log consumers see one batch
  // lifecycle either way; "sections"/"bytes" mark the fused file path.
  obs::log::info("engine.batch.start",
                 {{"sections", static_cast<std::uint64_t>(n)},
                  {"bytes", static_cast<std::uint64_t>(text.size())},
                  {"jobs", static_cast<std::uint64_t>(pool.thread_count())},
                  {"use_cache", options.use_cache}});

  // One fused task per *D_NET section: parse it, then immediately analyze
  // the net it produced on the same worker — early nets are being timed
  // while late sections are still being tokenized.  Each task writes only
  // its own preassigned slots, and the compaction below walks them in file
  // order, so the output matches parse + analyze_batch() exactly.  The
  // slot keeps copies of everything the renderers read, so the task frees
  // the parsed net on its own worker; the emptied SpefNet stays behind for
  // merge_spef's net count and empty-input check.
  std::vector<spef::ShardResult> sections(n);
  std::vector<NetResult> slots(n);
  std::vector<unsigned char> has_net(n, 0);
  const PhaseTimer analyze;
  {
    const obs::Span span("engine.batch.analyze", "engine");
    pool.parallel_for(n, [&](std::size_t i) {
      sections[i] = detail::parse_section_task(text, plan, i, spef_opts);
      if (!sections[i].error && !sections[i].nets.empty()) {
        ec.nets_total.add();
        has_net[i] = 1;
        SpefNet& net = sections[i].nets.front();
        run_net_slot(net, slots[i], options, cache_ptr, budget, failed_so_far,
                     obs::timestamp_ns());
        net = SpefNet{};
      }
    });
  }
  out.batch.stats.analyze = analyze.elapsed();
  out.parse.sections_seconds = out.batch.stats.analyze.wall_s;
  clear_on(pool, cache);

  // File-order merge: rethrows the earliest strict-mode error (discarding
  // any analysis the overlap already did for later sections) and assembles
  // the lenient diagnostics exactly as the serial parser ordered them.
  SpefFile parsed = spef::merge_spef(std::move(plan), std::move(sections), spef_opts);
  out.batch.design = parsed.design;
  out.diagnostics = std::move(parsed.diagnostics);
  out.nets_rejected = parsed.nets_rejected;
  out.parse.nets = parsed.nets.size();
  out.parse.nets_rejected = parsed.nets_rejected;
  // The consumed parse state (the emptied nets, the shard results, the
  // plan) is freed on a worker while this thread merges the slots.
  free_on(pool, std::make_tuple(std::move(parsed), std::move(sections), std::move(plan)));

  const PhaseTimer merge;
  {
    const obs::Span span("engine.batch.merge", "engine");
    out.batch.nets.reserve(out.parse.nets);
    for (std::size_t i = 0; i < n; ++i)
      if (has_net[i]) out.batch.nets.push_back(std::move(slots[i]));
    out.batch.stats.nets = out.batch.nets.size();
    out.batch.stats.tasks_run = ec.tasks_run.value() - base_tasks;
    out.batch.stats.cache_hits = ec.cache_hits.value() - base_hits;
    for (const NetResult& r : out.batch.nets) {
      if (!r.ok()) ++out.batch.stats.failures;
      if (r.degraded) ++out.batch.stats.degraded;
      if (r.retried) ++out.batch.stats.retried;
      if (r.timed_out) ++out.batch.stats.timed_out;
      if (r.code == robust::Code::kCancelled) ++out.batch.stats.cancelled;
    }
  }
  out.batch.stats.merge = merge.elapsed();
  out.batch.stats.total = total.elapsed();
  out.parse.total_seconds = out.batch.stats.total.wall_s;
  obs::log::info("engine.batch.done",
                 {{"nets", static_cast<std::uint64_t>(out.batch.stats.nets)},
                  {"failures", static_cast<std::uint64_t>(out.batch.stats.failures)},
                  {"cache_hits", static_cast<std::uint64_t>(out.batch.stats.cache_hits)},
                  {"wall_s", out.batch.stats.total.wall_s}});
  return out;
}

std::string format_batch(const BatchResult& result) {
  std::ostringstream os;
  if (!result.design.empty())
    os << "design '" << result.design << "': " << result.nets.size() << " net(s)\n";
  for (const NetResult& net : result.nets) {
    os << "\n*D_NET " << net.name << "  (driver " << net.driver << ", " << net.nodes
       << " nodes, " << format_engineering(net.total_capacitance, "F") << " total)\n";
    if (!net.ok()) {
      os << "  error: " << net.error << "\n";
      os << "  record: code=" << robust::code_name(net.code)
         << " category=" << robust::category_name(robust::category_of(net.code))
         << " phase=" << net.phase << " net=" << net.name << "\n";
      continue;
    }
    if (net.retried)
      os << "  note: exact path failed; rows are moment bounds from the automatic retry\n";
    for (const NodeId load : net.loads) {
      const core::NodeReport& r = net.rows[load];
      char buf[256];
      std::snprintf(buf, sizeof(buf), "  load %-12s elmore %-10s bounds [%s, %s]",
                    r.name.c_str(), format_time(r.elmore).c_str(),
                    format_time(r.lower_bound).c_str(), format_time(r.elmore).c_str());
      os << buf;
      if (r.exact_delay) os << "  exact " << format_time(*r.exact_delay);
      if (r.degraded) os << "  degraded";
      os << "\n";
    }
  }
  return os.str();
}

namespace {

/// Nets per render part below which a thread costs more than it saves.
constexpr std::size_t kMinNetsPerPart = 256;

/// Capacity estimate for one net's JSON object: fixed keys plus the widest
/// shortest-round-trip numbers (24 chars); only escaped names exceed it.
std::size_t net_json_estimate(const NetResult& net) {
  std::size_t bytes = 176 + net.name.size() + net.driver.size();
  if (!net.ok()) return bytes + 128 + net.error.size() + net.phase.size();
  for (const NodeId load : net.loads) bytes += 184 + net.rows[load].name.size();
  return bytes;
}

/// Appends nets [first, last) of the "nets" array, comma-separated as
/// their place in the whole array requires.
void append_nets_json(std::string& out, const std::vector<NetResult>& nets, std::size_t first,
                      std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const NetResult& net = nets[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    json::append_string(out, net.name);
    out += ",\"driver\":";
    json::append_string(out, net.driver);
    out += ",\"nodes\":" + std::to_string(net.nodes);
    out += ",\"total_capacitance_f\":";
    json::append_number(out, net.total_capacitance);
    out += ",\"degraded\":";
    out += net.degraded ? "true" : "false";
    out += ",\"retried\":";
    out += net.retried ? "true" : "false";
    out += ",\"timed_out\":";
    out += net.timed_out ? "true" : "false";
    if (!net.ok()) {
      out += ",\"error\":";
      json::append_string(out, net.error);
      out += ",\"code\":";
      json::append_string(out, robust::code_name(net.code));
      out += ",\"category\":";
      json::append_string(out, robust::category_name(robust::category_of(net.code)));
      out += ",\"phase\":";
      json::append_string(out, net.phase);
      out += ",\"loads\":[]}";
      continue;
    }
    out += ",\"error\":null,\"loads\":[";
    bool first_load = true;
    for (const NodeId load : net.loads) {
      const core::NodeReport& r = net.rows[load];
      if (!first_load) out += ',';
      first_load = false;
      out += "{\"name\":";
      json::append_string(out, r.name);
      out += ",\"elmore_s\":";
      json::append_number(out, r.elmore);
      out += ",\"sigma_s\":";
      json::append_number(out, r.sigma);
      out += ",\"lower_bound_s\":";
      json::append_number(out, r.lower_bound);
      out += ",\"exact_delay_s\":";
      if (r.exact_delay)
        json::append_number(out, *r.exact_delay);
      else
        out += "null";
      out += ",\"degraded\":";
      out += r.degraded ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }
}

}  // namespace

std::string format_batch_json(const BatchResult& result) {
  // Contiguous net ranges, one per batch thread, rendered concurrently and
  // joined in order; serial for one thread (or a hand-built result with
  // none) and for small batches.
  const std::vector<NetResult>& nets = result.nets;
  const std::size_t parts = std::max<std::size_t>(
      1, std::min(result.stats.threads, nets.size() / kMinNetsPerPart));
  std::vector<std::size_t> first(parts + 1);
  for (std::size_t k = 0; k <= parts; ++k) first[k] = nets.size() * k / parts;

  // Part 0 renders straight into `out`, the rest into their own strings.
  // Every buffer is reserved here, on the calling thread: grown on the
  // workers instead, the memory would stay behind in per-thread malloc
  // arenas after the pool exits.
  std::string out = "{\"design\":";
  json::append_string(out, result.design);
  out += ",\"nets\":[";
  std::vector<std::string> rest(parts - 1);
  std::size_t total = out.size() + 2;
  for (std::size_t k = 0; k < parts; ++k) {
    std::size_t bytes = 0;
    for (std::size_t i = first[k]; i < first[k + 1]; ++i) bytes += net_json_estimate(nets[i]);
    total += bytes;
    if (k > 0) rest[k - 1].reserve(bytes);
  }
  out.reserve(total);
  const auto render = [&](std::size_t k) {
    append_nets_json(k == 0 ? out : rest[k - 1], nets, first[k], first[k + 1]);
  };
  if (parts == 1) {
    render(0);
  } else {
    ThreadPool pool(parts);
    pool.parallel_for(parts, render);
  }
  for (std::string& part : rest) {
    out += part;
    std::string().swap(part);  // release each part as soon as it is copied
  }
  out += "]}";
  return out;
}

}  // namespace rct::engine
