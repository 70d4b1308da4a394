#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/tree_context.hpp"
#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "obs/flight.hpp"
#include "obs/instruments.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
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

/// A result that names `net` (name, driver, loads and their node names,
/// size) and holds no outcome yet.
NetResult result_for(const SpefNet& net) {
  NetResult r;
  r.name = net.name;
  r.driver = net.driver;
  r.loads = net.loads;
  r.load_names.reserve(net.loads.size());
  for (const NodeId load : net.loads) r.load_names.push_back(net.tree.name(load));
  r.nodes = net.tree.size();
  return r;
}

/// One analysis attempt; never throws (failures land in result.error with
/// a typed code).  `report` is the per-attempt option set — the deadline
/// pointer and the retry's with_exact flip live there, not in
/// options.report.
NetResult analyze_one_impl(const SpefNet& net, const core::ReportOptions& report,
                           NetCache* cache) {
  const obs::Span span("engine.net.analyze", "engine", net.name,
                       &obs::histogram(obs::H::kEngineNetAnalyze));
  NetResult r = result_for(net);
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
      if (auto hit = cache->lookup(*key)) {
        r.rows = std::move(*hit);
        r.from_cache = true;
        return r;
      }
    }
    // A miss builds a transient context: within one batch every net shares
    // one ReportOptions, so a row miss means no twin has built one either.
    obs::counter(obs::C::kEngineTasksRun).add();
    const analysis::TreeContext ctx(net.tree);
    r.rows = core::build_report(ctx, report);
    if (key.has_value()) cache->insert(std::move(*key), r.rows);
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
  core::ReportOptions report = options.report;
  const robust::Deadline deadline = robust::Deadline::after_ms(options.net_timeout_ms);
  if (deadline.armed()) report.deadline = &deadline;

  NetResult r = analyze_one(net, report, cache, "analyze");
  if (!r.ok()) {
    r.phase = "analyze";
    if (r.code == robust::Code::kTimeout) {
      r.timed_out = true;
      obs::counter(obs::C::kEngineNetsTimedOut).add();
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
      obs::counter(obs::C::kEngineNetsRetried).add();
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
          obs::counter(obs::C::kEngineNetsTimedOut).add();
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
  if (r.degraded) obs::counter(obs::C::kEngineNetsDegraded).add();
  return r;
}

/// The lifecycle both batch entry points share: row cache and backend,
/// counter baselines, failure budget, start/done events and the closing
/// tally.  Declare the pool after it, so the pool drains before the cache.
class BatchRun {
 public:
  explicit BatchRun(const BatchOptions& options)
      : options_(options),
        cache_(16, options.cache_max_entries),
        cache_ptr_(options.use_cache ? &cache_ : nullptr),
        // EngineStats is a per-run delta over the registry, assuming runs do
        // not interleave; engine.tasks.run resolves its engine.nets.* group.
        base_tasks_(obs::counter(obs::C::kEngineTasksRun).value()),
        base_hits_(obs::counter(obs::C::kEngineCacheHits).value()) {
    // The renderers print one row per load, indexed by node id; leaf-only
    // rows hold no row for an internal load and do not line up with ids.
    if (options.report.leaves_only)
      throw robust::Error(robust::Code::kUnsupported,
                          "batch analysis reports every node: leaves_only is not supported");
    if (options.cache_backend != nullptr) cache_.set_backend(options.cache_backend);
  }
  BatchRun(const BatchRun&) = delete;  // pool tasks hold its address
  BatchRun& operator=(const BatchRun&) = delete;

  /// Logs engine.batch.start; `input` names what `count` counts.
  void start(const char* input, std::size_t count, std::size_t jobs) const {
    obs::log::info("engine.batch.start",
                   {{input, static_cast<std::uint64_t>(count)},
                    {"jobs", static_cast<std::uint64_t>(jobs)},
                    {"use_cache", options_.use_cache},
                    {"net_timeout_ms", options_.net_timeout_ms}});
  }

  /// The complete per-net task: queue-wait sample, failure-budget
  /// cancellation, run_net, completion counters.
  void analyze_net(const SpefNet& net, NetResult& slot, std::uint64_t enqueue_ns) {
    obs::record_wait("engine.task.queue_wait", "engine", enqueue_ns,
                     &obs::histogram(obs::H::kEngineTaskQueueWait));
    // Failure budget (0 = unlimited): once spent, nets not yet started
    // record kCancelled instead of running; running nets finish.
    const std::size_t budget = options_.max_failures;
    if (budget != 0 && failed_so_far_.load(std::memory_order_relaxed) >= budget) {
      slot = result_for(net);
      slot.error = "cancelled: failure budget (" + std::to_string(budget) + ") exhausted";
      slot.code = robust::Code::kCancelled;
      slot.phase = "cancelled";
      obs::counter(obs::C::kEngineNetsCancelled).add();
      obs::counter(obs::C::kEngineNetsFailed).add();
      obs::counter(obs::C::kEngineNetsCompleted).add();
      obs::flight::recorder().record(net.name, "cancelled", obs::flight::Outcome::kCancelled,
                                     robust::Code::kCancelled, 0);
      obs::log::debug("engine.net.cancelled", {{"net", net.name}});
      return;
    }
    slot = run_net(net, options_, cache_ptr_);
    if (!slot.ok()) {
      obs::counter(obs::C::kEngineNetsFailed).add();
      failed_so_far_.fetch_add(1, std::memory_order_relaxed);
    }
    obs::counter(obs::C::kEngineNetsCompleted).add();
  }

  /// Frees the finished row cache on the pool's workers, one share of its
  /// shards each, while the calling thread merges; the pool's drain joins
  /// them before the cache is destroyed.
  void clear_on(ThreadPool& pool) {
    const std::size_t parts = pool.thread_count();
    for (std::size_t k = 0; k < parts; ++k)
      pool.submit([this, k, parts] { cache_.clear(k, parts); });
  }

  /// The merge phase — `collect` (if any) fills out.nets, then the counter
  /// deltas and robustness tallies (these feed the summary, the counters
  /// --metrics-out) — then the total, phase histograms and done event.
  void finish(BatchResult& out, const std::function<void()>& collect = {}) const {
    EngineStats& stats = out.stats;
    const PhaseTimer merge;
    {
      const obs::Span span("engine.batch.merge", "engine");
      if (collect) collect();
      stats.nets = out.nets.size();
      stats.tasks_run = obs::counter(obs::C::kEngineTasksRun).value() - base_tasks_;
      stats.cache_hits = obs::counter(obs::C::kEngineCacheHits).value() - base_hits_;
      for (const NetResult& r : out.nets) {
        if (!r.ok()) ++stats.failures;
        if (r.degraded) ++stats.degraded;
        if (r.retried) ++stats.retried;
        if (r.timed_out) ++stats.timed_out;
        if (r.code == robust::Code::kCancelled) ++stats.cancelled;
      }
    }
    stats.merge = merge.elapsed();
    stats.total = total_.elapsed();
    if constexpr (obs::kTimingEnabled) {
      obs::histogram(obs::H::kEngineBatchAnalyze).observe(stats.analyze.wall_s);
      obs::histogram(obs::H::kEngineBatchMerge).observe(stats.merge.wall_s);
    }
    obs::log::info("engine.batch.done",
                   {{"nets", static_cast<std::uint64_t>(stats.nets)},
                    {"failures", static_cast<std::uint64_t>(stats.failures)},
                    {"cache_hits", static_cast<std::uint64_t>(stats.cache_hits)},
                    {"wall_s", stats.total.wall_s}});
  }

 private:
  const BatchOptions& options_;
  const PhaseTimer total_;
  NetCache cache_;
  NetCache* const cache_ptr_;
  const std::uint64_t base_tasks_;
  const std::uint64_t base_hits_;
  std::atomic<std::size_t> failed_so_far_{0};
};

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
  if (const obs::Histogram* h = obs::find_histogram(obs::H::kEngineNetAnalyze);
      h != nullptr && h->count() > 0) {
    os << "; analyze latency p50 " << format_time(h->quantile(0.50)) << " / p95 "
       << format_time(h->quantile(0.95)) << " / p99 " << format_time(h->quantile(0.99));
  }
  return os.str();
}

BatchResult analyze_nets(std::span<const SpefNet> nets, const BatchOptions& options) {
  BatchRun run(options);
  BatchResult out;
  out.nets.resize(nets.size());
  obs::counter(obs::C::kEngineNetsTotal).add(nets.size());

  // More workers than nets is pure thread-create/join overhead.
  const std::size_t jobs =
      options.jobs == 0 ? 0 : std::min(options.jobs, std::max<std::size_t>(nets.size(), 1));
  run.start("nets", nets.size(), jobs);

  const PhaseTimer analyze;
  ThreadPool pool(jobs);
  out.stats.threads = pool.thread_count();
  {
    const obs::Span span("engine.batch.analyze", "engine");
    // One task per net; each writes only its own preassigned slot, so the
    // merged order is the input order regardless of scheduling.
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const SpefNet& net = nets[i];
      NetResult& slot = out.nets[i];
      const std::uint64_t enqueue_ns = obs::timestamp_ns();
      pool.submit([&run, &net, &slot, enqueue_ns] { run.analyze_net(net, slot, enqueue_ns); });
    }
    pool.wait_idle();
  }
  out.stats.analyze = analyze.elapsed();
  run.clear_on(pool);
  run.finish(out);
  return out;
}

BatchResult analyze_batch(const SpefFile& file, const BatchOptions& options) {
  BatchResult out = analyze_nets(file.nets, options);
  out.design = file.design;
  return out;
}

FileBatchResult analyze_spef_file(const std::string& path, const BatchOptions& options,
                                  const SpefParseOptions& parse_options) {
  SpefParseOptions spef_opts = parse_options;
  const MappedFile mapped = map_spef_file(path, spef_opts);
  const std::string_view text = mapped.view();

  BatchRun run(options);
  FileBatchResult out;
  out.parse.bytes = text.size();
  // One pool for the whole pass, created before the index it stripes (so
  // it is sized by `jobs` alone: the section count is not known yet).
  ThreadPool pool(options.jobs);
  out.batch.stats.threads = pool.thread_count();

  // Each *D_NET section is parsed and its net analyzed at once, on the
  // same worker — early nets are being timed while late sections are still
  // being tokenized.  The slot keeps copies of everything the renderers
  // read, so the net is freed right there; the compaction below walks the
  // slots in file order, so the output matches parse + analyze_batch().
  std::vector<NetResult> slots;
  std::vector<unsigned char> has_net;
  PhaseTimer analyze;
  detail::SectionHooks hooks;
  hooks.index_span = "engine.batch.index";
  hooks.sections_span = "engine.batch.analyze";
  hooks.indexed = [&](std::size_t sections) {
    slots.resize(sections);
    has_net.assign(sections, 0);
    run.start("sections", sections, pool.thread_count());
    analyze = PhaseTimer();
  };
  hooks.parsed = [&](std::size_t i, spef::ShardResult& section) {
    if (section.error || section.nets.empty()) return;
    obs::counter(obs::C::kEngineNetsTotal).add();
    has_net[i] = 1;
    run.analyze_net(section.nets.front(), slots[i], obs::timestamp_ns());
    section.nets.clear();
  };
  auto [plan, sections] = detail::parse_sections(&pool, text, spef_opts, out.parse, hooks);
  out.batch.stats.analyze = analyze.elapsed();
  run.clear_on(pool);

  // File-order merge of everything but the nets: rethrows the earliest
  // strict-mode error (discarding any analysis the overlap already did for
  // later sections) and orders the lenient diagnostics as the serial
  // parser did.  The consumed parse state is then freed by a pool task
  // that only drops it while this thread compacts the slots; the pool's
  // drain joins it.
  out.parse.nets = static_cast<std::size_t>(std::count(has_net.begin(), has_net.end(), 1));
  spef::FileScope scope = spef::merge_file_scope(plan, sections, out.parse.nets, spef_opts);
  out.batch.design = std::move(scope.design);
  out.diagnostics = std::move(scope.diagnostics);
  out.nets_rejected = scope.nets_rejected;
  out.parse.nets_rejected = scope.nets_rejected;
  pool.submit([dead = std::make_pair(std::move(sections), std::move(plan))] {});

  run.finish(out.batch, [&] {
    out.batch.nets.reserve(out.parse.nets);
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (has_net[i]) out.batch.nets.push_back(std::move(slots[i]));
  });
  out.parse.total_seconds = out.batch.stats.total.wall_s;
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
    for (std::size_t k = 0; k < net.loads.size(); ++k) {
      const core::NodeReport& r = net.rows[net.loads[k]];
      char buf[256];
      std::snprintf(buf, sizeof(buf), "  load %-12s elmore %-10s bounds [%s, %s]",
                    net.load_names[k].c_str(), format_time(r.elmore).c_str(),
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
  for (const std::string& name : net.load_names) bytes += 184 + name.size();
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
    for (std::size_t k = 0; k < net.loads.size(); ++k) {
      const core::NodeReport& r = net.rows[net.loads[k]];
      if (k != 0) out += ',';
      out += "{\"name\":";
      json::append_string(out, net.load_names[k]);
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
