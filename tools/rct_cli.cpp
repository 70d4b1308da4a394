// rct — command-line front end for the RC-tree timing toolkit.
//
//   rct report <deck.sp>                 bound report for every node
//   rct spef <file.spef>                 per-net load-pin bound report
//   rct batch <file.spef>                parallel per-net report (thread pool)
//   rct serve [--listen P] [--store D]   persistent timing-server daemon
//   rct client <target> <cmd> [...]      one request against a running server
//   rct validate <file.spef>             lint a SPEF file, print diagnostics
//   rct convert <deck.sp> <out.spef>     netlist -> SPEF-lite
//   rct delay-curve <deck.sp> <node>     50-50 delay vs rise time (CSV)
//   rct bode <deck.sp> <node>            magnitude/phase sweep (CSV)
//
// Deck format: see README (SPICE-like, .input/.probe directives).
//
// Exit codes: 0 = success (batch: every net analyzed cleanly; validate: no
// diagnostics), 1 = runtime failure (parse error, or batch with >= 1 failed
// net, or validate with diagnostics), 2 = usage error.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/tree_context.hpp"
#include "core/generalized_input.hpp"
#include "core/report.hpp"
#include "engine/batch.hpp"
#include "moments/path_tracing.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/dot_export.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/spef.hpp"
#include "rctree/units.hpp"
#include "robust/error.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/request_trace.hpp"
#include "server/server.hpp"
#include "server/store.hpp"
#include "sim/ac.hpp"
#include "sim/exact.hpp"

using namespace rct;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rct report <deck.sp>\n"
               "       rct dot <deck.sp>\n"
               "       rct spef <file.spef> [--jobs N] [--exact-limit N] [--lenient] "
               "[--metrics-out FILE]\n"
               "       rct batch <file.spef> [--jobs N] [--json] [--no-cache] "
               "[--exact-limit N]\n"
               "                 [--lenient] [--net-timeout-ms N] [--max-failures N] "
               "[--fail-fast]\n"
               "                 [--store DIR] [--cache-max-entries N]\n"
               "                 [--progress] [--trace-out FILE] [--metrics-out FILE]\n"
               "                 [--metrics-format json|prom] [--metrics-interval-ms N]\n"
               "                 [--log-out FILE] [--log-level debug|info|warn|error]\n"
               "                 [--flight-recorder-out FILE] [--top-slow N]\n"
               "                 (FILE arguments accept '-' for stderr)\n"
               "       rct serve [--listen PATH|PORT] [--http PATH|PORT] [--store DIR] "
               "[--jobs N]\n"
               "                 [--parse-jobs N] [--cache-max-entries N] "
               "[--request-timeout-ms N]\n"
               "                 [--preload FILE]... [--lenient] [--exact-limit N]\n"
               "                 [--max-connections N] [--max-queue-depth N] "
               "[--drain-timeout-ms N]\n"
               "                 [--idle-timeout-ms N] [--store-max-bytes N]\n"
               "                 [--metrics-out FILE] [--metrics-format json|prom]\n"
               "                 [--metrics-interval-ms N] [--log-out FILE] "
               "[--flight-recorder-out FILE]\n"
               "                 (--http serves GET /metrics /healthz /varz /flight;\n"
               "                  SIGTERM/SIGINT drain gracefully and exit 0)\n"
               "       rct client <PATH|PORT> ping|stats|shutdown\n"
               "       rct client <PATH|PORT> load <file.spef> [--lenient]\n"
               "       rct client <PATH|PORT> report|bounds <net> [--design D] "
               "[--leaves-only]\n"
               "                 [--no-exact] [--exact-limit N] [--timeout-ms N] "
               "[--fraction F]\n"
               "       rct client <PATH|PORT> evict [--design D]\n"
               "       rct client <PATH|PORT> trace <trace_id>\n"
               "       rct client <PATH|PORT> --batch FILE   (one command per line)\n"
               "       rct client <PATH|PORT> [--retries N] [--retry-budget MS] ...\n"
               "                 (reconnect + capped jittered backoff; honors the "
               "server's retry_after_ms)\n"
               "       rct client <PATH|PORT> [--trace-out FILE] ...   (stitched "
               "client+server trace)\n"
               "       rct validate <file.spef> [--jobs N]\n"
               "       rct convert <deck.sp> <out.spef>\n"
               "       rct delay-curve <deck.sp> <node>\n"
               "       rct bode <deck.sp> <node>\n"
               "exit codes: 0 ok, 1 runtime/net failures or diagnostics, 2 usage\n");
  return 2;
}

/// Flags shared by the SPEF-consuming commands.  Positional args land in
/// `positional`; unknown flags abort with usage.
struct SpefFlags {
  std::vector<std::string> positional;
  engine::BatchOptions batch;  // carries jobs/use_cache/deadlines and the ReportOptions
  bool json = false;
  bool lenient = false;      ///< skip malformed *D_NET sections with diagnostics
  bool progress = false;     ///< single-line stderr heartbeat (batch only)
  std::string trace_out;     ///< Chrome trace-event JSON path ("" = off)
  std::string metrics_out;   ///< metrics snapshot path ("" = off, "-" = stderr)
  bool metrics_prom = false; ///< --metrics-format prom (default json)
  std::uint64_t metrics_interval_ms = 0;  ///< periodic metrics re-flush (0 = only at exit)
  std::string log_out;       ///< structured JSON-lines event log ("" = off, "-" = stderr)
  obs::log::Level log_level = obs::log::Level::kInfo;
  std::string flight_out;    ///< flight-recorder JSON dump ("" = off, "-" = stderr)
  std::size_t top_slow = 0;  ///< stderr table of the N slowest nets (0 = off)
  std::string store_dir;     ///< on-disk content-addressed net cache ("" = off)
  std::string listen;        ///< serve: unix socket path or all-digits TCP port
  std::size_t parse_jobs = SIZE_MAX;  ///< serve: parser threads (SIZE_MAX = follow --jobs)
  std::string http;          ///< serve: telemetry HTTP listener spec ("" = off)
  std::uint64_t request_timeout_ms = 0;   ///< serve: default per-request deadline
  std::vector<std::string> preload;       ///< serve: SPEF files loaded at startup
  /// serve: connection cap (0 = unbounded; default ServeOptions' 256)
  std::size_t max_connections = server::ServeOptions{}.max_connections;
  std::size_t max_queue_depth = 0;        ///< serve: dispatch-queue cap (0 = 4x workers)
  std::uint64_t drain_timeout_ms = 5000;  ///< serve: graceful-drain budget
  std::uint64_t idle_timeout_ms = 30000;  ///< serve: silent-connection cap (0 = never)
  std::uint64_t store_max_bytes = 0;      ///< serve: DiskStore GC cap (0 = unbounded)
  bool ok = true;
};

SpefFlags parse_spef_flags(int argc, char** argv, int first, bool serve_mode = false) {
  SpefFlags f;
  bool fail_fast = false;  // --fail-fast: a budget of one, whatever --max-failures says
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", flag);
        f.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      if (const char* v = value("--jobs")) f.batch.jobs = std::strtoul(v, nullptr, 10);
    } else if (arg == "--exact-limit") {
      if (const char* v = value("--exact-limit"))
        f.batch.report.exact_node_limit = std::strtoul(v, nullptr, 10);
    } else if (arg == "--json") {
      f.json = true;
    } else if (arg == "--no-cache") {
      f.batch.use_cache = false;
    } else if (arg == "--lenient") {
      f.lenient = true;
    } else if (arg == "--net-timeout-ms") {
      if (const char* v = value("--net-timeout-ms"))
        f.batch.net_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-failures") {
      if (const char* v = value("--max-failures"))
        f.batch.max_failures = std::strtoul(v, nullptr, 10);
    } else if (arg == "--fail-fast") {
      fail_fast = true;
    } else if (arg == "--progress") {
      f.progress = true;
    } else if (arg == "--trace-out") {
      if (const char* v = value("--trace-out")) f.trace_out = v;
    } else if (arg == "--metrics-out") {
      if (const char* v = value("--metrics-out")) f.metrics_out = v;
    } else if (arg == "--metrics-format") {
      if (const char* v = value("--metrics-format")) {
        if (std::strcmp(v, "prom") == 0) {
          f.metrics_prom = true;
        } else if (std::strcmp(v, "json") != 0) {
          std::fprintf(stderr, "error: --metrics-format expects json|prom, got '%s'\n", v);
          f.ok = false;
        }
      }
    } else if (arg == "--metrics-interval-ms") {
      if (const char* v = value("--metrics-interval-ms"))
        f.metrics_interval_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--log-out") {
      if (const char* v = value("--log-out")) f.log_out = v;
    } else if (arg == "--log-level") {
      if (const char* v = value("--log-level")) {
        if (!obs::log::parse_level(v, f.log_level)) {
          std::fprintf(stderr, "error: --log-level expects debug|info|warn|error, got '%s'\n",
                       v);
          f.ok = false;
        }
      }
    } else if (arg == "--flight-recorder-out") {
      if (const char* v = value("--flight-recorder-out")) f.flight_out = v;
    } else if (arg == "--top-slow") {
      if (const char* v = value("--top-slow")) f.top_slow = std::strtoul(v, nullptr, 10);
    } else if (arg == "--store") {
      if (const char* v = value("--store")) f.store_dir = v;
    } else if (arg == "--cache-max-entries") {
      if (const char* v = value("--cache-max-entries"))
        f.batch.cache_max_entries = std::strtoul(v, nullptr, 10);
    } else if (serve_mode && arg == "--listen") {
      if (const char* v = value("--listen")) f.listen = v;
    } else if (serve_mode && arg == "--parse-jobs") {
      if (const char* v = value("--parse-jobs")) f.parse_jobs = std::strtoul(v, nullptr, 10);
    } else if (serve_mode && arg == "--http") {
      if (const char* v = value("--http")) f.http = v;
    } else if (serve_mode && arg == "--request-timeout-ms") {
      if (const char* v = value("--request-timeout-ms"))
        f.request_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (serve_mode && arg == "--preload") {
      if (const char* v = value("--preload")) f.preload.push_back(v);
    } else if (serve_mode && arg == "--max-connections") {
      if (const char* v = value("--max-connections"))
        f.max_connections = std::strtoul(v, nullptr, 10);
    } else if (serve_mode && arg == "--max-queue-depth") {
      if (const char* v = value("--max-queue-depth"))
        f.max_queue_depth = std::strtoul(v, nullptr, 10);
    } else if (serve_mode && arg == "--drain-timeout-ms") {
      if (const char* v = value("--drain-timeout-ms"))
        f.drain_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (serve_mode && arg == "--idle-timeout-ms") {
      if (const char* v = value("--idle-timeout-ms"))
        f.idle_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (serve_mode && arg == "--store-max-bytes") {
      if (const char* v = value("--store-max-bytes"))
        f.store_max_bytes = std::strtoull(v, nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      f.ok = false;
    } else {
      f.positional.push_back(arg);
    }
    if (!f.ok) break;
  }
  if (fail_fast) f.batch.max_failures = 1;
  return f;
}

/// Prints lenient parse diagnostics to stderr (stdout stays reserved for
/// the deterministic report).
void print_parse_diagnostics(const std::vector<robust::Diagnostic>& diagnostics,
                             std::size_t nets_rejected) {
  if (diagnostics.empty()) return;
  std::fprintf(stderr, "%s", robust::format_diagnostics(diagnostics).c_str());
  std::fprintf(stderr, "lenient parse: %zu diagnostic(s), %zu net section(s) rejected\n",
               diagnostics.size(), nets_rejected);
}

/// Parses the command's SPEF input honoring --lenient, on --jobs threads
/// (mmap + indexed section fan-out).
SpefFile parse_spef_input(const SpefFlags& flags) {
  const obs::Span span("cli.spef.parse", "cli", flags.positional[0]);
  engine::ParseOptions opt;
  opt.jobs = flags.batch.jobs;
  opt.spef.lenient = flags.lenient;
  engine::ParsedSpef parsed = engine::parse_spef_parallel_file(flags.positional[0], opt);
  print_parse_diagnostics(parsed.file.diagnostics, parsed.file.nets_rejected);
  return std::move(parsed.file);
}

int cmd_report(const std::string& path) {
  const ParsedNetlist parsed = parse_netlist_file(path);
  for (const auto& w : parsed.warnings) std::fprintf(stderr, "warning: %s\n", w.c_str());
  const analysis::TreeContext ctx(parsed.tree);
  std::printf("%s", core::format_report(parsed.tree, core::build_report(ctx)).c_str());
  return 0;
}

/// Writes the metrics snapshot in the format --metrics-format selected.
bool write_metrics(const SpefFlags& flags) {
  return flags.metrics_prom ? obs::registry().write_prometheus(flags.metrics_out)
                            : obs::registry().write_json(flags.metrics_out);
}

/// Arms the tracer / logger / flight recorder and resets the registry for
/// one observed CLI run.
void obs_begin(const SpefFlags& flags) {
  obs::registry().reset();
  if (!flags.trace_out.empty()) obs::tracer().set_enabled(true);
  if (!flags.log_out.empty()) {
    if (obs::log::logger().open(flags.log_out))
      obs::log::logger().set_level(flags.log_level);
    else
      std::fprintf(stderr, "warning: cannot open log sink '%s'\n", flags.log_out.c_str());
  }
  // The flight recorder is always armed: recording is allocation-free and
  // a few tens of KB, and the whole point is having the tape when a run
  // dies that nobody expected to die.
  obs::flight::recorder().set_enabled(true);
}

/// Writes the requested trace / metrics / flight files and closes the log
/// sink.  Failures warn on stderr (observability must never change the
/// command's outcome).
void obs_end(const SpefFlags& flags) {
  if (!flags.metrics_out.empty() && !write_metrics(flags))
    std::fprintf(stderr, "warning: cannot write metrics to '%s'\n", flags.metrics_out.c_str());
  if (!flags.trace_out.empty() && !obs::tracer().write_chrome_json(flags.trace_out))
    std::fprintf(stderr, "warning: cannot write trace to '%s'\n", flags.trace_out.c_str());
  if (!flags.flight_out.empty() && !obs::flight::recorder().write(flags.flight_out))
    std::fprintf(stderr, "warning: cannot write flight recorder to '%s'\n",
                 flags.flight_out.c_str());
  obs::log::logger().close();
}

/// SIGTERM: dump the flight recorder to stderr, then die by the default
/// disposition so the exit status still says "killed by SIGTERM".
extern "C" void flight_signal_handler(int sig) {
  obs::flight::recorder().dump_signal(2);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// The serving daemon a SIGTERM/SIGINT should drain, when one is live.
std::atomic<rct::server::Server*> g_drain_server{nullptr};

/// SIGTERM/SIGINT for `rct serve`: request a graceful drain and return.
/// Async-signal-safe by construction — one atomic load plus one relaxed
/// atomic store (request_drain); wait() polls the flag and the normal
/// shutdown path (finish in-flight, flush telemetry, exit 0) runs on the
/// main thread.
extern "C" void serve_drain_signal_handler(int) {
  rct::server::Server* server = g_drain_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->request_drain();
}

/// `--metrics-interval-ms`: re-writes --metrics-out on a fixed cadence from
/// its own thread, so a scraper (or a human with `watch`) can follow a
/// long batch live.  The final authoritative write stays in obs_end.
class MetricsFlusher {
 public:
  explicit MetricsFlusher(const SpefFlags& flags)
      : flags_(flags),
        enabled_(flags.metrics_interval_ms > 0 && !flags.metrics_out.empty()) {
    if (enabled_) thread_ = std::thread([this] { loop(); });
  }

  ~MetricsFlusher() {
    if (!enabled_) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto interval = std::chrono::milliseconds(flags_.metrics_interval_ms);
    while (!cv_.wait_for(lock, interval, [this] { return done_; }))
      (void)write_metrics(flags_);  // transient I/O failures: retried next tick
  }

  const SpefFlags& flags_;
  const bool enabled_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// `--progress`: a single-line stderr heartbeat driven by the registry's
/// engine and parse counters, refreshed at most every 100 ms on its own
/// thread.  stdout is never touched.
class ProgressMeter {
 public:
  explicit ProgressMeter(bool enabled)
      : enabled_(enabled), start_(std::chrono::steady_clock::now()) {
    if (enabled_) thread_ = std::thread([this] { loop(); });
  }

  ~ProgressMeter() {
    if (!enabled_) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
    print_line();  // final state, then leave the line behind
    std::fprintf(stderr, "\n");
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    // wait_for throttles: >= 100 ms between updates, prompt exit on done.
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return done_; }))
      print_line();
  }

  void print_line() const {
    const auto& reg = obs::registry();
    const std::uint64_t done_nets = reg.counter_value("engine.nets.completed");
    const std::uint64_t failed = reg.counter_value("engine.nets.failed");
    const std::uint64_t degraded = reg.counter_value("engine.nets.degraded");
    const std::uint64_t hits = reg.counter_value("engine.cache.hits");
    const std::uint64_t misses = reg.counter_value("engine.cache.misses");
    // The net count is not known until the index pass lands, and then
    // grows as sections parse: use the live counter and show the parse
    // phase.
    const std::uint64_t sections_total = reg.counter_value("parse.sections.total");
    const std::uint64_t sections_done = reg.counter_value("parse.sections.completed");
    const std::uint64_t total = std::max(reg.counter_value("engine.nets.total"), done_nets);
    // "parse " + two 20-digit counts + "/" + ", " + NUL.
    char parse_phase[6 + 20 + 1 + 20 + 2 + 1] = "";
    if (sections_total > 0 && sections_done < sections_total)
      std::snprintf(parse_phase, sizeof(parse_phase), "parse %llu/%llu, ",
                    static_cast<unsigned long long>(sections_done),
                    static_cast<unsigned long long>(sections_total));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    char hit_rate[16] = "-";
    if (hits + misses > 0)
      std::snprintf(hit_rate, sizeof(hit_rate), "%.0f%%",
                    100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses));
    char eta[16] = "-";
    if (done_nets > 0 && done_nets < total)
      std::snprintf(eta, sizeof(eta), "%.1fs",
                    elapsed * static_cast<double>(total - done_nets) /
                        static_cast<double>(done_nets));
    // Live latency quantiles ride along once the histogram has samples
    // (absent under -DRCT_OBS=OFF, where Spans observe no histogram).
    char quantiles[64] = "";
    if (const obs::Histogram* h = reg.find_histogram("engine.net.analyze_seconds");
        h != nullptr && h->count() > 0)
      std::snprintf(quantiles, sizeof(quantiles), ", p50 %s / p95 %s",
                    format_time(h->quantile(0.50)).c_str(),
                    format_time(h->quantile(0.95)).c_str());
    std::fprintf(stderr, "\rbatch: %s%llu/%llu nets, %llu failed, %llu degraded, "
                 "cache hit %s%s, eta %s   ",
                 parse_phase, static_cast<unsigned long long>(done_nets),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(degraded), hit_rate, quantiles, eta);
    std::fflush(stderr);
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int cmd_spef(const SpefFlags& flags) {
  obs_begin(flags);
  int rc = 0;
  // The try block owns the flusher: on ANY exit — clean, parse error,
  // analysis throw — its destructor joins the flusher thread before
  // obs_end() writes the final (authoritative) metrics snapshot.
  try {
    const MetricsFlusher flusher(flags);
    const SpefFile file = parse_spef_input(flags);
    std::printf("design '%s': %zu net(s)\n", file.design.c_str(), file.nets.size());
    for (const SpefNet& net : file.nets) {
      const obs::Span span("cli.spef.net", "cli", net.name);
      std::printf("\n*D_NET %s  (driver %s, %zu nodes, %s total)\n", net.name.c_str(),
                  net.driver.c_str(), net.tree.size(),
                  format_engineering(net.tree.total_capacitance(), "F").c_str());
      const auto rows = core::build_report(net.tree, flags.batch.report);
      for (NodeId load : net.loads) {
        const auto& r = rows[load];
        std::printf("  load %-12s elmore %-10s bounds [%s, %s]", net.tree.name(load).c_str(),
                    format_time(r.elmore).c_str(), format_time(r.lower_bound).c_str(),
                    format_time(r.elmore).c_str());
        if (r.exact_delay) std::printf("  exact %s", format_time(*r.exact_delay).c_str());
        std::printf("\n");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  obs_end(flags);
  return rc;
}

/// `--top-slow N`: stderr table of the slowest analyzed nets by wall time
/// (cache hits and cancelled nets excluded — they did no analysis work).
void print_top_slow(const engine::BatchResult& result, std::size_t n) {
  std::vector<const engine::NetResult*> nets;
  for (const engine::NetResult& net : result.nets)
    if (!net.from_cache && net.code != robust::Code::kCancelled) nets.push_back(&net);
  std::sort(nets.begin(), nets.end(),
            [](const engine::NetResult* a, const engine::NetResult* b) {
              if (a->analyze_seconds != b->analyze_seconds)
                return a->analyze_seconds > b->analyze_seconds;
              return a->name < b->name;  // stable tie-break for tests
            });
  if (nets.size() > n) nets.resize(n);
  std::fprintf(stderr, "top %zu slowest net(s):\n", nets.size());
  for (const engine::NetResult* net : nets) {
    std::fprintf(stderr, "  %-24s %10s  %zu nodes%s%s%s\n", net->name.c_str(),
                 format_time(net->analyze_seconds).c_str(), net->nodes,
                 net->retried ? "  retried" : "", net->timed_out ? "  timed-out" : "",
                 net->ok() ? "" : "  FAILED");
  }
}

int cmd_batch(const SpefFlags& flags) {
  obs_begin(flags);
  std::signal(SIGTERM, flight_signal_handler);
  int rc = 1;
  // The flusher starts before the parse (so --metrics-interval-ms covers
  // the whole run) and its destructor joins deterministically on every
  // path out of this block, including a parse error; obs_end() then still
  // writes the final snapshot / trace / flight dump.
  try {
    const MetricsFlusher flusher(flags);
    engine::BatchOptions batch = flags.batch;
    if (!flags.store_dir.empty()) {
      auto store = std::make_shared<server::DiskStore>(flags.store_dir);
      if (!store->ok()) throw robust::Error(robust::Code::kFileOpen, store->error());
      batch.cache_backend = std::move(store);
    }
    SpefParseOptions parse_opts;
    parse_opts.lenient = flags.lenient;
    // One pool, each *D_NET section parsed and analyzed as one task —
    // parsing overlaps analysis with no barrier between them.
    engine::FileBatchResult file_result;
    {
      const ProgressMeter progress(flags.progress);
      file_result = engine::analyze_spef_file(flags.positional[0], batch, parse_opts);
    }
    print_parse_diagnostics(file_result.diagnostics, file_result.nets_rejected);
    const engine::BatchResult& result = file_result.batch;
    // Timings and thread counts go to stderr so stdout stays byte-identical
    // for every --jobs value (and with observability on or off).
    std::fprintf(stderr, "%s\n", result.stats.summary().c_str());
    if (flags.top_slow > 0) print_top_slow(result, flags.top_slow);
    // Postmortem on any fatal-ish outcome: the flight recorder tape names
    // the nets that failed or timed out, with phases and durations.
    if (result.stats.failures > 0 || result.stats.timed_out > 0)
      std::fprintf(stderr, "%s", obs::flight::recorder().format_text().c_str());
    {
      const obs::Span span("cli.batch.render", "cli");
      if (flags.json)
        std::printf("%s\n", engine::format_batch_json(result).c_str());
      else
        std::printf("%s", engine::format_batch(result).c_str());
    }
    rc = result.stats.failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  obs_end(flags);
  return rc;
}

int cmd_serve(const SpefFlags& flags) {
  obs_begin(flags);
  std::signal(SIGTERM, flight_signal_handler);
  int rc = 0;
  try {
    const MetricsFlusher flusher(flags);
    server::ServeOptions options;
    if (!flags.listen.empty()) options.listen = flags.listen;
    options.store_dir = flags.store_dir;
    options.jobs = flags.batch.jobs;
    options.parse_jobs = flags.parse_jobs == SIZE_MAX ? flags.batch.jobs : flags.parse_jobs;
    options.cache_max_entries = flags.batch.cache_max_entries;
    options.request_timeout_ms =
        flags.request_timeout_ms != 0 ? flags.request_timeout_ms : flags.batch.net_timeout_ms;
    options.report = flags.batch.report;
    options.lenient = flags.lenient;
    options.flight_out = flags.flight_out;
    options.http = flags.http;
    options.max_connections = flags.max_connections;
    options.max_queue_depth = flags.max_queue_depth;
    options.drain_timeout_ms = flags.drain_timeout_ms;
    options.idle_timeout_ms = flags.idle_timeout_ms;
    options.store_max_bytes = flags.store_max_bytes;
    server::Server server(options);
    for (const std::string& path : flags.preload) {
      const std::string handle = server.load_design(path, flags.lenient);
      std::fprintf(stderr, "preloaded %s as %s\n", path.c_str(), handle.c_str());
    }
    // A listener failure is a plain message ("error: <why>", exit 1), like
    // `rct client`'s connect failure: it is not a parse error.
    if (!server.start()) throw std::runtime_error(server.error());
    // From here on SIGTERM/SIGINT mean "drain gracefully, exit 0" — the
    // daemon contract — instead of the batch commands' dump-and-die.
    g_drain_server.store(&server, std::memory_order_relaxed);
    std::signal(SIGTERM, serve_drain_signal_handler);
    std::signal(SIGINT, serve_drain_signal_handler);
    // Announce the bound address on stdout (tests and scripts wait for this
    // line; with --listen 0 it is the only place the ephemeral port shows).
    std::printf("listening on %s\n", server.address().c_str());
    // Same for the telemetry endpoint: with --http 0 this line is the only
    // place the scrape port shows.
    if (!flags.http.empty()) std::printf("telemetry on %s\n", server.http_address().c_str());
    std::fflush(stdout);
    server.wait();
    server.stop();
    g_drain_server.store(nullptr, std::memory_order_relaxed);
    std::fprintf(stderr, "served %llu request(s), shed %llu\n",
                 static_cast<unsigned long long>(server.requests_served()),
                 static_cast<unsigned long long>(server.requests_shed()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  obs_end(flags);
  return rc;
}

/// Builds one protocol request from client-command tokens (`report clk_1
/// --design a1b2 --leaves-only`).  Shared verbatim by the one-shot and
/// --batch forms, so both speak exactly the protocol.hpp encoder.
bool build_client_request(const std::vector<std::string>& tokens, server::Request& request,
                          std::string& error) {
  if (tokens.empty()) {
    error = "empty command";
    return false;
  }
  request.cmd = tokens[0];
  // Every command takes at most one positional argument: keep the first,
  // count them all.
  const std::string* positional = nullptr;
  std::size_t positionals = 0;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& arg = tokens[i];
    auto value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= tokens.size()) {
        error = std::string(flag) + " expects a value";
        return nullptr;
      }
      return &tokens[++i];
    };
    if (arg == "--design") {
      if (const std::string* v = value("--design")) request.design = *v;
      else return false;
    } else if (arg == "--lenient") {
      request.lenient = true;
    } else if (arg == "--leaves-only") {
      request.leaves_only = true;
    } else if (arg == "--no-exact") {
      request.with_exact = false;
      request.has_with_exact = true;
    } else if (arg == "--with-exact") {
      request.with_exact = true;
      request.has_with_exact = true;
    } else if (arg == "--exact-limit") {
      if (const std::string* v = value("--exact-limit"))
        request.exact_limit = std::strtoull(v->c_str(), nullptr, 10);
      else return false;
    } else if (arg == "--timeout-ms") {
      if (const std::string* v = value("--timeout-ms"))
        request.timeout_ms = std::strtoull(v->c_str(), nullptr, 10);
      else return false;
    } else if (arg == "--fraction") {
      if (const std::string* v = value("--fraction"))
        request.fraction = std::strtod(v->c_str(), nullptr);
      else return false;
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown client flag '" + arg + "'";
      return false;
    } else {
      if (positionals++ == 0) positional = &arg;
    }
  }
  if (request.cmd == "load") {
    if (positionals != 1) {
      error = "load expects exactly one file";
      return false;
    }
    request.path = *positional;
  } else if (request.cmd == "report" || request.cmd == "bounds") {
    if (positionals != 1) {
      error = request.cmd + " expects exactly one net name";
      return false;
    }
    request.net = *positional;
  } else if (request.cmd == "trace") {
    if (positionals != 1) {
      error = "trace expects exactly one trace id";
      return false;
    }
    request.trace = *positional;
  } else if (positionals != 0) {
    error = request.cmd + " takes no positional arguments";
    return false;
  }
  return true;
}

/// Splits a --batch line into whitespace-separated tokens ('#' comments).
std::vector<std::string> tokenize_client_line(const std::string& line) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

/// After the traced commands ran, pulls each request's server-side span
/// slice over the same connection, rebases it onto the client clock and
/// writes one stitched Perfetto file.  Best-effort: a server that already
/// shut down (or predates the `trace` command) still yields the client
/// half of every timeline.
void write_stitched_traces(server::Client& client, std::uint64_t& next_id,
                           std::vector<server::StitchedTrace>& traces,
                           const std::string& trace_out) {
  for (server::StitchedTrace& trace : traces) {
    server::Request fetch;
    fetch.id = next_id++;
    fetch.cmd = "trace";
    fetch.trace = trace.trace_id;
    std::string response;
    if (!client.roundtrip(server::encode_request(fetch), response)) break;
    if (!server::response_ok(response)) continue;
    if (!server::parse_trace_spans(response, trace.server_spans)) continue;
    server::rebase_spans(trace.server_spans, trace.send_ns, trace.recv_ns);
  }
  std::ofstream out(trace_out);
  if (out) out << server::stitched_chrome_json(traces) << '\n';
  if (!out)
    std::fprintf(stderr, "warning: cannot write trace to '%s'\n", trace_out.c_str());
}

int cmd_client(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string target = argv[2];
  // --trace-out / --retries / --retry-budget may sit anywhere after the
  // target; everything else passes through to the command builder
  // untouched.
  std::string trace_out;
  server::RetryPolicy retry;
  std::vector<std::string> args;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace-out expects a value\n");
        return 2;
      }
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --retries expects a value\n");
        return 2;
      }
      retry.max_attempts = std::atoi(argv[++i]) + 1;
    } else if (std::strcmp(argv[i], "--retry-budget") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --retry-budget expects a value\n");
        return 2;
      }
      retry.budget_ms = std::strtoull(argv[++i], nullptr, 10);
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) return usage();
  server::Client client;
  // With retries armed, a failed first connect is not fatal: the server may
  // still be starting (or restarting), and request() reconnects with backoff.
  if (!client.connect(target) && retry.max_attempts <= 1) {
    std::fprintf(stderr, "error: %s\n", client.error().c_str());
    return 1;
  }
  std::uint64_t next_id = 1;
  bool all_ok = true;
  std::vector<server::StitchedTrace> traces;
  const auto run_one = [&](const std::vector<std::string>& tokens) -> bool {
    server::Request request;
    std::string build_error;
    if (!build_client_request(tokens, request, build_error)) {
      std::fprintf(stderr, "error: %s\n", build_error.c_str());
      all_ok = false;
      return true;  // a bad batch line does not kill the session
    }
    request.id = next_id++;
    const bool traced = !trace_out.empty() && request.cmd != "trace";
    if (traced) {
      request.trace = server::generate_trace_id();
      request.span = server::generate_trace_id();
    }
    // Client-side timeline: serialize and roundtrip, on the process tracer
    // clock (the same clock the server slice is rebased onto).
    const std::uint64_t t_start = traced ? obs::tracer().now_ns() : 0;
    const std::string line = server::encode_request(request);
    const std::uint64_t t_sent = traced ? obs::tracer().now_ns() : 0;
    std::string response;
    // request() with the default policy degenerates to one roundtrip;
    // --retries arms reconnect + backoff without a second code path.
    const bool ok = client.request(line, response, retry);
    if (traced) {
      const std::uint64_t t_recv = obs::tracer().now_ns();
      server::StitchedTrace trace;
      trace.trace_id = request.trace;
      trace.send_ns = t_sent;
      trace.recv_ns = t_recv;
      trace.client_spans.push_back(
          {"client.request", request.net.empty() ? request.cmd : request.net, t_start,
           t_recv - t_start});
      trace.client_spans.push_back({"client.serialize", {}, t_start, t_sent - t_start});
      trace.client_spans.push_back({"client.roundtrip", {}, t_sent, t_recv - t_sent});
      traces.push_back(std::move(trace));
    }
    if (!ok) {
      std::fprintf(stderr, "error: %s\n", client.error().c_str());
      all_ok = false;
      return false;
    }
    std::printf("%s\n", response.c_str());
    if (!server::response_ok(response)) all_ok = false;
    return true;
  };
  if (args[0] == "--batch") {
    if (args.size() < 2) return usage();
    std::ifstream in(args[1]);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", args[1].c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::vector<std::string> tokens = tokenize_client_line(line);
      if (tokens.empty()) continue;
      if (!run_one(tokens)) break;
    }
  } else {
    run_one(args);
  }
  if (!trace_out.empty()) write_stitched_traces(client, next_id, traces, trace_out);
  return all_ok ? 0 : 1;
}

/// `rct validate <file.spef> [--jobs N]`: lenient parse,
/// one diagnostic per line on stdout, human summary plus parse throughput
/// (bytes, nets/s, wall) on stderr.  Exit 0 = clean, 1 = any diagnostic.
int cmd_validate(const SpefFlags& flags) {
  const std::string& path = flags.positional[0];
  engine::ParseOptions opt;
  opt.jobs = flags.batch.jobs;
  opt.spef.lenient = true;
  const engine::ParsedSpef parsed = engine::parse_spef_parallel_file(path, opt);
  const SpefFile& file = parsed.file;
  std::printf("%s", robust::format_diagnostics(file.diagnostics).c_str());
  std::fprintf(stderr, "%s: %zu net(s) parsed, %zu net section(s) rejected, "
               "%zu diagnostic(s)\n",
               path.c_str(), file.nets.size(), file.nets_rejected,
               file.diagnostics.size());
  std::fprintf(stderr, "%s\n", parsed.stats.summary().c_str());
  return file.diagnostics.empty() ? 0 : 1;
}

int cmd_convert(const std::string& in_path, const std::string& out_path) {
  const ParsedNetlist parsed = parse_netlist_file(in_path);
  const SpefFile f = spef_from_tree(parsed.tree,
                                    parsed.title.empty() ? "net0" : parsed.title, "rct");
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << write_spef(f);
  std::printf("wrote %s (%zu nodes)\n", out_path.c_str(), parsed.tree.size());
  return 0;
}

int cmd_delay_curve(const std::string& path, const std::string& node_name) {
  const ParsedNetlist parsed = parse_netlist_file(path);
  const NodeId node = parsed.tree.at(node_name);
  const sim::ExactAnalysis exact(parsed.tree);
  const double tau = exact.dominant_time_constant();
  const auto curve = core::delay_curve(parsed.tree, exact, node,
                                       core::log_sweep(0.05 * tau, 100.0 * tau, 30));
  std::printf("rise_time_s,delay_s,elmore_s,relative_error\n");
  for (const auto& p : curve)
    std::printf("%.6e,%.6e,%.6e,%.6f\n", p.rise_time, p.delay, p.elmore, p.relative_error);
  return 0;
}

int cmd_dot(const std::string& path) {
  const ParsedNetlist parsed = parse_netlist_file(path);
  // Annotate every node with its Elmore delay for at-a-glance debugging.
  const analysis::TreeContext ctx(parsed.tree);
  const auto td = ctx.elmore_delays();
  DotOptions opt;
  for (NodeId i = 0; i < parsed.tree.size(); ++i)
    opt.annotations[i] = "TD=" + format_time(td[i]);
  std::printf("%s", to_dot(parsed.tree, opt).c_str());
  return 0;
}

int cmd_bode(const std::string& path, const std::string& node_name) {
  const ParsedNetlist parsed = parse_netlist_file(path);
  const NodeId node = parsed.tree.at(node_name);
  const sim::ExactAnalysis exact(parsed.tree);
  const sim::AcAnalysis ac(exact);
  const double f0 = exact.poles().front() / (2.0 * M_PI);
  std::printf("# -3dB bandwidth: %.6e Hz\n", ac.bandwidth_3db(node));
  std::printf("freq_hz,mag_db,phase_deg\n");
  for (const auto& p : ac.bode(node, 0.001 * f0, 1000.0 * f0, 40))
    std::printf("%.6e,%.3f,%.3f\n", p.freq_hz, p.magnitude_db, p.phase_deg);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // `serve` and `client` carry their own argument checks; everything else
  // needs at least one positional argument.
  if (argc < 3 && cmd != "serve" && cmd != "client") return usage();
  try {
    if (cmd == "report" && argc == 3) return cmd_report(argv[2]);
    if (cmd == "dot" && argc == 3) return cmd_dot(argv[2]);
    if (cmd == "spef" || cmd == "batch") {
      const SpefFlags flags = parse_spef_flags(argc, argv, 2);
      if (!flags.ok || flags.positional.size() != 1) return usage();
      return cmd == "spef" ? cmd_spef(flags) : cmd_batch(flags);
    }
    if (cmd == "serve") {
      const SpefFlags flags = parse_spef_flags(argc, argv, 2, /*serve_mode=*/true);
      if (!flags.ok || !flags.positional.empty()) return usage();
      return cmd_serve(flags);
    }
    if (cmd == "client") return cmd_client(argc, argv);
    if (cmd == "validate") {
      const SpefFlags flags = parse_spef_flags(argc, argv, 2);
      if (!flags.ok || flags.positional.size() != 1) return usage();
      return cmd_validate(flags);
    }
    if (cmd == "convert" && argc == 4) return cmd_convert(argv[2], argv[3]);
    if (cmd == "delay-curve" && argc == 4) return cmd_delay_curve(argv[2], argv[3]);
    if (cmd == "bode" && argc == 4) return cmd_bode(argv[2], argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
