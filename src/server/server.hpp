#pragma once
// server::Server — the long-running timing daemon behind `rct serve`.
//
// One process holds parsed designs, their computed report rows and the
// rows' rendered JSON in memory and answers newline-delimited JSON requests (see protocol.hpp)
// from many concurrent clients, so interactive queries against a large
// extracted design cost microseconds instead of a full parse + analysis
// per invocation.
//
// Threading model:
//   - one server::Acceptor (socket.hpp, shared with the telemetry
//     endpoint): an accept thread polling with a short timeout so stop() is
//     prompt, and one thread per connection reading lines and writing
//     responses (finished connections are reaped by the accept loop, all
//     joined at stop()),
//   - a report whose rows are in memory is answered on the thread that
//     called handle_line (the connection thread), with no hand-off;
//     `load` and report misses (store reads, builds) are dispatched onto
//     the shared work-stealing engine::ThreadPool, so N chatty clients
//     contend for `jobs` workers instead of spawning unbounded
//     computation threads.
//
// State and consistency:
//   - designs_: content-handle → parsed SPEF.  The handle is a 12-hex FNV
//     of the file bytes, so re-loading an unchanged file is a cheap rebind
//     and two servers pointed at one store agree on identity.
//   - cache_: the engine's sharded NetCache (rows plus their render slots,
//     optional LRU cap), backed by an optional server::DiskStore.  The
//     first memory hit of a (net, report|bounds) pair attaches the rows'
//     name-free JSON to the entry; later hits splice the live tree's node
//     names into those bytes instead of re-rendering.  The server retains
//     no TreeContext: a miss builds a transient one.
//   - The disk store is multi-writer safe (atomic renames); entries are
//     immutable once written, so cross-server sharing needs no locking.
//
// Every request runs under one obs::Span ("server.request") that feeds the
// `server.request.seconds` histogram, a per-command split
// (`server.request.<cmd>.seconds`) and the trace; the report phases
// (server.cache.lookup, context.build, report.build, render) are spans
// inside it.  Each request is recorded in the flight recorder (phase
// "serve"); failures optionally dump the recorder to `flight_out`.
// Connect/disconnect/evict/shutdown emit structured log events.
//
// Telemetry surface: `http` in ServeOptions starts an embedded HTTP
// listener (see http.hpp) serving /metrics (Prometheus exposition),
// /healthz, /varz (JSON metrics snapshot) and /flight (flight-recorder
// dump).  A request carrying a client trace id runs with an obs::Tape
// installed on its connection thread and its pool task; the spans it
// closes (plus server.queue_wait) go to a bounded RequestTraceStore,
// fetchable with the `trace` command and stitched client-side into one
// Perfetto timeline (see request_trace.hpp).
//
// Listening: `listen` is a unix-domain socket path, or — when it is all
// digits — a TCP port on 127.0.0.1 (0-65535; 0 picks an ephemeral port,
// reported by address()/port() for tests).  Spec parsing, bind, connect
// and send all live in socket.hpp, shared with http.hpp and client.hpp.
//
// Overload resilience (see DESIGN.md "Operations"):
//   - Admission control: pool-bound work (`load`, report/bounds misses)
//     passes a bounded dispatch queue; past the cap the request is shed
//     immediately with a typed `overloaded` response carrying a
//     `retry_after_ms` hint scaled to the current queue depth.  A memory
//     hit never enters the queue, so it is never shed.  Connections past
//     --max-connections are answered with the same typed line and closed.
//     Control commands (ping/stats/evict/trace/shutdown) always answer.
//   - Lifecycle: starting → serving → degraded → draining → stopped.
//     `degraded` is computed, not stored: serving plus a nearly-full queue
//     or a recent shed.  The state shows up in `ping`, `stats`, /healthz
//     (503 while draining) and the `server.state` gauge.
//   - Graceful drain: request_drain() is async-signal-safe (one atomic
//     store); wait() polls it, and stop() then stops accepting, lets
//     in-flight work finish until --drain-timeout-ms, cancels whatever
//     remains via cooperative robust::Deadline::cancel(), and only then
//     joins.  Idle connections notice within ~200ms via a recv timeout.
//   - Socket hygiene: request lines are capped (kMaxRequestLine; oversized
//     input gets a typed `request-too-large` response and the connection
//     stays usable), reads carry an idle timeout, writes a send timeout.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "engine/net_cache.hpp"
#include "engine/thread_pool.hpp"
#include "rctree/spef.hpp"
#include "robust/deadline.hpp"
#include "server/http.hpp"
#include "server/protocol.hpp"
#include "server/request_trace.hpp"
#include "server/socket.hpp"
#include "server/store.hpp"

namespace rct::server {

/// Configuration for one Server instance (CLI: `rct serve`).
struct ServeOptions {
  /// Unix socket path, or an all-digits TCP port (0-65535) on 127.0.0.1.
  std::string listen = "rct.sock";
  /// On-disk store directory; empty = memory-only cache.
  std::string store_dir;
  /// Worker threads for report/load work; 0 = hardware concurrency.
  std::size_t jobs = 0;
  /// Parser threads for `load` / --preload SPEF ingestion (CLI:
  /// --parse-jobs); 0 = hardware concurrency.
  std::size_t parse_jobs = 0;
  /// LRU cap for the in-memory cache (0 = unbounded).
  std::size_t cache_max_entries = 0;
  /// Default per-request deadline; requests may override; 0 = none.
  std::uint64_t request_timeout_ms = 0;
  /// Default report options (with_exact / fraction / leaves_only /
  /// exact_node_limit); requests override per-field.
  core::ReportOptions report;
  /// Parse preloaded/loaded SPEF leniently by default.
  bool lenient = false;
  /// Flight-recorder dump target on request failure ("" = no dump,
  /// "-" = stderr).
  std::string flight_out;
  /// Telemetry HTTP listener spec, parsed like `listen` (0 = ephemeral);
  /// "" = no HTTP endpoint.
  std::string http;
  /// Admission control: concurrent client connections (0 = unbounded; the
  /// default 256 bounds the one-thread-per-connection model) and pool-bound
  /// requests queued or running (0 = 4× worker threads).
  std::size_t max_connections = 256;
  std::size_t max_queue_depth = 0;
  /// Close connections silent for this long (0 = never).
  std::uint64_t idle_timeout_ms = 30000;
  /// Graceful-drain budget: in-flight requests get this long to finish
  /// before they are cooperatively cancelled.
  std::uint64_t drain_timeout_ms = 5000;
  /// DiskStore capacity cap in bytes (0 = unbounded); see store.hpp GC.
  std::uint64_t store_max_bytes = 0;
};

/// Server lifecycle state (the `server.state` gauge exports the numeric
/// value in declaration order).
enum class ServerState { kStarting = 0, kServing, kDegraded, kDraining, kStopped };

/// Stable lowercase name ("serving", "draining"...) for ping/healthz/stats.
[[nodiscard]] std::string_view server_state_name(ServerState state);

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the accept thread.  False (with error())
  /// when the address cannot be bound.
  [[nodiscard]] bool start();

  /// Human-readable bound address: "unix:<path>" or "tcp:127.0.0.1:<port>".
  [[nodiscard]] const std::string& address() const { return acceptor_.address(); }
  /// Bound TCP port (after start(); 0 for unix sockets).
  [[nodiscard]] int port() const { return acceptor_.port(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// The telemetry endpoint's bound address ("" when `http` is unset) and
  /// TCP port (0 for unix sockets / no endpoint); valid after start().
  [[nodiscard]] std::string http_address() const {
    return http_ != nullptr ? http_->address() : std::string();
  }
  [[nodiscard]] int http_port() const { return http_ != nullptr ? http_->port() : 0; }

  /// Seconds since this Server was constructed, in whole milliseconds (the
  /// `ping` and /healthz uptime_s field).
  [[nodiscard]] double uptime_seconds() const {
    return static_cast<double>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - started_at_)
                                   .count()) /
           1e3;
  }

  /// Blocks until a client issues `shutdown`, stop() is called, or
  /// request_drain() fires (polled, so a signal handler can trigger it).
  void wait();

  /// Stops accepting, drains in-flight work (up to drain_timeout_ms, then
  /// cooperative cancellation), closes every connection, joins all
  /// threads.  Idempotent.
  void stop();

  /// Marks the server for graceful drain.  Async-signal-safe: one relaxed
  /// atomic store, nothing else — the SIGTERM/SIGINT handlers in `rct
  /// serve` call exactly this.  wait() notices within ~100ms.
  void request_drain() { drain_requested_.store(true, std::memory_order_relaxed); }

  /// Current lifecycle state; `degraded` is computed from queue pressure
  /// and recent sheds, the rest track start()/stop().
  [[nodiscard]] ServerState current_state() const;

  /// Pool-bound requests (`load`, report misses) queued or running right
  /// now / shed so far.  Memory hits are answered on the caller's thread
  /// and never counted here.
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_shed() const {
    return sheds_.load(std::memory_order_relaxed);
  }

  /// Longest request line the NDJSON path accepts (1 MiB); longer input
  /// draws a typed `request-too-large` response and is discarded without
  /// closing the connection.
  static constexpr std::size_t kMaxRequestLine = 1 << 20;

  /// Parses and registers a design (the `--preload` path and the worker
  /// behind the `load` command).  Returns its content handle; throws
  /// robust::Error on parse failure.
  std::string load_design(const std::string& path, bool lenient);

  /// Handles one protocol line and returns the response line (no trailing
  /// newline).  Public so tests and in-process benchmarks can drive the
  /// full command surface without sockets; connection threads call exactly
  /// this.  Thread-safe.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Requests served so far (all commands, failures included).
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  /// One parsed design held in memory.
  struct Design {
    std::string handle;  ///< 12-hex FNV-1a of the file bytes
    std::string path;
    SpefFile file;
    std::unordered_map<std::string, std::size_t> net_index;  ///< name → nets[i]
  };

  /// handle_line after the parse: the root span, dispatch and the typed
  /// error responses.
  [[nodiscard]] std::string handle_request(const ParsedRequest& parsed);
  [[nodiscard]] std::string dispatch(const Request& request);
  [[nodiscard]] std::string cmd_ping(const Request& request);
  [[nodiscard]] std::string cmd_load(const Request& request);
  [[nodiscard]] std::string cmd_report(const Request& request, bool bounds_only);
  [[nodiscard]] std::string cmd_stats(const Request& request);
  [[nodiscard]] std::string cmd_evict(const Request& request);
  [[nodiscard]] std::string cmd_trace(const Request& request);
  [[nodiscard]] std::string cmd_shutdown(const Request& request);

  /// Routes one telemetry GET (/metrics, /healthz, /varz, /flight).
  [[nodiscard]] HttpResponse route_http(std::string_view path);
  /// Refreshes the server-level gauges (designs, nets, cache, store hit
  /// rate) from current state; called after loads/evicts and on scrape.
  void update_gauges();

  /// Resolves a design by handle, SPEF design name, or "" (most recently
  /// loaded).  nullptr when unknown.
  [[nodiscard]] std::shared_ptr<const Design> find_design(const std::string& ref);

  /// What every report runs on the thread that answers it: a Deadline of
  /// `timeout_ms` registered in flight, the `server.report` fault sites and
  /// the first deadline checkpoint; then returns fn(deadline).
  template <class Fn>
  [[nodiscard]] std::string run_guarded(std::uint64_t timeout_ms, Fn&& fn);
  /// The response to a report served from `hit`: splices its rendering, or
  /// renders its rows (attached to the entry when `hit` is a memory hit).
  [[nodiscard]] std::string answer_report(const Request& request, const Design& design,
                                          const SpefNet& net, const engine::NetKey& key,
                                          bool bounds_only, engine::NetCache::RenderedLookup hit);
  /// Runs `fn` (callable as std::string()) on the pool and waits; its
  /// exception is rethrown on the caller.  The hand-off allocates nothing:
  /// the pool task refers to `fn` and to a completion record in the
  /// caller's frame.  Admission control lives here: past the queue cap the
  /// call throws robust::Error(kOverloaded) without submitting anything.
  template <class Fn>
  [[nodiscard]] std::string run_on_pool(Fn&& fn);

  /// Queue cap in effect (options or the 4×threads default).
  [[nodiscard]] std::size_t effective_queue_cap() const;
  /// Backoff hint for a shed response, scaled to current queue pressure.
  [[nodiscard]] std::uint64_t retry_after_hint_ms() const;
  /// Records one shed (counter + the degraded-state freshness clock).
  void note_shed();

  /// In-flight deadline registry: report bodies register their
  /// Deadline so a drain past its budget can cancel them cooperatively.
  void register_inflight(const robust::Deadline* deadline);
  void unregister_inflight(const robust::Deadline* deadline);
  void cancel_inflight();

  /// The acceptor's per-connection hook: socket timeouts, then the
  /// max_connections cap (a typed `overloaded` line, then false).
  [[nodiscard]] bool admit(int fd, std::size_t live);
  void serve_connection(int fd);

  ServeOptions options_;
  std::string error_;
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  engine::ThreadPool pool_;
  engine::NetCache cache_;
  std::shared_ptr<DiskStore> store_;  ///< nullptr when store_dir is empty
  std::unique_ptr<HttpServer> http_;  ///< nullptr when options_.http is empty
  RequestTraceStore traces_;          ///< server-side span slices per trace id

  std::mutex designs_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Design>> designs_;
  std::string last_design_;  ///< handle of the most recent load


  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool shutdown_requested_ = false;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< guarded by stop_mutex_; stop() ran to completion
  std::atomic<bool> drain_requested_{false};  ///< set by signal handlers

  std::atomic<std::uint64_t> requests_{0};

  // Admission control + lifecycle (see header comment).
  std::atomic<int> state_{static_cast<int>(ServerState::kStarting)};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> last_shed_ns_{0};  ///< steady-clock ns of the last shed

  std::mutex inflight_mutex_;
  std::vector<const robust::Deadline*> inflight_;

  /// The protocol listener and its connection threads; declared last, after
  /// everything those threads use.
  Acceptor acceptor_;
};

}  // namespace rct::server
