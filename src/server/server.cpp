#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "analysis/tree_context.hpp"
#include "engine/parallel_parse.hpp"
#include "obs/flight.hpp"
#include "obs/instruments.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "server/line_reader.hpp"
#include "server/version.hpp"

namespace rct::server {
namespace {

/// Per-command latency split over the protocol's command vocabulary.  An
/// unknown command gets no histogram: it must not mint registry entries.
obs::Histogram* command_histogram(std::string_view cmd) {
  using obs::H;
  static constexpr std::pair<std::string_view, H> kSplit[] = {
      {"report", H::kServerRequestReport}, {"bounds", H::kServerRequestBounds},
      {"load", H::kServerRequestLoad},     {"ping", H::kServerRequestPing},
      {"stats", H::kServerRequestStats},   {"evict", H::kServerRequestEvict},
      {"trace", H::kServerRequestTrace},   {"shutdown", H::kServerRequestShutdown}};
  for (const auto& [name, id] : kSplit)
    if (name == cmd) return &obs::histogram(id);
  return nullptr;
}

/// 12-hex content handle of a design (FNV-1a of the raw file bytes,
/// truncated — short enough to type, long enough that two designs loaded
/// into one server never collide in practice).
std::string design_handle(std::string_view file_bytes) {
  char buf[13];
  std::snprintf(buf, sizeof(buf), "%012llx",
                static_cast<unsigned long long>(fnv1a(file_bytes) & 0xffffffffffffULL));
  return buf;
}

const char* source_name(engine::CacheSource source) {
  switch (source) {
    case engine::CacheSource::kMemory: return "memory";
    case engine::CacheSource::kBackend: return "store";
    case engine::CacheSource::kMiss: return "computed";
  }
  return "computed";
}

engine::RenderFlavor render_flavor(bool bounds_only) {
  return bounds_only ? engine::RenderFlavor::kBounds : engine::RenderFlavor::kReport;
}

/// One row's JSON after its name: `,"depth":…}`.  The full row object is
/// `{"name":` + the escaped node name + this fragment, so fragments are
/// name-free and one cached rendering serves every content twin.
void append_row_json(std::string& out, const core::NodeReport& row, bool bounds_only) {
  out += ",\"depth\":" + std::to_string(row.depth);
  out += ",\"elmore\":";
  json::append_number(out, row.elmore);
  out += ",\"lower_bound\":";
  json::append_number(out, row.lower_bound);
  out += ",\"prh_tmin\":";
  json::append_number(out, row.prh_tmin);
  out += ",\"prh_tmax\":";
  json::append_number(out, row.prh_tmax);
  if (!bounds_only) {
    out += ",\"sigma\":";
    json::append_number(out, row.sigma);
    out += ",\"skewness\":";
    json::append_number(out, row.skewness);
    out += ",\"single_pole\":";
    json::append_number(out, row.single_pole);
    if (row.exact_delay.has_value()) {
      out += ",\"exact_delay\":";
      json::append_number(out, *row.exact_delay);
    }
    if (row.exact_rise.has_value()) {
      out += ",\"exact_rise\":";
      json::append_number(out, *row.exact_rise);
    }
  }
  if (row.degraded) out += ",\"degraded\":true";
  out.push_back('}');
}

/// Renders `rows` into name-free per-row fragments (see append_row_json).
std::shared_ptr<const engine::Rendering> render_rows(const std::vector<core::NodeReport>& rows,
                                                     bool bounds_only) {
  obs::counter(obs::C::kServerRenderFresh).add();
  auto rendering = std::make_shared<engine::Rendering>();
  rendering->text.reserve(rows.size() * (bounds_only ? 128 : 320));
  rendering->row_ends.reserve(rows.size());
  rendering->nodes.reserve(rows.size());
  for (const core::NodeReport& row : rows) {
    append_row_json(rendering->text, row, bounds_only);
    rendering->row_ends.push_back(rendering->text.size());
    rendering->nodes.push_back(row.node);
  }
  rendering->text.shrink_to_fit();  // cached renderings are held, not grown
  return rendering;
}

/// Appends the rows of `rendering` as JSON objects, splicing each row's
/// node name from the live `tree` ahead of its fragment.
void splice_rows(std::string& out, const engine::Rendering& rendering, const RCTree& tree) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < rendering.row_ends.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    json::append_string(out, tree.name(rendering.nodes[i]));
    out.append(rendering.text, begin, rendering.row_ends[i] - begin);
    begin = rendering.row_ends[i];
  }
}

}  // namespace

std::string_view server_state_name(ServerState state) {
  switch (state) {
    case ServerState::kStarting: return "starting";
    case ServerState::kServing: return "serving";
    case ServerState::kDegraded: return "degraded";
    case ServerState::kDraining: return "draining";
    case ServerState::kStopped: return "stopped";
  }
  return "?";
}

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      pool_(options_.jobs),
      cache_(16, options_.cache_max_entries),
      acceptor_([this](int fd, std::size_t live) { return admit(fd, live); },
                [this](int fd) { serve_connection(fd); },
                // Read side only: blocked recv()s return 0, but an in-flight
                // response (e.g. the shutdown ack) still drains first.
                Acceptor::Shutdown::kRead) {
  if (!options_.store_dir.empty()) {
    store_ = std::make_shared<DiskStore>(options_.store_dir, options_.store_max_bytes);
    if (store_->ok()) {
      cache_.set_backend(store_);
    } else {
      obs::log::warn("server.store_disabled", {{"error", std::string_view(store_->error())}});
      store_.reset();
    }
  }
}

Server::~Server() { stop(); }

bool Server::start() {
  if (!acceptor_.open(options_.listen, "tcp:", error_)) return false;
  if (!options_.http.empty()) {
    http_ = std::make_unique<HttpServer>(
        options_.http, [this](std::string_view path) { return route_http(path); });
    if (!http_->start()) {
      error_ = "http: " + http_->error();
      http_.reset();
      acceptor_.close();
      return false;
    }
  }
  obs::log::info("server.start", {{"address", std::string_view(address())},
                                  {"threads", static_cast<std::uint64_t>(pool_.thread_count())}});
  acceptor_.start();
  state_.store(static_cast<int>(ServerState::kServing), std::memory_order_release);
  update_gauges();
  return true;
}

ServerState Server::current_state() const {
  const auto base = static_cast<ServerState>(state_.load(std::memory_order_acquire));
  if (base != ServerState::kServing) return base;
  // Degraded is an overlay, not a stored state: the queue is nearly full,
  // or admission shed something in the last 5 seconds.
  const std::size_t cap = effective_queue_cap();
  if (cap != 0 && queue_depth_.load(std::memory_order_relaxed) >= cap - cap / 4)
    return ServerState::kDegraded;
  const std::uint64_t last = last_shed_ns_.load(std::memory_order_relaxed);
  if (last != 0 && obs::steady_now_ns() - last < 5'000'000'000ULL) return ServerState::kDegraded;
  return ServerState::kServing;
}

void Server::wait() {
  // Polls (100ms) instead of a pure wait so a signal handler's
  // request_drain() — which cannot touch the condition variable — still
  // wakes us promptly.
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!shutdown_requested_ && !drain_requested_.load(std::memory_order_relaxed))
    stop_cv_.wait_for(lock, std::chrono::milliseconds(100));
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    // Someone else is (or finished) stopping; wait for them.
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stopped_; });
    return;
  }
  state_.store(static_cast<int>(ServerState::kDraining), std::memory_order_release);
  obs::gauge(obs::G::kServerState).set(static_cast<int>(ServerState::kDraining));
  obs::log::info("server.drain",
                 {{"conns", obs::gauge(obs::G::kServerConnectionsActive).value()},
                  {"queue_depth",
                   static_cast<std::uint64_t>(queue_depth_.load(std::memory_order_relaxed))}});
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    shutdown_requested_ = true;
  }
  stop_cv_.notify_all();
  // Stop taking on new work first; connections notice stopping_ within
  // ~200ms (recv timeout) and close themselves once their current request
  // is answered.
  acceptor_.stop_accepting();
  // Drain window: give in-flight requests drain_timeout_ms to finish.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  bool drained = false;
  for (;;) {
    drained = acceptor_.reap() == 0;
    if (drained || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!drained) {
    // Budget blown: cancel the stragglers cooperatively.  Their next
    // deadline checkpoint throws kCancelled, the response comes back as a
    // typed error, and the connection unwinds normally — no thread is
    // killed.
    obs::log::warn("server.drain.timeout",
                   {{"drain_timeout_ms", options_.drain_timeout_ms}});
    cancel_inflight();
  }
  acceptor_.close();
  pool_.wait_idle();
  // The telemetry endpoint outlives the drain so /healthz reports
  // "draining" while it happens.
  if (http_ != nullptr) http_->stop();
  state_.store(static_cast<int>(ServerState::kStopped), std::memory_order_release);
  obs::gauge(obs::G::kServerState).set(static_cast<int>(ServerState::kStopped));
  obs::log::info("server.stop", {{"requests", requests_.load(std::memory_order_relaxed)},
                                 {"shed", sheds_.load(std::memory_order_relaxed)},
                                 {"drained", drained}});
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_ = true;
  }
  stop_cv_.notify_all();
}

void Server::register_inflight(const robust::Deadline* deadline) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  inflight_.push_back(deadline);
}

void Server::unregister_inflight(const robust::Deadline* deadline) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  std::erase(inflight_, deadline);
}

void Server::cancel_inflight() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  for (const robust::Deadline* deadline : inflight_) deadline->cancel();
}

bool Server::admit(int fd, std::size_t live) {
  // Bound sends so a client that stops reading cannot hang stop().  Short
  // recv timeout: connection threads wake every 200ms to notice
  // stop()/drain and enforce the idle timeout.
  set_socket_timeouts(fd, std::chrono::seconds(10), std::chrono::milliseconds(200));
  if (options_.max_connections != 0 && live >= options_.max_connections) {
    // Typed rejection, not a silent RST: retry clients back off and come
    // back instead of treating this as a dead server.
    obs::counter(obs::C::kServerConnRejected).add();
    note_shed();
    std::string line = overloaded_response(
        0, retry_after_hint_ms(),
        "connection limit reached (" + std::to_string(options_.max_connections) + ")");
    line.push_back('\n');
    (void)send_all(fd, line);
    obs::log::warn("server.conn.rejected",
                   {{"live", static_cast<std::uint64_t>(live)},
                    {"max", static_cast<std::uint64_t>(options_.max_connections)}});
    return false;
  }
  obs::counter(obs::C::kServerConnections).add();
  obs::gauge(obs::G::kServerConnectionsActive).add(1.0);
  obs::log::info("server.connect", {{"fd", static_cast<std::uint64_t>(fd)}});
  return true;
}

void Server::serve_connection(int fd) {
  LineReader reader;
  std::string line;  // handle_line's argument, reused across requests
  bool open = true;
  // Oversized-line recovery: once a request blows kMaxRequestLine we
  // answer with `request-too-large` and throw bytes away until the next
  // newline, so one runaway line does not cost the client its connection.
  bool discarding = false;
  const auto too_large = [] {
    obs::counter(obs::C::kServerRequestsTooLarge).add();
    return error_response(0, "request-too-large",
                          "request line exceeds " + std::to_string(kMaxRequestLine) + " bytes");
  };
  auto last_activity = std::chrono::steady_clock::now();
  while (open) {
    // Chaos site: a reader that stalls mid-stream (network hiccup, stuck
    // client) — the idle timeout below is what keeps this bounded.
    robust::fault::maybe_sleep("server.conn.read");
    const ssize_t n = reader.read_from(fd);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // recv timeout tick: notice stop()/drain promptly, enforce idle cap.
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (options_.idle_timeout_ms != 0 &&
          std::chrono::steady_clock::now() - last_activity >
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        obs::counter(obs::C::kServerConnIdleClosed).add();
        obs::log::info("server.conn.idle_closed",
                       {{"fd", static_cast<std::uint64_t>(fd)},
                        {"idle_timeout_ms", options_.idle_timeout_ms}});
        break;
      }
      continue;
    }
    if (n <= 0) break;
    last_activity = std::chrono::steady_clock::now();
    std::string_view view;
    while (open && reader.next_line(view)) {
      if (discarding) {  // the runaway line's tail: drop it, answer the rest
        discarding = false;
        continue;
      }
      if (view.empty()) continue;
      std::string response;
      if (view.size() > kMaxRequestLine) {
        response = too_large();
      } else {
        line.assign(view);
        response = handle_line(line);
      }
      response.push_back('\n');
      // Chaos sites: a connection that dies before the response leaves,
      // and a write torn halfway through.  Clients must treat both as a
      // transport failure and resend — results stay byte-identical
      // because the request itself is idempotent.
      if (robust::fault::maybe_fire("server.conn.disconnect")) {
        open = false;
        break;
      }
      if (robust::fault::maybe_fire("server.conn.write")) {
        (void)send_all(fd, std::string_view(response).substr(0, response.size() / 2));
        open = false;
        break;
      }
      if (!send_all(fd, response)) {
        open = false;
        break;
      }
      last_activity = std::chrono::steady_clock::now();
      // A shutdown request was acknowledged above; drop the connection so
      // stop() (triggered via wait()) does not have to race our recv.
      if (stopping_.load(std::memory_order_relaxed)) {
        open = false;
        break;
      }
      std::lock_guard<std::mutex> lock(stop_mutex_);
      if (shutdown_requested_) open = false;
    }
    if (!open) break;
    // Every pending byte is scanned and newline-free: a partial line.  Past
    // the cap it is answered now and its remainder discarded as it arrives.
    if (discarding) {
      reader.clear();
    } else if (reader.pending() > kMaxRequestLine) {
      std::string response = too_large();
      response.push_back('\n');
      if (!send_all(fd, response)) break;
      reader.clear();
      discarding = true;
    }
  }
  obs::counter(obs::C::kServerDisconnects).add();
  obs::gauge(obs::G::kServerConnectionsActive).add(-1.0);
  obs::log::info("server.disconnect", {{"fd", static_cast<std::uint64_t>(fd)}});
}

std::string Server::handle_line(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::counter(obs::C::kServerRequests).add();
  const ParsedRequest parsed = parse_request(line);
  // Adopt the client's trace: every span the request closes lands on its
  // tape, which reaches the store in one record once the root span has
  // closed.  A `trace` fetch itself is never taped — reading a trace must
  // not grow it.
  if (!parsed.ok || parsed.request.trace.empty() || parsed.request.cmd == "trace")
    return handle_request(parsed);
  obs::Tape tape;
  std::string response;
  {
    const obs::TapeScope taping(&tape);
    response = handle_request(parsed);
  }
  traces_.record(parsed.request.trace, tape);
  return response;
}

std::string Server::handle_request(const ParsedRequest& parsed) {
  const Request& request = parsed.request;
  // The root span covers dispatch to response render, on every exit path.
  const obs::Span span("server.request", "server", request.cmd,
                       &obs::histogram(obs::H::kServerRequest),
                       parsed.ok ? command_histogram(request.cmd) : nullptr);
  if (!parsed.ok) {
    obs::counter(obs::C::kServerRequestErrors).add();
    return error_response(0, "syntax", parsed.error);
  }
  auto flight = obs::flight::recorder().begin(
      request.net.empty() ? std::string_view(request.cmd) : std::string_view(request.net),
      "serve");
  try {
    std::string response = dispatch(request);
    obs::flight::recorder().end(flight, obs::flight::Outcome::kOk);
    return response;
  } catch (const robust::Error& e) {
    obs::counter(obs::C::kServerRequestErrors).add();
    obs::flight::recorder().end(flight,
                                e.code() == robust::Code::kTimeout
                                    ? obs::flight::Outcome::kTimeout
                                    : obs::flight::Outcome::kFailed,
                                e.code());
    if (e.code() == robust::Code::kOverloaded) {
      // Load shedding is expected under pressure: answer with the typed
      // backoff hint and skip the failure dump — writing a flight file per
      // shed would turn overload into an I/O storm.
      return overloaded_response(request.id, retry_after_hint_ms(), e.what());
    }
    obs::log::warn("server.request_failed",
                   {{"cmd", std::string_view(request.cmd)},
                    {"code", robust::code_name(e.code())},
                    {"error", std::string_view(e.what())}});
    if (!options_.flight_out.empty()) obs::flight::recorder().write(options_.flight_out);
    return error_response(request.id, robust::code_name(e.code()), e.what());
  } catch (const std::exception& e) {
    obs::counter(obs::C::kServerRequestErrors).add();
    obs::flight::recorder().end(flight, obs::flight::Outcome::kFailed,
                                robust::Code::kTaskFailure);
    obs::log::warn("server.request_failed", {{"cmd", std::string_view(request.cmd)},
                                             {"code", "task-failure"},
                                             {"error", std::string_view(e.what())}});
    if (!options_.flight_out.empty()) obs::flight::recorder().write(options_.flight_out);
    return error_response(request.id, "task-failure", e.what());
  }
}

std::string Server::dispatch(const Request& request) {
  if (request.cmd == "ping") return cmd_ping(request);
  if (request.cmd == "load") return cmd_load(request);
  if (request.cmd == "report") return cmd_report(request, /*bounds_only=*/false);
  if (request.cmd == "bounds") return cmd_report(request, /*bounds_only=*/true);
  if (request.cmd == "stats") return cmd_stats(request);
  if (request.cmd == "evict") return cmd_evict(request);
  if (request.cmd == "trace") return cmd_trace(request);
  if (request.cmd == "shutdown") return cmd_shutdown(request);
  throw robust::Error(robust::Code::kUnsupported, "unknown command '" + request.cmd + "'");
}

std::size_t Server::effective_queue_cap() const {
  if (options_.max_queue_depth != 0) return options_.max_queue_depth;
  return pool_.thread_count() * 4;
}

std::uint64_t Server::retry_after_hint_ms() const {
  // Scale the hint with how far past capacity we are: an empty queue says
  // "come right back" (25ms), a deeply backed-up one pushes clients out to
  // 2s so the herd thins instead of re-stampeding.
  const std::size_t depth = queue_depth_.load(std::memory_order_relaxed);
  const std::size_t threads = std::max<std::size_t>(pool_.thread_count(), 1);
  const std::uint64_t hint = 25 * (1 + depth / threads);
  return std::min<std::uint64_t>(std::max<std::uint64_t>(hint, 25), 2000);
}

void Server::note_shed() {
  sheds_.fetch_add(1, std::memory_order_relaxed);
  obs::counter(obs::C::kServerRequestsShed).add();
  last_shed_ns_.store(obs::steady_now_ns(), std::memory_order_relaxed);
}

template <class Fn>
std::string Server::run_on_pool(Fn&& fn) {
  // Admission control: the depth counts pool-bound requests queued or
  // running.  Shedding here — before any submit — keeps the rejection
  // cost near zero, which is exactly what an overloaded server needs.
  const std::size_t cap = effective_queue_cap();
  const std::size_t depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::gauge(obs::G::kServerQueueDepth).set(static_cast<double>(depth));
  struct DepthGuard {
    Server* server;
    ~DepthGuard() {
      const std::size_t now =
          server->queue_depth_.fetch_sub(1, std::memory_order_relaxed) - 1;
      obs::gauge(obs::G::kServerQueueDepth).set(static_cast<double>(now));
    }
  } guard{this};
  if (cap != 0 && depth > cap) {
    note_shed();
    throw robust::Error(robust::Code::kOverloaded,
                        "server overloaded: dispatch queue full (depth " +
                            std::to_string(depth) + ", cap " + std::to_string(cap) + ")");
  }
  // The completion lives in this frame, and the worker signals it under its
  // mutex: the wait below cannot return, and the record cannot die, until
  // the worker has released that lock and touches the record no more.
  struct Completion {
    std::mutex mutex;
    std::condition_variable ready;
    bool done = false;  // guarded by mutex
    std::string result;
    std::exception_ptr error;
  } completion;
  // The task body runs under the request's tape, if it has one.
  pool_.submit([&completion, &fn, tape = obs::current_tape()] {
    try {
      const obs::TapeScope taping(tape);
      completion.result = fn();
    } catch (...) {
      completion.error = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(completion.mutex);
    completion.done = true;
    completion.ready.notify_one();
  });
  std::unique_lock<std::mutex> lock(completion.mutex);
  completion.ready.wait(lock, [&completion] { return completion.done; });
  if (completion.error) std::rethrow_exception(completion.error);
  return std::move(completion.result);
}

std::string Server::cmd_ping(const Request& request) {
  // uptime/version/pid ride along additively: old clients skip unknown keys.
  std::string out = "{\"id\":" + std::to_string(request.id) + ",\"ok\":true,\"uptime_s\":";
  json::append_number(out, uptime_seconds());
  out += ",\"version\":";
  json::append_string(out, kVersion);
  out += ",\"pid\":" + std::to_string(static_cast<long>(::getpid()));
  out += ",\"state\":";
  json::append_string(out, server_state_name(current_state()));
  out.push_back('}');
  return out;
}

std::string Server::cmd_trace(const Request& request) {
  if (request.trace.empty())
    throw robust::Error(robust::Code::kUnsupported, "trace needs \"trace\"");
  // An unknown (or already evicted) id is an empty slice, not an error:
  // the client still writes its own half of the timeline.
  const std::vector<TraceSpan> spans = traces_.fetch(request.trace);
  std::string out = "{\"id\":" + std::to_string(request.id) + ",\"ok\":true,\"trace\":";
  json::append_string(out, request.trace);
  out.push_back(',');
  append_trace_spans_json(out, spans);
  out.push_back('}');
  return out;
}

std::string Server::load_design(const std::string& path, bool lenient) {
  // Zero-copy ingestion: hash and parse straight out of the mapping; only
  // the parsed SpefFile (and the handle) survive the load.
  engine::ParseOptions parse_options;
  parse_options.jobs = options_.parse_jobs;
  parse_options.spef.lenient = lenient;
  const MappedFile mapped = map_spef_file(path, parse_options.spef);
  const std::string_view bytes = mapped.view();
  const std::string handle = design_handle(bytes);
  {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    const auto it = designs_.find(handle);
    if (it != designs_.end()) {
      last_design_ = handle;  // cheap rebind: same content already resident
      return handle;
    }
  }
  auto design = std::make_shared<Design>();
  design->handle = handle;
  design->path = path;
  engine::ParsedSpef parsed = engine::parse_spef_parallel(bytes, parse_options);
  design->file = std::move(parsed.file);
  obs::log::info("server.load.parse",
                 {{"path", std::string_view(path)},
                  {"bytes", static_cast<std::uint64_t>(parsed.stats.bytes)},
                  {"sections", static_cast<std::uint64_t>(parsed.stats.sections)},
                  {"threads", static_cast<std::uint64_t>(parsed.stats.threads)},
                  {"wall_s", parsed.stats.total_seconds}});
  design->net_index.reserve(design->file.nets.size());
  for (std::size_t i = 0; i < design->file.nets.size(); ++i)
    design->net_index.emplace(design->file.nets[i].name, i);
  obs::log::info("server.load", {{"design", std::string_view(design->file.design)},
                                 {"handle", std::string_view(handle)},
                                 {"path", std::string_view(path)},
                                 {"nets", static_cast<std::uint64_t>(design->file.nets.size())}});
  {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    designs_.emplace(handle, std::move(design));
    last_design_ = handle;
  }
  update_gauges();
  return handle;
}

std::shared_ptr<const Server::Design> Server::find_design(const std::string& ref) {
  std::lock_guard<std::mutex> lock(designs_mutex_);
  const std::string& key = ref.empty() ? last_design_ : ref;
  const auto it = designs_.find(key);
  if (it != designs_.end()) return it->second;
  // Fall back to the SPEF *DESIGN name (first match).
  for (const auto& [handle, design] : designs_)
    if (design->file.design == ref) return design;
  return nullptr;
}

std::string Server::cmd_load(const Request& request) {
  if (request.path.empty())
    throw robust::Error(robust::Code::kUnsupported, "load needs \"path\"");
  const bool lenient = request.lenient || options_.lenient;
  return run_on_pool([this, &request, lenient]() -> std::string {
    const std::string handle = load_design(request.path, lenient);
    const std::shared_ptr<const Design> design = find_design(handle);
    // A racing evict can win between the insert above and this lookup; the
    // load itself succeeded, but the design is gone — say so, typed.
    if (design == nullptr)
      throw robust::Error(robust::Code::kUnsupported,
                          "design '" + handle + "' evicted during load");
    std::size_t nodes = 0;
    for (const auto& net : design->file.nets) nodes += net.tree.size();
    std::string out = "{\"id\":" + std::to_string(request.id) + ",\"ok\":true,\"design\":";
    json::append_string(out, handle);
    out += ",\"name\":";
    json::append_string(out, design->file.design);
    out += ",\"nets\":" + std::to_string(design->file.nets.size()) +
           ",\"nodes\":" + std::to_string(nodes);
    if (!design->file.diagnostics.empty())
      out += ",\"diagnostics\":" + std::to_string(design->file.diagnostics.size());
    out.push_back('}');
    return out;
  });
}

std::string Server::cmd_report(const Request& request, bool bounds_only) {
  if (request.net.empty())
    throw robust::Error(robust::Code::kUnsupported, "report needs \"net\"");
  const std::shared_ptr<const Design> design = find_design(request.design);
  if (design == nullptr)
    throw robust::Error(robust::Code::kUnsupported,
                        request.design.empty() ? "no design loaded"
                                               : "unknown design '" + request.design + "'");
  const auto net_it = design->net_index.find(request.net);
  if (net_it == design->net_index.end())
    throw robust::Error(robust::Code::kUnsupported,
                        "unknown net '" + request.net + "' in design " + design->handle);
  const SpefNet& net = design->file.nets[net_it->second];

  core::ReportOptions report = options_.report;
  if (request.has_with_exact) report.with_exact = request.with_exact;
  if (request.leaves_only) report.leaves_only = true;
  if (bounds_only) {
    report.with_exact = false;
    report.leaves_only = true;
  }
  if (request.exact_limit != 0) report.exact_node_limit = request.exact_limit;
  if (request.fraction > 0.0) report.fraction = request.fraction;
  const std::uint64_t timeout_ms =
      request.timeout_ms != 0 ? request.timeout_ms : options_.request_timeout_ms;

  // Memory work is answered on this thread.  Only a miss, which may read
  // the store or build the rows, takes the pool hop and its admission.
  const engine::NetKey key = engine::NetKey::of(net.tree, report);
  engine::NetCache::RenderedLookup hit;
  {
    const obs::Span span("server.cache.lookup", "server", request.net);
    hit = cache_.lookup_memory(key, render_flavor(bounds_only));
  }
  if (hit.source == engine::CacheSource::kMemory)
    return run_guarded(timeout_ms, [&](const robust::Deadline&) {
      return answer_report(request, *design, net, key, bounds_only, std::move(hit));
    });

  // The gap between submit and the task body running is pool queue wait —
  // under load, the interval that explains "the server was busy".
  const std::uint64_t submit_ns = obs::timestamp_ns();
  return run_on_pool([&]() -> std::string {
    obs::record_wait("server.queue_wait", "server", submit_ns);
    return run_guarded(timeout_ms, [&](const robust::Deadline& deadline) {
      // Counts the request's one hit or miss: the probe above counted
      // nothing, and a twin may have filled memory since.
      engine::NetCache::RenderedLookup found =
          cache_.lookup_rendered(key, render_flavor(bounds_only));
      if (found.rendering == nullptr && !found.rows.has_value()) {
        core::ReportOptions effective = report;
        // Always pass the deadline, armed or not: an unarmed Deadline is
        // still cancellable, which is how a drain past its budget cuts this
        // request loose at the next checkpoint.
        effective.deadline = &deadline;
        // The context is transient: retaining one per net would cost more
        // memory than the rows and renderings it helps produce, and a
        // rebuild is O(N) next to the report itself.
        std::optional<analysis::TreeContext> context;
        {
          const obs::Span span("server.context.build", "server", request.net);
          context.emplace(net.tree);
        }
        const obs::Span span("server.report.build", "server", request.net);
        found.rows = core::build_report(*context, effective);
        cache_.insert(key, *found.rows);
      }
      return answer_report(request, *design, net, key, bounds_only, std::move(found));
    });
  });
}

template <class Fn>
std::string Server::run_guarded(std::uint64_t timeout_ms, Fn&& fn) {
  const robust::Deadline deadline = robust::Deadline::after_ms(timeout_ms);
  struct InflightGuard {
    Server* server;
    const robust::Deadline* deadline;
    InflightGuard(Server* s, const robust::Deadline* d) : server(s), deadline(d) {
      server->register_inflight(deadline);
    }
    ~InflightGuard() { server->unregister_inflight(deadline); }
  } inflight_guard(this, &deadline);
  robust::fault::maybe_sleep("server.report");
  robust::fault::maybe_throw("server.report");
  deadline.check("server.report");
  return fn(deadline);
}

std::string Server::answer_report(const Request& request, const Design& design,
                                  const SpefNet& net, const engine::NetKey& key,
                                  bool bounds_only, engine::NetCache::RenderedLookup hit) {
  const obs::Span render_span("server.render", "server", request.net);
  std::shared_ptr<const engine::Rendering> rendering = std::move(hit.rendering);
  if (rendering != nullptr) {
    obs::counter(obs::C::kServerRenderCached).add();
  } else {
    rendering = render_rows(*hit.rows, bounds_only);
    // Only a memory hit keeps its rendering: a net read once (computed,
    // or promoted from the store) does not pay for bytes nobody re-reads.
    if (hit.source == engine::CacheSource::kMemory)
      rendering = cache_.attach_rendering(key, render_flavor(bounds_only), std::move(rendering));
    obs::gauge(obs::G::kServerCacheRenderedBytes)
        .set(static_cast<double>(cache_.rendered_bytes()));
  }
  std::string out;
  out.reserve(160 + rendering->text.size() + 24 * rendering->row_ends.size());
  out += "{\"id\":" + std::to_string(request.id) + ",\"ok\":true,\"design\":";
  json::append_string(out, design.handle);
  out += ",\"net\":";
  json::append_string(out, request.net);
  out += ",\"source\":\"";
  out += source_name(hit.source);
  out += "\",\"rows\":[";
  splice_rows(out, *rendering, net.tree);
  out += "]}";
  return out;
}

std::string Server::cmd_stats(const Request& request) {
  std::size_t n_designs = 0;
  std::size_t n_nets = 0;
  {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    n_designs = designs_.size();
    for (const auto& [handle, design] : designs_) n_nets += design->file.nets.size();
  }
  std::string out = "{\"id\":" + std::to_string(request.id) + ",\"ok\":true";
  out += ",\"designs\":" + std::to_string(n_designs);
  out += ",\"nets\":" + std::to_string(n_nets);
  out += ",\"requests\":" + std::to_string(requests_.load(std::memory_order_relaxed));
  out += ",\"threads\":" + std::to_string(pool_.thread_count());
  out += ",\"state\":";
  json::append_string(out, server_state_name(current_state()));
  out += ",\"shed\":" + std::to_string(sheds_.load(std::memory_order_relaxed));
  out += ",\"queue_depth\":" + std::to_string(queue_depth_.load(std::memory_order_relaxed));
  out += ",\"queue_cap\":" + std::to_string(effective_queue_cap());
  out += ",\"cache\":{\"entries\":" + std::to_string(cache_.size());
  out += ",\"hits\":" + std::to_string(cache_.hits());
  out += ",\"misses\":" + std::to_string(cache_.misses());
  out += ",\"store_hits\":" + std::to_string(cache_.backend_hits());
  out += ",\"evictions\":" + std::to_string(cache_.evictions()) + "}";
  if (store_ != nullptr) {
    out += ",\"store\":{\"dir\":";
    json::append_string(out, store_->dir());
    out += ",\"entries\":" + std::to_string(store_->entry_count());
    out += ",\"bytes\":" + std::to_string(store_->total_bytes());
    out += ",\"max_bytes\":" + std::to_string(store_->max_bytes()) + "}";
  }
  out.push_back('}');
  return out;
}

std::string Server::cmd_evict(const Request& request) {
  std::size_t designs_evicted = 0;
  std::size_t entries_dropped = 0;
  if (!request.design.empty()) {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    const auto it = designs_.find(request.design);
    if (it == designs_.end())
      throw robust::Error(robust::Code::kUnsupported,
                          "unknown design '" + request.design + "'");
    if (last_design_ == it->first) last_design_.clear();
    designs_.erase(it);
    designs_evicted = 1;
    // Cached rows and renderings are content-addressed and name-free;
    // they stay until the LRU (or a full evict) displaces them.
  } else {
    {
      std::lock_guard<std::mutex> lock(designs_mutex_);
      designs_evicted = designs_.size();
      designs_.clear();
      last_design_.clear();
    }
    entries_dropped = cache_.clear();
  }
  obs::log::info("server.evict",
                 {{"designs", static_cast<std::uint64_t>(designs_evicted)},
                  {"entries", static_cast<std::uint64_t>(entries_dropped)}});
  update_gauges();
  return "{\"id\":" + std::to_string(request.id) +
         ",\"ok\":true,\"designs_evicted\":" + std::to_string(designs_evicted) +
         ",\"entries_dropped\":" + std::to_string(entries_dropped) + "}";
}

void Server::update_gauges() {
  using obs::G;
  const auto set = [](G id, auto value) { obs::gauge(id).set(static_cast<double>(value)); };
  std::size_t n_designs = 0;
  std::size_t n_nets = 0;
  {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    n_designs = designs_.size();
    for (const auto& [handle, design] : designs_) n_nets += design->file.nets.size();
  }
  set(G::kServerDesigns, n_designs);
  set(G::kServerNetsLoaded, n_nets);
  set(G::kServerCacheEntries, cache_.size());
  set(G::kServerCacheRenderedBytes, cache_.rendered_bytes());
  // hits = memory, backend_hits = store, misses = recomputed; the three are
  // disjoint, so hit rates are straightforward fractions.
  const double memory_hits = static_cast<double>(cache_.hits());
  const double store_hits = static_cast<double>(cache_.backend_hits());
  const double misses = static_cast<double>(cache_.misses());
  const double lookups = memory_hits + store_hits + misses;
  set(G::kServerCacheHitRate, lookups > 0.0 ? (memory_hits + store_hits) / lookups : 0.0);
  set(G::kServerStoreHitRate,
      store_hits + misses > 0.0 ? store_hits / (store_hits + misses) : 0.0);
  set(G::kServerState, static_cast<int>(current_state()));
  set(G::kServerQueueDepth, queue_depth_.load(std::memory_order_relaxed));
}

HttpResponse Server::route_http(std::string_view path) {
  if (path == "/metrics") {
    update_gauges();  // scrapes see current designs/cache/store levels
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        obs::registry().to_prometheus()};
  }
  if (path == "/varz") {
    update_gauges();
    return HttpResponse{200, "application/json", obs::registry().to_json() + "\n"};
  }
  if (path == "/healthz") {
    const ServerState state = current_state();
    const bool healthy = state == ServerState::kServing || state == ServerState::kDegraded;
    std::string body = "{\"status\":\"";
    body += healthy ? "ok" : "unavailable";
    body += "\",\"state\":";
    json::append_string(body, server_state_name(state));
    body += ",\"uptime_s\":";
    json::append_number(body, uptime_seconds());
    body += ",\"version\":";
    json::append_string(body, kVersion);
    body += ",\"pid\":" + std::to_string(static_cast<long>(::getpid()));
    body += ",\"requests\":" + std::to_string(requests_.load(std::memory_order_relaxed));
    body += ",\"shed\":" + std::to_string(sheds_.load(std::memory_order_relaxed));
    body += ",\"address\":";
    json::append_string(body, address());
    body += "}\n";
    // Draining/stopped answer 503 so load balancers and scripts see the
    // instance leaving rotation before its socket disappears.
    return HttpResponse{healthy ? 200 : 503, "application/json", std::move(body)};
  }
  if (path == "/flight")
    return HttpResponse{200, "application/json", obs::flight::recorder().to_json() + "\n"};
  return HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
}

std::string Server::cmd_shutdown(const Request& request) {
  obs::log::info("server.shutdown", {{"id", request.id}});
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    shutdown_requested_ = true;
  }
  stop_cv_.notify_all();
  return "{\"id\":" + std::to_string(request.id) + ",\"ok\":true,\"shutdown\":true}";
}

}  // namespace rct::server
