#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <utility>

#include "engine/parallel_parse.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/mapped_file.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "server/version.hpp"

namespace rct::server {
namespace {

obs::Counter& request_counter() {
  static obs::Counter& c = obs::registry().counter("server.requests");
  return c;
}
obs::Counter& request_error_counter() {
  static obs::Counter& c = obs::registry().counter("server.request.errors");
  return c;
}
obs::Counter& connection_counter() {
  static obs::Counter& c = obs::registry().counter("server.connections");
  return c;
}
obs::Counter& disconnect_counter() {
  static obs::Counter& c = obs::registry().counter("server.disconnects");
  return c;
}
obs::Gauge& active_connections_gauge() {
  static obs::Gauge& g = obs::registry().gauge("server.connections.active");
  return g;
}
obs::Histogram& request_histogram() {
  static obs::Histogram& h = obs::registry().histogram("server.request.seconds");
  return h;
}
obs::Counter& shed_counter() {
  static obs::Counter& c = obs::registry().counter("server.requests.shed");
  return c;
}
obs::Counter& conn_rejected_counter() {
  static obs::Counter& c = obs::registry().counter("server.conn.rejected");
  return c;
}
obs::Counter& request_too_large_counter() {
  static obs::Counter& c = obs::registry().counter("server.requests.too_large");
  return c;
}
obs::Counter& idle_close_counter() {
  static obs::Counter& c = obs::registry().counter("server.conn.idle_closed");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::registry().gauge("server.queue.depth");
  return g;
}
obs::Gauge& state_gauge() {
  static obs::Gauge& g = obs::registry().gauge("server.state");
  return g;
}

/// Per-command latency split.  Only the protocol's own vocabulary gets an
/// instrument — an unknown command must not mint registry entries — and
/// each is a function-local static so the hot path stays one atomic add.
obs::Histogram* command_histogram(const std::string& cmd) {
  if (cmd == "report") {
    static obs::Histogram& h = obs::registry().histogram("server.request.report.seconds");
    return &h;
  }
  if (cmd == "bounds") {
    static obs::Histogram& h = obs::registry().histogram("server.request.bounds.seconds");
    return &h;
  }
  if (cmd == "load") {
    static obs::Histogram& h = obs::registry().histogram("server.request.load.seconds");
    return &h;
  }
  if (cmd == "ping") {
    static obs::Histogram& h = obs::registry().histogram("server.request.ping.seconds");
    return &h;
  }
  if (cmd == "stats") {
    static obs::Histogram& h = obs::registry().histogram("server.request.stats.seconds");
    return &h;
  }
  if (cmd == "evict") {
    static obs::Histogram& h = obs::registry().histogram("server.request.evict.seconds");
    return &h;
  }
  if (cmd == "trace") {
    static obs::Histogram& h = obs::registry().histogram("server.request.trace.seconds");
    return &h;
  }
  if (cmd == "shutdown") {
    static obs::Histogram& h = obs::registry().histogram("server.request.shutdown.seconds");
    return &h;
  }
  return nullptr;
}

/// RAII phase span for one traced request: on destruction the interval is
/// taped into the trace store (always, when tracing) and into the global
/// tracer (when --trace-out armed it), so the same phase shows up in both
/// the stitched client timeline and the server's own trace file.  `name`
/// must be a static string.
class TracePhase {
 public:
  TracePhase(RequestTraceStore* store, const std::string* trace_id, const char* name,
             std::string detail = {})
      : store_(store), trace_id_(trace_id), name_(name), detail_(std::move(detail)) {
    if (store_ != nullptr) start_ns_ = obs::tracer().now_ns();
  }
  TracePhase(const TracePhase&) = delete;
  TracePhase& operator=(const TracePhase&) = delete;
  ~TracePhase() {
    if (store_ == nullptr) return;
    const std::uint64_t dur_ns = obs::tracer().now_ns() - start_ns_;
    if (obs::tracer().enabled())
      obs::tracer().record(name_, "server", start_ns_, dur_ns, detail_);
    store_->record(*trace_id_, TraceSpan{name_, detail_, start_ns_, dur_ns});
  }

 private:
  RequestTraceStore* store_;  ///< nullptr = request is untraced, record nothing
  const std::string* trace_id_;
  const char* name_;
  std::string detail_;
  std::uint64_t start_ns_ = 0;
};

bool is_all_digits(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; });
}

std::uint64_t fnv1a_text(std::string_view text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// 12-hex content handle of a design (FNV-1a of the raw file bytes,
/// truncated — short enough to type, long enough that two designs loaded
/// into one server never collide in practice).
std::string design_handle(std::string_view file_bytes) {
  char buf[13];
  std::snprintf(buf, sizeof(buf), "%012llx",
                static_cast<unsigned long long>(fnv1a_text(file_bytes) & 0xffffffffffffULL));
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

/// Sends all of `data`; false on any socket error.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
#endif
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void append_row_json(std::string& out, const core::NodeReport& row, bool bounds_only) {
  out += "{\"name\":";
  json::append_string(out, row.name);
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

/// Steady-clock nanoseconds since an arbitrary epoch (for shed freshness).
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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
      cache_(16, options_.cache_max_entries) {
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
  const std::string& spec = options_.listen;
  if (is_all_digits(spec)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      error_ = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(std::strtoul(spec.c_str(), nullptr, 10)));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      error_ = "bind 127.0.0.1:" + spec + ": " + std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = static_cast<int>(ntohs(bound.sin_port));
    address_ = "tcp:127.0.0.1:" + std::to_string(port_);
  } else {
    sockaddr_un addr{};
    if (spec.size() >= sizeof(addr.sun_path)) {
      error_ = "unix socket path too long: " + spec;
      return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      error_ = "socket: " + std::string(std::strerror(errno));
      return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, spec.c_str(), spec.size() + 1);
    ::unlink(spec.c_str());  // stale socket from a dead server
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      error_ = "bind " + spec + ": " + std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    address_ = "unix:" + spec;
  }
  if (::listen(listen_fd_, 64) != 0) {
    error_ = "listen: " + std::string(std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (!options_.http.empty()) {
    http_ = std::make_unique<HttpServer>(
        options_.http, [this](std::string_view path) { return route_http(path); });
    if (!http_->start()) {
      error_ = "http: " + http_->error();
      http_.reset();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
  }
  obs::log::info("server.start", {{"address", std::string_view(address_)},
                                  {"threads", static_cast<std::uint64_t>(pool_.thread_count())}});
  accept_thread_ = std::thread(&Server::accept_loop, this);
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
  const std::int64_t last = last_shed_ns_.load(std::memory_order_relaxed);
  if (last != 0 && steady_now_ns() - last < 5'000'000'000LL) return ServerState::kDegraded;
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
  state_gauge().set(static_cast<double>(static_cast<int>(ServerState::kDraining)));
  obs::log::info("server.drain", {{"conns", active_connections_gauge().value()},
                                  {"queue_depth", static_cast<std::uint64_t>(
                                                      queue_depth_.load(std::memory_order_relaxed))}});
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    shutdown_requested_ = true;
  }
  stop_cv_.notify_all();
  // Stop taking on new work first; connections notice stopping_ within
  // ~200ms (recv timeout) and close themselves once their current request
  // is answered.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain window: give in-flight requests drain_timeout_ms to finish.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  bool drained = false;
  for (;;) {
    reap_connections(false);
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      drained = conns_.empty();
    }
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
  reap_connections(true);
  pool_.wait_idle();
  // The telemetry endpoint outlives the drain so /healthz reports
  // "draining" while it happens.
  if (http_ != nullptr) http_->stop();
  if (!address_.empty() && address_.compare(0, 5, "unix:") == 0)
    ::unlink(options_.listen.c_str());
  state_.store(static_cast<int>(ServerState::kStopped), std::memory_order_release);
  state_gauge().set(static_cast<double>(static_cast<int>(ServerState::kStopped)));
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

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 200);
    reap_connections(false);
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Bound sends so a client that stops reading cannot hang stop().
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    // Short recv timeout: connection threads wake every 200ms to notice
    // stop()/drain and enforce the idle timeout.
    timeval rtv{};
    rtv.tv_usec = 200000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rtv, sizeof(rtv));
    if (options_.max_connections != 0) {
      std::size_t live = 0;
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        live = conns_.size();
      }
      if (live >= options_.max_connections) {
        // Typed rejection, not a silent RST: retry clients back off and
        // come back instead of treating this as a dead server.
        conn_rejected_counter().add();
        note_shed();
        std::string line = overloaded_response(
            0, retry_after_hint_ms(),
            "connection limit reached (" + std::to_string(options_.max_connections) + ")");
        line.push_back('\n');
        (void)send_all(fd, line);
        ::close(fd);
        obs::log::warn("server.conn.rejected",
                       {{"live", static_cast<std::uint64_t>(live)},
                        {"max", static_cast<std::uint64_t>(options_.max_connections)}});
        continue;
      }
    }
    connection_counter().add();
    active_connections_gauge().add(1.0);
    obs::log::info("server.connect", {{"fd", static_cast<std::uint64_t>(fd)}});
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(std::make_unique<Connection>());
    Connection* conn = conns_.back().get();
    conn->fd = fd;
    conn->thread = std::thread([this, conn, fd] {
      serve_connection(fd);
      conn->done.store(true, std::memory_order_release);
    });
  }
}

void Server::reap_connections(bool all) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  if (all) {
    // Read-side shutdown only: blocked recv()s return 0, but an in-flight
    // response (e.g. the shutdown ack) still drains before the close.
    for (const auto& conn : conns_)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
  std::erase_if(conns_, [all](const std::unique_ptr<Connection>& conn) {
    if (!all && !conn->done.load(std::memory_order_acquire)) return false;
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
    return true;
  });
}

void Server::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  // Oversized-line recovery: once a request blows kMaxRequestLine we
  // answer with `request-too-large` and throw bytes away until the next
  // newline, so one runaway line does not cost the client its connection.
  bool discarding = false;
  auto last_activity = std::chrono::steady_clock::now();
  while (open) {
    // Chaos site: a reader that stalls mid-stream (network hiccup, stuck
    // client) — the idle timeout below is what keeps this bounded.
    robust::fault::maybe_sleep("server.conn.read");
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // recv timeout tick: notice stop()/drain promptly, enforce idle cap.
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (options_.idle_timeout_ms != 0 &&
          std::chrono::steady_clock::now() - last_activity >
              std::chrono::milliseconds(options_.idle_timeout_ms)) {
        idle_close_counter().add();
        obs::log::info("server.conn.idle_closed",
                       {{"fd", static_cast<std::uint64_t>(fd)},
                        {"idle_timeout_ms", options_.idle_timeout_ms}});
        break;
      }
      continue;
    }
    if (n <= 0) break;
    last_activity = std::chrono::steady_clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t nl = buffer.find('\n');
      if (nl == std::string::npos) {
        buffer.clear();
        continue;
      }
      buffer.erase(0, nl + 1);
      discarding = false;
    }
    if (buffer.size() > kMaxRequestLine && buffer.find('\n') == std::string::npos) {
      request_too_large_counter().add();
      std::string response =
          error_response(0, "request-too-large",
                         "request line exceeds " + std::to_string(kMaxRequestLine) + " bytes");
      response.push_back('\n');
      if (!send_all(fd, response)) break;
      buffer.clear();
      discarding = true;
      continue;
    }
    std::size_t pos = 0;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (line.empty()) continue;
      std::string response;
      if (line.size() > kMaxRequestLine) {
        request_too_large_counter().add();
        response = error_response(
            0, "request-too-large",
            "request line exceeds " + std::to_string(kMaxRequestLine) + " bytes");
      } else {
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
      {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (shutdown_requested_) open = false;
      }
      if (!open) break;
    }
  }
  disconnect_counter().add();
  active_connections_gauge().add(-1.0);
  obs::log::info("server.disconnect", {{"fd", static_cast<std::uint64_t>(fd)}});
}

std::string Server::handle_line(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  request_counter().add();
  obs::ScopedTimer timer(request_histogram());
  ParsedRequest parsed = parse_request(line);
  if (!parsed.ok) {
    request_error_counter().add();
    return error_response(0, "syntax", parsed.error);
  }
  const Request& request = parsed.request;
  std::optional<obs::ScopedTimer> cmd_timer;
  if (obs::Histogram* h = command_histogram(request.cmd)) cmd_timer.emplace(*h);
  // Adopt the client's trace: the root phase span covers dispatch to
  // response render, on every exit path.  A `trace` fetch itself is never
  // taped — reading a trace must not grow it.
  RequestTraceStore* const sink =
      !request.trace.empty() && request.cmd != "trace" ? &traces_ : nullptr;
  const TracePhase root_phase(sink, &request.trace, "server.request",
                              request.net.empty() ? request.cmd
                                                  : request.cmd + " " + request.net);
  obs::Span span("server.request", "server", request.cmd);
  auto flight = obs::flight::recorder().begin(
      request.net.empty() ? std::string_view(request.cmd) : std::string_view(request.net),
      "serve");
  try {
    std::string response = dispatch(request);
    obs::flight::recorder().end(flight, obs::flight::Outcome::kOk);
    return response;
  } catch (const robust::Error& e) {
    request_error_counter().add();
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
    request_error_counter().add();
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
  shed_counter().add();
  last_shed_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

std::string Server::run_on_pool(std::function<std::string()> fn) {
  // Admission control: the depth counts pool-bound requests queued or
  // running.  Shedding here — before any submit — keeps the rejection
  // cost near zero, which is exactly what an overloaded server needs.
  const std::size_t cap = effective_queue_cap();
  const std::size_t depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  queue_depth_gauge().set(static_cast<double>(depth));
  struct DepthGuard {
    Server* server;
    ~DepthGuard() {
      const std::size_t now =
          server->queue_depth_.fetch_sub(1, std::memory_order_relaxed) - 1;
      queue_depth_gauge().set(static_cast<double>(now));
    }
  } guard{this};
  if (cap != 0 && depth > cap) {
    note_shed();
    throw robust::Error(robust::Code::kOverloaded,
                        "server overloaded: dispatch queue full (depth " +
                            std::to_string(depth) + ", cap " + std::to_string(cap) + ")");
  }
  auto task = std::make_shared<std::packaged_task<std::string()>>(std::move(fn));
  std::future<std::string> future = task->get_future();
  pool_.submit([task] { (*task)(); });
  return future.get();  // rethrows what the task threw
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
  MappedFile mapped;
  if (!mapped.open(path))
    throw robust::Error(robust::Code::kFileOpen, "cannot open '" + path + "'", {path}, "spef");
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
  engine::ParseOptions parse_options;
  parse_options.jobs = options_.parse_jobs;
  parse_options.spef.lenient = lenient;
  parse_options.spef.path = path;
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

  // The gap between submit and the task body running is pool queue wait —
  // under load, the span that explains "the server was busy".
  RequestTraceStore* const sink = !request.trace.empty() ? &traces_ : nullptr;
  const std::uint64_t submit_ns = sink != nullptr ? obs::tracer().now_ns() : 0;

  return run_on_pool([this, design, &net, &request, report, timeout_ms, bounds_only, sink,
                      submit_ns]() -> std::string {
    if (sink != nullptr) {
      const std::uint64_t now_ns = obs::tracer().now_ns();
      if (obs::tracer().enabled())
        obs::tracer().record("server.queue_wait", "server", submit_ns, now_ns - submit_ns);
      sink->record(request.trace, TraceSpan{"server.queue_wait", {}, submit_ns,
                                            now_ns - submit_ns});
    }
    const robust::Deadline deadline = robust::Deadline::after_ms(timeout_ms);
    core::ReportOptions effective = report;
    // Always pass the deadline, armed or not: an unarmed Deadline is still
    // cancellable, which is how a drain past its budget cuts this request
    // loose at the next checkpoint.
    effective.deadline = &deadline;
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

    const engine::NetKey key = engine::NetKey::of(net.tree, effective);
    engine::CacheSource source = engine::CacheSource::kMiss;
    std::optional<std::vector<core::NodeReport>> rows;
    {
      const TracePhase phase(sink, &request.trace, "server.cache.lookup", request.net);
      rows = cache_.lookup(key, net.tree, &source);
    }
    if (!rows.has_value()) {
      const engine::NetKey content_key = engine::NetKey::content_of(net.tree);
      std::shared_ptr<const analysis::TreeContext> context;
      {
        const TracePhase phase(sink, &request.trace, "server.context.build", request.net);
        context = cache_.lookup_context(content_key);
        if (context == nullptr) {
          // The cached context owns a copy of the tree: evicting the design
          // later cannot dangle it.
          auto owned = std::make_shared<const RCTree>(net.tree);
          context = cache_.insert_context(
              content_key, std::make_shared<const analysis::TreeContext>(std::move(owned)));
        }
      }
      {
        const TracePhase phase(sink, &request.trace, "server.report.build", request.net);
        rows = core::build_report(*context, effective);
        // The context may have been donated by a content-identical net with
        // different node names; bind the rows to the requested net.
        engine::rebind_report_names(*rows, net.tree);
        cache_.insert(key, *rows);
      }
    }

    const TracePhase render_phase(sink, &request.trace, "server.render", request.net);
    std::string out = "{\"id\":" + std::to_string(request.id) + ",\"ok\":true,\"design\":";
    json::append_string(out, design->handle);
    out += ",\"net\":";
    json::append_string(out, request.net);
    out += ",\"source\":\"";
    out += source_name(source);
    out += "\",\"rows\":[";
    for (std::size_t i = 0; i < rows->size(); ++i) {
      if (i > 0) out.push_back(',');
      append_row_json(out, (*rows)[i], bounds_only);
    }
    out += "]}";
    return out;
  });
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
  out += ",\"contexts\":" + std::to_string(cache_.context_count());
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
  std::size_t contexts_dropped = 0;
  if (!request.design.empty()) {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    const auto it = designs_.find(request.design);
    if (it == designs_.end())
      throw robust::Error(robust::Code::kUnsupported,
                          "unknown design '" + request.design + "'");
    if (last_design_ == it->first) last_design_.clear();
    designs_.erase(it);
    designs_evicted = 1;
    // Cached rows/contexts are content-addressed and name-independent;
    // they stay until the LRU (or a full evict) displaces them.
  } else {
    {
      std::lock_guard<std::mutex> lock(designs_mutex_);
      designs_evicted = designs_.size();
      designs_.clear();
      last_design_.clear();
    }
    const auto [entries, contexts] = cache_.clear();
    entries_dropped = entries;
    contexts_dropped = contexts;
  }
  obs::log::info("server.evict",
                 {{"designs", static_cast<std::uint64_t>(designs_evicted)},
                  {"entries", static_cast<std::uint64_t>(entries_dropped)},
                  {"contexts", static_cast<std::uint64_t>(contexts_dropped)}});
  update_gauges();
  return "{\"id\":" + std::to_string(request.id) +
         ",\"ok\":true,\"designs_evicted\":" + std::to_string(designs_evicted) +
         ",\"entries_dropped\":" + std::to_string(entries_dropped) +
         ",\"contexts_dropped\":" + std::to_string(contexts_dropped) + "}";
}

void Server::update_gauges() {
  static obs::Gauge& designs_gauge = obs::registry().gauge("server.designs");
  static obs::Gauge& nets_gauge = obs::registry().gauge("server.nets.loaded");
  static obs::Gauge& entries_gauge = obs::registry().gauge("server.cache.entries");
  static obs::Gauge& contexts_gauge = obs::registry().gauge("server.cache.contexts");
  static obs::Gauge& cache_hit_gauge = obs::registry().gauge("server.cache.hit_rate");
  static obs::Gauge& store_hit_gauge = obs::registry().gauge("server.store.hit_rate");
  std::size_t n_designs = 0;
  std::size_t n_nets = 0;
  {
    std::lock_guard<std::mutex> lock(designs_mutex_);
    n_designs = designs_.size();
    for (const auto& [handle, design] : designs_) n_nets += design->file.nets.size();
  }
  designs_gauge.set(static_cast<double>(n_designs));
  nets_gauge.set(static_cast<double>(n_nets));
  entries_gauge.set(static_cast<double>(cache_.size()));
  contexts_gauge.set(static_cast<double>(cache_.context_count()));
  // hits = memory, backend_hits = store, misses = recomputed; the three are
  // disjoint, so hit rates are straightforward fractions.
  const double memory_hits = static_cast<double>(cache_.hits());
  const double store_hits = static_cast<double>(cache_.backend_hits());
  const double misses = static_cast<double>(cache_.misses());
  const double lookups = memory_hits + store_hits + misses;
  cache_hit_gauge.set(lookups > 0.0 ? (memory_hits + store_hits) / lookups : 0.0);
  store_hit_gauge.set(store_hits + misses > 0.0 ? store_hits / (store_hits + misses) : 0.0);
  state_gauge().set(static_cast<double>(static_cast<int>(current_state())));
  queue_depth_gauge().set(static_cast<double>(queue_depth_.load(std::memory_order_relaxed)));
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
    json::append_string(body, address_);
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
