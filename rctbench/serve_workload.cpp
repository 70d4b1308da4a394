// serve_mixed — an in-process server::Server on a unix socket with a
// DiskStore and 2 pool workers, holding one loaded design of 96-node nets,
// driven over two server::Client connections the way `rct serve` clients
// drive it.
//
// Traffic mix: ~90% warm `report`, ~5% `bounds` (warm) and ~5% cold
// `report` on nets never requested before (each computes the exact path,
// inserts into the cache and writes to the DiskStore).
//
// Untraced run:
//   set-up     Server::start + load_design + a closed-loop warm-up that
//              computes the warm net set; done five times on fresh stores,
//              median reported as setup_s (the last server is measured)
//   capacity   one connection closed-loop on warm reports for 60% of the
//              window: throughput_per_s is its fastest kCapacityBurst
//   ladder     open loop at each rate of kLadder, timed from each request's
//              due send time; the warm-read latency at kNominalRps runs for
//              20% of the window (the other rates 5% each)
//   checks     every kept response is strict JSON satisfying the sandwich;
//              each cold response's rows are byte-identical to a later warm
//              response for the same net
// Traced run: the server.* per-layer metrics (see README.md).

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "engine/parallel_parse.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace rctbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kJobs = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWarmNets = 128;
/// The closed-loop capacity phase behind throughput_per_s runs over one
/// connection, so at most one of the client, connection and pool threads
/// runs at a time (with two, six threads hand off on four vCPUs and the rate
/// follows the scheduler more than the server).  It is timed in bursts of
/// this many requests (~7 ms).
constexpr std::size_t kCapacityBurst = 20;
/// Offered rates of the open-loop ladder, requests/s.
constexpr double kLadder[] = {250, 500, 1000, 2000};
constexpr double kNominalRps = 1000;
/// Warm-read p99 a ladder rate must stay under to count toward max_rps.  A
/// connection is blocking, so a warm read queued behind a cold report on the
/// same connection waits out its ~5 ms compute: the limit sits above that.
constexpr double kLatencyLimitMs = 10.0;
/// A run whose generator is this late (median, with the connection idle at
/// the due time) measured itself, not the server: it is refused.
constexpr double kGenLateLimitMs = 0.5;

enum class Kind { kWarm, kBounds, kCold };

/// One live server with its design loaded and warm set computed.
struct Instance {
  std::unique_ptr<rct::server::Server> server;
  std::string socket;
  double setup_s = 0.0;
};

class Workload {
 public:
  /// The deck names its nets net0..net<kServeNets-1> in deck order.
  explicit Workload(std::string deck) : deck_(std::move(deck)) {
    for (std::size_t i = 0; i < kServeNets; ++i) names_.push_back("net" + std::to_string(i));
  }

  /// Server::start + load_design + closed-loop warm-up on a fresh store.
  Instance set_up(int rep) {
    Instance in;
    in.socket = "s" + std::to_string(rep) + ".sock";
    const std::string store = "store" + std::to_string(rep);
    fs::remove_all(store);
    fs::remove(in.socket);
    const Clock::time_point t0 = Clock::now();
    rct::server::ServeOptions so;
    so.listen = in.socket;
    so.store_dir = store;
    so.jobs = kJobs;
    so.parse_jobs = kJobs;
    in.server = std::make_unique<rct::server::Server>(so);
    if (!in.server->start()) throw std::runtime_error("server start: " + in.server->error());
    (void)in.server->load_design(deck_, false);
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        rct::server::Client client;
        if (!client.connect(in.socket)) {
          errors[c] = client.error();
          return;
        }
        std::string response;
        for (std::size_t i = c; i < kWarmNets; i += kConnections) {
          for (const Kind kind : {Kind::kWarm, Kind::kBounds}) {
            if (!client.roundtrip(request(kind, names_[i], i), response) ||
                !rct::server::response_ok(response)) {
              errors[c] = "warm-up: " + response;
              return;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& e : errors)
      if (!e.empty()) throw std::runtime_error(e);
    in.setup_s = seconds_since(t0);
    return in;
  }

  const std::vector<std::string>& names() const { return names_; }
  const std::string& deck() const { return deck_; }

  static std::string request(Kind kind, const std::string& net, std::uint64_t id) {
    rct::server::Request r;
    r.id = id + 1;
    r.cmd = kind == Kind::kBounds ? "bounds" : "report";
    r.net = net;
    return rct::server::encode_request(r);
  }

 private:
  std::string deck_;
  std::vector<std::string> names_;
};

/// Draws request kinds and nets; cold nets are handed out once each.
class Mix {
 public:
  Mix(std::uint64_t seed, const std::vector<std::string>& names, std::atomic<std::size_t>& cold)
      : rng_(seed), names_(names), cold_(cold) {}
  struct Pick {
    Kind kind;
    const std::string* net;
  };
  Pick next() {
    const double u = uni_(rng_);
    if (u >= 0.95) {
      const std::size_t i = kWarmNets + cold_.fetch_add(1);
      if (i < names_.size()) return {Kind::kCold, &names_[i]};
      throw std::runtime_error("serve deck ran out of cold nets");
    }
    const std::string* net = &names_[rng_() % kWarmNets];
    return {u >= 0.90 ? Kind::kBounds : Kind::kWarm, net};
  }

 private:
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uni_{0.0, 1.0};
  const std::vector<std::string>& names_;
  std::atomic<std::size_t>& cold_;
};

/// A response must be ok and come from where its kind says it must.
bool response_as_expected(const std::string& response, Kind kind) {
  if (!rct::server::response_ok(response)) return false;
  const char* want = kind == Kind::kCold ? "\"source\":\"computed\"" : "\"source\":\"memory\"";
  return response.find(want) != std::string::npos;
}

std::string_view rows_of(const std::string& response) {
  const std::size_t at = response.find("\"rows\":");
  return at == std::string::npos ? std::string_view() : std::string_view(response).substr(at);
}

/// Responses kept for the post-run checks (outside every timed region).
struct Kept {
  std::mutex mutex;
  std::vector<std::pair<std::string, std::string>> cold;  ///< every 4th (net, response)
  std::vector<std::string> warm;                          ///< every 64th warm response
};

/// One rate of the open-loop ladder.
struct Rung {
  double rate = 0.0;
  std::vector<double> read_ms, cold_ms, gen_late_ms;
  std::uint64_t attempted = 0, failed = 0;
  double duration_s = 0.0;
  std::size_t queue_depth_max = 0;
  bool backlog_grows = false;
  [[nodiscard]] bool passes() const {
    return failed == 0 && !backlog_grows && quantile(read_ms, 0.99) < kLatencyLimitMs;
  }
};

/// What one connection saw during one rate of the ladder.
struct Sent {
  std::vector<double> read_ms, cold_ms, gen_late_ms;
  std::uint64_t attempted = 0, failed = 0;
  bool backlog_grows = false;
};

/// Connection `c` of the open loop: request i is due at
/// t0 + (i + c / kConnections) * period.  A connection still busy at a due
/// time sends late (that wait counts in the latency); an idle one measures
/// how late the generator itself woke.  Throws when the connection breaks.
Sent send_schedule(const Instance& in, const std::vector<std::string>& names,
                   Clock::time_point t0, std::chrono::duration<double> period, double seconds,
                   std::size_t c, std::uint64_t seed, std::atomic<std::size_t>& cold,
                   Kept& kept) {
  rct::server::Client client;
  if (!client.connect(in.socket)) throw std::runtime_error(client.error());
  Mix mix(seed * 31 + c, names, cold);
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Sent out;
  std::vector<double> lag_ms;  // send time minus due time, in schedule order
  std::uint64_t warm_seen = 0;
  Clock::time_point free_at = Clock::now();
  std::string response;
  for (std::size_t i = 0;; ++i) {
    const double slot = static_cast<double>(i) +
                        static_cast<double>(c) / static_cast<double>(kConnections);
    const Clock::time_point due = t0 + std::chrono::duration_cast<Clock::duration>(period * slot);
    if (due >= end) break;
    const Mix::Pick pick = mix.next();
    const std::string line = Workload::request(pick.kind, *pick.net, i);
    // Sleep to just short of the due time, then spin onto it.
    if (due - Clock::now() > std::chrono::microseconds(300))
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) {
    }
    const double lag = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    lag_ms.push_back(lag);
    if (free_at <= due) out.gen_late_ms.push_back(lag);
    ++out.attempted;
    if (!client.roundtrip(line, response)) throw std::runtime_error(client.error());
    free_at = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(free_at - due).count();
    if (!response_as_expected(response, pick.kind)) {
      ++out.failed;  // an error, shed or misrouted response: counted, not fatal
      continue;
    }
    if (pick.kind == Kind::kCold) {
      out.cold_ms.push_back(ms);
      if (out.cold_ms.size() % 4 == 1) {
        const std::lock_guard<std::mutex> lock(kept.mutex);
        kept.cold.emplace_back(*pick.net, response);
      }
    } else {
      out.read_ms.push_back(ms);
      if (warm_seen++ % 64 == 0) {
        const std::lock_guard<std::mutex> lock(kept.mutex);
        kept.warm.push_back(response);
      }
    }
  }
  // Backlog: the send lag over the last quarter of the schedule against its
  // first quarter.
  const std::size_t q = lag_ms.size() / 4;
  double first = 0.0, last = 0.0;
  for (std::size_t k = 0; k < q; ++k) {
    first += lag_ms[k];
    last += lag_ms[lag_ms.size() - 1 - k];
  }
  out.backlog_grows = q > 0 && (last - first) / static_cast<double>(q) > kLatencyLimitMs;
  return out;
}

/// Offers `rate` requests/s for `seconds`, split evenly over kConnections
/// clients, while sampling the server's queue depth.
Rung open_loop(const Instance& in, const std::vector<std::string>& names, double rate,
               double seconds, std::uint64_t seed, std::atomic<std::size_t>& cold, Kept& kept) {
  Rung rung;
  rung.rate = rate;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      rung.queue_depth_max = std::max(rung.queue_depth_max, in.server->queue_depth());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const std::chrono::duration<double> period(static_cast<double>(kConnections) / rate);
  std::vector<Sent> sent(kConnections);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        sent[c] = send_schedule(in, names, t0, period, seconds, c, seed, cold, kept);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  rung.duration_s = seconds_since(t0);
  sampling.store(false);
  sampler.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);
  for (const Sent& s : sent) {
    rung.read_ms.insert(rung.read_ms.end(), s.read_ms.begin(), s.read_ms.end());
    rung.cold_ms.insert(rung.cold_ms.end(), s.cold_ms.begin(), s.cold_ms.end());
    rung.gen_late_ms.insert(rung.gen_late_ms.end(), s.gen_late_ms.begin(), s.gen_late_ms.end());
    rung.attempted += s.attempted;
    rung.failed += s.failed;
    rung.backlog_grows = rung.backlog_grows || s.backlog_grows;
  }
  return rung;
}

/// Closed-loop warm reads over one connection for `seconds`.  Returns the
/// request rate of the fastest kCapacityBurst consecutive requests: other
/// tenants of a shared host only ever slow requests down, in spells, and a
/// few milliseconds of requests regularly fall between them.
/// `overall_rps` gets the whole-phase rate.
double capacity(const Instance& in, const std::vector<std::string>& names, double seconds,
                std::uint64_t seed, std::uint64_t& attempted, double& overall_rps) {
  rct::server::Client client;
  if (!client.connect(in.socket)) throw std::runtime_error("capacity: " + client.error());
  const auto span_s = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  std::mt19937_64 rng(seed * 17);
  std::string response;
  std::vector<Clock::time_point> done_at{Clock::now()};  // [0] is the start
  while (span_s(done_at.front(), done_at.back()) < seconds) {
    const std::string line =
        Workload::request(Kind::kWarm, names[rng() % kWarmNets], done_at.size());
    if (!client.roundtrip(line, response) || !response_as_expected(response, Kind::kWarm))
      throw OracleError("capacity: " + response.substr(0, 200));
    done_at.push_back(Clock::now());
  }
  const std::size_t requests = done_at.size() - 1;
  attempted += requests;
  overall_rps = static_cast<double>(requests) / span_s(done_at.front(), done_at.back());
  double best_rps = 0.0;
  for (std::size_t i = 0; i + kCapacityBurst < done_at.size(); i += kCapacityBurst)
    best_rps = std::max(best_rps, static_cast<double>(kCapacityBurst) /
                                      span_s(done_at[i], done_at[i + kCapacityBurst]));
  return best_rps;
}

/// Post-run oracle: strict JSON + sandwich on every kept response, and each
/// cold response's rows byte-identical to the warm answer for its net.
/// Returns {exact rows checked, degraded rows, rows}.
struct Checked {
  std::size_t exact_rows = 0, degraded_rows = 0, rows = 0;
};
Checked check_kept(const Instance& in, Kept& kept) {
  Checked out;
  const auto scan = [&](const std::string& response, const std::string& what) {
    out.exact_rows += check_json(response, what);
    for (std::size_t at = 0; (at = response.find("{\"name\":", at)) != std::string::npos; ++at)
      ++out.rows;
    for (std::size_t at = 0; (at = response.find("\"degraded\":true", at)) != std::string::npos;
         ++at)
      ++out.degraded_rows;
  };
  rct::server::Client client;
  if (!client.connect(in.socket)) throw std::runtime_error("check: " + client.error());
  std::string warm;
  for (const auto& [net, cold] : kept.cold) {
    scan(cold, "cold report " + net);
    if (!client.roundtrip(Workload::request(Kind::kWarm, net, 0), warm) ||
        !response_as_expected(warm, Kind::kWarm))
      throw OracleError("warm re-read of " + net + " failed: " + warm.substr(0, 200));
    if (rows_of(cold).empty() || rows_of(cold) != rows_of(warm))
      throw OracleError("cold and warm rows differ for net " + net);
  }
  for (const std::string& w : kept.warm) scan(w, "warm report");
  if (!kept.cold.empty() && out.exact_rows == 0)
    throw OracleError("cold reports carried no exact rows");
  return out;
}

std::string rung_json(const Rung& r) {
  return JsonObject()
      .num("rate", r.rate)
      .num("attempted", static_cast<double>(r.attempted))
      .num("failed", static_cast<double>(r.failed))
      .num("read_n", static_cast<double>(r.read_ms.size()))
      .num("read_p50_ms", quantile(r.read_ms, 0.5))
      .num("read_p99_ms", quantile(r.read_ms, 0.99))
      .num("write_n", static_cast<double>(r.cold_ms.size()))
      .num("write_p50_ms", quantile(r.cold_ms, 0.5))
      .num("write_p90_ms", quantile(r.cold_ms, 0.9))
      .num("gen_late_p50_ms", quantile(r.gen_late_ms, 0.5))
      .num("gen_late_p99_ms", quantile(r.gen_late_ms, 0.99))
      .num("queue_depth_max", static_cast<double>(r.queue_depth_max))
      .num("duration_s", r.duration_s)
      .str("backlog", r.backlog_grows ? "grows" : "steady")
      .str("verdict", r.passes() ? "pass" : "fail")
      .done();
}

Result untraced(const RunOptions& opt, Workload& w, Instance& in, double setup_s) {
  const std::vector<std::string>& names = w.names();
  Result r;
  const double rss_after_setup = peak_rss_mb();
  double overall_rps = 0.0;
  // Capacity gets most of the window: the longer it runs, the surer it is to
  // span a spell in which the host leaves the server alone.
  const double cap = capacity(in, names, opt.seconds * 0.6, opt.seed, r.attempted, overall_rps);

  // The nominal rate, whose read latency the detail line reports, gets 20%
  // of the window; the other rates 5% each.  Every rate runs: the ladder
  // tops out below capacity, so no rate builds an unbounded backlog.
  std::atomic<std::size_t> cold{0};
  Kept kept;
  std::vector<Rung> rungs;
  double max_rps = 0.0;
  bool all_passed = true;
  const Rung* nominal = nullptr;
  rungs.reserve(std::size(kLadder));
  for (const double rate : kLadder) {
    const double seconds = opt.seconds * (rate == kNominalRps ? 0.2 : 0.05);
    rungs.push_back(open_loop(in, names, rate, seconds, opt.seed + rungs.size(), cold, kept));
    const Rung& rung = rungs.back();
    r.attempted += rung.attempted;
    r.failed += rung.failed;
    if (rate == kNominalRps) nominal = &rung;
    all_passed = all_passed && rung.passes();
    if (all_passed) max_rps = rate;
  }
  std::string ladder = "[";
  for (const Rung& g : rungs) ladder += (ladder.size() > 1 ? "," : "") + rung_json(g);
  ladder += "]";
  if (nominal == nullptr) throw std::logic_error("kNominalRps is not a ladder rate");

  std::vector<double> cold_ms, late_ms;
  for (const Rung& g : rungs) {
    cold_ms.insert(cold_ms.end(), g.cold_ms.begin(), g.cold_ms.end());
    late_ms.insert(late_ms.end(), g.gen_late_ms.begin(), g.gen_late_ms.end());
  }
  if (quantile(late_ms, 0.5) > kGenLateLimitMs)
    throw OracleError("invalid run: the load generator fell behind (median lateness " +
                      std::to_string(quantile(late_ms, 0.5)) + " ms)");
  const Checked checked = check_kept(in, kept);

  r.metrics = {
      {"throughput_per_s", cap, "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  r.detail_json =
      JsonObject()
          .num("capacity_rps_overall", overall_rps)
          .num("rss_after_setup_mb", rss_after_setup)
          .num("nominal_rps", kNominalRps)
          .num("read_p50_ms", quantile(nominal->read_ms, 0.5))
          .num("read_p99_ms", quantile(nominal->read_ms, 0.99))
          .num("read_n", static_cast<double>(nominal->read_ms.size()))
          .num("write_p50_ms", quantile(cold_ms, 0.5))
          .num("write_p90_ms", quantile(cold_ms, 0.9))
          .num("write_n", static_cast<double>(cold_ms.size()))
          .num("max_rps", max_rps)
          .num("latency_limit_ms", kLatencyLimitMs)
          .num("failed_frac", static_cast<double>(r.failed) / static_cast<double>(r.attempted))
          .num("degraded_row_frac",
               checked.rows > 0 ? static_cast<double>(checked.degraded_rows) /
                                      static_cast<double>(checked.rows)
                                : 0.0)
          .num("serve.gen_late_ms", quantile(late_ms, 0.99))
          .num("exact_rows_checked", static_cast<double>(checked.exact_rows))
          .num("cold_rows_compared", static_cast<double>(kept.cold.size()))
          .raw("ladder", ladder)
          .done();
  return r;
}

Result traced(const RunOptions& opt, Workload& w, Instance& in) {
  const std::vector<std::string>& names = w.names();
  Result r;
  const Clock::time_point start = Clock::now();
  Layers l;
  measure_deck_layers(w.deck(), kJobs, opt.seed, /*exact=*/true, l);

  // server.handle_*: Server::handle_line on warm requests, in process.
  std::mt19937_64 rng(opt.seed);
  std::vector<double> handle_us;
  double response_bytes = 0.0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::string line = Workload::request(Kind::kWarm, names[rng() % kWarmNets], i);
    const Clock::time_point t0 = Clock::now();
    const std::string response = in.server->handle_line(line);
    handle_us.push_back(seconds_since(t0) * 1e6);
    if (!response_as_expected(response, Kind::kWarm))
      throw OracleError("handle_line: " + response.substr(0, 200));
    response_bytes += static_cast<double>(response.size());
  }

  // One open-loop rung at the nominal rate: queue depth, sheds, store
  // writes, generator lateness.
  std::atomic<std::size_t> cold{0};
  Kept kept;
  rct::obs::registry().reset();
  const std::uint64_t shed_before = in.server->requests_shed();
  const Rung rung = open_loop(in, names, kNominalRps, std::max(1.0, opt.seconds * 0.3),
                              opt.seed, cold, kept);
  const double store_writes =
      static_cast<double>(rct::obs::registry().counter_value("store.save.writes"));
  (void)check_kept(in, kept);

  // Traced closed loop over one connection, alternating untraced and traced
  // blocks: bench.serve.request roots around each request, the client
  // roundtrip as their child, the server's own spans on its threads.
  rct::obs::registry().reset();
  rct::server::Client client;
  if (!client.connect(in.socket)) throw std::runtime_error("traced: " + client.error());
  Mix mix(opt.seed * 7 + 3, names, cold);
  std::vector<double> plain_us, traced_us;
  std::string response;
  std::uint64_t id = 0;
  const double window = std::max(2.0, opt.seconds - seconds_since(start));
  const Clock::time_point loop_start = Clock::now();
  while (traced_us.size() < 400 ||
         (seconds_since(loop_start) < window && traced_us.size() < 4000)) {
    for (const bool tracing : {false, true}) {
      rct::obs::tracer().set_enabled(tracing);
      for (int k = 0; k < 50; ++k) {
        const Mix::Pick pick = mix.next();
        const Clock::time_point t0 = Clock::now();
        bool ok = false;
        {
          const rct::obs::Span root("bench.serve.request", "bench");
          const std::string line = Workload::request(pick.kind, *pick.net, id++);
          const rct::obs::Span call("bench.client.roundtrip", "io");
          ok = client.roundtrip(line, response);
        }
        const double us = seconds_since(t0) * 1e6;
        if (!ok || !response_as_expected(response, pick.kind))
          throw OracleError("traced request: " + response.substr(0, 200));
        if (pick.kind == Kind::kWarm) (tracing ? traced_us : plain_us).push_back(us);
      }
    }
  }
  rct::obs::tracer().set_enabled(false);
  const std::vector<rct::obs::TraceEvent> events = rct::obs::tracer().events();
  rct::obs::tracer().clear();
  const TraceSplit split = split_trace(events, "bench.serve.request");
  check_accounting(split, opt.workload);

  // io = each roundtrip minus the server.request span inside it.
  std::vector<const rct::obs::TraceEvent*> server_spans;
  for (const rct::obs::TraceEvent& e : events)
    if (std::string_view(e.name) == "server.request") server_spans.push_back(&e);
  std::vector<double> io_us;
  std::size_t s = 0;
  for (const rct::obs::TraceEvent& e : events) {
    if (std::string_view(e.name) != "bench.client.roundtrip") continue;
    while (s < server_spans.size() && server_spans[s]->ts_ns < e.ts_ns) ++s;
    if (s < server_spans.size() &&
        server_spans[s]->ts_ns + server_spans[s]->dur_ns <= e.ts_ns + e.dur_ns)
      io_us.push_back(static_cast<double>(e.dur_ns - server_spans[s]->dur_ns) * 1e-3);
  }

  const rct::obs::MetricsRegistry& reg = rct::obs::registry();
  const auto count = [&](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const double hits = count("engine.cache.hits");
  const double misses = count("engine.cache.misses");
  l.report_self_ms = mean_self_ms(split, "core.report.build");
  l.exact_path = count("core.report.exact_path");
  l.moments_only = count("core.report.moments_only");
  l.degraded_rows = count("core.report.degraded_rows");
  l.cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  l.handle_us_p50 = quantile(handle_us, 0.5);
  l.handle_us_p99 = quantile(handle_us, 0.99);
  l.io_us_p50 = quantile(io_us, 0.5);
  l.response_kb = response_bytes / static_cast<double>(handle_us.size()) / 1e3;
  l.queue_depth_max = static_cast<double>(rung.queue_depth_max);
  l.requests_shed = static_cast<double>(in.server->requests_shed() - shed_before);
  l.store_writes = store_writes;
  l.gen_late_ms = quantile(rung.gen_late_ms, 0.99);
  l.trace_overhead_frac = median(traced_us) / median(plain_us) - 1.0;
  l.unaccounted_frac = split.unaccounted_frac;

  r.attempted = rung.attempted + id + handle_us.size();
  r.failed = rung.failed;
  r.metrics = layer_metrics(l);
  r.detail_json = JsonObject()
                      .num("io_matched", static_cast<double>(io_us.size()))
                      .num("traced_requests", static_cast<double>(id))
                      .raw("rung", rung_json(rung))
                      .raw("trace", split_json(split))
                      .done();
  return r;
}

}  // namespace

Result run_serve(const RunOptions& opt) {
  // Sockets and stores live in the work directory under short relative
  // names (unix socket paths are length-limited).
  const std::string deck = fs::absolute(deck_path(opt.deck_dir)).string();
  fs::create_directories(opt.work_dir);
  fs::current_path(opt.work_dir);

  Workload w(deck);
  std::vector<double> setups;
  Instance in;
  const int reps = opt.trace ? 1 : 5;
  for (int rep = 0; rep < reps; ++rep) {
    if (in.server != nullptr) {
      in.server.reset();
      // Hand the discarded instance's memory back to the OS, as a restarted
      // process would: otherwise the measured instance's peak RSS depends
      // on which freed blocks its threads happen to reuse.
      malloc_trim(0);
    }
    in = w.set_up(rep);
    setups.push_back(in.setup_s);
  }
  Result r = opt.trace ? traced(opt, w, in) : untraced(opt, w, in, median(setups));
  in.server->stop();
  return r;
}

}  // namespace rctbench
