// probe — a shared module that times the report pipeline on named
// workloads, so scripts/ab_gate.py can load two builds of the library into
// one process and call them in alternation: RCT_OBS=ON against a real
// RCT_OBS=OFF build (obs mode), or HEAD's src/ against the working tree's
// (perf mode).  Two processes cannot resolve a few percent on a shared box;
// two modules side by side see the same machine state.  Each carries a
// private copy of the library (hidden visibility, -Bsymbolic,
// --exclude-libs, loaded RTLD_LOCAL), so the copies never alias.
//
// Workloads (kWorkloads), kind/topology/nodes:
//   fresh/{line,random}/N   build_report(tree), bounds only
//   shared/{line,random}/N  build_report(context) on a prebuilt context
//   context/line/N          TreeContext construction alone
//   exact/random/{16,96,250,1000}, exact/line/250
//                           build_report(context) with the exact solve on
//   serve/warm              one warm `report` through Server::handle_line
//   batch/{stamped,exact}   one `rct batch --json` pass: analyze_spef_file +
//                           format_batch_json on rctbench's deck and Config
// Lines are gen::line(N, 100, 0.1p, 50, 0.05p), random trees
// gen::random_tree(N, seed 12345).  serve/warm's server has one pool worker
// and is never started (no socket, no accept thread); its deck of 64
// random 96-node nets (seeds 12345…) is written next to the module, loaded
// and deleted, and every net is reported twice in setup (computed, then
// its rendering attached), so each timed call splices a cached rendering.
// The batch workloads run rctbench's batch_moments_stamped and batch_exact
// passes: the seed-2 deck from rctbench/deck.cpp's generate_deck (10k
// 24-node nets, half stamped copies; 100 nets of 16/96/250 nodes), written
// under the build tree for the workload's lifetime, and its options (3 jobs
// and exact limit 23; 2 jobs with the exact path on), with the net cache on.
//
// C ABI:
//   int         rct_probe_timing_enabled()  1 in an RCT_OBS=ON build
//   const char* rct_probe_workloads()       space-separated names
//   int         rct_probe_setup(name)       builds that workload and runs it
//                                           once (warming lazy members); 0 = ok
//   double      rct_probe_time(int calls)   seconds for `calls` runs, < 0 on error

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/tree_context.hpp"
#include "bench.hpp"
#include "core/report.hpp"
#include "engine/batch.hpp"
#include "obs/trace.hpp"
#include "rctree/generators.hpp"
#include "rctree/spef.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

#define RCT_PROBE_EXPORT extern "C" __attribute__((visibility("default")))

namespace {

using namespace rct;

constexpr const char* kWorkloads =
    "fresh/line/1024 fresh/line/4096 fresh/line/16384 fresh/line/65536 "
    "fresh/random/1024 fresh/random/4096 fresh/random/16384 fresh/random/65536 "
    "shared/line/1024 shared/line/4096 shared/line/16384 shared/line/65536 "
    "shared/random/1024 shared/random/4096 shared/random/16384 shared/random/65536 "
    "context/line/1024 context/line/4096 context/line/16384 context/line/65536 "
    "exact/random/16 exact/random/96 exact/random/250 exact/random/1000 exact/line/250 "
    "serve/warm batch/stamped batch/exact";

/// One named workload; run() is one timed call, false when its answer is
/// wrong.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  [[nodiscard]] virtual bool run() = 0;
};

enum class Kind { kFresh, kShared, kContext, kExact };

struct ReportWorkload final : Workload {
  ReportWorkload(Kind k, bool line, std::size_t nodes)
      : kind(k),
        tree(line ? gen::line(nodes, 100.0, 0.1e-12, 50.0, 0.05e-12)
                  : gen::random_tree(nodes, /*seed=*/12345)),
        options{.with_exact = k == Kind::kExact} {
    if (kind == Kind::kShared || kind == Kind::kExact) context.emplace(tree);
  }

  /// One run: true when it produced one row (or context entry) per node.
  bool run() override {
    switch (kind) {
      case Kind::kFresh: return core::build_report(tree, options).size() == tree.size();
      case Kind::kContext:
        return analysis::TreeContext(tree).elmore_delays().size() == tree.size();
      case Kind::kShared:
      case Kind::kExact: return core::build_report(*context, options).size() == tree.size();
    }
    return false;
  }

  Kind kind;
  RCTree tree;
  std::optional<analysis::TreeContext> context;  ///< kShared and kExact
  core::ReportOptions options;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload() : server_(serve_options()) {
    SpefFile deck;
    deck.design = "probe_serve_warm";
    for (std::size_t i = 0; i < 64; ++i) {
      SpefNet net;
      net.name = std::string("net_").append(std::to_string(i));
      net.driver = "drv";
      net.tree = gen::random_tree(96, /*seed=*/12345 + i);
      net.loads = net.tree.leaves();
      deck.nets.push_back(std::move(net));
    }
    server::Request load;
    load.cmd = "load";
    load.path = std::string(RCT_PROBE_DECK_DIR).append("/probe_serve_warm.spef");
    { std::ofstream(load.path) << write_spef(deck); }
    const bool loaded = server::response_ok(server_.handle_line(server::encode_request(load)));
    std::remove(load.path.c_str());
    if (!loaded) throw std::runtime_error("serve/warm: deck did not load");
    for (const SpefNet& net : deck.nets) {
      server::Request report;
      report.cmd = "report";
      report.net = net.name;
      requests_.push_back(server::encode_request(report));
      for (int pass = 0; pass < 2; ++pass)
        if (!server::response_ok(server_.handle_line(requests_.back())))
          throw std::runtime_error("serve/warm: report failed");
    }
  }

  bool run() override {
    const std::string response = server_.handle_line(requests_[next_]);
    next_ = (next_ + 1) % requests_.size();
    return response.find("\"source\":\"memory\"") != std::string::npos;
  }

 private:
  static server::ServeOptions serve_options() {
    server::ServeOptions options;
    options.jobs = 1;
    return options;
  }

  server::Server server_;
  std::vector<std::string> requests_;
  std::size_t next_ = 0;
};

/// rctbench's batch_exact or batch_moments_stamped pass (see the header).
class BatchWorkload final : public Workload {
 public:
  explicit BatchWorkload(bool exact)
      : dir_(std::string(RCT_PROBE_DECK_DIR).append(exact ? "/probe_batch_exact"
                                                          : "/probe_batch_stamped")),
        nets_(rctbench::kStampedDistinct + rctbench::kStampedCopies) {
    if (exact) {
      nets_ = 0;
      for (const std::size_t count : rctbench::kExactCounts) nets_ += count;
    }
    std::filesystem::create_directories(dir_);
    rctbench::generate_deck(exact ? "batch_exact" : "batch_moments_stamped", /*seed=*/2, dir_);
    options_.jobs = exact ? 2 : 3;
    options_.use_cache = true;
    // The paper's bounds-only path: an exact limit below every net's size.
    if (!exact) options_.report.exact_node_limit = rctbench::kStampedNodes - 1;
  }
  ~BatchWorkload() override { std::filesystem::remove_all(dir_); }

  /// One pass: true when every net came back with rows.
  bool run() override {
    const engine::FileBatchResult result =
        engine::analyze_spef_file(rctbench::deck_path(dir_), options_);
    const std::string json = engine::format_batch_json(result.batch);
    bool ok = result.batch.nets.size() == nets_ && !json.empty();
    for (const engine::NetResult& net : result.batch.nets) ok &= net.error.empty();
    return ok;
  }

 private:
  std::string dir_;
  std::size_t nets_;
  engine::BatchOptions options_;
};

std::unique_ptr<Workload> g_workload;

}  // namespace

RCT_PROBE_EXPORT int rct_probe_timing_enabled() { return rct::obs::kTimingEnabled ? 1 : 0; }

RCT_PROBE_EXPORT const char* rct_probe_workloads() { return kWorkloads; }

RCT_PROBE_EXPORT int rct_probe_setup(const char* name) {
  g_workload.reset();
  std::istringstream list(kWorkloads);
  std::string listed;
  while (list >> listed && listed != name) {
  }
  if (listed == name && listed == "serve/warm") {
    try {
      auto w = std::make_unique<ServeWorkload>();
      if (!w->run()) return 1;
      g_workload = std::move(w);
    } catch (...) {
      return 1;
    }
    // The server's pool thread is joined at exit before the library
    // statics its teardown touches are destroyed: those were constructed
    // above, and exit handlers run in reverse order of registration.
    static const bool teardown_registered = std::atexit([] { g_workload.reset(); }) == 0;
    return teardown_registered ? 0 : 1;
  }
  if (listed == name && listed.starts_with("batch/")) {
    try {
      auto w = std::make_unique<BatchWorkload>(listed == "batch/exact");
      if (!w->run()) return 1;
      g_workload = std::move(w);
      return 0;
    } catch (...) {
      return 1;
    }
  }
  char kind[8], topology[8];
  std::size_t nodes = 0;
  if (listed != name || std::sscanf(name, "%7[a-z]/%7[a-z]/%zu", kind, topology, &nodes) != 3)
    return 1;
  const std::string_view k = kind;
  try {
    auto w = std::make_unique<ReportWorkload>(k == "fresh"     ? Kind::kFresh
                                              : k == "shared"  ? Kind::kShared
                                              : k == "context" ? Kind::kContext
                                                               : Kind::kExact,
                                              std::string_view(topology) == "line", nodes);
    if (!w->run()) return 1;
    g_workload = std::move(w);
    return 0;
  } catch (...) {
    return 1;
  }
}

RCT_PROBE_EXPORT double rct_probe_time(int calls) {
  if (!g_workload) return -1.0;
  try {
    bool ok = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) ok &= g_workload->run();
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return ok ? s : -1.0;
  } catch (...) {
    return -1.0;
  }
}
