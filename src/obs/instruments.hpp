#pragma once
// obs instruments — the one table of every instrument rct records: an id,
// a dotted name (`layer.component.op`; latency histograms end in `seconds`)
// and a histogram's buckets.  Call sites name instruments by id, one enum
// per kind, so `obs::counter(obs::C::kServerRequests).add()` compiles and
// `obs::counter(obs::H::kServerRequest)` does not.
//
// The MetricsRegistry stays the one storage.  An id resolves to its registry
// instrument on first touch and the pointer is kept, so later touches are
// one load and one branch.  An instrument shows in snapshots once resolved;
// a grouped counter resolves with its group (a batch lists engine.nets.*).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "obs/metrics.hpp"

// clang-format off
/// X(id, name, group): a counter resolved alone (kNone) or with its group.
#define RCT_OBS_COUNTERS(X)                                                      \
  X(kAnalysisContextBuilds,        "analysis.context.builds",        kNone)      \
  X(kCoreReportDegradedRows,       "core.report.degraded_rows",      kNone)      \
  X(kCoreReportEigensolveInvalid,  "core.report.eigensolve_invalid", kNone)      \
  X(kCoreReportExactPath,          "core.report.exact_path",         kNone)      \
  X(kCoreReportMomentMismatch,     "core.report.moment_mismatch",    kNone)      \
  X(kCoreReportMomentsOnly,        "core.report.moments_only",       kNone)      \
  X(kEngineCacheEvictions,         "engine.cache.evictions",         kNone)      \
  X(kEngineCacheHits,              "engine.cache.hits",              kNone)      \
  X(kEngineCacheInserts,           "engine.cache.inserts",           kNone)      \
  X(kEngineCacheMisses,            "engine.cache.misses",            kNone)      \
  X(kEngineCacheStoreHits,         "engine.cache.store_hits",        kNone)      \
  X(kEngineNetsCancelled,          "engine.nets.cancelled",          kEngineRun) \
  X(kEngineNetsCompleted,          "engine.nets.completed",          kEngineRun) \
  X(kEngineNetsDegraded,           "engine.nets.degraded",           kEngineRun) \
  X(kEngineNetsFailed,             "engine.nets.failed",             kEngineRun) \
  X(kEngineNetsRetried,            "engine.nets.retried",            kEngineRun) \
  X(kEngineNetsTimedOut,           "engine.nets.timed_out",          kEngineRun) \
  X(kEngineNetsTotal,              "engine.nets.total",              kEngineRun) \
  X(kEngineTasksRun,               "engine.tasks.run",               kEngineRun) \
  X(kObsLogDropped,                "obs.log.dropped",                kNone)      \
  X(kParseBytes,                   "parse.bytes",                    kNone)      \
  X(kParseDiagnostics,             "parse.diagnostics",              kNone)      \
  X(kParseSectionsCompleted,       "parse.sections.completed",       kNone)      \
  X(kParseSectionsTotal,           "parse.sections.total",           kNone)      \
  X(kPoolTasksRun,                 "pool.tasks.run",                 kNone)      \
  X(kPoolTasksStolen,              "pool.tasks.stolen",              kNone)      \
  X(kServerConnIdleClosed,         "server.conn.idle_closed",        kNone)      \
  X(kServerConnRejected,           "server.conn.rejected",           kNone)      \
  X(kServerConnections,            "server.connections",             kNone)      \
  X(kServerDisconnects,            "server.disconnects",             kNone)      \
  X(kServerHttpErrors,             "server.http.errors",             kNone)      \
  X(kServerHttpRequests,           "server.http.requests",           kNone)      \
  X(kServerRenderCached,           "server.render.cached",           kNone)      \
  X(kServerRenderFresh,            "server.render.fresh",            kNone)      \
  X(kServerRequestErrors,          "server.request.errors",          kNone)      \
  X(kServerRequests,               "server.requests",                kNone)      \
  X(kServerRequestsShed,           "server.requests.shed",           kNone)      \
  X(kServerRequestsTooLarge,       "server.requests.too_large",      kNone)      \
  X(kStoreGcBytesFreed,            "store.gc.bytes_freed",           kNone)      \
  X(kStoreGcErrors,                "store.gc.errors",                kNone)      \
  X(kStoreGcEvicted,               "store.gc.evicted",               kNone)      \
  X(kStoreGcRecovered,             "store.gc.recovered",             kNone)      \
  X(kStoreGcSweeps,                "store.gc.sweeps",                kNone)      \
  X(kStoreLoadCorrupt,             "store.load.corrupt",             kNone)      \
  X(kStoreLoadHits,                "store.load.hits",                kNone)      \
  X(kStoreLoadMisses,              "store.load.misses",              kNone)      \
  X(kStoreSaveErrors,              "store.save.errors",              kNone)      \
  X(kStoreSaveWrites,              "store.save.writes",              kNone)

/// X(id, name): a gauge.
#define RCT_OBS_GAUGES(X)                                                        \
  X(kServerCacheEntries,           "server.cache.entries")                       \
  X(kServerCacheHitRate,           "server.cache.hit_rate")                      \
  X(kServerCacheRenderedBytes,     "server.cache.rendered_bytes")                \
  X(kServerConnectionsActive,      "server.connections.active")                  \
  X(kServerDesigns,                "server.designs")                             \
  X(kServerNetsLoaded,             "server.nets.loaded")                         \
  X(kServerQueueDepth,             "server.queue.depth")                         \
  X(kServerState,                  "server.state")                               \
  X(kServerStoreHitRate,           "server.store.hit_rate")                      \
  X(kStoreBytes,                   "store.bytes")

/// X(id, name, kind): a histogram over latency (seconds) or ratio buckets.
#define RCT_OBS_HISTOGRAMS(X)                                                    \
  X(kAnalysisContextBuild,    "analysis.context.build_seconds",     kLatency)    \
  X(kCoreReportBoundGap,      "core.report.bound_gap",              kRatio)      \
  X(kCoreReportBuild,         "core.report.build_seconds",          kLatency)    \
  X(kCoreReportEigensolve,    "core.report.eigensolve_seconds",     kLatency)    \
  X(kCoreReportExactError,    "core.report.exact_vs_elmore_error",  kRatio)      \
  X(kEngineBatchAnalyze,      "engine.batch.analyze_seconds",       kLatency)    \
  X(kEngineBatchMerge,        "engine.batch.merge_seconds",         kLatency)    \
  X(kEngineNetAnalyze,        "engine.net.analyze_seconds",         kLatency)    \
  X(kEngineTaskQueueWait,     "engine.task.queue_wait_seconds",     kLatency)    \
  X(kParseIndex,              "parse.index.seconds",                kLatency)    \
  X(kParseNets,               "parse.nets.seconds",                 kLatency)    \
  X(kPoolWorkerIdle,          "pool.worker.idle_seconds",           kLatency)    \
  X(kServerRequest,           "server.request.seconds",             kLatency)    \
  X(kServerRequestReport,     "server.request.report.seconds",      kLatency)    \
  X(kServerRequestBounds,     "server.request.bounds.seconds",      kLatency)    \
  X(kServerRequestLoad,       "server.request.load.seconds",        kLatency)    \
  X(kServerRequestPing,       "server.request.ping.seconds",        kLatency)    \
  X(kServerRequestStats,      "server.request.stats.seconds",       kLatency)    \
  X(kServerRequestEvict,      "server.request.evict.seconds",       kLatency)    \
  X(kServerRequestTrace,      "server.request.trace.seconds",       kLatency)    \
  X(kServerRequestShutdown,   "server.request.shutdown.seconds",    kLatency)
// clang-format on

namespace rct::obs {

/// Ids: an id's value is its row in kInstruments, whatever its kind.
namespace row {
#define RCT_OBS_ROW(id, ...) id,
enum : std::uint8_t {
  RCT_OBS_COUNTERS(RCT_OBS_ROW) RCT_OBS_GAUGES(RCT_OBS_ROW) RCT_OBS_HISTOGRAMS(RCT_OBS_ROW)
};
#undef RCT_OBS_ROW
}  // namespace row
#define RCT_OBS_ID(id, ...) id = row::id,
enum class C : std::uint8_t { RCT_OBS_COUNTERS(RCT_OBS_ID) };
enum class G : std::uint8_t { RCT_OBS_GAUGES(RCT_OBS_ID) };
enum class H : std::uint8_t { RCT_OBS_HISTOGRAMS(RCT_OBS_ID) };
#undef RCT_OBS_ID

enum class Kind : std::uint8_t { kCounter, kGauge, kLatency, kRatio };
enum class Group : std::uint8_t { kNone, kEngineRun };
struct Instrument {
  Kind kind;
  std::string_view name;
  Group group = Group::kNone;
};

#define RCT_OBS_C(id, name, group) {Kind::kCounter, name, Group::group},
#define RCT_OBS_G(id, name) {Kind::kGauge, name},
#define RCT_OBS_H(id, name, kind) {Kind::kind, name},
inline constexpr Instrument kInstruments[] = {
    RCT_OBS_COUNTERS(RCT_OBS_C) RCT_OBS_GAUGES(RCT_OBS_G) RCT_OBS_HISTOGRAMS(RCT_OBS_H)};
#undef RCT_OBS_H
#undef RCT_OBS_G
#undef RCT_OBS_C

template <class Id>
constexpr const Instrument& info(Id id) {
  return kInstruments[static_cast<std::size_t>(id)];
}

namespace detail {
/// Each row's registry instrument, nullptr until first touch.
inline std::atomic<void*> slots[std::size(kInstruments)];
/// Cold path: finds or creates row i's instrument (and its group's).
void* resolve(std::size_t i);

template <class T, class Id>
T& touch(Id id) {
  const auto i = static_cast<std::size_t>(id);
  void* p = slots[i].load(std::memory_order_acquire);
  return *static_cast<T*>(p != nullptr ? p : resolve(i));
}
}  // namespace detail

[[nodiscard]] inline Counter& counter(C id) { return detail::touch<Counter>(id); }
[[nodiscard]] inline Gauge& gauge(G id) { return detail::touch<Gauge>(id); }
[[nodiscard]] inline Histogram& histogram(H id) { return detail::touch<Histogram>(id); }

/// Reads for display paths (--progress, summaries), which create nothing:
/// 0 or nullptr while nothing has touched the id.
[[nodiscard]] std::uint64_t counter_value(C id);
[[nodiscard]] const Histogram* find_histogram(H id);

}  // namespace rct::obs
