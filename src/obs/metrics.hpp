#pragma once
// obs — first-class measurement layer: a process-global MetricsRegistry of
// named counters, gauges and fixed-bucket latency histograms.
//
// Every instrument is a plain struct of atomics mutated with relaxed
// operations, so concurrent updates from a thread pool never take a lock;
// the registry's mutex is touched only on the first lookup of a name (hot
// paths cache the returned reference, typically in a function-local
// static).  References returned by the registry stay valid for the
// registry's lifetime — reset() zeroes values, it never invalidates.
//
// Naming convention (shared with spans, see trace.hpp): dotted
// `layer.component.op[.unit]`, e.g. `engine.cache.hits`,
// `engine.net.analyze_seconds`.  Latency histograms carry a `_seconds`
// suffix and observe seconds.
//
// Snapshots: to_json() serializes every instrument into a stable
// machine-readable schema (schema_version 1, documented in README.md);
// `rct batch --metrics-out FILE` writes it to disk.
//
// Latency histograms are fed by obs::Span (trace.hpp), the one RAII timer.
//
// Compile-time switch: building with -DRCT_OBS_ENABLED=0 compiles out the
// *timing* half of the layer (Spans stop observing histograms and recording
// trace events, see trace.hpp) so the disabled overhead is provably near
// zero.  Counters, gauges and direct Histogram::observe() calls stay
// live in both modes: counters are one relaxed atomic add each and double
// as the engine's EngineStats source of truth.  Keep live hooks off per-row
// loops; tests/test_report.cpp counts the updates a report makes.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#ifndef RCT_OBS_ENABLED
#define RCT_OBS_ENABLED 1
#endif

namespace rct::obs {

/// Monotonic event count.  add() is one relaxed atomic add.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (pool size, max moment order...).  set()/add() are
/// lock-free; add() is a CAS loop so it is exact under contention.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to v when v is larger (CAS max; high-water marks).
  void max_of(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` semantics: a sample lands in
/// the first bucket whose upper bound is >= the value; samples above the
/// last bound land in the implicit +inf overflow bucket.  Bucket counts,
/// count, sum, min and max are all atomics, so observe() never locks.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; throws otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  /// Finite upper bounds (the +inf bucket is implicit at index bounds().size()).
  [[nodiscard]] std::span<const double> bounds() const { return bounds_; }
  /// Count in bucket i; i == bounds().size() is the +inf overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest observed value; 0 when count() == 0.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Quantile estimate (q in [0,1], clamped) by monotone linear
  /// interpolation over the bucket counts, Prometheus histogram_quantile
  /// style: the rank q*count is located in the cumulative distribution and
  /// interpolated between the bucket's edges.  The +inf bucket and the
  /// first bucket's open lower edge are capped at the observed max/min, and
  /// the result is clamped to [min(), max()] so degenerate distributions
  /// (all samples equal) come back exact.  Returns 0 for an empty
  /// histogram.  Safe to call concurrently with observe(): the estimate is
  /// computed from one coherent copy of the bucket counts.
  [[nodiscard]] double quantile(double q) const;

  void reset();

  /// Default bounds for `_seconds` latency histograms: a 1-2-5 series from
  /// 1 microsecond to 50 seconds (24 finite buckets).
  [[nodiscard]] static const std::vector<double>& default_latency_bounds();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1 (overflow)
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;  // +inf until first observe
  std::atomic<double> max_;  // -inf until first observe
};

/// Name -> instrument map.  Lookup takes one mutex (cache the reference in
/// hot code); mutation of the returned instruments is lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; the reference stays valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Histogram with default_latency_bounds().
  [[nodiscard]] Histogram& histogram(std::string_view name);
  /// Histogram with custom bounds; the bounds of an already-existing name win.
  [[nodiscard]] Histogram& histogram(std::string_view name, std::vector<double> upper_bounds);

  /// Current value of a counter, or 0 when no such counter exists (so
  /// readers need not create instruments the writers never touched).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Read-only histogram lookup: nullptr when no such histogram exists, so
  /// display paths (--progress, summaries) never create instruments.
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Zeroes every instrument.  References handed out earlier stay valid.
  void reset();

  /// Full snapshot, schema_version 1:
  ///   {"schema_version":1,"counters":{...},"gauges":{...},
  ///    "histograms":{name:{"buckets":[{"le":b,"count":n}...],
  ///                        "count":n,"sum":s,"min":m,"max":M,
  ///                        "p50":q,"p95":q,"p99":q}}}
  /// Keys are sorted, so the layout is stable for a given instrument set.
  /// (p50/p95/p99 were added additively; consumers of the version-1 schema
  /// ignore unknown keys.)
  [[nodiscard]] std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4): one `# HELP` + `# TYPE`
  /// pair per instrument, names prefixed `rct_` with dots mapped to
  /// underscores, histograms rendered with CUMULATIVE `le` buckets plus
  /// `_sum`/`_count`.  This is the `rct serve` scrape format; `rct batch
  /// --metrics-format prom` writes it instead of the JSON snapshot.
  [[nodiscard]] std::string to_prometheus() const;

  /// Writes to_json() (plus a trailing newline) to `path`; "-" means
  /// stderr.  False on I/O error.
  bool write_json(const std::string& path) const;

  /// Writes to_prometheus() to `path` ("-" = stderr); false on I/O error.
  bool write_prometheus(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  // std::map: reference-stable values, sorted iteration for free.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-global registry every layer records into.
[[nodiscard]] MetricsRegistry& registry();

/// Writes `body` to `path`, with "-" meaning stderr (pipelines capture
/// telemetry without temp files); false on I/O error.  Every obs file sink
/// (metrics, trace, flight dump) writes through it.
bool write_text(const std::string& path, std::string_view body);

}  // namespace rct::obs
