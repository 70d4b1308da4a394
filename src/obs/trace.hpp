#pragma once
// obs tracing — RAII spans collected into per-thread buffers and exported
// as Chrome trace-event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// A Span marks one timed operation.  Its name follows the registry's
// `layer.component.op` convention and its category is the layer
// ("cli", "engine", "analysis", "core", "pool"), which is what the trace
// viewers group and filter by.  An optional detail string (e.g. the net
// name) is emitted as args.detail.
//
// Recording is opt-in at runtime: spans do nothing — not even read the
// clock — until tracer().set_enabled(true) (the CLI arms it for
// --trace-out).  Each recording thread appends to its own buffer behind
// its own (uncontended) mutex; buffers are merged and time-sorted only at
// export.  Buffers are shared_ptr-owned by both the thread and the
// collector, so events survive worker threads that exit before export
// (the engine's pool joins its workers before the CLI writes the file).
//
// Building with -DRCT_OBS_ENABLED=0 compiles spans out entirely: Span
// becomes an empty object and no call site reads the clock, which is the
// "provably near zero disabled overhead" path (scripts/obs_gate.py measures
// the default build against it).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"  // RCT_OBS_ENABLED

namespace rct::obs {

/// One completed span ("X" phase in the Chrome trace format).
struct TraceEvent {
  const char* name;    ///< static string: `layer.component.op`
  const char* cat;     ///< static string: the layer
  std::string detail;  ///< optional args.detail ("" = omitted)
  std::uint64_t ts_ns;   ///< start, relative to the collector epoch
  std::uint64_t dur_ns;  ///< duration
  std::uint32_t tid;     ///< collector-assigned thread id (dense, from 1)
};

class TraceCollector {
 public:
  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Arms/disarms recording.  Spans constructed while disarmed cost nothing.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the collector's epoch (its construction).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Appends one completed event to the calling thread's buffer.
  void record(const char* name, const char* cat, std::uint64_t ts_ns, std::uint64_t dur_ns,
              std::string detail = {});

  /// All recorded events, merged across threads and sorted by start time.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Drops every recorded event (buffers stay registered).
  void clear();

  /// {"displayTimeUnit":"ms","traceEvents":[...]} — "X" events with
  /// microsecond ts/dur plus one thread_name metadata event per thread.
  [[nodiscard]] std::string to_chrome_json() const;
  /// Writes to_chrome_json() (plus a trailing newline) to `path`; "-"
  /// means stderr.  False on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::uint32_t tid = 0;
  };

  /// The calling thread's buffer for this collector (registered on first use).
  Buffer& local_buffer();

  const std::uint64_t collector_id_;  ///< distinguishes collectors in TL caches
  std::uint64_t epoch_ns_;            ///< steady_clock epoch, absolute ns
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_tid_{1};
  mutable std::mutex mutex_;  ///< guards buffers_ (registration + export)
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// The process-global collector every Span records into.
[[nodiscard]] TraceCollector& tracer();

/// True when the timing instrumentation (spans, scoped timers, timestamps)
/// is compiled in.
inline constexpr bool kTimingEnabled = RCT_OBS_ENABLED != 0;

/// Nanoseconds on the global tracer's clock; constant 0 when compiled out
/// (callers guard the matching observe with `if constexpr (kTimingEnabled)`).
[[nodiscard]] inline std::uint64_t timestamp_ns() {
  if constexpr (kTimingEnabled)
    return tracer().now_ns();
  else
    return 0;
}

/// RAII span over the global collector.  `name` and `cat` must be string
/// literals (stored by pointer); `detail` is copied only when recording is
/// armed, so a disarmed span never allocates.
class Span {
 public:
#if RCT_OBS_ENABLED
  explicit Span(const char* name, const char* cat, std::string_view detail = {});
  ~Span();
#else
  explicit Span(const char*, const char*, std::string_view = {}) {}
#endif
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

#if RCT_OBS_ENABLED
 private:
  const char* name_;
  const char* cat_;
  std::string detail_;
  std::uint64_t start_ns_ = 0;
  bool armed_;
#endif
};

}  // namespace rct::obs
