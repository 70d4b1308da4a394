#pragma once
// obs tracing — the one RAII timer (Span) and the Chrome trace-event export
// (load the file in chrome://tracing or https://ui.perfetto.dev).
//
// A Span names one timed operation `layer.component.op`; its category is
// the layer, which trace viewers filter by, and an optional detail (e.g.
// the net name) becomes args.detail.  It reads the clock once at each edge
// and feeds every sink that wants the interval: its histogram, when given;
// the global trace, while armed (--trace-out); and the calling thread's
// request tape, while one is installed (TapeScope).  With no sink it reads
// no clock: two relaxed loads, the armed flag and a global count of
// installed tapes that keeps the thread-local read off that path.
//
// Each thread appends trace events to its own shared_ptr-owned buffer
// (uncontended mutex), so events survive workers that exit before export;
// buffers are merged and time-sorted only at export.
//
// -DRCT_OBS_ENABLED=0 compiles the timing out: Spans observe no histogram
// and record no trace event, reading the clock only for an installed tape,
// so client-requested request traces work in both builds.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"  // RCT_OBS_ENABLED

namespace rct::obs {

/// Steady-clock nanoseconds: the one clock read behind every obs timestamp
/// (each consumer keeps its own epoch).
[[nodiscard]] inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// One completed span ("X" phase in the Chrome trace format).
struct TraceEvent {
  const char* name;    ///< static string: `layer.component.op`
  const char* cat;     ///< static string: the layer
  std::string detail;  ///< optional args.detail ("" = omitted)
  std::uint64_t ts_ns;   ///< start, relative to the collector epoch
  std::uint64_t dur_ns;  ///< duration
  std::uint32_t tid;     ///< collector-assigned thread id (dense, from 1); 0 on a tape
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

/// True when the timing instrumentation (histogram-timed spans, the trace,
/// timestamps) is compiled in.
inline constexpr bool kTimingEnabled = RCT_OBS_ENABLED != 0;

/// A request tape: the spans one request closed, in closing order.
using Tape = std::vector<TraceEvent>;

/// The calling thread's installed tape, or nullptr.  One relaxed load while
/// no thread in the process has a tape installed.
[[nodiscard]] Tape* current_tape();

/// Installs `tape` as the calling thread's request tape for the scope's
/// lifetime, restoring the previous one after; nullptr installs nothing.
class TapeScope {
 public:
  explicit TapeScope(Tape* tape);
  ~TapeScope();
  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  Tape* previous_ = nullptr;
  bool installed_ = false;
};

/// Nanoseconds on the global tracer's clock; with timing compiled out, 0
/// unless a tape is installed.
[[nodiscard]] inline std::uint64_t timestamp_ns() {
  if constexpr (kTimingEnabled)
    return tracer().now_ns();
  else
    return current_tape() != nullptr ? tracer().now_ns() : 0;
}

/// Ends an interval begun at `start_ns` (a timestamp_ns() reading) on
/// another thread or before a blocking wait (queue wait, pool idle): feeds
/// `histogram` and the thread's tape, but no trace event — a trace event
/// belongs to the thread that ran the interval.
void record_wait(const char* name, const char* cat, std::uint64_t start_ns,
                 Histogram* histogram = nullptr);

/// RAII timer; see the file comment.  `name` and `cat` must be string
/// literals; `detail` is copied only for the trace or a tape.  `histogram`
/// observes the interval in seconds, and `split` too (a per-kind split of
/// the same interval, e.g. the server's per-command latency).
class Span {
 public:
  explicit Span(const char* name, const char* cat, std::string_view detail = {},
                Histogram* histogram = nullptr, Histogram* split = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::string detail_;
  Histogram* histogram_ = nullptr;
  Histogram* split_ = nullptr;
  Tape* tape_;
  std::uint64_t start_ns_ = 0;
  bool traced_ = false;  ///< the global trace was armed at construction
  bool timed_ = false;   ///< some sink wants the interval
};

}  // namespace rct::obs
