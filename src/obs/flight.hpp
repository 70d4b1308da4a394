#pragma once
// obs::flight — per-thread flight recorder for postmortem triage.
//
// A fixed-capacity ring buffer of recent per-net events (net name, phase,
// duration, outcome, error code) per recording thread.  The engine records
// every analysis attempt while armed; the rings keep only the most recent
// `capacity_per_thread` events per thread, so a million-net batch costs a
// constant few tens of KB and the dump always shows what each worker was
// doing when a run died — no rerun with tracing needed.
//
// Events use fixed-size storage (truncated net name, static phase string):
// record() never allocates, so arming the recorder for every batch run is
// cheap enough to be the CLI default.  Each thread appends to its own
// mutex-guarded ring (uncontended except at dump), the same ownership
// scheme as the trace collector — rings outlive worker threads that exit
// before the dump.
//
// Dumps: format_text() is the human postmortem table (newest last),
// to_json() the machine form; write() accepts "-" for stderr.
// dump_signal() is the last-ditch path for fatal signals: it try_locks
// each ring (skipping any a dying thread still holds), renders into a
// stack buffer and write()s straight to an fd — no allocation, no
// blocking.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "robust/error.hpp"

namespace rct::obs::flight {

/// Where an attempt ended.  kRunning marks an event whose end() has not
/// happened yet — in a dump these are the nets in flight at the time.
enum class Outcome : std::uint8_t {
  kRunning,
  kOk,
  kFailed,
  kTimeout,
  kCancelled,
};

/// Stable lowercase name ("running", "ok", "failed", ...).
[[nodiscard]] std::string_view outcome_name(Outcome outcome);

/// One recorded attempt.  Plain data, fixed size.
struct Event {
  static constexpr std::size_t kNetCapacity = 48;  ///< includes the NUL

  char net[kNetCapacity];  ///< truncated net name, NUL-terminated
  const char* phase;       ///< static string: "analyze", "retry", "cancelled"
  std::uint64_t seq;       ///< global begin order (dense-ish, from 1)
  std::uint64_t start_ns;  ///< tracer().now_ns() at begin: --trace-out's timeline
  std::uint64_t dur_ns;    ///< 0 while kRunning
  Outcome outcome;
  robust::Code code;       ///< kNone unless the attempt failed
  std::uint32_t tid;       ///< recorder-assigned thread id (dense, from 1)
};

class Recorder {
 public:
  explicit Recorder(std::size_t capacity_per_thread = 128);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Arms/disarms recording.  begin()/record() while disarmed cost one
  /// relaxed atomic load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Ticket connecting a begin() to its end(); must stay on the issuing
  /// thread.  A default-constructed handle (or one from a disarmed
  /// recorder) makes end() a no-op.
  class Handle {
   public:
    Handle() = default;
    [[nodiscard]] explicit operator bool() const { return buffer != nullptr; }

   private:
    friend class Recorder;
    void* buffer = nullptr;   ///< Recorder::Buffer the event lives in
    std::size_t slot = 0;     ///< ring index of the event
    std::uint64_t seq = 0;    ///< guards against the ring lapping the slot
    std::uint64_t start_ns = 0;
  };

  /// Records a kRunning event for (net, phase); end() completes it in
  /// place.  `phase` must be a static string.
  [[nodiscard]] Handle begin(std::string_view net, const char* phase);
  void end(Handle& handle, Outcome outcome, robust::Code code = robust::Code::kNone);

  /// One-shot event that ends now after `dur_ns` (e.g. a section parse, or
  /// a cancellation record with 0).
  void record(std::string_view net, const char* phase, Outcome outcome, robust::Code code,
              std::uint64_t dur_ns);

  /// All retained events, merged across threads, ordered by begin sequence.
  [[nodiscard]] std::vector<Event> events() const;
  /// Events evicted by ring wrap-around since the last clear().
  [[nodiscard]] std::uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }

  /// Human postmortem table, newest event last; names the in-flight and
  /// failed nets with their phase timings.
  [[nodiscard]] std::string format_text() const;
  /// {"schema_version":1,"evicted":n,"events":[{...}]} in begin order.
  [[nodiscard]] std::string to_json() const;
  /// Writes to_json() to `path` ("-" = stderr); false on I/O error.
  bool write(const std::string& path) const;

  /// Best-effort text dump for signal handlers: try_lock per ring, fixed
  /// stack buffers, raw write() to `fd`.  Rings whose lock is held by a
  /// (dying) recording thread are skipped, never waited on.
  void dump_signal(int fd) const;

  void clear();

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Event> ring;   ///< capacity-sized once the first event lands
    std::size_t next = 0;      ///< ring write cursor
    std::uint64_t written = 0; ///< total events ever written to this ring
    std::uint32_t tid = 0;
  };

  Buffer& local_buffer();
  /// Appends one event to `buf` (caller fills everything but tid).
  void push(Buffer& buf, const Event& event);

  const std::uint64_t recorder_id_;  ///< distinguishes recorders in TL caches
  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint32_t> next_tid_{1};
  std::atomic<std::uint64_t> evicted_{0};
  mutable std::mutex mutex_;  ///< guards buffers_ (registration + dump)
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// The process-global recorder the engine records into.
[[nodiscard]] Recorder& recorder();

}  // namespace rct::obs::flight
