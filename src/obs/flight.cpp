#include "obs/flight.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rct::obs::flight {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::atomic<std::uint64_t> next_recorder_id{1};

void copy_net_name(char (&dst)[Event::kNetCapacity], std::string_view net) {
  const std::size_t n = std::min(net.size(), Event::kNetCapacity - 1);
  std::memcpy(dst, net.data(), n);
  dst[n] = '\0';
}

/// Renders one event as the fixed-width postmortem row.  Shared by the
/// normal and the signal-path dump, so it must not allocate: the name
/// lookups return views of static strings, spliced in with %.*s.
int format_event_row(char* buf, std::size_t size, const Event& e) {
  const std::string_view outcome = outcome_name(e.outcome);
  const std::string_view code =
      e.code == robust::Code::kNone ? std::string_view{} : robust::code_name(e.code);
  return std::snprintf(
      buf, size, "  %6llu  tid %-3u  %-20s %-10s start %10.6fs  dur %9.3fms  %-9.*s %.*s\n",
      static_cast<unsigned long long>(e.seq), e.tid, e.net, e.phase,
      static_cast<double>(e.start_ns) * 1e-9, static_cast<double>(e.dur_ns) * 1e-6,
      static_cast<int>(outcome.size()), outcome.data(), static_cast<int>(code.size()),
      code.data());
}

}  // namespace

std::string_view outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kRunning: return "running";
    case Outcome::kOk: return "ok";
    case Outcome::kFailed: return "failed";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kCancelled: return "cancelled";
  }
  return "unknown";
}

Recorder::Recorder(std::size_t capacity_per_thread)
    : recorder_id_(next_recorder_id.fetch_add(1)),
      capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      epoch_ns_(steady_now_ns()) {}

Recorder::Buffer& Recorder::local_buffer() {
  // Same per-thread registration scheme as TraceCollector::local_buffer():
  // a thread-local (recorder id -> buffer) cache, shared ownership so the
  // ring outlives whichever of {thread, recorder} goes first.
  struct TlEntry {
    std::uint64_t recorder_id;
    std::shared_ptr<Buffer> buffer;
  };
  thread_local std::vector<TlEntry> tl_entries;
  for (const TlEntry& e : tl_entries)
    if (e.recorder_id == recorder_id_) return *e.buffer;

  auto buffer = std::make_shared<Buffer>();
  buffer->ring.reserve(capacity_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    buffers_.push_back(buffer);
  }
  tl_entries.push_back({recorder_id_, buffer});
  return *buffer;
}

Recorder::Handle Recorder::begin(std::string_view net, const char* phase) {
  if (!enabled()) return {};
  Buffer& buf = local_buffer();
  Event e;
  copy_net_name(e.net, net);
  e.phase = phase;
  e.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  e.start_ns = steady_now_ns() - epoch_ns_;
  e.dur_ns = 0;
  e.outcome = Outcome::kRunning;
  e.code = robust::Code::kNone;
  e.tid = buf.tid;

  Handle h;
  h.buffer = &buf;
  h.seq = e.seq;
  h.start_ns = e.start_ns;
  {
    const std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.ring.size() < capacity_) {
      h.slot = buf.ring.size();
      buf.ring.push_back(e);
    } else {
      h.slot = buf.next;
      buf.ring[buf.next] = e;
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
    buf.next = (h.slot + 1) % capacity_;
    ++buf.written;
  }
  return h;
}

void Recorder::end(Handle& handle, Outcome outcome, robust::Code code) {
  if (!handle.buffer) return;
  Buffer& buf = *static_cast<Buffer*>(handle.buffer);
  const std::uint64_t dur = steady_now_ns() - epoch_ns_ - handle.start_ns;
  {
    const std::lock_guard<std::mutex> lock(buf.mutex);
    Event& e = buf.ring[handle.slot];
    if (e.seq == handle.seq) {  // not lapped by the ring in the meantime
      e.outcome = outcome;
      e.code = code;
      e.dur_ns = dur;
    }
  }
  handle.buffer = nullptr;
}

void Recorder::record(std::string_view net, const char* phase, Outcome outcome,
                      robust::Code code, std::uint64_t dur_ns) {
  Handle h = begin(net, phase);
  if (!h.buffer) return;
  Buffer& buf = *static_cast<Buffer*>(h.buffer);
  const std::lock_guard<std::mutex> lock(buf.mutex);
  Event& e = buf.ring[h.slot];
  if (e.seq == h.seq) {
    e.outcome = outcome;
    e.code = code;
    e.dur_ns = dur_ns;
  }
}

std::vector<Event> Recorder::events() const {
  std::vector<Event> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      const std::lock_guard<std::mutex> buf_lock(buf->mutex);
      all.insert(all.end(), buf->ring.begin(), buf->ring.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return all;
}

std::string Recorder::format_text() const {
  const std::vector<Event> all = events();
  std::string out = "flight recorder: " + std::to_string(all.size()) + " event(s) retained, " +
                    std::to_string(evicted()) + " evicted (ring capacity " +
                    std::to_string(capacity_) + "/thread)\n";
  char row[192];
  for (const Event& e : all) {
    format_event_row(row, sizeof(row), e);
    out += row;
  }
  return out;
}

std::string Recorder::to_json() const {
  const std::vector<Event> all = events();
  std::string out = "{\"schema_version\":1,\"evicted\":" + std::to_string(evicted()) +
                    ",\"events\":[";
  bool first = true;
  for (const Event& e : all) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"tid\":" + std::to_string(e.tid);
    out += ",\"net\":";
    json::append_string(out, e.net);
    out += ",\"phase\":";
    json::append_string(out, e.phase);
    out += ",\"start_ns\":" + std::to_string(e.start_ns);
    out += ",\"dur_ns\":" + std::to_string(e.dur_ns);
    out += ",\"outcome\":";
    json::append_string(out, outcome_name(e.outcome));
    out += ",\"code\":";
    json::append_string(out, robust::code_name(e.code));
    out += '}';
  }
  out += "]}";
  return out;
}

bool Recorder::write(const std::string& path) const {
  return write_text(path, to_json() + '\n');
}

void Recorder::dump_signal(int fd) const {
  // Fatal-signal path: never block, never allocate.  A wait on a mutex a
  // dying thread holds would turn a crash into a hang, so everything is
  // try_lock and fixed stack buffers; skipped rings are reported as such.
  const auto emit = [fd](const char* text, std::size_t n) {
    // A failed write cannot be recovered from here; the cast mutes -Wunused.
    (void)::write(fd, text, n);
  };
  static const char kHeader[] = "flight recorder (signal dump):\n";
  emit(kHeader, sizeof(kHeader) - 1);
  if (!mutex_.try_lock()) {
    static const char kBusy[] = "  <recorder registration lock held; no dump>\n";
    emit(kBusy, sizeof(kBusy) - 1);
    return;
  }
  char row[192];
  for (const auto& buf : buffers_) {
    if (!buf->mutex.try_lock()) {
      const int n = std::snprintf(row, sizeof(row), "  tid %-3u <ring lock held; skipped>\n",
                                  buf->tid);
      emit(row, static_cast<std::size_t>(n));
      continue;
    }
    for (const Event& e : buf->ring) {
      const int n = format_event_row(row, sizeof(row), e);
      emit(row, static_cast<std::size_t>(n));
    }
    buf->mutex.unlock();
  }
  mutex_.unlock();
}

void Recorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->ring.clear();
    buf->next = 0;
    buf->written = 0;
  }
  evicted_.store(0, std::memory_order_relaxed);
}

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

}  // namespace rct::obs::flight
