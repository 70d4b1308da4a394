#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

#include "obs/json.hpp"

namespace rct::obs {
namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::atomic<std::uint64_t> next_collector_id{1};

}  // namespace

TraceCollector::TraceCollector()
    : collector_id_(next_collector_id.fetch_add(1)), epoch_ns_(steady_now_ns()) {}

std::uint64_t TraceCollector::now_ns() const { return steady_now_ns() - epoch_ns_; }

TraceCollector::Buffer& TraceCollector::local_buffer() {
  // Per-thread cache of (collector id -> buffer).  A thread touches at most
  // a handful of collectors (the global one plus test-local ones), so a
  // linear scan beats a map.  Entries hold shared_ptrs: the buffer outlives
  // whichever of {thread, collector} goes first.
  struct TlEntry {
    std::uint64_t collector_id;
    std::shared_ptr<Buffer> buffer;
  };
  thread_local std::vector<TlEntry> tl_entries;
  for (const TlEntry& e : tl_entries)
    if (e.collector_id == collector_id_) return *e.buffer;

  auto buffer = std::make_shared<Buffer>();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    buffers_.push_back(buffer);
  }
  tl_entries.push_back({collector_id_, buffer});
  return *buffer;
}

void TraceCollector::record(const char* name, const char* cat, std::uint64_t ts_ns,
                            std::uint64_t dur_ns, std::string detail) {
  Buffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lock(buf.mutex);  // uncontended except at export
  buf.events.push_back(TraceEvent{name, cat, std::move(detail), ts_ns, dur_ns, buf.tid});
}

std::vector<TraceEvent> TraceCollector::events() const {
  std::vector<TraceEvent> all;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buf : buffers_) {
      const std::lock_guard<std::mutex> buf_lock(buf->mutex);
      all.insert(all.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });
  return all;
}

void TraceCollector::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
  }
}

std::string TraceCollector::to_chrome_json() const {
  const std::vector<TraceEvent> all = events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // One thread_name metadata event per tid that recorded anything.
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : all) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (const std::uint32_t tid : tids) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"args\":{\"name\":\"rct-thread-" + std::to_string(tid) + "\"}}";
  }
  for (const TraceEvent& e : all) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_string(out, e.name);
    out += ",\"cat\":";
    json::append_string(out, e.cat);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid) + ",\"ts\":";
    json::append_us(out, e.ts_ns);
    out += ",\"dur\":";
    json::append_us(out, e.dur_ns);
    if (!e.detail.empty()) {
      out += ",\"args\":{\"detail\":";
      json::append_string(out, e.detail);
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

bool TraceCollector::write_chrome_json(const std::string& path) const {
  return write_text(path, to_chrome_json() + '\n');
}

TraceCollector& tracer() {
  static TraceCollector instance;
  return instance;
}

#if RCT_OBS_ENABLED
Span::Span(const char* name, const char* cat, std::string_view detail)
    : name_(name), cat_(cat), armed_(tracer().enabled()) {
  if (!armed_) return;
  detail_ = std::string(detail);
  start_ns_ = tracer().now_ns();
}

Span::~Span() {
  if (!armed_) return;
  TraceCollector& t = tracer();
  t.record(name_, cat_, start_ns_, t.now_ns() - start_ns_, std::move(detail_));
}
#endif

}  // namespace rct::obs
