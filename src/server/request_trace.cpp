#include "server/request_trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <random>

#include "obs/json.hpp"

namespace rct::server {

std::vector<TraceSpan>* RequestTraceStore::slot(std::string_view trace_id) {
  if (trace_id.empty() || capacity_ == 0) return nullptr;
  auto it = traces_.find(std::string(trace_id));
  if (it == traces_.end()) {
    while (order_.size() >= capacity_) {
      traces_.erase(order_.front());
      order_.pop_front();
    }
    order_.emplace_back(trace_id);
    it = traces_.emplace(std::string(trace_id), std::vector<TraceSpan>{}).first;
  }
  return &it->second;
}

void RequestTraceStore::record(std::string_view trace_id, const obs::Tape& tape) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceSpan>* spans = slot(trace_id);
  if (spans == nullptr) return;
  for (const obs::TraceEvent& e : tape)
    spans->push_back(TraceSpan{e.name, e.detail, e.ts_ns, e.dur_ns});
}

std::vector<TraceSpan> RequestTraceStore::fetch(std::string_view trace_id) const {
  std::vector<TraceSpan> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = traces_.find(std::string(trace_id));
    if (it != traces_.end()) spans = it->second;
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) { return a.ts_ns < b.ts_ns; });
  return spans;
}

std::size_t RequestTraceStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return traces_.size();
}

void append_trace_spans_json(std::string& out, const std::vector<TraceSpan>& spans) {
  out += "\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    json::append_string(out, s.name);
    if (!s.detail.empty()) {
      out += ",\"detail\":";
      json::append_string(out, s.detail);
    }
    out += ",\"ts_ns\":" + std::to_string(s.ts_ns);
    out += ",\"dur_ns\":" + std::to_string(s.dur_ns);
    out.push_back('}');
  }
  out.push_back(']');
}

bool parse_trace_spans(std::string_view response_line, std::vector<TraceSpan>& out) {
  out.clear();
  using Kind = json::Value::Kind;
  const std::optional<json::Value> doc = json::parse(response_line);
  const json::Value* spans = doc ? doc->find("spans") : nullptr;
  if (spans == nullptr || spans->kind != Kind::kArray) return false;
  for (const json::Value& item : spans->items) {
    if (item.kind != Kind::kObject) return false;
    TraceSpan span;
    for (const json::Member& m : item.members) {  // unknown keys are skipped
      const json::Value& v = m.value;
      if (m.key == "name" || m.key == "detail") {
        if (v.kind != Kind::kString) return false;
        (m.key == "name" ? span.name : span.detail) = v.text;
      } else if (m.key == "ts_ns" || m.key == "dur_ns") {
        if (!v.as_u64()) return false;
        (m.key == "ts_ns" ? span.ts_ns : span.dur_ns) = *v.as_u64();
      }
    }
    out.push_back(std::move(span));
  }
  return true;
}

void rebase_spans(std::vector<TraceSpan>& server_spans, std::uint64_t send_ns,
                  std::uint64_t recv_ns) {
  if (server_spans.empty()) return;
  // Anchor on the root request span: the handler's own timing, so queue
  // and phase children stay nested under it after the shift.
  const TraceSpan* root = nullptr;
  for (const TraceSpan& s : server_spans)
    if (s.name == "server.request" && (root == nullptr || s.dur_ns > root->dur_ns)) root = &s;
  if (root == nullptr) root = &server_spans.front();
  // NTP midpoint: center the server's handling inside the client's
  // roundtrip window, splitting the residual network time evenly between
  // the request and response legs.
  const std::uint64_t window = recv_ns > send_ns ? recv_ns - send_ns : 0;
  const std::uint64_t slack = window > root->dur_ns ? (window - root->dur_ns) / 2 : 0;
  const std::uint64_t target = send_ns + slack;
  const std::uint64_t anchor = root->ts_ns;
  for (TraceSpan& s : server_spans) {
    // Shift = target - anchor, applied without signed overflow either way.
    if (target >= anchor)
      s.ts_ns += target - anchor;
    else
      s.ts_ns = s.ts_ns > anchor - target ? s.ts_ns - (anchor - target) : 0;
  }
}

namespace {

void append_process(std::string& out, int pid, std::string_view name, bool& first) {
  if (!first) out.push_back(',');
  first = false;
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":0,\"args\":{\"name\":";
  json::append_string(out, name);
  out += "}}";
}

void append_spans(std::string& out, const std::vector<TraceSpan>& spans, int pid,
                  std::string_view cat, std::string_view trace_id, bool& first) {
  for (const TraceSpan& s : spans) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    json::append_string(out, s.name);
    out += ",\"cat\":";
    json::append_string(out, cat);
    out += ",\"ph\":\"X\",\"pid\":" + std::to_string(pid) + ",\"tid\":1,\"ts\":";
    json::append_us(out, s.ts_ns);
    out += ",\"dur\":";
    json::append_us(out, s.dur_ns);
    out += ",\"args\":{\"trace\":";
    json::append_string(out, trace_id);
    if (!s.detail.empty()) {
      out += ",\"detail\":";
      json::append_string(out, s.detail);
    }
    out += "}}";
  }
}

}  // namespace

std::string stitched_chrome_json(const std::vector<StitchedTrace>& traces) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  append_process(out, 1, "rct client", first);
  append_process(out, 2, "rct serve", first);
  for (const StitchedTrace& t : traces) {
    append_spans(out, t.client_spans, 1, "client", t.trace_id, first);
    append_spans(out, t.server_spans, 2, "server", t.trace_id, first);
  }
  out += "]}";
  return out;
}

std::string generate_trace_id() {
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  // Seeded once per process from the strongest local entropy plus clock
  // and pid, so concurrent clients mint distinct ids.
  static std::mt19937_64 rng([] {
    std::random_device rd;
    std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    seed ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    seed ^= static_cast<std::uint64_t>(::getpid()) << 17;
    return seed;
  }());
  std::uint64_t value = 0;
  while (value == 0) value = rng();
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace rct::server
