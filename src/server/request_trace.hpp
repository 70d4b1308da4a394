#pragma once
// server request tracing — the pieces that carry one request's timeline
// across the client/server boundary.
//
// The server side is RequestTraceStore: a bounded map from a client-minted
// 16-hex trace id to the spans of the requests under that trace: each
// request's obs::Tape (obs/trace.hpp), handed over in one record() call,
// holds the server phases (request, queue wait, cache lookup, context
// build, report build, render) and the library spans inside them (e.g.
// core.report.build).  Spans are timestamped on the server's own steady
// clock (the global obs tracer epoch); the store keeps the most recent
// `capacity` traces and evicts FIFO, so a daemon that serves millions of
// requests holds a constant few hundred KB of tape.
//
// The client side fetches a slice with the `trace` protocol command and
// stitches both halves into one Chrome trace-event file:
//
//   1. The client records its own spans (connect, serialize, roundtrip)
//      on its clock, noting send/recv timestamps per traced request.
//   2. rebase_spans() maps the server slice onto the client clock with the
//      classic NTP midpoint estimate: the server's root "server.request"
//      span is centered inside the client's [send, recv] window (the
//      request and response legs are assumed symmetric), and every server
//      span shifts by that one offset.
//   3. stitched_chrome_json() emits one Perfetto-loadable file with the
//      client timeline as pid 1 and the server timeline as pid 2, each
//      with a process_name metadata event, and the trace id on every span
//      (args.trace) so the two halves are visibly one request.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace rct::server {

/// One span of a traced request, on whichever clock recorded it.
struct TraceSpan {
  std::string name;       ///< `layer.component.op`, e.g. "server.request"
  std::string detail;     ///< optional args.detail (net name, cmd); "" = omitted
  std::uint64_t ts_ns = 0;   ///< start, clock-of-origin nanoseconds
  std::uint64_t dur_ns = 0;  ///< duration
};

/// Bounded trace_id -> spans map.  Thread-safe; record() from connection
/// and pool threads, fetch() from the `trace` command.
class RequestTraceStore {
 public:
  explicit RequestTraceStore(std::size_t capacity = 256) : capacity_(capacity) {}
  RequestTraceStore(const RequestTraceStore&) = delete;
  RequestTraceStore& operator=(const RequestTraceStore&) = delete;

  /// Appends every span of one request's tape under `trace_id`, under one
  /// lock; a new id may evict the oldest trace (FIFO) once `capacity`
  /// traces are resident.
  void record(std::string_view trace_id, const obs::Tape& tape);

  /// All spans recorded under `trace_id`, sorted by start time; empty when
  /// the id is unknown (never recorded, or already evicted).
  [[nodiscard]] std::vector<TraceSpan> fetch(std::string_view trace_id) const;

  /// Traces currently resident.
  [[nodiscard]] std::size_t size() const;

 private:
  /// The span list of `trace_id`, created (evicting FIFO) when new;
  /// nullptr when the store keeps nothing.  Caller holds mutex_.
  std::vector<TraceSpan>* slot(std::string_view trace_id);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::vector<TraceSpan>> traces_;
  std::deque<std::string> order_;  ///< insertion order, for FIFO eviction
};

/// Appends `"spans":[{"name":...,"ts_ns":N,"dur_ns":N},...]` to `out`
/// (the `trace` response payload).
void append_trace_spans_json(std::string& out, const std::vector<TraceSpan>& spans);

/// Reads the top-level "spans" array of one `trace` response line with
/// json::parse (the inverse of append_trace_spans_json, tolerant of unknown
/// keys).  False on invalid JSON or a missing/mistyped array or field; an
/// ok response with no spans yields an empty vector.
[[nodiscard]] bool parse_trace_spans(std::string_view response_line,
                                     std::vector<TraceSpan>& out);

/// Shifts `server_spans` onto the client clock: the server's root
/// "server.request" span (the longest span when several share the name) is
/// centered inside the client's [send_ns, recv_ns] roundtrip window.  Spans
/// that would land before time zero clamp to zero.  No-op when the slice
/// is empty.
void rebase_spans(std::vector<TraceSpan>& server_spans, std::uint64_t send_ns,
                  std::uint64_t recv_ns);

/// One traced request, ready to stitch: the client's own spans plus the
/// fetched (and rebased) server slice, all on the client clock.  send_ns /
/// recv_ns are the client-side roundtrip window rebase_spans() anchors on.
struct StitchedTrace {
  std::string trace_id;
  std::uint64_t send_ns = 0;  ///< client clock when the request bytes left
  std::uint64_t recv_ns = 0;  ///< client clock when the response arrived
  std::vector<TraceSpan> client_spans;
  std::vector<TraceSpan> server_spans;  ///< rebased onto the client clock
};

/// One Chrome trace-event JSON document with every trace's client spans as
/// pid 1 ("rct client") and its server spans as pid 2 ("rct serve"); each
/// span carries its own args.trace, so a batch session stays one file with
/// per-request trace ids.
[[nodiscard]] std::string stitched_chrome_json(const std::vector<StitchedTrace>& traces);

/// A fresh 16-hex trace id (64 random bits; never "0000000000000000").
[[nodiscard]] std::string generate_trace_id();

}  // namespace rct::server
