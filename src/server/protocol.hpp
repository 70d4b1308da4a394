#pragma once
// server::protocol — the newline-delimited JSON request/response wire
// format `rct serve` speaks and `rct client` (and the tests/bench) encode.
//
// Requests are one flat JSON object per line:
//
//   {"id":7,"cmd":"report","design":"a1b2c3d4e5f6","net":"clk_7",
//    "timeout_ms":50,"leaves_only":true}
//
// Commands: ping, load, report, bounds, stats, evict, trace, shutdown.
// Unknown keys are ignored (forward compatibility); unknown commands are
// rejected by the server, not the parser.  Responses are likewise one JSON
// object per line, always carrying "id" (echoed) and "ok"; failures carry
// "error" (message) and "code" (robust::code_name vocabulary).
//
// Trace context: any request may carry "trace" (a 16-hex trace id minted
// by the client) and "span" (the client's span id).  The server records
// its per-phase spans for that request under the trace id; a later
// `trace` command with the same id fetches the slice, and the client
// stitches both halves into one Perfetto timeline (see request_trace.hpp).
//
// The parser reads the line with the strict json::parse (RFC 8259: no
// bare inf/nan/hex numbers, no trailing commas), so it accepts what the
// encoder emits plus ordinary JSON freedoms (whitespace, any key order,
// escaped strings).  Known fields are type-checked: ids and limits must be
// exact non-negative integers and "fraction" must lie in (0, 1).  It never
// throws: a malformed line comes back as ParsedRequest{ok=false, error}.

#include <cstdint>
#include <string>
#include <string_view>

namespace rct::server {

/// One decoded request.  Absent numeric fields stay 0 ("use the server
/// default"); absent booleans stay false.  `with_exact` is tri-state via
/// `has_with_exact` so a request can force the exact path *off* while the
/// server default keeps it on.
struct Request {
  std::uint64_t id = 0;
  std::string cmd;
  std::string design;  ///< handle or SPEF design name; "" = last loaded
  std::string path;    ///< load: SPEF file to parse
  std::string net;     ///< report/bounds: net name
  bool lenient = false;         ///< load: lenient SPEF parse
  bool leaves_only = false;     ///< report: restrict rows to leaves
  bool with_exact = true;       ///< report: run the eigensolve
  bool has_with_exact = false;  ///< with_exact was present in the request
  std::uint64_t exact_limit = 0;  ///< report: exact_node_limit override (0 = default)
  std::uint64_t timeout_ms = 0;   ///< per-request deadline override (0 = default)
  double fraction = 0.0;          ///< threshold fraction override (0 = default)
  std::string trace;  ///< 16-hex trace id; also the id a `trace` cmd fetches
  std::string span;   ///< client span id within the trace ("" = none)
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  bool ok = false;
  std::string error;  ///< human-readable parse failure, when !ok
  Request request;
};

/// Decodes one line (without the trailing newline).  Never throws.
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// Encodes `request` as one JSON line (no trailing newline).  Fields at
/// their default values are omitted, so encode(parse(encode(r))) is a
/// fixed point.  This is the one encoder the client subcommand, its batch
/// mode, the tests and rctbench's serve workload all share.
[[nodiscard]] std::string encode_request(const Request& request);

/// One-line failure response: {"id":N,"ok":false,"error":...,"code":...}.
[[nodiscard]] std::string error_response(std::uint64_t id, std::string_view code,
                                         std::string_view message);

/// Load-shed response: error_response with code "overloaded" plus a
/// `retry_after_ms` backoff hint clients honor before resending.
[[nodiscard]] std::string overloaded_response(std::uint64_t id, std::uint64_t retry_after_ms,
                                              std::string_view message);

/// True when a response line reports success (`"ok":true`).
[[nodiscard]] bool response_ok(std::string_view response_line);

/// The "code" of a failure response ("" on success / uncoded lines).
/// Codes are kebab-case robust::code_name tokens, so no unescaping needed.
[[nodiscard]] std::string response_error_code(std::string_view response_line);

/// The retry_after_ms hint of an `overloaded` response (0 when absent).
[[nodiscard]] std::uint64_t response_retry_after_ms(std::string_view response_line);

}  // namespace rct::server
