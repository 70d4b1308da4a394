// src/server tests: the NDJSON protocol codec, the content-addressed
// DiskStore (round trip, restart, corruption), and the Server itself —
// driven both in-process through handle_line() and end-to-end over real
// sockets with concurrent clients (the TSan workload).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "engine/batch.hpp"
#include "engine/net_cache.hpp"
#include "engine/parallel_parse.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rctree/generators.hpp"
#include "rctree/spef.hpp"
#include "robust/fault.hpp"
#include "server/client.hpp"
#include "server/line_reader.hpp"
#include "server/protocol.hpp"
#include "server/request_trace.hpp"
#include "server/server.hpp"
#include "server/store.hpp"

#ifndef RCT_TESTDATA_DIR
#define RCT_TESTDATA_DIR "testdata"
#endif

namespace {

using namespace rct;

/// Fresh scratch directory under /tmp, removed on destruction.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const char* tag) {
    path = "/tmp/rct_server_test_" + std::string(tag) + "_" +
           std::to_string(static_cast<unsigned long>(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
};

/// Writes a small generated SPEF deck (deterministic content per seed).  A
/// non-empty `node_prefix` renames every node but keeps topology and R/C, so
/// the deck's nets are content twins of the unprefixed deck's.
std::string write_deck(const std::string& dir, const char* name, std::size_t nets,
                       std::size_t nodes, std::uint64_t seed,
                       const std::string& node_prefix = "") {
  SpefFile file;
  file.design = name;
  for (std::size_t i = 0; i < nets; ++i) {
    SpefNet net;
    net.name = "net_" + std::to_string(i);
    net.tree = gen::random_tree(nodes, seed + i);
    if (!node_prefix.empty()) {
      RCTreeBuilder renamed;
      for (NodeId n = 0; n < net.tree.size(); ++n)
        renamed.add_node(node_prefix + net.tree.name(n), net.tree.parent(n),
                         net.tree.resistance(n), net.tree.capacitance(n));
      net.tree = std::move(renamed).build();
    }
    net.driver = "drv";  // separate port name; the tree root is its far end
    for (const NodeId leaf : net.tree.leaves()) net.loads.push_back(leaf);
    file.nets.push_back(std::move(net));
  }
  const std::string path = dir + "/" + name + ".spef";
  std::ofstream out(path);
  out << write_spef(file);
  return path;
}

std::vector<core::NodeReport> sample_rows(std::size_t nodes, std::uint64_t seed) {
  const RCTree tree = gen::random_tree(nodes, seed);
  return core::build_report(tree);
}

/// Minimal HTTP/1.0 GET over a raw TCP socket; returns the full response
/// (status line through body) or "" on any socket failure.  Deliberately
/// does not reuse HttpServer-side code, so the wire format is checked by an
/// independent peer.
std::string http_request(int port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request_text.size()) {
    const ssize_t n = ::send(fd, request_text.data() + sent, request_text.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(int port, const std::string& path) {
  return http_request(port, "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n");
}

/// Raw unix-socket connect, for tests that need byte-level control of the
/// NDJSON stream (short reads, oversized lines, silent stalls).
int unix_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads one newline-terminated line ("" on EOF before any byte).
std::string recv_line(int fd) {
  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0 || c == '\n') break;
    line.push_back(c);
  }
  return line;
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, EncodeParseRoundTrip) {
  server::Request request;
  request.id = 42;
  request.cmd = "report";
  request.design = "a1b2c3d4e5f6";
  request.net = "clk \"7\"\n";  // quotes and newline must survive escaping
  request.leaves_only = true;
  request.with_exact = false;
  request.has_with_exact = true;
  request.exact_limit = 500;
  request.timeout_ms = 250;
  request.fraction = 0.9;

  const std::string line = server::encode_request(request);
  const server::ParsedRequest parsed = server::parse_request(line);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const server::Request& r = parsed.request;
  EXPECT_EQ(r.id, 42u);
  EXPECT_EQ(r.cmd, "report");
  EXPECT_EQ(r.design, "a1b2c3d4e5f6");
  EXPECT_EQ(r.net, request.net);
  EXPECT_TRUE(r.leaves_only);
  EXPECT_TRUE(r.has_with_exact);
  EXPECT_FALSE(r.with_exact);
  EXPECT_EQ(r.exact_limit, 500u);
  EXPECT_EQ(r.timeout_ms, 250u);
  EXPECT_DOUBLE_EQ(r.fraction, 0.9);
  // encode(parse(encode(x))) is a fixed point.
  EXPECT_EQ(server::encode_request(r), line);
}

TEST(Protocol, DefaultsOmittedAndAbsentFieldsStayDefault) {
  server::Request request;
  request.id = 1;
  request.cmd = "ping";
  const std::string line = server::encode_request(request);
  EXPECT_EQ(line, "{\"id\":1,\"cmd\":\"ping\"}");
  const server::ParsedRequest parsed = server::parse_request(line);
  ASSERT_TRUE(parsed.ok);
  EXPECT_FALSE(parsed.request.has_with_exact);
  EXPECT_TRUE(parsed.request.with_exact);  // default stays on
  EXPECT_EQ(parsed.request.timeout_ms, 0u);
}

TEST(Protocol, ToleratesWhitespaceUnknownKeysAndNull) {
  const server::ParsedRequest parsed = server::parse_request(
      "  { \"cmd\" : \"load\" , \"path\" : \"a.spef\", \"future_knob\": 17,"
      " \"nested\": {\"x\": [1,2]}, \"design\": null }  ");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.cmd, "load");
  EXPECT_EQ(parsed.request.path, "a.spef");
  EXPECT_TRUE(parsed.request.design.empty());
}

TEST(Protocol, RejectsMalformedLines) {
  EXPECT_FALSE(server::parse_request("").ok);
  EXPECT_FALSE(server::parse_request("not json").ok);
  EXPECT_FALSE(server::parse_request("{\"cmd\":\"ping\"").ok);        // unterminated
  EXPECT_FALSE(server::parse_request("{\"id\":1}").ok);               // missing cmd
  EXPECT_FALSE(server::parse_request("{\"cmd\":\"x\"} trailing").ok); // trailing bytes
  EXPECT_FALSE(server::parse_request("{\"cmd\":\"x\",\"id\":\"seven\"}").ok);  // bad type
  EXPECT_FALSE(server::parse_request("{\"cmd\":\"x\",\"id\":-1}").ok);       // negative id
  EXPECT_FALSE(server::parse_request("{\"cmd\":\"x\",}").ok);                 // trailing comma

  // Tokens that are not JSON numbers are syntax errors, like any garbage;
  // well-formed numbers outside the open interval (0, 1) are bad values.
  server::ServeOptions options;
  options.jobs = 1;
  server::Server server(options);
  const auto with_fraction = [](const char* token) {
    return std::string("{\"id\":3,\"cmd\":\"report\",\"net\":\"n\",\"fraction\":") + token + "}";
  };
  for (const char* token : {"nan", "0x1p-1", "inf", "-inf", "+0.5", ".5", "05"}) {
    EXPECT_FALSE(server::parse_request(with_fraction(token)).ok) << token;
    EXPECT_EQ(server::response_error_code(server.handle_line(with_fraction(token))), "syntax");
  }
  for (const char* token : {"1.5", "1", "0", "-0.5", "1e999"}) {
    EXPECT_EQ(server::parse_request(with_fraction(token)).error,
              "bad value for field \"fraction\"") << token;
    const std::string response = server.handle_line(with_fraction(token));
    EXPECT_EQ(server::response_error_code(response), "syntax") << token;
    EXPECT_NE(response.find("bad value for field"), std::string::npos) << response;
  }
  EXPECT_DOUBLE_EQ(server::parse_request(with_fraction("0.5")).request.fraction, 0.5);
}

TEST(Protocol, TraceContextRoundTrip) {
  server::Request request;
  request.id = 9;
  request.cmd = "report";
  request.net = "clk";
  request.trace = "0123456789abcdef";
  request.span = "fedcba9876543210";
  const std::string line = server::encode_request(request);
  EXPECT_NE(line.find("\"trace\":\"0123456789abcdef\""), std::string::npos);
  const server::ParsedRequest parsed = server::parse_request(line);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.request.trace, request.trace);
  EXPECT_EQ(parsed.request.span, request.span);
  EXPECT_EQ(server::encode_request(parsed.request), line);
  // Untraced requests stay byte-identical to the pre-trace wire format.
  server::Request plain;
  plain.id = 1;
  plain.cmd = "ping";
  EXPECT_EQ(server::encode_request(plain), "{\"id\":1,\"cmd\":\"ping\"}");
}

// ------------------------------------------------------------ request trace

/// A request tape holding one span, as a server request closes it.
obs::Tape one_span_tape(const char* name, std::string detail, std::uint64_t ts_ns,
                        std::uint64_t dur_ns) {
  return {obs::TraceEvent{name, "server", std::move(detail), ts_ns, dur_ns, 0}};
}

TEST(RequestTrace, StoreRecordsFetchesAndEvictsFifo) {
  server::RequestTraceStore store(2);
  store.record("aaaa", one_span_tape("server.request", "report clk", 100, 50));
  store.record("aaaa", one_span_tape("server.render", "", 120, 10));
  store.record("bbbb", one_span_tape("server.request", "", 200, 5));
  EXPECT_EQ(store.size(), 2u);

  const std::vector<server::TraceSpan> spans = store.fetch("aaaa");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "server.request");
  EXPECT_EQ(spans[0].detail, "report clk");
  EXPECT_EQ(spans[1].ts_ns, 120u);

  // A third trace evicts the oldest ("aaaa"); known ids stay resident.
  store.record("cccc", one_span_tape("server.request", "", 300, 5));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.fetch("aaaa").empty());
  EXPECT_FALSE(store.fetch("bbbb").empty());
  EXPECT_TRUE(store.fetch("unknown").empty());

  // Empty ids are dropped, not recorded under "".
  store.record("", one_span_tape("x", "", 1, 1));
  EXPECT_TRUE(store.fetch("").empty());
}

TEST(RequestTrace, SpanJsonRoundTripAndTolerance) {
  std::string controls;  // every control byte the writer escapes as \u00XX
  for (char c = 1; c < 0x20; ++c) controls.push_back(c);
  const std::vector<server::TraceSpan> spans = {
      {"server.request", "report \"clk\"\n", 1234567890123ULL, 4567ULL},
      {"server.queue_wait", "", 0, 12},
      {"n\x01" "a\b" + controls, "n\x01" "a\b" + controls + "\x7f\\/", 5, 6},
  };
  std::string payload = "{\"id\":1,\"ok\":true,";
  server::append_trace_spans_json(payload, spans);
  payload.push_back('}');

  std::vector<server::TraceSpan> back;
  ASSERT_TRUE(server::parse_trace_spans(payload, back));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].name, spans[0].name);
  EXPECT_EQ(back[0].detail, spans[0].detail);  // escapes survive
  EXPECT_EQ(back[2].name, spans[2].name);      // control characters too
  EXPECT_EQ(back[2].detail, spans[2].detail);
  EXPECT_EQ(back[0].ts_ns, spans[0].ts_ns);
  EXPECT_EQ(back[0].dur_ns, spans[0].dur_ns);
  EXPECT_EQ(back[1].name, "server.queue_wait");
  EXPECT_TRUE(back[1].detail.empty());

  // Unknown keys from a newer server are skipped, not fatal.
  std::vector<server::TraceSpan> tolerant;
  ASSERT_TRUE(server::parse_trace_spans(
      "{\"spans\":[{\"name\":\"x\",\"ts_ns\":5,\"dur_ns\":2,\"cpu\":\"7\",\"flags\":3}]}",
      tolerant));
  ASSERT_EQ(tolerant.size(), 1u);
  EXPECT_EQ(tolerant[0].ts_ns, 5u);

  // Empty array and malformed payloads.
  std::vector<server::TraceSpan> empty;
  EXPECT_TRUE(server::parse_trace_spans("{\"ok\":true,\"spans\":[]}", empty));
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(server::parse_trace_spans("{\"ok\":true}", empty));
  EXPECT_FALSE(server::parse_trace_spans("{\"spans\":[{\"name\":}", empty));
}

TEST(RequestTrace, RebaseCentersServerRootInClientWindow) {
  // Server clock is wildly offset from the client's; the root span is 40ns
  // of handling inside a 100ns client window, so 30ns of slack lands on
  // each leg after the midpoint rebase.
  std::vector<server::TraceSpan> spans = {
      {"server.request", "", 900100, 40},
      {"server.render", "", 900120, 10},
  };
  server::rebase_spans(spans, 1000, 1100);
  EXPECT_EQ(spans[0].ts_ns, 1030u);  // 1000 + (100 - 40) / 2
  EXPECT_EQ(spans[1].ts_ns, 1050u);  // relative offset +20 preserved
  EXPECT_EQ(spans[0].dur_ns, 40u);   // durations never change

  // A server clock far ahead shifts spans backward, clamping at zero
  // rather than wrapping.
  std::vector<server::TraceSpan> ahead = {{"server.request", "", 5000, 10}};
  server::rebase_spans(ahead, 0, 4);
  EXPECT_EQ(ahead[0].ts_ns, 0u);
}

TEST(RequestTrace, StitchedChromeJsonCarriesBothProcesses) {
  server::StitchedTrace trace;
  trace.trace_id = "00ff00ff00ff00ff";
  trace.client_spans = {{"client.request", "report clk", 100, 90}};
  trace.server_spans = {{"server.request", "report clk", 120, 40}};
  const std::string json = server::stitched_chrome_json({trace});
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rct client\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rct serve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"client.request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server.request\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":\"00ff00ff00ff00ff\""), std::string::npos);
  // ts/dur are fixed-format microseconds (0.100, 0.090) — no exponents.
  EXPECT_NE(json.find("\"ts\":0.100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.090"), std::string::npos);
}

TEST(RequestTrace, GeneratedIdsAreDistinctSixteenHex) {
  const std::string a = server::generate_trace_id();
  const std::string b = server::generate_trace_id();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);
  for (const char c : a)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << a;
}

TEST(Protocol, ErrorResponseShape) {
  const std::string line = server::error_response(7, "timeout", "deadline \"exceeded\"");
  EXPECT_NE(line.find("\"id\":7"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("\"code\":\"timeout\""), std::string::npos);
  EXPECT_NE(line.find("\\\"exceeded\\\""), std::string::npos);
  EXPECT_FALSE(server::response_ok(line));
  EXPECT_TRUE(server::response_ok("{\"id\":1,\"ok\":true}"));
}

// ------------------------------------------------------------- serialization

TEST(ReportSerialization, RoundTripsBitExact) {
  std::vector<core::NodeReport> rows = sample_rows(24, 7);
  ASSERT_FALSE(rows.empty());
  rows[0].degraded = true;
  rows[1].exact_delay.reset();  // mixed optional presence
  const std::string blob = core::serialize_report(rows);
  const auto back = core::deserialize_report(blob);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*back)[i].node, rows[i].node);
    EXPECT_EQ((*back)[i].depth, rows[i].depth);
    EXPECT_EQ((*back)[i].elmore, rows[i].elmore);  // bit-exact, not approx
    EXPECT_EQ((*back)[i].sigma, rows[i].sigma);
    EXPECT_EQ((*back)[i].exact_delay.has_value(), rows[i].exact_delay.has_value());
    if (rows[i].exact_delay) {
      EXPECT_EQ(*(*back)[i].exact_delay, *rows[i].exact_delay);
    }
    EXPECT_EQ((*back)[i].degraded, rows[i].degraded);
  }
}

TEST(ReportSerialization, ShortMomentsOnlyRowsRoundTrip) {
  // The smallest rows: no exact values, 73 bytes each.  Node ids span the
  // u64 field, the largest included.
  std::vector<core::NodeReport> rows;
  for (const NodeId node : {NodeId{0}, NodeId{1}, NodeId{7}, ~NodeId{0}}) {
    core::NodeReport r{};
    r.node = node;
    r.depth = rows.size();
    r.elmore = 1e-12 * static_cast<double>(rows.size() + 1);
    r.sigma = 0.25 * r.elmore;
    r.skewness = 1.5;
    r.lower_bound = r.elmore - r.sigma;
    r.single_pole = 0.693 * r.elmore;
    r.prh_tmin = 0.5 * r.elmore;
    r.prh_tmax = 1.2 * r.elmore;
    rows.push_back(r);
  }
  const std::string blob = core::serialize_report(rows);
  EXPECT_EQ(blob.size(), 8 + 4 * 73);
  const auto back = core::deserialize_report(blob);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*back)[i].node, rows[i].node);
    EXPECT_EQ((*back)[i].depth, rows[i].depth);
    EXPECT_EQ((*back)[i].elmore, rows[i].elmore);
    EXPECT_EQ((*back)[i].sigma, rows[i].sigma);
    EXPECT_EQ((*back)[i].skewness, rows[i].skewness);
    EXPECT_EQ((*back)[i].lower_bound, rows[i].lower_bound);
    EXPECT_EQ((*back)[i].single_pole, rows[i].single_pole);
    EXPECT_EQ((*back)[i].prh_tmin, rows[i].prh_tmin);
    EXPECT_EQ((*back)[i].prh_tmax, rows[i].prh_tmax);
    EXPECT_FALSE((*back)[i].exact_delay.has_value());
    EXPECT_FALSE((*back)[i].exact_rise.has_value());
    EXPECT_FALSE((*back)[i].degraded);
  }
}

TEST(ReportSerialization, RejectsTruncationAndGarbage) {
  const std::vector<core::NodeReport> rows = sample_rows(8, 3);
  const std::string blob = core::serialize_report(rows);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4}, blob.size() / 2,
                                blob.size() - 1}) {
    EXPECT_FALSE(core::deserialize_report(std::string_view(blob).substr(0, cut)).has_value())
        << "cut at " << cut;
  }
  EXPECT_FALSE(core::deserialize_report(blob + "x").has_value());  // trailing garbage
  std::string huge = blob;
  huge[0] = '\xff';  // row count far beyond the payload
  EXPECT_FALSE(core::deserialize_report(huge).has_value());
}

// ------------------------------------------------------------------ store

TEST(DiskStore, SaveLoadRoundTripAndRestart) {
  const ScratchDir dir("store_rt");
  const RCTree tree = gen::random_tree(16, 11);
  const core::ReportOptions options;
  const engine::NetKey key = engine::NetKey::of(tree, options);
  const std::vector<core::NodeReport> rows = core::build_report(tree, options);
  {
    server::DiskStore store(dir.path);
    ASSERT_TRUE(store.ok()) << store.error();
    EXPECT_FALSE(store.load(key).has_value());  // cold
    store.save(key, rows);
    EXPECT_EQ(store.entry_count(), 1u);
    const auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->size(), rows.size());
    EXPECT_EQ((*back)[1].elmore, rows[1].elmore);
  }
  // A new store instance over the same directory (a "restart") still hits.
  server::DiskStore reopened(dir.path);
  ASSERT_TRUE(reopened.ok());
  const auto back = reopened.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), rows.size());
  // A different key (different options) misses without touching the entry.
  core::ReportOptions other;
  other.leaves_only = true;
  EXPECT_FALSE(reopened.load(engine::NetKey::of(tree, other)).has_value());
}

TEST(DiskStore, CorruptEntriesReadAsMissesWithDiagnostic) {
  const ScratchDir dir("store_corrupt");
  const RCTree tree = gen::random_tree(16, 13);
  const engine::NetKey key = engine::NetKey::of(tree, {});
  const std::vector<core::NodeReport> rows = core::build_report(tree);
  server::DiskStore store(dir.path);
  ASSERT_TRUE(store.ok());
  store.save(key, rows);

  // Locate the one entry file.
  std::string entry;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir.path))
    if (e.is_regular_file()) entry = e.path().string();
  ASSERT_FALSE(entry.empty());
  const auto corrupt_before = obs::registry().counter_value("store.load.corrupt");

  // Bit-flip in the middle: checksum mismatch.
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(entry) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(store.load(key).has_value());

  // Truncation: shorter than its framing claims.
  store.save(key, rows);
  std::filesystem::resize_file(entry, std::filesystem::file_size(entry) / 2);
  EXPECT_FALSE(store.load(key).has_value());

  // Garbage magic.
  {
    std::ofstream f(entry, std::ios::binary | std::ios::trunc);
    f << "not an rct store entry";
  }
  EXPECT_FALSE(store.load(key).has_value());

  EXPECT_GE(obs::registry().counter_value("store.load.corrupt"), corrupt_before + 3);

  // A save over the damaged slot repairs it.
  store.save(key, rows);
  EXPECT_TRUE(store.load(key).has_value());
}

TEST(DiskStore, UnusableDirectoryDegradesToNoop) {
  server::DiskStore store("/proc/definitely/not/writable");
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
  const engine::NetKey key = engine::NetKey::of(gen::random_tree(4, 1), {});
  store.save(key, sample_rows(4, 1));  // must not throw
  EXPECT_FALSE(store.load(key).has_value());
}

TEST(DiskStore, EntryPathIsStableAcrossBuilds) {
  // Store directories outlive builds: the entry address is FNV-1a over the
  // key words, whatever the in-memory NetKey::hash is.  The path below was
  // written by a build whose NetKey::hash was that same FNV-1a.
  const ScratchDir dir("store_path");
  const RCTree tree = gen::random_tree(8, 7);
  server::DiskStore store(dir.path);
  ASSERT_TRUE(store.ok()) << store.error();
  const engine::NetKey key = engine::NetKey::of(tree, {});
  store.save(key, core::build_report(tree));
  EXPECT_TRUE(std::filesystem::is_regular_file(dir.path + "/72/72fab0b1bf479a3e.rct"));
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_TRUE(store.load(key).has_value());
}

// ---------------------------------------------------- server (in-process)

TEST(Server, DesignHandleIsStableAcrossBuilds) {
  // Clients hold design handles across daemon restarts: the handle is the
  // low 48 bits of the FNV-1a of the deck's bytes, and must not drift.
  server::Server server(server::ServeOptions{});
  EXPECT_EQ(server.load_design(std::string(RCT_TESTDATA_DIR) + "/two_nets.spef", false),
            "c9fe1c8ea586");
}

TEST(Server, HandleLineCommandSurface) {
  const ScratchDir dir("inproc");
  const std::string deck = write_deck(dir.path, "alpha", 3, 12, 100);
  server::ServeOptions options;
  options.jobs = 2;
  server::Server server(options);

  // Unknown command and malformed line fail without killing the server.
  EXPECT_NE(server.handle_line("{\"id\":1,\"cmd\":\"frobnicate\"}")
                .find("\"code\":\"unsupported\""),
            std::string::npos);
  EXPECT_NE(server.handle_line("garbage").find("\"code\":\"syntax\""), std::string::npos);

  // Report before any load: a clean typed error.
  EXPECT_NE(server.handle_line("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}")
                .find("no design loaded"),
            std::string::npos);

  server::Request load;
  load.id = 3;
  load.cmd = "load";
  load.path = deck;
  const std::string loaded = server.handle_line(server::encode_request(load));
  ASSERT_TRUE(server::response_ok(loaded)) << loaded;
  EXPECT_NE(loaded.find("\"nets\":3"), std::string::npos);

  // First report computes, the repeat is served from memory.
  server::Request report;
  report.id = 4;
  report.cmd = "report";
  report.net = "net_1";
  const std::string first = server.handle_line(server::encode_request(report));
  ASSERT_TRUE(server::response_ok(first)) << first;
  EXPECT_NE(first.find("\"source\":\"computed\""), std::string::npos);
  EXPECT_NE(first.find("\"exact_delay\":"), std::string::npos);
  const std::string second = server.handle_line(server::encode_request(report));
  EXPECT_NE(second.find("\"source\":\"memory\""), std::string::npos);
  EXPECT_EQ(first.substr(first.find("\"rows\"")), second.substr(second.find("\"rows\"")));

  // bounds: leaves only, no exact columns.
  server::Request bounds;
  bounds.id = 5;
  bounds.cmd = "bounds";
  bounds.net = "net_1";
  const std::string b = server.handle_line(server::encode_request(bounds));
  ASSERT_TRUE(server::response_ok(b)) << b;
  EXPECT_EQ(b.find("\"exact_delay\""), std::string::npos);
  EXPECT_NE(b.find("\"prh_tmax\""), std::string::npos);

  // Unknown net.
  EXPECT_NE(server.handle_line("{\"id\":6,\"cmd\":\"report\",\"net\":\"nope\"}")
                .find("unknown net"),
            std::string::npos);

  // stats sees the design and the cache traffic.
  const std::string stats = server.handle_line("{\"id\":7,\"cmd\":\"stats\"}");
  EXPECT_NE(stats.find("\"designs\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"hits\":1"), std::string::npos);

  // evict clears everything; the net is gone until the next load.
  const std::string evicted = server.handle_line("{\"id\":8,\"cmd\":\"evict\"}");
  EXPECT_NE(evicted.find("\"designs_evicted\":1"), std::string::npos);
  EXPECT_NE(server.handle_line(server::encode_request(report)).find("no design loaded"),
            std::string::npos);
}

TEST(Server, RequestDeadlineTimesOutViaFaultInjection) {
  const ScratchDir dir("deadline");
  const std::string deck = write_deck(dir.path, "slow", 1, 10, 200);
  server::Server server({});
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));

  robust::fault::arm("server.report", robust::fault::Action::kSleep, 30, 1);
  server::Request report;
  report.id = 2;
  report.cmd = "report";
  report.net = "net_0";
  report.timeout_ms = 5;
  const std::string response = server.handle_line(server::encode_request(report));
  robust::fault::disarm_all();
  EXPECT_FALSE(server::response_ok(response));
  EXPECT_NE(response.find("\"code\":\"timeout\""), std::string::npos) << response;

  // Same request without the fault completes.
  const std::string ok = server.handle_line(server::encode_request(report));
  EXPECT_TRUE(server::response_ok(ok)) << ok;
}

TEST(Server, ContentIdenticalNetsShareCacheAcrossDesigns) {
  const ScratchDir dir("shared");
  // Two decks, same seeds => content-identical trees under different names.
  const std::string deck_a = write_deck(dir.path, "one", 2, 14, 300);
  const std::string deck_b = write_deck(dir.path, "two", 2, 14, 300);
  server::Server server({});
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = deck_a;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  const std::string first =
      server.handle_line("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}");
  EXPECT_NE(first.find("\"source\":\"computed\""), std::string::npos);

  load.id = 3;
  load.path = deck_b;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  // Identical content, new design: the rows come straight from memory.
  const std::string second =
      server.handle_line("{\"id\":4,\"cmd\":\"report\",\"net\":\"net_0\"}");
  EXPECT_NE(second.find("\"source\":\"memory\""), std::string::npos) << second;
}

// ------------------------------------------- server: cached render bytes

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

/// The rendered-bytes gauge, as the last request (on this thread) set it.
double rendered_bytes() { return obs::registry().gauge("server.cache.rendered_bytes").value(); }

/// The `"rows":[...]}` tail of a report/bounds response.
std::string rows_text(const std::string& response) {
  const std::size_t at = response.find("\"rows\":");
  return at == std::string::npos ? std::string() : response.substr(at);
}

/// `rows` with every row name rewritten to `prefix` + name.
std::string prefix_row_names(std::string rows, const std::string& prefix) {
  const std::string tag = "{\"name\":\"";
  for (std::size_t at = rows.find(tag); at != std::string::npos;
       at = rows.find(tag, at + tag.size() + prefix.size()))
    rows.insert(at + tag.size(), prefix);
  return rows;
}

std::string load_handle(server::Server& server, const std::string& path) {
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = path;
  const std::optional<json::Value> reply =
      json::parse(server.handle_line(server::encode_request(load)));
  return reply.has_value() ? reply->at("design").text : std::string();
}

TEST(ServerRender, ContentTwinsSpliceTheirOwnNamesIntoCachedBytes) {
  const ScratchDir dir("render_twins");
  // Same seeds, renamed nodes: design B's nets are content twins of A's.
  const std::string deck_a = write_deck(dir.path, "one", 2, 14, 300);
  const std::string deck_b = write_deck(dir.path, "two", 2, 14, 300, "twin_");
  server::Server server({});
  const std::string design_a = load_handle(server, deck_a);
  const std::string design_b = load_handle(server, deck_b);
  ASSERT_FALSE(design_a.empty());
  ASSERT_FALSE(design_b.empty());
  const auto report = [&](const std::string& design, const std::string& extra) {
    return server.handle_line("{\"id\":7,\"cmd\":\"report\",\"net\":\"net_0\",\"design\":\"" +
                              design + "\"" + extra + "}");
  };

  const std::uint64_t fresh0 = counter_value("server.render.fresh");
  const std::uint64_t cached0 = counter_value("server.render.cached");
  const std::string computed = report(design_a, "");
  const std::string first_hit = report(design_a, "");
  const std::string cached = report(design_a, "");
  EXPECT_NE(computed.find("\"source\":\"computed\""), std::string::npos) << computed;
  EXPECT_NE(first_hit.find("\"source\":\"memory\""), std::string::npos);
  EXPECT_NE(cached.find("\"source\":\"memory\""), std::string::npos);
  // Computed and first-hit reads render afresh; the third read is spliced
  // from the bytes the first hit attached.  All three carry the same rows.
  EXPECT_EQ(counter_value("server.render.fresh") - fresh0, 2u);
  EXPECT_EQ(counter_value("server.render.cached") - cached0, 1u);
  EXPECT_EQ(rows_text(first_hit), rows_text(computed));
  EXPECT_EQ(rows_text(cached), rows_text(computed));

  // Design B shares A's entry and its rendering, but carries its own names.
  const std::string twin = report(design_b, "");
  EXPECT_NE(twin.find("\"source\":\"memory\""), std::string::npos) << twin;
  EXPECT_EQ(counter_value("server.render.cached") - cached0, 2u);
  const std::optional<json::Value> parsed = json::parse(twin);
  ASSERT_TRUE(parsed.has_value()) << twin;
  const json::Value& rows = parsed->at("rows");
  ASSERT_EQ(rows.items.size(), 14u);
  for (const json::Value& row : rows.items)
    EXPECT_EQ(row.at("name").text.rfind("twin_", 0), 0u) << row.at("name").text;
  EXPECT_EQ(rows_text(twin), prefix_row_names(rows_text(computed), "twin_"));
  EXPECT_GT(rendered_bytes(), 0.0);

  // A bounds read and a leaves-only, exact-free report share one NetKey but
  // not a field set: each flavor renders and caches its own bytes.
  const auto bounds = [&](const std::string& design) {
    return server.handle_line("{\"id\":8,\"cmd\":\"bounds\",\"net\":\"net_0\",\"design\":\"" +
                              design + "\"}");
  };
  const std::string leaves_extra = ",\"leaves_only\":true,\"with_exact\":false";
  const std::string bounds_computed = bounds(design_a);
  const std::string bounds_first = bounds(design_a);
  const std::string leaves_first = report(design_a, leaves_extra);
  const std::string leaves_cached = report(design_a, leaves_extra);
  const std::string bounds_cached = bounds(design_a);
  const std::string bounds_twin = bounds(design_b);
  const std::string leaves_twin = report(design_b, leaves_extra);
  EXPECT_NE(bounds_computed.find("\"source\":\"computed\""), std::string::npos);
  EXPECT_NE(leaves_first.find("\"source\":\"memory\""), std::string::npos);
  for (const std::string* r : {&bounds_computed, &bounds_first, &bounds_cached, &bounds_twin}) {
    EXPECT_EQ(r->find("\"sigma\""), std::string::npos) << *r;
    EXPECT_NE(r->find("\"prh_tmax\""), std::string::npos) << *r;
  }
  for (const std::string* r : {&leaves_first, &leaves_cached, &leaves_twin}) {
    EXPECT_NE(r->find("\"sigma\""), std::string::npos) << *r;
    EXPECT_EQ(r->find("\"exact_delay\""), std::string::npos) << *r;
  }
  EXPECT_EQ(rows_text(bounds_first), rows_text(bounds_computed));
  EXPECT_EQ(rows_text(bounds_cached), rows_text(bounds_computed));
  EXPECT_EQ(rows_text(leaves_cached), rows_text(leaves_first));
  EXPECT_EQ(rows_text(bounds_twin), prefix_row_names(rows_text(bounds_computed), "twin_"));
  EXPECT_EQ(rows_text(leaves_twin), prefix_row_names(rows_text(leaves_first), "twin_"));

  // A full evict drops every rendering.
  const std::string stats = server.handle_line("{\"id\":9,\"cmd\":\"stats\"}");
  EXPECT_EQ(stats.find("\"contexts\""), std::string::npos) << stats;
  ASSERT_TRUE(server::response_ok(server.handle_line("{\"id\":10,\"cmd\":\"evict\"}")));
  EXPECT_EQ(rendered_bytes(), 0.0);
}

// ------------------------------------------------- server (over sockets)

TEST(Server, UnixSocketEndToEnd) {
  const ScratchDir dir("sock");
  const std::string deck = write_deck(dir.path, "e2e", 2, 10, 400);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(server.address(), "unix:" + options.listen);

  server::Client client;
  ASSERT_TRUE(client.connect(options.listen)) << client.error();
  std::string response;
  ASSERT_TRUE(client.roundtrip("{\"id\":1,\"cmd\":\"ping\"}", response));
  EXPECT_EQ(response.rfind("{\"id\":1,\"ok\":true,\"uptime_s\":", 0), 0u) << response;
  EXPECT_NE(response.find("\"pid\":"), std::string::npos);

  server::Request load;
  load.id = 2;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(client.roundtrip(server::encode_request(load), response));
  ASSERT_TRUE(server::response_ok(response)) << response;

  ASSERT_TRUE(client.roundtrip("{\"id\":3,\"cmd\":\"report\",\"net\":\"net_1\"}", response));
  EXPECT_NE(response.find("\"source\":\"computed\""), std::string::npos);

  // A second client sees the same server state.
  server::Client other;
  ASSERT_TRUE(other.connect(options.listen));
  ASSERT_TRUE(other.roundtrip("{\"id\":4,\"cmd\":\"report\",\"net\":\"net_1\"}", response));
  EXPECT_NE(response.find("\"source\":\"memory\""), std::string::npos);

  ASSERT_TRUE(client.roundtrip("{\"id\":5,\"cmd\":\"shutdown\"}", response));
  EXPECT_NE(response.find("\"shutdown\":true"), std::string::npos);
  server.wait();  // returns because the client asked for shutdown
  server.stop();
  // The socket file is gone after stop().
  EXPECT_FALSE(std::filesystem::exists(options.listen));
}

TEST(Server, TcpEphemeralPortEndToEnd) {
  server::ServeOptions options;
  options.listen = "0";  // ephemeral
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_GT(server.port(), 0);
  server::Client client;
  ASSERT_TRUE(client.connect(std::to_string(server.port()))) << client.error();
  std::string response;
  ASSERT_TRUE(client.roundtrip("{\"id\":1,\"cmd\":\"ping\"}", response));
  EXPECT_TRUE(server::response_ok(response));
  server.stop();
}

TEST(Server, WarmStoreSurvivesRestart) {
  const ScratchDir dir("warm");
  const std::string deck = write_deck(dir.path, "warm", 3, 12, 500);
  const std::string store_dir = dir.path + "/store";
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = deck;
  {
    server::ServeOptions options;
    options.store_dir = store_dir;
    server::Server first(options);
    ASSERT_TRUE(server::response_ok(first.handle_line(server::encode_request(load))));
    for (int i = 0; i < 3; ++i) {
      const std::string response = first.handle_line(
          "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_" + std::to_string(i) + "\"}");
      ASSERT_TRUE(server::response_ok(response)) << response;
      EXPECT_NE(response.find("\"source\":\"computed\""), std::string::npos);
    }
  }
  // New server, same store: every net is served from disk, not recomputed.
  server::ServeOptions options;
  options.store_dir = store_dir;
  server::Server second(options);
  ASSERT_TRUE(server::response_ok(second.handle_line(server::encode_request(load))));
  for (int i = 0; i < 3; ++i) {
    const std::string response = second.handle_line(
        "{\"id\":3,\"cmd\":\"report\",\"net\":\"net_" + std::to_string(i) + "\"}");
    ASSERT_TRUE(server::response_ok(response)) << response;
    EXPECT_NE(response.find("\"source\":\"store\""), std::string::npos) << response;
  }
}

TEST(Server, StoreServesShortBoundsRowsAfterRestart) {
  // two_nets.spef's bounds rows carry no exact values and names shorter
  // than 8 bytes (u2:A): the smallest rows the store writes.
  const ScratchDir dir("short_rows");
  const std::string deck = std::string(RCT_TESTDATA_DIR) + "/two_nets.spef";
  const std::string store_dir = dir.path + "/store";
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = deck;
  const std::string bounds = "{\"id\":2,\"cmd\":\"bounds\",\"net\":\"net_a\"}";
  server::ServeOptions options;
  options.store_dir = store_dir;
  {
    server::Server first(options);
    ASSERT_TRUE(server::response_ok(first.handle_line(server::encode_request(load))));
    const std::string response = first.handle_line(bounds);
    ASSERT_TRUE(server::response_ok(response)) << response;
    EXPECT_NE(response.find("\"source\":\"computed\""), std::string::npos) << response;
  }
  server::Server second(options);
  ASSERT_TRUE(server::response_ok(second.handle_line(server::encode_request(load))));
  const std::string response = second.handle_line(bounds);
  ASSERT_TRUE(server::response_ok(response)) << response;
  EXPECT_NE(response.find("\"source\":\"store\""), std::string::npos) << response;
}

TEST(Server, CorruptStoreEntryFallsBackToRecompute) {
  const ScratchDir dir("fallback");
  const std::string deck = write_deck(dir.path, "fb", 1, 12, 600);
  const std::string store_dir = dir.path + "/store";
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = deck;
  std::string expected_rows;
  {
    server::ServeOptions options;
    options.store_dir = store_dir;
    server::Server first(options);
    ASSERT_TRUE(server::response_ok(first.handle_line(server::encode_request(load))));
    const std::string response =
        first.handle_line("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}");
    ASSERT_TRUE(server::response_ok(response));
    expected_rows = response.substr(response.find("\"rows\""));
  }
  // Flip one payload byte in every stored entry.
  std::size_t corrupted = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(store_dir)) {
    if (!e.is_regular_file()) continue;
    std::fstream f(e.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(e.path()) - 12));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);

  const auto corrupt_before = obs::registry().counter_value("store.load.corrupt");
  server::ServeOptions options;
  options.store_dir = store_dir;
  server::Server second(options);
  ASSERT_TRUE(server::response_ok(second.handle_line(server::encode_request(load))));
  const std::string response =
      second.handle_line("{\"id\":3,\"cmd\":\"report\",\"net\":\"net_0\"}");
  // Not a crash, not an error: the damaged entry reads as a miss, the rows
  // are recomputed and byte-identical to the pre-corruption answer.
  ASSERT_TRUE(server::response_ok(response)) << response;
  EXPECT_NE(response.find("\"source\":\"computed\""), std::string::npos) << response;
  EXPECT_EQ(response.substr(response.find("\"rows\"")), expected_rows);
  EXPECT_GT(obs::registry().counter_value("store.load.corrupt"), corrupt_before);
}

/// The one entry file under `store_dir`.
std::string only_entry(const std::string& store_dir) {
  std::string entry;
  for (const auto& e : std::filesystem::recursive_directory_iterator(store_dir))
    if (e.is_regular_file()) entry = e.path().string();
  return entry;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// An entry's envelope version: the little-endian u32 after the magic.
std::uint32_t entry_version(const std::string& bytes) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[4 + i])) << (8 * i);
  return v;
}

TEST(Server, OlderStoreVersionIsAMissAndIsRewritten) {
  const ScratchDir dir("old_version");
  const std::string deck = write_deck(dir.path, "old", 1, 12, 650);
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = deck;
  const std::string report = "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}";
  server::ServeOptions options;
  options.store_dir = dir.path + "/store";
  std::string cold;
  {
    server::Server first(options);
    ASSERT_TRUE(server::response_ok(first.handle_line(server::encode_request(load))));
    cold = first.handle_line(report);
    ASSERT_TRUE(server::response_ok(cold)) << cold;
    EXPECT_NE(cold.find("\"source\":\"computed\""), std::string::npos) << cold;
  }
  // Stamp the entry as an older build's (version 1) and fix its checksum,
  // so only the version tells it apart.
  const std::string entry = only_entry(options.store_dir);
  ASSERT_FALSE(entry.empty());
  std::string bytes = read_bytes(entry);
  ASSERT_GE(bytes.size(), 32u);
  ASSERT_EQ(entry_version(bytes), server::DiskStore::kVersion);
  bytes.replace(4, 4, std::string("\x01\0\0\0", 4));
  const std::uint64_t sum = server::fnv1a(std::string_view(bytes).substr(0, bytes.size() - 8));
  for (int i = 0; i < 8; ++i) bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
  std::ofstream(entry, std::ios::binary | std::ios::trunc) << bytes;

  const auto corrupt_before = obs::registry().counter_value("store.load.corrupt");
  const auto misses_before = obs::registry().counter_value("store.load.misses");
  {
    server::Server second(options);
    ASSERT_TRUE(server::response_ok(second.handle_line(server::encode_request(load))));
    // A miss, not damage: recomputed, byte for byte the cold answer.
    EXPECT_EQ(second.handle_line(report), cold);
  }
  EXPECT_EQ(obs::registry().counter_value("store.load.corrupt"), corrupt_before);
  EXPECT_EQ(obs::registry().counter_value("store.load.misses"), misses_before + 1);
  // The recompute's save replaced the entry with this build's version,
  // and the next server answers from it.
  EXPECT_EQ(entry_version(read_bytes(entry)), server::DiskStore::kVersion);
  server::Server third(options);
  ASSERT_TRUE(server::response_ok(third.handle_line(server::encode_request(load))));
  const std::string warm = third.handle_line(report);
  EXPECT_NE(warm.find("\"source\":\"store\""), std::string::npos) << warm;
  EXPECT_EQ(rows_text(warm), rows_text(cold));
}

TEST(Server, StoreRowNodeOutOfRangeIsCorruptAndRecomputed) {
  const ScratchDir dir("node_range");
  const std::string deck = write_deck(dir.path, "range", 1, 12, 660);
  server::Request load;
  load.cmd = "load";
  load.id = 1;
  load.path = deck;
  const std::string report = "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}";
  server::ServeOptions options;
  options.store_dir = dir.path + "/store";
  std::string cold;
  {
    server::Server first(options);
    ASSERT_TRUE(server::response_ok(first.handle_line(server::encode_request(load))));
    cold = first.handle_line(report);
    ASSERT_TRUE(server::response_ok(cold)) << cold;
  }
  // Overwrite the entry with a well-formed, checksum-valid blob whose last
  // row names the node one past the tree.
  const engine::ParsedSpef parsed = engine::parse_spef_parallel_file(deck, {});
  ASSERT_EQ(parsed.file.nets.size(), 1u);
  const RCTree& tree = parsed.file.nets[0].tree;
  const engine::NetKey key = engine::NetKey::of(tree, {});
  std::vector<core::NodeReport> rows = core::build_report(tree);
  rows.back().node = tree.size();
  const auto corrupt_before = obs::registry().counter_value("store.load.corrupt");
  {
    server::DiskStore store(options.store_dir);
    ASSERT_TRUE(store.ok()) << store.error();
    store.save(key, rows);
    EXPECT_EQ(store.entry_count(), 1u);  // the server's entry, replaced
    EXPECT_FALSE(store.load(key).has_value());
  }
  EXPECT_EQ(obs::registry().counter_value("store.load.corrupt"), corrupt_before + 1);

  server::Server second(options);
  ASSERT_TRUE(server::response_ok(second.handle_line(server::encode_request(load))));
  EXPECT_EQ(second.handle_line(report), cold);
  EXPECT_EQ(obs::registry().counter_value("store.load.corrupt"), corrupt_before + 2);
}

TEST(Server, ConcurrentClientsMixedWorkload) {
  const ScratchDir dir("concurrent");
  const std::string store_dir = dir.path + "/store";
  std::vector<std::string> decks;
  for (int d = 0; d < 2; ++d)
    decks.push_back(write_deck(dir.path, ("deck" + std::to_string(d)).c_str(), 4, 10,
                               700 + static_cast<std::uint64_t>(d) * 10));
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.store_dir = store_dir;
  options.jobs = 4;
  options.cache_max_entries = 64;
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> failures{0};
  std::atomic<int> responses{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client;
      if (!client.connect(options.listen)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerClient; ++i) {
        server::Request request;
        request.id = static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(i);
        switch (i % 5) {
          case 0:
            request.cmd = "load";
            request.path = decks[static_cast<std::size_t>(c) % decks.size()];
            break;
          case 4:
            request.cmd = "stats";
            break;
          default:
            request.cmd = "report";
            request.design = "";  // last loaded — races with other clients by design
            request.net = "net_" + std::to_string(i % 4);
            break;
        }
        std::string response;
        if (!client.roundtrip(server::encode_request(request), response)) {
          failures.fetch_add(1);
          return;
        }
        responses.fetch_add(1);
        // "report" may legitimately fail while another client's evict/load
        // races it, but only with a clean typed error, never a broken line.
        if (!server::response_ok(response) &&
            response.find("\"code\":") == std::string::npos)
          failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(responses.load(), kClients * kRequestsPerClient);
  server.stop();
  EXPECT_GE(server.requests_served(), static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

// ----------------------------------------------------- server observability

TEST(Server, PingReportsUptimeVersionAndPid) {
  server::Server server({});
  const std::string response = server.handle_line("{\"id\":1,\"cmd\":\"ping\"}");
  ASSERT_TRUE(server::response_ok(response)) << response;
  EXPECT_NE(response.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(response.find("\"version\":\""), std::string::npos);
  EXPECT_NE(response.find("\"pid\":" + std::to_string(::getpid())), std::string::npos);
  EXPECT_GE(server.uptime_seconds(), 0.0);
}

TEST(Server, AdoptsClientTraceAndServesItBack) {
  const ScratchDir dir("trace");
  const std::string deck = write_deck(dir.path, "traced", 1, 10, 800);
  server::Server server({});
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));

  // A traced report: the server records its phase spans under the
  // client-minted id.
  server::Request report;
  report.id = 2;
  report.cmd = "report";
  report.net = "net_0";
  report.trace = server::generate_trace_id();
  report.span = server::generate_trace_id();
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(report))));

  server::Request fetch;
  fetch.id = 3;
  fetch.cmd = "trace";
  fetch.trace = report.trace;
  const std::string response = server.handle_line(server::encode_request(fetch));
  ASSERT_TRUE(server::response_ok(response)) << response;
  std::vector<server::TraceSpan> spans;
  ASSERT_TRUE(server::parse_trace_spans(response, spans));
  // The full phase tape: root request plus queue/cache/context/report/render.
  std::vector<std::string> names;
  names.reserve(spans.size());
  for (const server::TraceSpan& s : spans) names.push_back(s.name);
  for (const char* expected : {"server.request", "server.queue_wait", "server.cache.lookup",
                               "server.context.build", "server.report.build", "server.render"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span " << expected;
  // Spans arrive sorted by start time, inside the root's window.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].ts_ns, spans[i - 1].ts_ns);

  // Unknown (or evicted) ids answer ok with an empty slice; fetching a
  // trace never tapes the fetch itself.
  fetch.id = 4;
  fetch.trace = "00000000000000aa";
  const std::string empty = server.handle_line(server::encode_request(fetch));
  ASSERT_TRUE(server::response_ok(empty)) << empty;
  ASSERT_TRUE(server::parse_trace_spans(empty, spans));
  EXPECT_TRUE(spans.empty());

  // trace without an id is a typed error.
  EXPECT_NE(server.handle_line("{\"id\":5,\"cmd\":\"trace\"}").find("\"code\":\"unsupported\""),
            std::string::npos);

  // Untraced requests leave no tape behind.
  server::Request untraced;
  untraced.id = 6;
  untraced.cmd = "report";
  untraced.net = "net_0";
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(untraced))));
  fetch.id = 7;
  fetch.trace = report.trace;
  ASSERT_TRUE(server::parse_trace_spans(server.handle_line(server::encode_request(fetch)),
                                        spans));
  const std::size_t before = spans.size();
  EXPECT_GT(before, 0u);  // the traced request's tape is still there
}

TEST(Server, DaemonTraceHasOneRootSpanPerRequestAndPhasesOfUntracedReports) {
  const ScratchDir dir("daemon_trace");
  const std::string deck = write_deck(dir.path, "daemon", 2, 10, 810);
  server::Server server({});
  obs::tracer().clear();
  obs::tracer().set_enabled(true);  // what `rct serve --trace-out` does
  const std::uint64_t served_before = server.requests_served();
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  server::Request traced;
  traced.id = 2;
  traced.cmd = "report";
  traced.net = "net_0";
  traced.trace = server::generate_trace_id();
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(traced))));
  server::Request untraced;
  untraced.id = 3;
  untraced.cmd = "report";
  untraced.net = "net_1";
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(untraced))));
  server::Request fetch;
  fetch.id = 4;
  fetch.cmd = "trace";
  fetch.trace = traced.trace;
  const std::string slice = server.handle_line(server::encode_request(fetch));
  obs::tracer().set_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::tracer().events();  // sorted by start
  obs::tracer().clear();
  ASSERT_EQ(server.requests_served() - served_before, 4u);

  // The client-requested slice holds every server phase of the traced
  // report (and may hold the library spans that ran inside it).
  std::vector<server::TraceSpan> spans;
  ASSERT_TRUE(server::parse_trace_spans(slice, spans)) << slice;
  std::set<std::string> slice_names;
  for (const server::TraceSpan& s : spans) slice_names.insert(s.name);
  for (const char* expected : {"server.request", "server.queue_wait", "server.cache.lookup",
                               "server.context.build", "server.report.build", "server.render"})
    EXPECT_EQ(slice_names.count(expected), 1u) << "slice lacks " << expected;
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const server::TraceSpan& s) { return s.name == "server.request"; }),
            1);

#if RCT_OBS_ENABLED
  // The daemon's own trace: exactly one root span per handled request,
  // traced or not.
  std::vector<const obs::TraceEvent*> roots;
  for (const obs::TraceEvent& e : events)
    if (std::string_view(e.name) == "server.request") roots.push_back(&e);
  ASSERT_EQ(roots.size(), server.requests_served() - served_before);
  // The untraced report (third request) shows its phases, which ran on a
  // pool worker inside the root span's window.
  const obs::TraceEvent& root = *roots[2];
  EXPECT_EQ(root.detail, "report");
  for (const char* phase : {"server.cache.lookup", "server.render"}) {
    const bool found = std::any_of(events.begin(), events.end(), [&](const obs::TraceEvent& e) {
      return std::string_view(e.name) == phase && e.ts_ns >= root.ts_ns &&
             e.ts_ns + e.dur_ns <= root.ts_ns + root.dur_ns && e.detail == "net_1";
    });
    EXPECT_TRUE(found) << "untraced report lacks " << phase;
  }
#else
  EXPECT_TRUE(events.empty());  // the trace is compiled out; the slice is not
#endif
}

TEST(Server, BoundGapHistogramObservesReportRows) {
  const ScratchDir dir("gap");
  const std::string deck = write_deck(dir.path, "gap", 1, 14, 900);
  server::Server server({});
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));

  const obs::Histogram* gap = obs::registry().find_histogram("core.report.bound_gap");
  const std::uint64_t before = gap != nullptr ? gap->count() : 0;
  ASSERT_TRUE(server::response_ok(
      server.handle_line("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}")));
  gap = obs::registry().find_histogram("core.report.bound_gap");
  ASSERT_NE(gap, nullptr);
  EXPECT_GT(gap->count(), before);
  // The gap is relative: every sample sits in [0, 1] for finite rows.
  EXPECT_GE(gap->min(), 0.0);
  EXPECT_LE(gap->max(), 1.0);
  // The exact engine ran too, so the Elmore-vs-exact error histogram moved.
  const obs::Histogram* err =
      obs::registry().find_histogram("core.report.exact_vs_elmore_error");
  ASSERT_NE(err, nullptr);
  EXPECT_GT(err->count(), 0u);
}

TEST(Server, PerCommandHistogramsSplitByVocabulary) {
  server::Server server({});
  const obs::Histogram* ping_h =
      obs::registry().find_histogram("server.request.ping.seconds");
  const std::uint64_t before = ping_h != nullptr ? ping_h->count() : 0;
  ASSERT_TRUE(server::response_ok(server.handle_line("{\"id\":1,\"cmd\":\"ping\"}")));
  ping_h = obs::registry().find_histogram("server.request.ping.seconds");
  ASSERT_NE(ping_h, nullptr);
#if RCT_OBS_ENABLED
  // Spans observe no histogram under -DRCT_OBS=OFF, so the count only
  // moves in instrumented builds; the vocabulary gating below holds in both.
  EXPECT_GT(ping_h->count(), before);
#else
  (void)before;
#endif
  // Unknown commands must not mint new instruments.
  (void)server.handle_line("{\"id\":2,\"cmd\":\"frobnicate\"}");
  EXPECT_EQ(obs::registry().find_histogram("server.request.frobnicate.seconds"), nullptr);
}

TEST(Server, HttpTelemetryEndpoints) {
  const ScratchDir dir("http");
  const std::string deck = write_deck(dir.path, "telemetry", 2, 10, 1000);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.http = "0";  // ephemeral TCP
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_GT(server.http_port(), 0);
  EXPECT_EQ(server.http_address(),
            "http://127.0.0.1:" + std::to_string(server.http_port()));

  // Load a design and run a report through the protocol socket first, so
  // the scrape sees real levels.
  server::Client client;
  ASSERT_TRUE(client.connect(options.listen)) << client.error();
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  std::string response;
  ASSERT_TRUE(client.roundtrip(server::encode_request(load), response));
  ASSERT_TRUE(server::response_ok(response)) << response;
  ASSERT_TRUE(client.roundtrip("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}", response));
  ASSERT_TRUE(server::response_ok(response)) << response;

  // /metrics: Prometheus 0.0.4 text with the server's own instruments.
  const std::string metrics = http_get(server.http_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE rct_server_requests counter"), std::string::npos);
  EXPECT_NE(metrics.find("rct_server_designs 1"), std::string::npos);
  EXPECT_NE(metrics.find("rct_server_request_report_seconds_count"), std::string::npos);
  EXPECT_NE(metrics.find("rct_core_report_bound_gap_bucket"), std::string::npos);

  // /healthz: liveness JSON with uptime, version, pid.
  const std::string healthz = http_get(server.http_port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(healthz.find("\"pid\":" + std::to_string(::getpid())), std::string::npos);

  // /varz: the JSON metrics snapshot (same schema as --metrics-out).
  const std::string varz = http_get(server.http_port(), "/varz");
  EXPECT_NE(varz.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(varz.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(varz.find("server.designs"), std::string::npos);

  // /flight: the flight-recorder dump.
  const std::string flight = http_get(server.http_port(), "/flight");
  EXPECT_NE(flight.find("HTTP/1.0 200 OK"), std::string::npos);

  // Unknown paths 404; query strings are stripped before routing.
  EXPECT_NE(http_get(server.http_port(), "/nope").find("HTTP/1.0 404"), std::string::npos);
  EXPECT_NE(http_get(server.http_port(), "/healthz?probe=1").find("HTTP/1.0 200"),
            std::string::npos);

  // Non-GET methods 405; malformed request lines 400.
  EXPECT_NE(http_request(server.http_port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405"),
            std::string::npos);
  EXPECT_NE(http_request(server.http_port(), "garbage\r\n\r\n").find("HTTP/1.0 400"),
            std::string::npos);

  server.stop();
}

TEST(Server, HttpOnUnixSocketPath) {
  const ScratchDir dir("http_unix");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.http = dir.path + "/http.sock";
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(server.http_address(), "unix:" + options.http);
  EXPECT_TRUE(std::filesystem::exists(options.http));
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(options.http));
}

// ------------------------------------------------- listen-spec errors

TEST(Server, PortAboveRangeIsRejectedByListenerHttpAndClient) {
  // A digits-only spec is a TCP port; past 65535 it used to wrap silently
  // (70000 bound and dialed port 4464).
  const ScratchDir dir("port_range");
  {
    server::ServeOptions options;
    options.listen = "70000";
    server::Server server(options);
    EXPECT_FALSE(server.start());
    EXPECT_EQ(server.error(), "port out of range (0-65535): 70000");
  }
  {
    server::ServeOptions options;
    options.listen = dir.path + "/rct.sock";
    options.http = "65536";
    server::Server server(options);
    EXPECT_FALSE(server.start());
    EXPECT_EQ(server.error(), "http: port out of range (0-65535): 65536");
    EXPECT_FALSE(std::filesystem::exists(options.listen));
  }
  server::Client client;
  EXPECT_FALSE(client.connect("70000"));
  EXPECT_EQ(client.error(), "port out of range (0-65535): 70000");
  EXPECT_FALSE(client.connected());
}

TEST(Server, OverlongUnixPathIsRejectedByListenerHttpAndClient) {
  const ScratchDir dir("long_path");
  const std::string too_long = dir.path + "/" + std::string(200, 's') + ".sock";
  {
    server::ServeOptions options;
    options.listen = too_long;
    server::Server server(options);
    EXPECT_FALSE(server.start());
    EXPECT_EQ(server.error(), "unix socket path too long: " + too_long);
  }
  {
    server::ServeOptions options;
    options.listen = dir.path + "/rct.sock";
    options.http = too_long;
    server::Server server(options);
    EXPECT_FALSE(server.start());
    EXPECT_EQ(server.error(), "http: unix socket path too long: " + too_long);
  }
  server::Client client;
  EXPECT_FALSE(client.connect(too_long));
  EXPECT_EQ(client.error(), "unix socket path too long: " + too_long);
}

TEST(Server, TelemetryBindFailureLeavesNothingListening) {
  const ScratchDir dir("http_bind");
  for (const bool tcp : {false, true}) {
    server::ServeOptions options;
    options.listen = tcp ? "0" : dir.path + "/rct.sock";
    options.http = dir.path + "/missing_dir/http.sock";  // bind: ENOENT
    server::Server server(options);
    ASSERT_FALSE(server.start());
    EXPECT_EQ(server.error().rfind("http: bind " + options.http + ": ", 0), 0u)
        << server.error();
    EXPECT_EQ(server.http_address(), "");
    server::Client client;
    if (tcp) {
      ASSERT_GT(server.port(), 0);
      EXPECT_FALSE(client.connect(std::to_string(server.port())));
    } else {
      EXPECT_FALSE(std::filesystem::exists(options.listen));
      EXPECT_FALSE(client.connect(options.listen));
    }
  }
}

TEST(SpefOpen, MissingPathIsFileOpenThroughEveryEntryPoint) {
  // parse_spef_file, parse_spef_parallel_file, analyze_spef_file and the
  // server's load_design open a deck through one helper: one code, one text.
  const std::string path = "/nonexistent/rct_missing.spef";
  const std::string expected = [&] {
    try {
      (void)parse_spef_file(path);
    } catch (const SpefError& e) {
      return std::string(e.what());
    }
    return std::string();
  }();
  EXPECT_NE(expected.find("cannot open '" + path + "'"), std::string::npos) << expected;
  EXPECT_NE(expected.find("file-open"), std::string::npos) << expected;
  const auto expect_file_open = [&](const char* entry, const auto& call) {
    try {
      call();
      ADD_FAILURE() << entry << " did not throw";
    } catch (const SpefError& e) {
      EXPECT_EQ(e.code(), robust::Code::kFileOpen) << entry;
      EXPECT_EQ(std::string(e.what()), expected) << entry;
    }
  };
  expect_file_open("parse_spef_file", [&] { (void)parse_spef_file(path); });
  expect_file_open("parse_spef_parallel_file",
                   [&] { (void)engine::parse_spef_parallel_file(path, {}); });
  expect_file_open("analyze_spef_file", [&] { (void)engine::analyze_spef_file(path); });
  server::Server server(server::ServeOptions{});
  expect_file_open("load_design", [&] { (void)server.load_design(path, false); });
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = path;
  EXPECT_EQ(server::response_error_code(server.handle_line(server::encode_request(load))),
            "file-open");
}

TEST(Server, ConcurrentScrapeWhileServing) {
  const ScratchDir dir("scrape");
  const std::string deck = write_deck(dir.path, "scraped", 4, 10, 1100);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.http = "0";
  options.jobs = 2;
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  const int http_port = server.http_port();
  ASSERT_GT(http_port, 0);

  constexpr int kProtocolClients = 4;
  constexpr int kScrapers = 4;
  constexpr int kIterations = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kProtocolClients + kScrapers);
  for (int c = 0; c < kProtocolClients; ++c) {
    threads.emplace_back([&, c] {
      server::Client client;
      if (!client.connect(options.listen)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        server::Request request;
        request.id = static_cast<std::uint64_t>(c) * 1000 + static_cast<std::uint64_t>(i);
        if (i == 0) {
          request.cmd = "load";
          request.path = deck;
        } else {
          request.cmd = "report";
          request.net = "net_" + std::to_string(i % 4);
          request.trace = server::generate_trace_id();  // tracing under load
        }
        std::string response;
        if (!client.roundtrip(server::encode_request(request), response)) {
          failures.fetch_add(1);
          return;
        }
        if (!server::response_ok(response) &&
            response.find("\"code\":") == std::string::npos)
          failures.fetch_add(1);
      }
    });
  }
  const char* kPaths[] = {"/metrics", "/healthz", "/varz", "/flight"};
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string response =
            http_get(http_port, kPaths[(s + i) % 4]);
        if (response.find("HTTP/1.0 200 OK") == std::string::npos) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.stop();
}

// ------------------------------------------------ protocol (overload)

TEST(Protocol, OverloadedResponseCarriesRetryAfterHint) {
  const std::string line = server::overloaded_response(7, 125, "queue full");
  EXPECT_FALSE(server::response_ok(line));
  EXPECT_EQ(server::response_error_code(line), "overloaded");
  EXPECT_EQ(server::response_retry_after_ms(line), 125u);
  EXPECT_NE(line.find("\"id\":7"), std::string::npos);
}

TEST(Protocol, ResponseErrorCodeExtraction) {
  EXPECT_EQ(server::response_error_code("{\"id\":1,\"ok\":true}"), "");
  EXPECT_EQ(server::response_error_code(server::error_response(1, "timeout", "x")), "timeout");
  EXPECT_EQ(server::response_error_code("{\"id\":1,\"ok\":false,\"error\":\"no code\"}"), "");
  EXPECT_EQ(server::response_retry_after_ms(server::error_response(1, "timeout", "x")), 0u);
}

// --------------------------------------------------- admission control

TEST(Server, OverloadShedsWithTypedResponseAndRetryHint) {
  const ScratchDir dir("overload");
  const std::string deck = write_deck(dir.path, "busy", 2, 10, 1200);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.jobs = 1;
  options.max_queue_depth = 1;
  server::Server server(options);
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  ASSERT_TRUE(server.start()) << server.error();

  // Occupy the single worker (and the whole queue) with a slow report.
  robust::fault::arm("server.report", robust::fault::Action::kSleep, 400, 1);
  std::string slow_response;
  std::thread busy([&server, &slow_response] {
    slow_response = server.handle_line("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Second pool-bound request: shed, typed, with a backoff hint.
  const std::string shed =
      server.handle_line("{\"id\":3,\"cmd\":\"report\",\"net\":\"net_1\"}");
  EXPECT_EQ(server::response_error_code(shed), "overloaded") << shed;
  EXPECT_GT(server::response_retry_after_ms(shed), 0u) << shed;

  // Control commands still answer while the queue is full, and a recent
  // shed shows up as the degraded overlay.
  const std::string stats = server.handle_line("{\"id\":4,\"cmd\":\"stats\"}");
  EXPECT_TRUE(server::response_ok(stats)) << stats;
  EXPECT_NE(stats.find("\"state\":\"degraded\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"shed\":"), std::string::npos);
  EXPECT_GE(server.requests_shed(), 1u);

  busy.join();
  robust::fault::disarm_all();
  EXPECT_TRUE(server::response_ok(slow_response)) << slow_response;

  // Once the queue drains, the same request is admitted.
  const std::string retried =
      server.handle_line("{\"id\":5,\"cmd\":\"report\",\"net\":\"net_1\"}");
  EXPECT_TRUE(server::response_ok(retried)) << retried;
  server.stop();
}

TEST(Server, ConnectionCapRejectsWithTypedLine) {
  const ScratchDir dir("conncap");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.max_connections = 1;
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();

  server::Client first;
  ASSERT_TRUE(first.connect(options.listen)) << first.error();
  std::string response;
  ASSERT_TRUE(first.roundtrip("{\"id\":1,\"cmd\":\"ping\"}", response));
  ASSERT_TRUE(server::response_ok(response));

  // Second connection: accepted just long enough to say "overloaded".
  const int fd = unix_connect(options.listen);
  ASSERT_GE(fd, 0);
  const std::string line = recv_line(fd);
  ::close(fd);
  EXPECT_EQ(server::response_error_code(line), "overloaded") << line;
  EXPECT_GT(server::response_retry_after_ms(line), 0u) << line;

  // The admitted connection is unaffected.
  ASSERT_TRUE(first.roundtrip("{\"id\":2,\"cmd\":\"ping\"}", response));
  EXPECT_TRUE(server::response_ok(response));
  server.stop();
}

TEST(Server, MaxConnectionsDefaultIsFinite) {
  // One thread per connection: the default must bound them; 0 still means
  // unbounded for deployments that opt out.
  EXPECT_EQ(server::ServeOptions{}.max_connections, 256u);
  const ScratchDir dir("conndefault");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  server::Client a;
  server::Client b;
  ASSERT_TRUE(a.connect(options.listen)) << a.error();
  ASSERT_TRUE(b.connect(options.listen)) << b.error();
  std::string response;
  ASSERT_TRUE(a.roundtrip("{\"id\":1,\"cmd\":\"ping\"}", response));
  EXPECT_TRUE(server::response_ok(response)) << response;
  ASSERT_TRUE(b.roundtrip("{\"id\":2,\"cmd\":\"ping\"}", response));
  EXPECT_TRUE(server::response_ok(response)) << response;
  server.stop();
}

// ------------------------------------------------------------- framing

TEST(Framing, RequestsInOneSendAreAnsweredInOrder) {
  const ScratchDir dir("pipelined");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  const int fd = unix_connect(options.listen);
  ASSERT_GE(fd, 0);
  const std::string burst =
      "{\"id\":1,\"cmd\":\"ping\"}\n{\"id\":2,\"cmd\":\"stats\"}\n\n"
      "{\"id\":3,\"cmd\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0), static_cast<ssize_t>(burst.size()));
  for (int id = 1; id <= 3; ++id) {
    const std::string line = recv_line(fd);
    EXPECT_TRUE(server::response_ok(line)) << line;
    EXPECT_EQ(line.rfind("{\"id\":" + std::to_string(id) + ",", 0), 0u) << line;
  }
  ::close(fd);
  server.stop();
}

TEST(Framing, ResponseLargerThanOneReadMatchesHandleLine) {
  const ScratchDir dir("bigresponse");
  const std::string deck = write_deck(dir.path, "big", 1, 400, 4200);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.jobs = 1;
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  server::Client client;
  ASSERT_TRUE(client.connect(options.listen)) << client.error();
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  std::string response;
  ASSERT_TRUE(client.roundtrip(server::encode_request(load), response));
  ASSERT_TRUE(server::response_ok(response)) << response;

  server::Request report;
  report.id = 2;
  report.cmd = "report";
  report.net = "net_0";
  report.has_with_exact = true;
  report.with_exact = false;  // moments-only rows keep the test fast
  const std::string line = server::encode_request(report);
  ASSERT_TRUE(client.roundtrip(line, response));  // computed
  ASSERT_TRUE(server::response_ok(response)) << response.substr(0, 200);
  const std::string in_process = server.handle_line(line);  // memory hit
  ASSERT_GT(in_process.size(), server::LineReader::kReadSize);
  ASSERT_TRUE(client.roundtrip(line, response));
  EXPECT_EQ(response, in_process);
  server.stop();
}

TEST(Framing, TwoResponsesInOneReadServeTwoRoundtrips) {
  // A scripted peer writes both answers in one send, so the client's first
  // read holds both lines; the second roundtrip must answer from the
  // buffer.  The peer closes once it has both requests, so a client that
  // read again would see the hang-up and fail instead of blocking.
  const ScratchDir dir("tworesponses");
  const std::string path = dir.path + "/peer.sock";
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const std::string both = "{\"id\":1,\"ok\":true}\n{\"id\":2,\"ok\":true}\n";
    (void)::send(fd, both.data(), both.size(), 0);
    int newlines = 0;
    char c = 0;
    while (newlines < 2 && ::recv(fd, &c, 1, 0) == 1)
      if (c == '\n') ++newlines;
    ::close(fd);
  });
  server::Client client;
  ASSERT_TRUE(client.connect(path)) << client.error();
  std::string first;
  std::string second;
  EXPECT_TRUE(client.roundtrip("{\"id\":1,\"cmd\":\"ping\"}", first)) << client.error();
  EXPECT_TRUE(client.roundtrip("{\"id\":2,\"cmd\":\"ping\"}", second)) << client.error();
  EXPECT_EQ(first, "{\"id\":1,\"ok\":true}");
  EXPECT_EQ(second, "{\"id\":2,\"ok\":true}");
  client.close();
  peer.join();
  ::close(listener);
}

TEST(Server, ConcurrentWarmReadsOnOneWorkerMatchSerialAnswers) {
  // Four callers share one pool worker, so every hand-off completes while
  // other callers wait on theirs: each must get exactly its own answer.
  const ScratchDir dir("handoff");
  const std::string deck = write_deck(dir.path, "handoff", 4, 12, 700);
  server::ServeOptions options;
  options.jobs = 1;
  server::Server server(options);
  ASSERT_TRUE(server::response_ok(
      server.handle_line("{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}")));
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  for (int net = 0; net < 4; ++net) {
    requests.push_back("{\"id\":" + std::to_string(10 + net) +
                       ",\"cmd\":\"report\",\"net\":\"net_" + std::to_string(net) + "\"}");
    ASSERT_TRUE(server::response_ok(server.handle_line(requests.back())));  // computed
    expected.push_back(server.handle_line(requests.back()));                 // memory
    ASSERT_NE(expected.back().find("\"source\":\"memory\""), std::string::npos);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const int net = (t + i) % 4;
        if (server.handle_line(requests[net]) != expected[net]) ++mismatches;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.requests_shed(), 0u);
}

TEST(Server, WarmReadAnswersWhileTheWorkerIsBusyAndIsNeverShed) {
  // One worker and a queue of one: a cold report pinned on the worker
  // fills the whole queue, yet a memory hit on another net still answers,
  // because it never leaves the calling thread.
  const ScratchDir dir("busyworker");
  const std::string deck = write_deck(dir.path, "busy", 2, 12, 1800);
  server::ServeOptions options;
  options.jobs = 1;
  options.max_queue_depth = 1;
  server::Server server(options);
  ASSERT_TRUE(server::response_ok(
      server.handle_line("{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}")));
  const std::string warm_line = "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_1\"}";
  const std::string cold = server.handle_line(warm_line);
  ASSERT_NE(cold.find("\"source\":\"computed\""), std::string::npos) << cold;

  const std::uint64_t fired_before = robust::fault::fired_count("server.report");
  robust::fault::arm("server.report", robust::fault::Action::kSleep, 300, 1);
  std::string slow_response;
  std::thread busy([&server, &slow_response] {
    slow_response = server.handle_line("{\"id\":3,\"cmd\":\"report\",\"net\":\"net_0\"}");
  });
  // The one-shot sleep has fired once the cold report is on the worker.
  for (int i = 0; i < 200 && robust::fault::fired_count("server.report") == fired_before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(robust::fault::fired_count("server.report"), fired_before + 1);
  ASSERT_EQ(server.queue_depth(), 1u);

  const std::string warm = server.handle_line(warm_line);
  EXPECT_EQ(server.queue_depth(), 1u);
  busy.join();
  robust::fault::disarm_all();
  EXPECT_TRUE(server::response_ok(warm)) << warm;
  EXPECT_NE(warm.find("\"source\":\"memory\""), std::string::npos) << warm;
  EXPECT_EQ(warm.substr(warm.find("\"rows\"")), cold.substr(cold.find("\"rows\"")));
  EXPECT_EQ(server.requests_shed(), 0u);
  EXPECT_NE(slow_response.find("\"source\":\"computed\""), std::string::npos) << slow_response;
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(Server, CacheCountersCountEachReportOnceOnEveryPath) {
  // cold -> warm on one server, then a restart on its store and two reads:
  // each report counts exactly one of hits / misses / store_hits.
  const ScratchDir dir("counters");
  const std::string deck = write_deck(dir.path, "counted", 1, 12, 1900);
  const std::string load_line = "{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}";
  const std::string report_line = "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}";
  server::ServeOptions options;
  options.store_dir = dir.path + "/store";
  {
    server::Server server(options);
    ASSERT_TRUE(server::response_ok(server.handle_line(load_line)));
    EXPECT_NE(server.handle_line(report_line).find("\"source\":\"computed\""),
              std::string::npos);
    EXPECT_NE(server.handle_line(report_line).find("\"source\":\"memory\""),
              std::string::npos);
    const std::string stats = server.handle_line("{\"id\":3,\"cmd\":\"stats\"}");
    EXPECT_NE(stats.find("\"hits\":1,\"misses\":1,\"store_hits\":0"), std::string::npos)
        << stats;
  }
  server::Server restarted(options);
  ASSERT_TRUE(server::response_ok(restarted.handle_line(load_line)));
  EXPECT_NE(restarted.handle_line(report_line).find("\"source\":\"store\""),
            std::string::npos);
  std::string stats = restarted.handle_line("{\"id\":4,\"cmd\":\"stats\"}");
  EXPECT_NE(stats.find("\"hits\":0,\"misses\":0,\"store_hits\":1"), std::string::npos)
      << stats;
  EXPECT_NE(restarted.handle_line(report_line).find("\"source\":\"memory\""),
            std::string::npos);
  stats = restarted.handle_line("{\"id\":5,\"cmd\":\"stats\"}");
  EXPECT_NE(stats.find("\"hits\":1,\"misses\":0,\"store_hits\":1"), std::string::npos)
      << stats;
}

TEST(Server, WarmReadHonorsTheRequestDeadline) {
  // A memory hit runs the same deadline and fault prologue as a miss.
  const ScratchDir dir("warmdeadline");
  const std::string deck = write_deck(dir.path, "slow", 1, 10, 2000);
  server::Server server({});
  ASSERT_TRUE(server::response_ok(
      server.handle_line("{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}")));
  server::Request report;
  report.id = 2;
  report.cmd = "report";
  report.net = "net_0";
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(report))));

  robust::fault::arm("server.report", robust::fault::Action::kSleep, 30, 1);
  report.timeout_ms = 5;
  const std::string response = server.handle_line(server::encode_request(report));
  robust::fault::disarm_all();
  EXPECT_EQ(server::response_error_code(response), "timeout") << response;

  const std::string ok = server.handle_line(server::encode_request(report));
  EXPECT_NE(ok.find("\"source\":\"memory\""), std::string::npos) << ok;
}

TEST(Server, TracedWarmReadTapesItsPhasesWithoutAQueueWait) {
  const ScratchDir dir("warmtrace");
  const std::string deck = write_deck(dir.path, "traced", 1, 10, 2100);
  server::Server server({});
  ASSERT_TRUE(server::response_ok(
      server.handle_line("{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}")));
  server::Request report;
  report.id = 2;
  report.cmd = "report";
  report.net = "net_0";
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(report))));

  report.trace = server::generate_trace_id();
  const std::string warm = server.handle_line(server::encode_request(report));
  ASSERT_NE(warm.find("\"source\":\"memory\""), std::string::npos) << warm;
  server::Request fetch;
  fetch.id = 3;
  fetch.cmd = "trace";
  fetch.trace = report.trace;
  const std::string slice = server.handle_line(server::encode_request(fetch));
  std::vector<server::TraceSpan> spans;
  ASSERT_TRUE(server::parse_trace_spans(slice, spans)) << slice;
  std::multiset<std::string> names;
  for (const server::TraceSpan& s : spans) names.insert(s.name);
  EXPECT_EQ(names.count("server.request"), 1u);
  EXPECT_EQ(names.count("server.cache.lookup"), 1u);
  EXPECT_EQ(names.count("server.render"), 1u);
  EXPECT_EQ(names.count("server.queue_wait"), 0u);  // a memory hit takes no hand-off
}

// ------------------------------------------------------- socket hygiene

TEST(Server, OversizedLineGetsTypedErrorAndConnectionSurvives) {
  const ScratchDir dir("toolarge");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  const int fd = unix_connect(options.listen);
  ASSERT_GE(fd, 0);

  // One line well past the cap, no newline yet: the server answers as soon
  // as the buffered prefix exceeds the cap, then discards to the newline.
  const std::string huge(server::Server::kMaxRequestLine + 4096, 'x');
  std::size_t sent = 0;
  while (sent < huge.size()) {
    const ssize_t n = ::send(fd, huge.data() + sent, huge.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  const std::string error_line = recv_line(fd);
  EXPECT_EQ(server::response_error_code(error_line), "request-too-large") << error_line;

  // Terminate the runaway line; the connection stays usable.
  const std::string follow_up = "\n{\"id\":2,\"cmd\":\"ping\"}\n";
  ASSERT_EQ(::send(fd, follow_up.data(), follow_up.size(), 0),
            static_cast<ssize_t>(follow_up.size()));
  const std::string pong = recv_line(fd);
  EXPECT_TRUE(server::response_ok(pong)) << pong;
  EXPECT_NE(pong.find("\"id\":2"), std::string::npos);
  ::close(fd);
  server.stop();
}

TEST(Chaos, ShortReadsByteByByteStillParse) {
  const ScratchDir dir("shortreads");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  const int fd = unix_connect(options.listen);
  ASSERT_GE(fd, 0);
  const std::string request = "{\"id\":9,\"cmd\":\"ping\"}\n";
  for (const char c : request) {
    ASSERT_EQ(::send(fd, &c, 1, 0), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string response = recv_line(fd);
  EXPECT_TRUE(server::response_ok(response)) << response;
  ::close(fd);
  server.stop();
}

TEST(Chaos, SilentConnectionIsClosedByIdleTimeout) {
  const ScratchDir dir("idle");
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.idle_timeout_ms = 300;
  server::Server server(options);
  ASSERT_TRUE(server.start()) << server.error();
  const int fd = unix_connect(options.listen);
  ASSERT_GE(fd, 0);
  const auto start = std::chrono::steady_clock::now();
  // Say nothing; the server must hang up on its own (recv returns EOF).
  char c = 0;
  const ssize_t n = ::recv(fd, &c, 1, 0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(n, 0);
  EXPECT_LT(elapsed.count(), 5000);
  ::close(fd);
  EXPECT_GE(obs::registry().counter_value("server.conn.idle_closed"), 1u);
  server.stop();
}

// -------------------------------------------------------- chaos + retry

TEST(Chaos, MidRequestDisconnectRetriesToByteIdenticalResult) {
  const ScratchDir dir("disconnect");
  const std::string deck = write_deck(dir.path, "chaos", 1, 10, 1300);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  server::Server server(options);
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  ASSERT_TRUE(server.start()) << server.error();

  server::Client client;
  ASSERT_TRUE(client.connect(options.listen)) << client.error();
  const std::string report_line = "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}";
  // Warm the cache so every later answer has source "memory" — that makes
  // the byte-identical comparison meaningful across retries.
  std::string warm;
  ASSERT_TRUE(client.roundtrip(report_line, warm));
  std::string clean;
  ASSERT_TRUE(client.roundtrip(report_line, clean));
  ASSERT_NE(clean.find("\"source\":\"memory\""), std::string::npos);

  server::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 5;

  // The server hangs up before answering; the retry reconnects and the
  // rerun is byte-identical to the clean response.
  robust::fault::arm("server.conn.disconnect", robust::fault::Action::kThrow, 0, 1);
  std::string after_disconnect;
  ASSERT_TRUE(client.request(report_line, after_disconnect, policy)) << client.error();
  EXPECT_EQ(after_disconnect, clean);
  EXPECT_GE(client.last_retries(), 1u);

  // A torn write (half the response, then the connection dies) likewise.
  robust::fault::arm("server.conn.write", robust::fault::Action::kThrow, 0, 1);
  std::string after_torn_write;
  ASSERT_TRUE(client.request(report_line, after_torn_write, policy)) << client.error();
  EXPECT_EQ(after_torn_write, clean);
  robust::fault::disarm_all();
  server.stop();
}

TEST(ClientRetry, SurvivesServerRestartMidBatch) {
  const ScratchDir dir("restart");
  const std::string deck = write_deck(dir.path, "durable", 1, 10, 1400);
  const std::string sock = dir.path + "/rct.sock";
  const std::string store_dir = dir.path + "/store";
  const std::string load_line = "{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}";
  const std::string report_line = "{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}";

  server::ServeOptions options;
  options.listen = sock;
  options.store_dir = store_dir;

  server::Client client;
  std::string first_rows;
  {
    server::Server first(options);
    ASSERT_TRUE(first.start()) << first.error();
    ASSERT_TRUE(client.connect(sock)) << client.error();
    std::string response;
    ASSERT_TRUE(client.roundtrip(load_line, response));
    ASSERT_TRUE(server::response_ok(response)) << response;
    ASSERT_TRUE(client.roundtrip(report_line, response));
    ASSERT_TRUE(server::response_ok(response)) << response;
    first_rows = response.substr(response.find("\"rows\""));
    first.stop();
  }
  // The server the client was talking to is gone; a new one owns the same
  // socket and the same warm store.
  server::Server second(options);
  ASSERT_TRUE(second.start()) << second.error();

  server::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ms = 10;
  std::string response;
  ASSERT_TRUE(client.request(load_line, response, policy)) << client.error();
  EXPECT_TRUE(server::response_ok(response)) << response;
  ASSERT_TRUE(client.request(report_line, response, policy)) << client.error();
  ASSERT_TRUE(server::response_ok(response)) << response;
  // Served from the shared store, and row-identical to the pre-restart run.
  EXPECT_NE(response.find("\"source\":\"store\""), std::string::npos) << response;
  EXPECT_EQ(response.substr(response.find("\"rows\"")), first_rows);
  second.stop();
}

// ------------------------------------------------------- graceful drain

TEST(Server, DrainCancelsInFlightPastDeadline) {
  const ScratchDir dir("drain");
  const std::string deck = write_deck(dir.path, "draining", 1, 10, 1500);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.jobs = 1;
  options.drain_timeout_ms = 50;
  server::Server server(options);
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  ASSERT_TRUE(server.start()) << server.error();

  // An in-flight report that will outlive the drain budget by a lot.
  robust::fault::arm("server.report", robust::fault::Action::kSleep, 600, 1);
  std::string response;
  bool got_response = false;
  std::thread slow([&] {
    server::Client client;
    ASSERT_TRUE(client.connect(dir.path + "/rct.sock"));
    got_response = client.roundtrip("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}", response);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto start = std::chrono::steady_clock::now();
  server.request_drain();  // what the SIGTERM handler does
  server.stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  slow.join();
  robust::fault::disarm_all();

  // stop() returned promptly (bounded by the sleep, not by a hang), and the
  // straggler got a typed cancellation instead of a dropped connection.
  EXPECT_LT(elapsed.count(), 5000);
  ASSERT_TRUE(got_response) << "in-flight request never got an answer";
  EXPECT_EQ(server::response_error_code(response), "cancelled") << response;
}

TEST(Server, HealthzReportsDrainingAs503) {
  const ScratchDir dir("drain503");
  const std::string deck = write_deck(dir.path, "draining", 1, 10, 1700);
  server::ServeOptions options;
  options.listen = dir.path + "/rct.sock";
  options.http = "0";
  options.jobs = 1;
  options.drain_timeout_ms = 2000;
  server::Server server(options);
  server::Request load;
  load.id = 1;
  load.cmd = "load";
  load.path = deck;
  ASSERT_TRUE(server::response_ok(server.handle_line(server::encode_request(load))));
  ASSERT_TRUE(server.start()) << server.error();
  const int http_port = server.http_port();
  ASSERT_GT(http_port, 0);
  const std::string healthy = http_get(http_port, "/healthz");
  EXPECT_NE(healthy.find("HTTP/1.0 200"), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("\"state\":\"serving\""), std::string::npos) << healthy;

  // Pin one request in flight, then stop() from another thread: while the
  // drain waits for it, /healthz must flip to 503 "draining" so load
  // balancers pull the instance before its socket disappears.
  robust::fault::arm("server.report", robust::fault::Action::kSleep, 500, 1);
  std::thread slow([&] {
    server::Client client;
    ASSERT_TRUE(client.connect(options.listen));
    std::string response;
    (void)client.roundtrip("{\"id\":2,\"cmd\":\"report\",\"net\":\"net_0\"}", response);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread stopper([&server] { server.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string draining = http_get(http_port, "/healthz");
  EXPECT_NE(draining.find("HTTP/1.0 503"), std::string::npos) << draining;
  EXPECT_NE(draining.find("\"state\":\"draining\""), std::string::npos) << draining;
  stopper.join();
  slow.join();
  robust::fault::disarm_all();
}

// --------------------------------------------------------- evict races

TEST(Server, ConcurrentEvictRacesReportAndLoad) {
  const ScratchDir dir("evictrace");
  const std::string deck = write_deck(dir.path, "raced", 2, 10, 1600);
  const std::string store_dir = dir.path + "/store";
  server::ServeOptions options;
  options.jobs = 2;
  options.store_dir = store_dir;
  server::Server server(options);
  const std::string load_line = "{\"id\":1,\"cmd\":\"load\",\"path\":\"" + deck + "\"}";
  ASSERT_TRUE(server::response_ok(server.handle_line(load_line)));

  // Reports and loads race a full evict for ~200ms.  Requests may come
  // back "no design loaded" — that is fine; what must hold is that nothing
  // crashes, hangs, or races (the TSan build runs this test too).
  std::atomic<bool> go{true};
  std::atomic<int> answered{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&server, &go, &answered, t] {
      while (go.load(std::memory_order_relaxed)) {
        const std::string net = "net_" + std::to_string(t);
        const std::string r = server.handle_line(
            "{\"id\":5,\"cmd\":\"report\",\"net\":\"" + net + "\"}");
        ASSERT_FALSE(r.empty());
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  workers.emplace_back([&server, &go, &load_line, &answered] {
    while (go.load(std::memory_order_relaxed)) {
      ASSERT_FALSE(server.handle_line(load_line).empty());
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  workers.emplace_back([&server, &go, &answered] {
    while (go.load(std::memory_order_relaxed)) {
      ASSERT_FALSE(server.handle_line("{\"id\":6,\"cmd\":\"evict\"}").empty());
      answered.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  go.store(false, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  EXPECT_GT(answered.load(), 0);

  // After the dust settles the server still works end to end.
  ASSERT_TRUE(server::response_ok(server.handle_line(load_line)));
  EXPECT_TRUE(server::response_ok(
      server.handle_line("{\"id\":7,\"cmd\":\"report\",\"net\":\"net_0\"}")));
}

// ------------------------------------------------------------- store GC

TEST(DiskStoreGc, CapEnforcedWithLruByAtimeVictims) {
  const ScratchDir dir("gc_cap");
  // Measure one entry's on-disk size so the cap maths is fs-independent.
  std::uint64_t entry_size = 0;
  {
    server::DiskStore probe(dir.path + "/probe");
    const RCTree tree = gen::random_tree(16, 21);
    probe.save(engine::NetKey::of(tree, {}), core::build_report(tree));
    entry_size = probe.total_bytes();
  }
  ASSERT_GT(entry_size, 0u);
  const std::uint64_t cap = entry_size * 3 + entry_size / 2;  // fits 3 entries, not 4

  const std::string gc_dir = dir.path + "/gc";
  server::DiskStore store(gc_dir, cap);
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_EQ(store.max_bytes(), cap);
  std::vector<engine::NetKey> keys;
  for (int i = 0; i < 3; ++i) {
    const RCTree tree = gen::random_tree(16, 30 + i);
    keys.push_back(engine::NetKey::of(tree, {}));
    store.save(keys.back(), core::build_report(tree));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(store.entry_count(), 3u);
  // Read the oldest entry: the explicit atime bump makes it most recently
  // used, so the sweep must spare it.
  ASSERT_TRUE(store.load(keys[0]).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  const RCTree straw = gen::random_tree(16, 99);
  store.save(engine::NetKey::of(straw, {}), core::build_report(straw));  // crosses the cap

  EXPECT_LE(store.total_bytes(), cap);
  EXPECT_LT(store.entry_count(), 4u);
  EXPECT_TRUE(store.load(keys[0]).has_value()) << "LRU evicted the recently-read entry";
  EXPECT_FALSE(store.load(keys[1]).has_value()) << "oldest-by-atime entry survived the sweep";
  EXPECT_FALSE(std::filesystem::exists(gc_dir + "/gc.journal"));
  EXPECT_GE(obs::registry().counter_value("store.gc.sweeps"), 1u);
  EXPECT_GE(obs::registry().counter_value("store.gc.evicted"), 1u);
}

TEST(DiskStoreGc, CrashMidSweepLeavesJournalAndRecoversOnRestart) {
  const ScratchDir dir("gc_crash");
  std::uint64_t entry_size = 0;
  {
    server::DiskStore probe(dir.path + "/probe");
    const RCTree tree = gen::random_tree(16, 41);
    probe.save(engine::NetKey::of(tree, {}), core::build_report(tree));
    entry_size = probe.total_bytes();
  }
  ASSERT_GT(entry_size, 0u);
  const std::uint64_t cap = entry_size * 2 + entry_size / 2;  // fits 2 entries, not 3
  const std::string gc_dir = dir.path + "/gc";

  std::vector<engine::NetKey> keys;
  std::vector<std::vector<core::NodeReport>> rows;
  const std::uint64_t fired_before = robust::fault::fired_count("store.gc.sweep");
  {
    server::DiskStore store(gc_dir, cap);
    for (int i = 0; i < 2; ++i) {
      const RCTree tree = gen::random_tree(16, 50 + i);
      keys.push_back(engine::NetKey::of(tree, {}));
      rows.push_back(core::build_report(tree));
      store.save(keys.back(), rows.back());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // The third save crosses the cap; the sweep journals its victims and
    // then "crashes" (injected) before the first unlink.
    robust::fault::arm("store.gc.sweep", robust::fault::Action::kThrow, 0, 1);
    const RCTree tree = gen::random_tree(16, 60);
    keys.push_back(engine::NetKey::of(tree, {}));
    rows.push_back(core::build_report(tree));
    store.save(keys.back(), rows.back());
    robust::fault::disarm_all();
    EXPECT_EQ(robust::fault::fired_count("store.gc.sweep"), fired_before + 1);
    EXPECT_TRUE(std::filesystem::exists(gc_dir + "/gc.journal"));
    EXPECT_EQ(store.entry_count(), 3u);  // nothing deleted before the crash
    EXPECT_GE(obs::registry().counter_value("store.gc.errors"), 1u);
  }

  // "Restart": the constructor replays the journal, finishing the sweep.
  server::DiskStore reopened(gc_dir, cap);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  EXPECT_FALSE(std::filesystem::exists(gc_dir + "/gc.journal"));
  EXPECT_LT(reopened.entry_count(), 3u);
  EXPECT_LE(reopened.total_bytes(), cap);
  EXPECT_GE(obs::registry().counter_value("store.gc.recovered"), 1u);
  // Every surviving entry still round-trips bit-exact — no corruption.
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto back = reopened.load(keys[i]);
    if (!back.has_value()) continue;
    ++survivors;
    ASSERT_EQ(back->size(), rows[i].size());
    EXPECT_EQ((*back)[1].elmore, rows[i][1].elmore);
  }
  EXPECT_EQ(survivors, reopened.entry_count());
}

TEST(DiskStoreGc, ConcurrentSaveLoadUnderCapStaysConsistent) {
  const ScratchDir dir("gc_race");
  std::uint64_t entry_size = 0;
  {
    server::DiskStore probe(dir.path + "/probe");
    const RCTree tree = gen::random_tree(16, 71);
    probe.save(engine::NetKey::of(tree, {}), core::build_report(tree));
    entry_size = probe.total_bytes();
  }
  const std::uint64_t cap = entry_size * 4;
  server::DiskStore store(dir.path + "/gc", cap);
  // Writers push entries past the cap (triggering sweeps) while readers
  // load whatever is resident: loads are hits or clean misses, never junk.
  std::vector<engine::NetKey> keys;
  std::vector<std::vector<core::NodeReport>> rows;
  for (int i = 0; i < 12; ++i) {
    const RCTree tree = gen::random_tree(16, 80 + i);
    keys.push_back(engine::NetKey::of(tree, {}));
    rows.push_back(core::build_report(tree));
  }
  std::atomic<bool> go{true};
  std::thread writer([&] {
    for (int round = 0; round < 3; ++round)
      for (std::size_t i = 0; i < keys.size(); ++i) store.save(keys[i], rows[i]);
    go.store(false, std::memory_order_relaxed);
  });
  std::thread reader([&] {
    std::size_t i = 0;
    while (go.load(std::memory_order_relaxed)) {
      const auto back = store.load(keys[i % keys.size()]);
      if (back.has_value()) {
        EXPECT_EQ(back->size(), rows[i % keys.size()].size());
      }
      ++i;
    }
  });
  writer.join();
  reader.join();
  EXPECT_LE(store.total_bytes(), cap);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/gc/gc.journal"));
}

}  // namespace
