// End-to-end tests of the `rct` command-line tool: spawn the real binary on
// the committed testdata and check output and exit codes.  The binary path
// and testdata directory are injected by CMake.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"   // for the RCT_OBS_ENABLED build flag
#include "robust/fault.hpp"  // for the RCT_FAULT_ENABLED build flag

#ifndef RCT_CLI_PATH
#define RCT_CLI_PATH "./rct"
#endif
#ifndef RCT_TESTDATA_DIR
#define RCT_TESTDATA_DIR "testdata"
#endif

namespace {

struct RunResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

RunResult run_redirected(const std::string& args, const char* redirect) {
  const std::string cmd = std::string(RCT_CLI_PATH) + " " + args + " " + redirect;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, std::move(out)};
}

RunResult run(const std::string& args) { return run_redirected(args, "2>&1"); }

/// stdout only — for byte-identity checks that must ignore the (timed)
/// engine stats printed to stderr.
RunResult run_stdout(const std::string& args) { return run_redirected(args, "2>/dev/null"); }

std::string data(const char* file) { return std::string(RCT_TESTDATA_DIR) + "/" + file; }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Like slurp, but a missing file reads as "" — for polling loops.
std::string slurp_if_present(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = run("");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, ReportOnDeck) {
  const auto r = run("report " + data("bus_bit.sp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("elmore"), std::string::npos);
  EXPECT_NE(r.output.find("rx2"), std::string::npos);
}

TEST(Cli, DotOnDeck) {
  const auto r = run("dot " + data("bus_bit.sp"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("digraph"), std::string::npos);
  EXPECT_NE(r.output.find("TD="), std::string::npos);
}

TEST(Cli, SpefReport) {
  const auto r = run("spef " + data("two_nets.spef"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("net_a"), std::string::npos);
  EXPECT_NE(r.output.find("exact"), std::string::npos);
}

TEST(Cli, BatchReport) {
  const auto r = run("batch " + data("two_nets.spef"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("net_a"), std::string::npos);
  EXPECT_NE(r.output.find("net_b"), std::string::npos);
  EXPECT_NE(r.output.find("exact"), std::string::npos);
  EXPECT_NE(r.output.find("engine:"), std::string::npos);  // stats on stderr
}

TEST(Cli, BatchOutputByteIdenticalAcrossJobs) {
  const auto r1 = run_stdout("batch " + data("two_nets.spef") + " --jobs 1");
  EXPECT_EQ(r1.exit_code, 0);
  for (const char* jobs : {"2", "3", "8"}) {
    const auto rn = run_stdout("batch " + data("two_nets.spef") + " --jobs " + jobs);
    EXPECT_EQ(rn.exit_code, 0);
    EXPECT_EQ(r1.output, rn.output) << "--jobs " << jobs;
  }
  const auto j1 = run_stdout("batch " + data("two_nets.spef") + " --jobs 1 --json");
  const auto j4 = run_stdout("batch " + data("two_nets.spef") + " --jobs 4 --json");
  EXPECT_EQ(j1.output, j4.output);
}

TEST(Cli, BatchJsonSchema) {
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --json");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.rfind("{\"design\":\"testdata\",\"nets\":[", 0), 0u);
  EXPECT_NE(r.output.find("\"name\":\"net_a\""), std::string::npos);
  EXPECT_NE(r.output.find("\"elmore_s\":"), std::string::npos);
  EXPECT_NE(r.output.find("\"exact_delay_s\":"), std::string::npos);
}

TEST(Cli, BatchJsonWritesNonFiniteAsNull) {
  // R = C = 1e300 overflows the Elmore sum to inf; JSON has no inf, so the
  // row must carry null and the degraded flag instead.
  const std::string deck = ::testing::TempDir() + "/rct_cli_huge_values.spef";
  {
    std::ofstream out(deck);
    out << "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"huge\"\n"
           "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n\n"
           "*D_NET net_h 1e300\n*CONN\n*P u1:Z I\n*I u2:A O\n"
           "*CAP\n1 h1 1e300\n2 u2:A 1e300\n"
           "*RES\n1 u1:Z h1 1e300\n2 h1 u2:A 1e300\n*END\n";
  }
  const auto r = run_stdout("batch " + deck + " --json");
  std::string error;
  const std::optional<rct::json::Value> doc = rct::json::parse(r.output, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << r.output;
  const rct::json::Value& row = doc->at("nets").items.at(0).at("loads").items.at(0);
  EXPECT_EQ(row.at("elmore_s").kind, rct::json::Value::Kind::kNull);
  EXPECT_TRUE(row.at("degraded").boolean);
  std::remove(deck.c_str());
}

TEST(Cli, BatchMatchesSpefCommandPerNet) {
  // batch is the parallel sibling of spef: same per-net rows, same text.
  const auto spef = run_stdout("spef " + data("two_nets.spef"));
  const auto batch = run_stdout("batch " + data("two_nets.spef") + " --no-cache");
  EXPECT_EQ(spef.output, batch.output);
}

TEST(Cli, BatchExactLimitSuppressesEigensolve) {
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --exact-limit 1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("exact"), std::string::npos);
  const auto s = run_stdout("spef " + data("two_nets.spef") + " --exact-limit 1");
  EXPECT_EQ(s.exit_code, 0);
  EXPECT_EQ(s.output.find("exact"), std::string::npos);
}

TEST(Cli, BatchStdoutByteIdenticalWithObservabilityOn) {
  // The observability determinism guarantee: tracing, metrics export (both
  // formats, with periodic re-flush), the progress heartbeat, the event
  // log, the flight recorder and the top-slow table never touch stdout.
  const auto base = run_stdout("batch " + data("two_nets.spef") + " --jobs 1");
  EXPECT_EQ(base.exit_code, 0);
  const std::string trace = ::testing::TempDir() + "/rct_cli_obs_trace.json";
  const std::string metrics = ::testing::TempDir() + "/rct_cli_obs_metrics.json";
  const std::string log = ::testing::TempDir() + "/rct_cli_obs_log.jsonl";
  const std::string flight = ::testing::TempDir() + "/rct_cli_obs_flight.json";
  for (const char* jobs : {"1", "2", "8"}) {
    const auto rn = run_stdout("batch " + data("two_nets.spef") + " --jobs " + jobs +
                               " --progress --trace-out " + trace + " --metrics-out " + metrics +
                               " --metrics-format prom --metrics-interval-ms 20" +
                               " --log-out " + log + " --log-level debug" +
                               " --flight-recorder-out " + flight + " --top-slow 2");
    EXPECT_EQ(rn.exit_code, 0);
    EXPECT_EQ(base.output, rn.output) << "--jobs " << jobs;
  }
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  std::remove(log.c_str());
  std::remove(flight.c_str());
}

TEST(Cli, BatchTraceOutIsChromeTraceWithAllLayers) {
  const std::string trace = ::testing::TempDir() + "/rct_cli_trace.json";
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --jobs 2 --trace-out " + trace);
  EXPECT_EQ(r.exit_code, 0);
  const std::string body = slurp(trace);
  EXPECT_EQ(body.rfind("{\"displayTimeUnit\":", 0), 0u);
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
#if RCT_OBS_ENABLED
  // Spans from every instrumented layer (compiled out under -DRCT_OBS=OFF).
  for (const char* cat : {"\"cat\":\"cli\"", "\"cat\":\"engine\"", "\"cat\":\"pool\"",
                          "\"cat\":\"analysis\"", "\"cat\":\"core\""})
    EXPECT_NE(body.find(cat), std::string::npos) << cat;
  EXPECT_NE(body.find("\"engine.net.analyze\""), std::string::npos);
#endif
  std::remove(trace.c_str());
}

TEST(Cli, BatchMetricsOutHasCacheContextPoolAndLatency) {
  const std::string metrics = ::testing::TempDir() + "/rct_cli_metrics.json";
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --metrics-out " + metrics);
  EXPECT_EQ(r.exit_code, 0);
  const std::string body = slurp(metrics);
  EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
  for (const char* key :
       {"\"engine.cache.hits\"", "\"engine.cache.misses\"", "\"pool.tasks.run\"",
        "\"engine.nets.completed\"",
        "\"engine.net.analyze_seconds\"",
        "\"analysis.context.build_seconds\"", "\"core.report.build_seconds\""})
    EXPECT_NE(body.find(key), std::string::npos) << key;
#if RCT_OBS_ENABLED
  // Registered from inside timing-gated code, so absent under -DRCT_OBS=OFF.
  EXPECT_NE(body.find("\"engine.task.queue_wait_seconds\""), std::string::npos);
#endif
  std::remove(metrics.c_str());
}

TEST(Cli, BatchMetricsOutPinsTheInstrumentSet) {
  // The instruments a fixed single-threaded batch records, and every
  // counter's value, as the build before the instrument table printed
  // them: the table must neither add, drop nor rename a series.
  const std::string metrics = ::testing::TempDir() + "/rct_cli_pinned_metrics.json";
  const auto r =
      run_stdout("batch " + data("two_nets.spef") + " --jobs 1 --metrics-out " + metrics);
  ASSERT_EQ(r.exit_code, 0);
  const std::optional<rct::json::Value> doc = rct::json::parse(slurp(metrics));
  ASSERT_TRUE(doc.has_value());
  const auto names = [&](const char* kind) {
    std::vector<std::string> out;
    for (const rct::json::Member& m : doc->at(kind).members) out.push_back(m.key);
    std::sort(out.begin(), out.end());
    return out;
  };
  std::map<std::string, std::uint64_t> counters;
  for (const rct::json::Member& m : doc->at("counters").members)
    counters[m.key] = m.value.as_u64().value();
  const std::map<std::string, std::uint64_t> expected_counters = {
      {"analysis.context.builds", 2}, {"core.report.exact_path", 2},
      {"engine.cache.hits", 0},       {"engine.cache.inserts", 2},
      {"engine.cache.misses", 2},     {"engine.nets.cancelled", 0},
      {"engine.nets.completed", 2},   {"engine.nets.degraded", 0},
      {"engine.nets.failed", 0},      {"engine.nets.retried", 0},
      {"engine.nets.timed_out", 0},   {"engine.nets.total", 2},
      {"engine.tasks.run", 2},        {"parse.bytes", 344},
      {"parse.sections.completed", 2}, {"parse.sections.total", 2},
      {"pool.tasks.run", 4}};
  EXPECT_EQ(counters, expected_counters);
  EXPECT_EQ(names("gauges"), std::vector<std::string>{});
  std::vector<std::string> histograms = {
      "analysis.context.build_seconds", "core.report.bound_gap",
      "core.report.build_seconds",      "core.report.eigensolve_seconds",
      "core.report.exact_vs_elmore_error", "engine.net.analyze_seconds",
      "engine.task.queue_wait_seconds", "parse.nets.seconds"};
#if RCT_OBS_ENABLED
  // Observed only from timing-gated code, so absent under -DRCT_OBS=OFF.
  for (const char* timed :
       {"engine.batch.analyze_seconds", "engine.batch.merge_seconds", "parse.index.seconds"})
    histograms.push_back(timed);
#endif
  std::sort(histograms.begin(), histograms.end());
  // pool.worker.idle_seconds shows only if the worker went idle before the
  // pool shut down, which is up to the scheduler.
  std::vector<std::string> seen = names("histograms");
  std::erase(seen, "pool.worker.idle_seconds");
  EXPECT_EQ(seen, histograms);
  std::remove(metrics.c_str());
}

TEST(Cli, BatchProgressHeartbeatGoesToStderrOnly) {
  const auto r = run("batch " + data("two_nets.spef") + " --progress");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("batch: 2/2 nets"), std::string::npos);
  const auto clean = run_stdout("batch " + data("two_nets.spef") + " --progress");
  EXPECT_EQ(clean.output.find("batch: 2/2 nets"), std::string::npos);
}

TEST(Cli, SpefMetricsOut) {
  const std::string metrics = ::testing::TempDir() + "/rct_cli_spef_metrics.json";
  const auto with = run_stdout("spef " + data("two_nets.spef") + " --metrics-out " + metrics);
  EXPECT_EQ(with.exit_code, 0);
  const auto without = run_stdout("spef " + data("two_nets.spef"));
  EXPECT_EQ(with.output, without.output);  // export never perturbs stdout
  const std::string body = slurp(metrics);
  EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(body.find("\"core.report.build_seconds\""), std::string::npos);
  std::remove(metrics.c_str());
}

TEST(Cli, BatchMetricsPromFormatIsValidExposition) {
  const std::string metrics = ::testing::TempDir() + "/rct_cli_metrics.prom";
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --metrics-out " + metrics +
                            " --metrics-format prom");
  EXPECT_EQ(r.exit_code, 0);
  const std::string body = slurp(metrics);
  EXPECT_NE(body.find("# HELP rct_engine_nets_completed "), std::string::npos);
  EXPECT_NE(body.find("# TYPE rct_engine_nets_completed counter"), std::string::npos);
  EXPECT_NE(body.find("rct_engine_nets_completed 2\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE rct_engine_net_analyze_seconds histogram"), std::string::npos);
  EXPECT_NE(body.find("rct_engine_net_analyze_seconds_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(body.find("rct_engine_net_analyze_seconds_sum "), std::string::npos);
  EXPECT_NE(body.find("rct_engine_net_analyze_seconds_count "), std::string::npos);
  // Raw dotted names never leak into the exposition's metric names.
  EXPECT_EQ(body.find("\nengine."), std::string::npos);
  std::remove(metrics.c_str());
}

TEST(Cli, BatchMetricsFormatRejectsUnknownValue) {
  const auto r = run("batch " + data("two_nets.spef") + " --metrics-format xml");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--metrics-format"), std::string::npos);
}

TEST(Cli, BatchQuantilesInSnapshotAndStderrSummary) {
  const std::string metrics = ::testing::TempDir() + "/rct_cli_quantile_metrics.json";
  const auto r = run("batch " + data("two_nets.spef") + " --metrics-out " + metrics);
  EXPECT_EQ(r.exit_code, 0);
#if RCT_OBS_ENABLED
  // stderr one-line summary carries the latency quantiles (the histogram
  // is only populated when the timing instrumentation is compiled in)...
  EXPECT_NE(r.output.find("analyze latency p50 "), std::string::npos);
  EXPECT_NE(r.output.find("/ p95 "), std::string::npos);
  EXPECT_NE(r.output.find("/ p99 "), std::string::npos);
#endif
  // ...and so does the JSON snapshot's histogram entry.
  const std::string body = slurp(metrics);
  const std::size_t hist = body.find("\"engine.net.analyze_seconds\"");
  ASSERT_NE(hist, std::string::npos);
  for (const char* key : {"\"p50\":", "\"p95\":", "\"p99\":"})
    EXPECT_NE(body.find(key, hist), std::string::npos) << key;
  std::remove(metrics.c_str());
}

TEST(Cli, BatchLogOutEmitsStructuredJsonLines) {
  const std::string log = ::testing::TempDir() + "/rct_cli_log.jsonl";
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --log-out " + log);
  EXPECT_EQ(r.exit_code, 0);
  const std::string body = slurp(log);
  EXPECT_NE(body.find("\"event\":\"engine.batch.start\""), std::string::npos);
  EXPECT_NE(body.find("\"event\":\"engine.batch.done\""), std::string::npos);
  EXPECT_NE(body.find("\"nets\":2"), std::string::npos);
  EXPECT_NE(body.find("\"ts_us\":"), std::string::npos);
  EXPECT_NE(body.find("\"level\":\"info\""), std::string::npos);
  std::remove(log.c_str());
}

TEST(Cli, BatchDashSinksGoToStderrNotStdout) {
  // '-' means stderr for every observability output path.
  const auto all = run("batch " + data("two_nets.spef") +
                       " --log-out - --metrics-out - --metrics-format prom");
  EXPECT_EQ(all.exit_code, 0);
  EXPECT_NE(all.output.find("\"event\":\"engine.batch.start\""), std::string::npos);
  EXPECT_NE(all.output.find("# TYPE rct_engine_nets_completed counter"), std::string::npos);
  const auto out_only = run_stdout("batch " + data("two_nets.spef") +
                                   " --log-out - --metrics-out - --metrics-format prom");
  EXPECT_EQ(out_only.output.find("\"event\":"), std::string::npos);
  EXPECT_EQ(out_only.output.find("# TYPE"), std::string::npos);
}

TEST(Cli, BatchTopSlowTableOnStderr) {
  const auto r = run("batch " + data("two_nets.spef") + " --top-slow 5");
  EXPECT_EQ(r.exit_code, 0);
  // Only 2 nets exist; the table reports what it actually has.
  EXPECT_NE(r.output.find("top 2 slowest net(s):"), std::string::npos);
  const std::size_t table = r.output.find("top 2 slowest");
  EXPECT_NE(r.output.find("net_a", table), std::string::npos);
  EXPECT_NE(r.output.find("net_b", table), std::string::npos);
  const auto clean = run_stdout("batch " + data("two_nets.spef") + " --top-slow 5");
  EXPECT_EQ(clean.output.find("slowest"), std::string::npos);  // stderr only
}

TEST(Cli, BatchFlightRecorderOutIsJsonWithPerNetEvents) {
  const std::string flight = ::testing::TempDir() + "/rct_cli_flight.json";
  const auto r = run_stdout("batch " + data("two_nets.spef") + " --flight-recorder-out " +
                            flight);
  EXPECT_EQ(r.exit_code, 0);
  const std::string body = slurp(flight);
  EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(body.find("\"net\":\"net_a\""), std::string::npos);
  EXPECT_NE(body.find("\"net\":\"net_b\""), std::string::npos);
  EXPECT_NE(body.find("\"phase\":\"analyze\""), std::string::npos);
  EXPECT_NE(body.find("\"outcome\":\"ok\""), std::string::npos);
  std::remove(flight.c_str());
}

TEST(Cli, BatchMissingFileFailsCleanly) {
  const auto r = run("batch /nonexistent.spef");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, DelayCurveCsv) {
  const auto r = run("delay-curve " + data("bus_bit.sp") + " rx2");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("rise_time_s,delay_s"), std::string::npos);
  // 30 data rows + header.
  std::size_t lines = 0;
  for (char c : r.output)
    if (c == '\n') ++lines;
  EXPECT_GE(lines, 30u);
}

TEST(Cli, BodeCsv) {
  const auto r = run("bode " + data("bus_bit.sp") + " rx1");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("-3dB bandwidth"), std::string::npos);
  EXPECT_NE(r.output.find("freq_hz,mag_db,phase_deg"), std::string::npos);
}

TEST(Cli, ConvertRoundTrip) {
  const std::string out_path = ::testing::TempDir() + "/rct_cli_convert.spef";
  const auto r = run("convert " + data("clock_spine.sp") + " " + out_path);
  EXPECT_EQ(r.exit_code, 0);
  const auto back = run("spef " + out_path);
  EXPECT_EQ(back.exit_code, 0);
  std::remove(out_path.c_str());
}

TEST(Cli, TrailingArgumentsAreRejected) {
  // One deck for report/dot, two arguments for convert/delay-curve/bode:
  // anything more is a usage error, as an unknown batch flag is, never
  // silently ignored.
  const std::string deck = data("bus_bit.sp");
  const std::string unused = ::testing::TempDir() + "/rct_cli_never_written.spef";
  for (const std::string& args :
       {"report " + deck + " --json", "dot " + deck + " extra", "convert " + deck + " " + unused +
        " extra", "delay-curve " + deck + " rx2 extra", "bode " + deck + " rx1 extra"}) {
    const auto r = run_stdout(args);
    EXPECT_EQ(r.exit_code, 2) << args;
    EXPECT_EQ(r.output, "") << args;
    EXPECT_NE(run(args).output.find("usage:"), std::string::npos) << args;
  }
  EXPECT_FALSE(std::ifstream(unused).good());
  // The exact forms still run.
  const auto report = run_stdout("report " + deck);
  EXPECT_EQ(report.exit_code, 0);
  EXPECT_NE(report.output.find("rx2"), std::string::npos);
  const auto dot = run_stdout("dot " + deck);
  EXPECT_EQ(dot.exit_code, 0);
  EXPECT_NE(dot.output.find("digraph"), std::string::npos);
}

TEST(Cli, MissingFileFailsCleanly) {
  const auto r = run("report /nonexistent/net.sp");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, BadNodeFailsCleanly) {
  const auto r = run("delay-curve " + data("bus_bit.sp") + " no_such_node");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

// ------------------------------------------------- robustness subcommands

std::string bad_data(const char* file) { return data(("malformed/" + std::string(file)).c_str()); }

TEST(Cli, ValidateCleanSpefExitsZero) {
  const auto r = run("validate " + data("two_nets.spef"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("0 diagnostic(s)"), std::string::npos);
}

TEST(Cli, ValidateMalformedSpefListsTypedDiagnostics) {
  const auto r = run("validate " + bad_data("mixed_good_bad.spef"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[numeric/non-physical-value]"), std::string::npos);
  EXPECT_NE(r.output.find("1 net section(s) rejected"), std::string::npos);
}

TEST(Cli, BatchStrictRejectsMalformedWithLineNumber) {
  const auto r = run("batch " + bad_data("mixed_good_bad.spef"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("line 24"), std::string::npos);
}

TEST(Cli, BatchLenientKeepsGoodNetsByteIdenticalAcrossJobs) {
  const auto r1 = run_stdout("batch " + bad_data("mixed_good_bad.spef") + " --lenient --jobs 1");
  EXPECT_EQ(r1.exit_code, 0);  // the bad net was skipped at parse, not failed
  EXPECT_NE(r1.output.find("*D_NET good"), std::string::npos);
  EXPECT_NE(r1.output.find("*D_NET good2"), std::string::npos);
  EXPECT_EQ(r1.output.find("broken"), std::string::npos);
  for (const char* jobs : {"2", "8"}) {
    const auto rn =
        run_stdout("batch " + bad_data("mixed_good_bad.spef") + " --lenient --jobs " + jobs);
    EXPECT_EQ(rn.exit_code, 0);
    EXPECT_EQ(r1.output, rn.output) << "--jobs " << jobs;
  }
}

TEST(Cli, MalformedCorpusNeverCrashesEitherMode) {
  const char* corpus[] = {
      "truncated_dnet.spef", "negative_r.spef",     "nan_cap.spef",
      "negative_cap.spef",   "duplicate_node.spef", "dangling_load.spef",
      "empty.spef",          "no_driver.spef",      "cycle.spef",
      "bad_unit.spef",       "mixed_good_bad.spef",
  };
  for (const char* name : corpus) {
    SCOPED_TRACE(name);
    const auto strict = run("batch " + bad_data(name));
    EXPECT_EQ(strict.exit_code, 1);  // clean failure, never a signal
    EXPECT_NE(strict.output.find("error:"), std::string::npos);
    const auto lenient = run("validate " + bad_data(name));
    EXPECT_EQ(lenient.exit_code, 1);
    EXPECT_NE(lenient.output.find("diagnostic(s)"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Server daemon and client
// ---------------------------------------------------------------------------

TEST(Cli, ServeRejectsPositionalArguments) {
  const auto r = run("serve stray.spef");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, ClientWithoutCommandPrintsUsage) {
  const auto r = run("client");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, ServeListenFailureIsPlainError) {
  // A bad listener is reported as the server's own message, the same
  // "error: <why>" form `rct client` uses — not as a parse error.
  const auto r = run("serve --listen 70000");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  EXPECT_NE(r.output.find("70000"), std::string::npos);
  EXPECT_EQ(r.output.find("[parse/"), std::string::npos);
}

TEST(Cli, ClientConnectFailureIsCleanError) {
  const auto r = run("client /nonexistent/rct.sock ping");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, ServeClientRoundTrip) {
  const std::string sock = ::testing::TempDir() + "/rct_cli_serve.sock";
  std::remove(sock.c_str());
  const std::string launch =
      std::string(RCT_CLI_PATH) + " serve --listen " + sock + " >/dev/null 2>&1 &";
  ASSERT_EQ(std::system(launch.c_str()), 0);
  // The daemon needs a beat to bind; poll with ping until it answers.
  RunResult ping{1, ""};
  for (int i = 0; i < 250 && ping.exit_code != 0; ++i) {
    usleep(20 * 1000);
    ping = run("client " + sock + " ping");
  }
  ASSERT_EQ(ping.exit_code, 0) << ping.output;
  EXPECT_NE(ping.output.find("\"ok\":true"), std::string::npos);

  const auto load = run("client " + sock + " load " + data("two_nets.spef"));
  EXPECT_EQ(load.exit_code, 0) << load.output;
  EXPECT_NE(load.output.find("\"nets\":2"), std::string::npos);

  const auto report = run("client " + sock + " report net_a");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  EXPECT_NE(report.output.find("\"source\":\"computed\""), std::string::npos);
  EXPECT_NE(report.output.find("\"elmore\":"), std::string::npos);

  // Second ask is served from the warm cache.
  const auto again = run("client " + sock + " report net_a");
  EXPECT_EQ(again.exit_code, 0) << again.output;
  EXPECT_NE(again.output.find("\"source\":\"memory\""), std::string::npos);

  // Application-level failures surface as ok:false and a nonzero client exit.
  const auto bad = run("client " + sock + " report no_such_net");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("\"ok\":false"), std::string::npos);

  const auto down = run("client " + sock + " shutdown");
  EXPECT_EQ(down.exit_code, 0) << down.output;
  EXPECT_NE(down.output.find("\"shutdown\":true"), std::string::npos);
  // The daemon unlinks its socket on the way out.
  for (int i = 0; i < 250 && access(sock.c_str(), F_OK) == 0; ++i) usleep(20 * 1000);
  EXPECT_NE(access(sock.c_str(), F_OK), 0);
}

/// Launches `rct serve` in the background with stdout captured to a file,
/// then polls ping until the daemon answers.  Returns false when it never
/// comes up (the test should fail with the captured output).
bool launch_daemon(const std::string& sock, const std::string& extra_flags,
                   const std::string& stdout_file) {
  std::remove(sock.c_str());
  const std::string launch = std::string(RCT_CLI_PATH) + " serve --listen " + sock + " " +
                             extra_flags + " > " + stdout_file + " 2>&1 &";
  if (std::system(launch.c_str()) != 0) return false;
  for (int i = 0; i < 250; ++i) {
    usleep(20 * 1000);
    if (run("client " + sock + " ping").exit_code == 0) return true;
  }
  return false;
}

void shutdown_daemon(const std::string& sock) {
  (void)run("client " + sock + " shutdown");
  for (int i = 0; i < 250 && access(sock.c_str(), F_OK) == 0; ++i) usleep(20 * 1000);
}

TEST(Cli, ParseJobsIsServeOnly) {
  // batch, spef and validate parse on their --jobs pool; only serve has a
  // separate parser pool to size.
  for (const char* cmd : {"batch", "spef", "validate"}) {
    const auto r = run(std::string(cmd) + " " + data("two_nets.spef") + " --parse-jobs 2");
    EXPECT_EQ(r.exit_code, 2) << cmd;
    EXPECT_NE(r.output.find("unknown flag '--parse-jobs'"), std::string::npos)
        << cmd << ": " << r.output;
  }
  const std::string sock = ::testing::TempDir() + "/rct_cli_parse_jobs.sock";
  const std::string log = ::testing::TempDir() + "/rct_cli_parse_jobs.txt";
  ASSERT_TRUE(launch_daemon(sock, "--parse-jobs 2 --preload " + data("two_nets.spef"), log))
      << slurp(log);
  const auto report = run("client " + sock + " report net_a");
  EXPECT_EQ(report.exit_code, 0) << report.output;
  shutdown_daemon(sock);
}

/// One HTTP/1.0 GET against 127.0.0.1:port via a raw socket (no curl in the
/// test environment); returns status line through body, or "" on failure.
std::string http_get(int port, const std::string& path) {
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
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return "";
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

/// Extracts the port from the daemon's "telemetry on http://127.0.0.1:PORT"
/// announce line; 0 when the line never appeared.
int telemetry_port(const std::string& stdout_file) {
  const std::string out = slurp(stdout_file);
  const std::string needle = "telemetry on http://127.0.0.1:";
  const std::size_t at = out.find(needle);
  if (at == std::string::npos) return 0;
  return std::atoi(out.c_str() + at + needle.size());
}

TEST(Cli, ServeHttpEndpoints) {
  const std::string sock = ::testing::TempDir() + "/rct_cli_http.sock";
  const std::string log = ::testing::TempDir() + "/rct_cli_http_serve.txt";
  ASSERT_TRUE(launch_daemon(sock, "--http 0", log)) << slurp(log);
  const int port = telemetry_port(log);
  ASSERT_GT(port, 0) << slurp(log);

  // Feed the daemon real work so the scrape carries live levels.
  ASSERT_EQ(run("client " + sock + " load " + data("two_nets.spef")).exit_code, 0);
  ASSERT_EQ(run("client " + sock + " report net_a").exit_code, 0);

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("rct_server_designs 1"), std::string::npos);
  EXPECT_NE(metrics.find("rct_server_request_report_seconds_count"), std::string::npos);
  EXPECT_NE(metrics.find("rct_core_report_bound_gap_count"), std::string::npos);

  const std::string healthz = http_get(port, "/healthz");
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz.find("\"version\":\""), std::string::npos);

  const std::string varz = http_get(port, "/varz");
  EXPECT_NE(varz.find("\"schema_version\":1"), std::string::npos);

  EXPECT_NE(http_get(port, "/flight").find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(http_get(port, "/missing").find("HTTP/1.0 404"), std::string::npos);

  shutdown_daemon(sock);
  std::remove(log.c_str());
}

TEST(Cli, ClientTraceStitch) {
  const std::string sock = ::testing::TempDir() + "/rct_cli_stitch.sock";
  const std::string log = ::testing::TempDir() + "/rct_cli_stitch_serve.txt";
  const std::string trace = ::testing::TempDir() + "/rct_cli_stitch_trace.json";
  std::remove(trace.c_str());
  ASSERT_TRUE(launch_daemon(sock, "", log)) << slurp(log);
  ASSERT_EQ(run("client " + sock + " load " + data("two_nets.spef")).exit_code, 0);

  const auto traced = run("client " + sock + " --trace-out " + trace + " report net_a");
  EXPECT_EQ(traced.exit_code, 0) << traced.output;
  EXPECT_NE(traced.output.find("\"source\":"), std::string::npos);  // response still printed

  // The stitched file holds both halves of one request: the client process
  // (pid 1) and the server process (pid 2), every span tagged with the same
  // 16-hex trace id.
  const std::string body = slurp(trace);
  EXPECT_EQ(body.rfind("{\"displayTimeUnit\":", 0), 0u);
  EXPECT_NE(body.find("\"name\":\"rct client\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"rct serve\""), std::string::npos);
  for (const char* span : {"\"name\":\"client.request\"", "\"name\":\"client.roundtrip\"",
                           "\"name\":\"server.request\"", "\"name\":\"server.queue_wait\"",
                           "\"name\":\"server.report.build\"", "\"name\":\"server.render\""})
    EXPECT_NE(body.find(span), std::string::npos) << span;
  // Every span carries the same 16-hex args.trace id, and a client (pid 1)
  // and a server (pid 2) span both reference it.
  const auto pids_by_trace_id = [](const std::string& text) {
    std::map<std::string, std::set<double>> pids;
    const rct::json::Value doc = rct::json::parse(text).value();
    for (const rct::json::Value& e : doc.at("traceEvents").items)
      if (e.at("ph").text == "X")
        pids[e.at("args").at("trace").text].insert(e.at("pid").number());
    return pids;
  };
  const auto ids = pids_by_trace_id(body);
  ASSERT_EQ(ids.size(), 1u) << body;
  const auto& [id, pids] = *ids.begin();
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos) << id;
  EXPECT_EQ(pids, (std::set<double>{1.0, 2.0}));

  // Batch mode mints a distinct trace id per request but stays one file.
  const std::string batch = ::testing::TempDir() + "/rct_cli_stitch_batch.txt";
  {
    std::ofstream out(batch);
    out << "report net_a\nreport net_b\n";
  }
  const auto multi =
      run("client " + sock + " --trace-out " + trace + " --batch " + batch);
  EXPECT_EQ(multi.exit_code, 0) << multi.output;
  EXPECT_EQ(pids_by_trace_id(slurp(trace)).size(), 2u);

  shutdown_daemon(sock);
  std::remove(trace.c_str());
  std::remove(batch.c_str());
  std::remove(log.c_str());
}

TEST(Cli, ServeMetricsIntervalFlushesWhileRunning) {
  // The periodic flusher must write snapshots while the daemon is alive,
  // not only at exit.
  const std::string sock = ::testing::TempDir() + "/rct_cli_interval.sock";
  const std::string log = ::testing::TempDir() + "/rct_cli_interval_serve.txt";
  const std::string metrics = ::testing::TempDir() + "/rct_cli_interval_metrics.json";
  std::remove(metrics.c_str());
  ASSERT_TRUE(launch_daemon(
      sock, "--metrics-out " + metrics + " --metrics-interval-ms 50", log))
      << slurp(log);
  // Poll for the snapshot with the daemon still up (no shutdown yet).
  bool flushed = false;
  for (int i = 0; i < 100 && !flushed; ++i) {
    usleep(20 * 1000);
    std::ifstream in(metrics);
    flushed = in.good() && in.peek() != std::ifstream::traits_type::eof();
  }
  EXPECT_TRUE(flushed) << "no periodic snapshot while serving";
  const std::string body = slurp(metrics);
  EXPECT_NE(body.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(body.find("server.requests"), std::string::npos);
  shutdown_daemon(sock);
  std::remove(metrics.c_str());
  std::remove(log.c_str());
}

TEST(Cli, ServeSigtermDrainsGracefullyAndExitsZero) {
  // SIGTERM is the orchestrator's stop signal: the daemon must drain and
  // exit 0 with its final accounting flushed — not dump-and-die.
  const std::string sock = ::testing::TempDir() + "/rct_cli_sigterm.sock";
  const std::string log = ::testing::TempDir() + "/rct_cli_sigterm_serve.txt";
  const std::string metrics = ::testing::TempDir() + "/rct_cli_sigterm_metrics.json";
  const std::string pid_file = ::testing::TempDir() + "/rct_cli_sigterm.pid";
  const std::string rc_file = ::testing::TempDir() + "/rct_cli_sigterm.rc";
  std::remove(sock.c_str());
  std::remove(pid_file.c_str());
  std::remove(rc_file.c_str());
  std::remove(metrics.c_str());
  // Wrapper shell records the daemon's pid and, after it exits, its code.
  const std::string launch = "( " + std::string(RCT_CLI_PATH) + " serve --listen " + sock +
                             " --metrics-out " + metrics + " > " + log + " 2>&1 & echo $! > " +
                             pid_file + "; wait $!; echo $? > " + rc_file + " ) &";
  ASSERT_EQ(std::system(launch.c_str()), 0);
  RunResult ping{1, ""};
  for (int i = 0; i < 250 && ping.exit_code != 0; ++i) {
    usleep(20 * 1000);
    ping = run("client " + sock + " ping");
  }
  ASSERT_EQ(ping.exit_code, 0) << slurp(log);
  ASSERT_EQ(run("client " + sock + " load " + data("two_nets.spef")).exit_code, 0);
  ASSERT_EQ(run("client " + sock + " report net_a").exit_code, 0);

  const int pid = std::atoi(slurp_if_present(pid_file).c_str());
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  // The wrapper writes the exit code only after the daemon is fully down.
  std::string rc;
  for (int i = 0; i < 250 && rc.empty(); ++i) {
    usleep(20 * 1000);
    rc = slurp_if_present(rc_file);
  }
  ASSERT_FALSE(rc.empty()) << "daemon did not exit after SIGTERM";
  EXPECT_EQ(std::atoi(rc.c_str()), 0) << slurp(log);
  // Drained, not killed: the final accounting line made it out, the socket
  // was unlinked, and the exit-path metrics snapshot was flushed.
  EXPECT_NE(slurp(log).find("served "), std::string::npos) << slurp(log);
  EXPECT_NE(access(sock.c_str(), F_OK), 0);
  const std::string body = slurp(metrics);
  EXPECT_NE(body.find("server.requests"), std::string::npos);
  std::remove(metrics.c_str());
  std::remove(pid_file.c_str());
  std::remove(rc_file.c_str());
  std::remove(log.c_str());
}

TEST(Cli, ClientRetriesFlagSurvivesLateServerStart) {
  // `--retries N` makes the one-shot client resilient to a server that is
  // still coming up: connect fails, backoff, reconnect, succeed.
  const std::string sock = ::testing::TempDir() + "/rct_cli_retries.sock";
  const std::string log = ::testing::TempDir() + "/rct_cli_retries_serve.txt";
  std::remove(sock.c_str());
  // Daemon starts ~200ms from now; the client is launched first.
  const std::string late = "( sleep 0.2; exec " + std::string(RCT_CLI_PATH) +
                           " serve --listen " + sock + " > " + log + " 2>&1 ) &";
  ASSERT_EQ(std::system(late.c_str()), 0);
  const auto ping = run("client " + sock + " ping --retries 10 --retry-budget 8000");
  EXPECT_EQ(ping.exit_code, 0) << ping.output;
  EXPECT_NE(ping.output.find("\"ok\":true"), std::string::npos);
  // Without retries the same race loses cleanly (daemon already up now, so
  // exercise the flag parser's rejection path instead of re-racing).
  const auto bad = run("client " + sock + " ping --retries");
  EXPECT_NE(bad.exit_code, 0);
  shutdown_daemon(sock);
  std::remove(log.c_str());
}

// ---------------------------------------------------------------------------
// Batch with the second-level store and the cache cap
// ---------------------------------------------------------------------------

TEST(Cli, BatchStoreStdoutByteIdenticalColdAndWarm) {
  const std::string dir = ::testing::TempDir() + "/rct_cli_batch_store";
  (void)std::system(("rm -rf " + dir).c_str());
  const auto plain = run_stdout("batch " + data("two_nets.spef") + " --json");
  ASSERT_EQ(plain.exit_code, 0);
  const auto cold = run_stdout("batch " + data("two_nets.spef") + " --json --store " + dir);
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(cold.output, plain.output);
  const auto warm = run_stdout("batch " + data("two_nets.spef") + " --json --store " + dir);
  EXPECT_EQ(warm.exit_code, 0);
  // ...and the warm run, served from it, still prints the same bytes.
  EXPECT_EQ(warm.output, plain.output);
  (void)std::system(("rm -rf " + dir).c_str());
}

TEST(Cli, BatchCacheMaxEntriesStdoutByteIdentical) {
  const auto plain = run_stdout("batch " + data("two_nets.spef") + " --json");
  ASSERT_EQ(plain.exit_code, 0);
  const auto capped =
      run_stdout("batch " + data("two_nets.spef") + " --json --cache-max-entries 1");
  EXPECT_EQ(capped.exit_code, 0);
  EXPECT_EQ(capped.output, plain.output);
}

TEST(Cli, MetricsIntervalErrorPathStillJoinsAndWritesSnapshot) {
  // A parse failure with the periodic flusher armed must exit 1 promptly
  // (the flusher thread joins on the error path, no hang, no crash) and
  // obs_end still writes the final snapshot.
  const std::string metrics = ::testing::TempDir() + "/rct_cli_interval_err.json";
  std::remove(metrics.c_str());
  const auto r = run("batch /nonexistent/missing.spef --metrics-out " + metrics +
                     " --metrics-interval-ms 10");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
  const std::string snapshot = slurp(metrics);
  EXPECT_FALSE(snapshot.empty());
  std::remove(metrics.c_str());
}

#if RCT_FAULT_ENABLED

/// Same popen harness with an environment prefix (sh syntax), for driving
/// the binary's RCT_FAULT injection points end to end.
RunResult run_with_env(const std::string& env, const std::string& args) {
  const std::string cmd =
      env + " " + std::string(RCT_CLI_PATH) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, std::move(out)};
}

TEST(Cli, FaultEnvSlowNetYieldsTimeoutRecordAndExitOne) {
  const auto r = run_with_env("RCT_FAULT='engine.net.analyze=sleep:80'",
                              "batch " + data("two_nets.spef") +
                                  " --net-timeout-ms 10 --jobs 1 --json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("\"code\":\"timeout\""), std::string::npos);
  EXPECT_NE(r.output.find("\"timed_out\":true"), std::string::npos);
}

TEST(Cli, FaultEnvNanExactDegradesButSucceeds) {
  const auto r = run_with_env("RCT_FAULT='core.report.exact_delay=nan'",
                              "batch " + data("two_nets.spef") + " --json");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(r.output.find("\"error\":null"), std::string::npos);
}

TEST(Cli, FaultEnvEigensolveThrowRetriesOnMomentsPath) {
  const auto r = run_with_env("RCT_FAULT='core.report.eigensolve=throw'",
                              "batch " + data("two_nets.spef") + " --json");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"retried\":true"), std::string::npos);
  EXPECT_EQ(r.output.find("\"exact_delay_s\":1"), std::string::npos);
}

/// The failure records of a batch's text output, net names stripped and
/// sorted: which net a spent budget cancels is scheduling-dependent even
/// at --jobs 1, how many it cancels is not.
std::multiset<std::string> failure_records(const std::string& output) {
  std::multiset<std::string> records;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (line.find("record:") != std::string::npos)
      records.insert(line.substr(0, line.find(" net=")));
  }
  return records;
}

TEST(Cli, FaultEnvFailFastIsMaxFailuresOne) {
  // --fail-fast is --max-failures 1, and it wins over --max-failures N on
  // either side of it.
  const std::string env = "RCT_FAULT='engine.net.analyze=throw'";
  const std::string base = "batch " + data("two_nets.spef") + " --jobs 1";
  const auto budget_one = run_with_env(env, base + " --max-failures 1");
  EXPECT_EQ(budget_one.exit_code, 1);
  const auto want = failure_records(budget_one.output);
  EXPECT_EQ(want.count("  record: code=cancelled category=cancelled phase=cancelled"), 1u);
  EXPECT_EQ(want.size(), 2u);
  for (const char* flags :
       {" --fail-fast", " --fail-fast --max-failures 5", " --max-failures 5 --fail-fast"}) {
    const auto r = run_with_env(env, base + flags);
    EXPECT_EQ(r.exit_code, budget_one.exit_code) << flags;
    EXPECT_EQ(r.output.size(), budget_one.output.size()) << flags;
    EXPECT_EQ(failure_records(r.output), want) << flags;
  }
  // A larger budget lets the second net run (and fail) instead.
  EXPECT_NE(failure_records(run_with_env(env, base + " --max-failures 5").output), want);
}

/// Env-prefixed run that keeps stderr (for flight-recorder dump checks).
RunResult run_with_env_all(const std::string& env, const std::string& args) {
  const std::string cmd =
      env + " " + std::string(RCT_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) out += buf.data();
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, std::move(out)};
}

TEST(Cli, FaultEnvThrowDumpsFlightRecorderNamingNet) {
  // Killing a batch with injected per-net throws must leave a postmortem on
  // stderr: the flight-recorder tape naming the offending nets with their
  // phase timings.
  const auto r = run_with_env_all("RCT_FAULT='engine.net.analyze=throw'",
                                  "batch " + data("two_nets.spef") + " --jobs 1");
  EXPECT_EQ(r.exit_code, 1);
  const std::size_t dump = r.output.find("flight recorder:");
  ASSERT_NE(dump, std::string::npos);
  EXPECT_NE(r.output.find("net_a", dump), std::string::npos);
  EXPECT_NE(r.output.find("net_b", dump), std::string::npos);
  EXPECT_NE(r.output.find("analyze", dump), std::string::npos);
  EXPECT_NE(r.output.find("retry", dump), std::string::npos);  // the moments retry also failed
  EXPECT_NE(r.output.find("failed", dump), std::string::npos);
  EXPECT_NE(r.output.find("dur", dump), std::string::npos);  // phase timings
}

TEST(Cli, FaultEnvTimeoutDumpsFlightRecorderWithTimeoutOutcome) {
  const auto r = run_with_env_all("RCT_FAULT='engine.net.analyze=sleep:80'",
                                  "batch " + data("two_nets.spef") +
                                      " --net-timeout-ms 10 --jobs 1");
  EXPECT_EQ(r.exit_code, 1);
  const std::size_t dump = r.output.find("flight recorder:");
  ASSERT_NE(dump, std::string::npos);
  EXPECT_NE(r.output.find("timeout", dump), std::string::npos);
}

TEST(Cli, FaultEnvLogRecordsFaultFiringAndNetFailure) {
  const std::string log = ::testing::TempDir() + "/rct_cli_fault_log.jsonl";
  const auto r = run_with_env("RCT_FAULT='engine.net.analyze=throw'",
                              "batch " + data("two_nets.spef") + " --log-out " + log);
  EXPECT_EQ(r.exit_code, 1);
  const std::string body = slurp(log);
  // The injected fault is distinguishable from an organic failure...
  EXPECT_NE(body.find("\"event\":\"robust.fault.fired\""), std::string::npos);
  EXPECT_NE(body.find("\"site\":\"engine.net.analyze\""), std::string::npos);
  // ...and the per-net failure record follows with code and phase.
  EXPECT_NE(body.find("\"event\":\"engine.net.failed\""), std::string::npos);
  EXPECT_NE(body.find("\"code\":\"task-failure\""), std::string::npos);
  std::remove(log.c_str());
}

TEST(Cli, FaultEnvMetricsOutCarriesRobustnessCounters) {
  const std::string metrics = ::testing::TempDir() + "/rct_cli_robust_metrics.json";
  const auto r = run_with_env("RCT_FAULT='core.report.exact_delay=nan'",
                              "batch " + data("two_nets.spef") + " --metrics-out " + metrics);
  EXPECT_EQ(r.exit_code, 0);
  const std::string snapshot = slurp(metrics);
  EXPECT_NE(snapshot.find("engine.nets.degraded"), std::string::npos);
  EXPECT_NE(snapshot.find("core.report.degraded_rows"), std::string::npos);
  std::remove(metrics.c_str());
}

#endif  // RCT_FAULT_ENABLED

}  // namespace
