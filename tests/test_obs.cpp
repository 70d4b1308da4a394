// src/obs tests: histogram bucket semantics, counter exactness under
// concurrency (run under TSan by scripts/check.sh), Chrome-trace JSON
// well-formedness (parsed back with the strict json::parse reader) and
// metrics snapshot schema stability.
//
// All tests share the process-global registry/tracer, so each one works on
// uniquely-named instruments or resets/disarms what it touched.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/flight.hpp"
#include "obs/instruments.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/error.hpp"

namespace {

using namespace rct;

using Kind = json::Value::Kind;

/// Parses one JSON text with the library reader; throws on invalid input.
json::Value parse_json(const std::string& text) {
  std::string error;
  std::optional<json::Value> v = json::parse(text, &error);
  if (!v) throw std::runtime_error(error);
  return std::move(*v);
}

// --- histograms -------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreUpperInclusive) {
  obs::Histogram h({1.0, 2.0, 5.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 5.0, 6.0}) h.observe(v);
  // le semantics: a sample lands in the first bucket whose bound >= value.
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(h.bucket_count(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(h.bucket_count(2), 1u);  // 5.0
  EXPECT_EQ(h.bucket_count(3), 1u);  // 6.0 -> +inf overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 6.0);
}

TEST(ObsHistogram, EmptyHistogramHasZeroStats) {
  obs::Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(ObsHistogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const auto& b = obs::Histogram::default_latency_bounds();
  ASSERT_GE(b.size(), 20u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(ObsHistogram, ResetZeroes) {
  obs::Histogram h({1.0});
  h.observe(0.5);
  h.observe(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

// --- counters / gauges under concurrency ------------------------------------

TEST(ObsConcurrency, CounterIsExactUnder8Threads) {
  obs::Counter& c = obs::registry().counter("test.obs.concurrent_counter");
  c.reset();
  constexpr std::size_t kThreads = 8, kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::size_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsConcurrency, HistogramCountAndSumAreExactUnder8Threads) {
  obs::Histogram& h = obs::registry().histogram("test.obs.concurrent_hist_seconds");
  h.reset();
  constexpr std::size_t kThreads = 8, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (std::size_t i = 0; i < kPerThread; ++i) h.observe(1e-5);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_NEAR(h.sum(), 1e-5 * static_cast<double>(kThreads * kPerThread), 1e-9);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsConcurrency, GaugeAddIsExactUnder8Threads) {
  obs::Gauge& g = obs::registry().gauge("test.obs.concurrent_gauge");
  g.reset();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 8; ++t)
    threads.emplace_back([&g] {
      for (std::size_t i = 0; i < 5000; ++i) g.add(1.0);
    });
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 40000.0);
}

TEST(ObsGauge, SetAndMaxOf) {
  obs::Gauge g;
  g.set(3.0);
  g.max_of(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.max_of(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

// --- registry ---------------------------------------------------------------

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  obs::Counter& a = obs::registry().counter("test.obs.same_name");
  obs::Counter& b = obs::registry().counter("test.obs.same_name");
  EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, CounterValueOfAbsentNameIsZero) {
  EXPECT_EQ(obs::registry().counter_value("test.obs.never_created"), 0u);
}

TEST(ObsRegistry, ResetZeroesButKeepsReferencesValid) {
  obs::Counter& c = obs::registry().counter("test.obs.reset_counter");
  c.add(5);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the reference survives reset
  EXPECT_EQ(obs::registry().counter_value("test.obs.reset_counter"), 2u);
}

TEST(ObsRegistry, SpanObservesElapsedSeconds) {
  obs::Histogram& h = obs::registry().histogram("test.obs.timer_seconds");
  h.reset();
  { const obs::Span t("test.obs.timer", "test", {}, &h); }
#if RCT_OBS_ENABLED
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
  EXPECT_LT(h.max(), 1.0);  // an empty scope is far below a second
#else
  EXPECT_EQ(h.count(), 0u);
#endif
}

// --- metrics snapshot schema ------------------------------------------------

TEST(ObsSnapshot, SchemaIsStableAndParsesBack) {
  obs::registry().counter("test.obs.snap_counter").add(3);
  obs::registry().gauge("test.obs.snap_gauge").set(2.5);
  obs::Histogram& h = obs::registry().histogram("test.obs.snap_hist_seconds");
  h.reset();
  h.observe(1e-3);

  const json::Value snap = parse_json(obs::registry().to_json());
  ASSERT_EQ(snap.kind, Kind::kObject);
  EXPECT_DOUBLE_EQ(snap.at("schema_version").number(), 1.0);
  ASSERT_EQ(snap.at("counters").kind, Kind::kObject);
  ASSERT_EQ(snap.at("gauges").kind, Kind::kObject);
  ASSERT_EQ(snap.at("histograms").kind, Kind::kObject);

  EXPECT_DOUBLE_EQ(snap.at("counters").at("test.obs.snap_counter").number(), 3.0);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("test.obs.snap_gauge").number(), 2.5);

  const json::Value& hist = snap.at("histograms").at("test.obs.snap_hist_seconds");
  ASSERT_EQ(hist.at("buckets").kind, Kind::kArray);
  ASSERT_EQ(hist.at("buckets").items.size(), h.bounds().size() + 1);
  // Every bucket entry is {"le": number-or-"inf", "count": n}; the last is inf.
  for (const json::Value& bucket : hist.at("buckets").items) {
    EXPECT_TRUE(bucket.has("le"));
    EXPECT_TRUE(bucket.has("count"));
  }
  EXPECT_EQ(hist.at("buckets").items.back().at("le").text, "inf");
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 1.0);
  EXPECT_NEAR(hist.at("sum").number(), 1e-3, 1e-12);
  EXPECT_TRUE(hist.has("min"));
  EXPECT_TRUE(hist.has("max"));
  // Quantile summaries ride along (additive — still schema_version 1).
  EXPECT_TRUE(hist.has("p50"));
  EXPECT_TRUE(hist.has("p95"));
  EXPECT_TRUE(hist.has("p99"));
  EXPECT_NEAR(hist.at("p50").number(), 1e-3, 1e-9);
}

// --- tracing ----------------------------------------------------------------

#if RCT_OBS_ENABLED

TEST(ObsTrace, SpanRecordsOnlyWhileArmed) {
  obs::tracer().clear();
  obs::tracer().set_enabled(false);
  { const obs::Span s("test.obs.disarmed", "test"); }
  EXPECT_TRUE(obs::tracer().events().empty());

  obs::tracer().set_enabled(true);
  { const obs::Span s("test.obs.armed", "test", "detail-1"); }
  obs::tracer().set_enabled(false);
  const auto events = obs::tracer().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.obs.armed");
  EXPECT_STREQ(events[0].cat, "test");
  EXPECT_EQ(events[0].detail, "detail-1");
  EXPECT_GT(events[0].tid, 0u);
  obs::tracer().clear();
}

TEST(ObsTrace, NestedSpansHaveContainedTimestamps) {
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  {
    const obs::Span outer("test.obs.outer", "test");
    const obs::Span inner("test.obs.inner", "test");
  }
  obs::tracer().set_enabled(false);
  const auto events = obs::tracer().events();  // sorted by start time
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.obs.outer");
  EXPECT_STREQ(events[1].name, "test.obs.inner");
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns + events[1].dur_ns, events[0].ts_ns + events[0].dur_ns);
  obs::tracer().clear();
}

TEST(ObsTrace, ChromeJsonParsesBackWithPerThreadIds) {
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 10; ++i) {
        const obs::Span s("test.obs.worker", "test", "iteration");
      }
    });
  for (auto& t : threads) t.join();
  obs::tracer().set_enabled(false);

  const json::Value trace = parse_json(obs::tracer().to_chrome_json());
  ASSERT_EQ(trace.kind, Kind::kObject);
  EXPECT_EQ(trace.at("displayTimeUnit").text, "ms");
  const json::Value& events = trace.at("traceEvents");
  ASSERT_EQ(events.kind, Kind::kArray);

  std::size_t spans = 0, metadata = 0;
  std::map<double, std::size_t> by_tid;
  for (const json::Value& e : events.items) {
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    if (e.at("ph").text == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(e.at("ph").text, "X");
    ASSERT_TRUE(e.has("cat"));
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.has("dur"));
    EXPECT_GE(e.at("dur").number(), 0.0);
    ++spans;
    ++by_tid[e.at("tid").number()];
  }
  EXPECT_EQ(spans, 40u);
  EXPECT_EQ(by_tid.size(), 4u);  // one tid per recording thread
  EXPECT_EQ(metadata, by_tid.size());
  for (const auto& [tid, n] : by_tid) EXPECT_EQ(n, 10u);
  obs::tracer().clear();
}

TEST(ObsTrace, ClearDropsEvents) {
  obs::tracer().set_enabled(true);
  { const obs::Span s("test.obs.cleared", "test"); }
  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  EXPECT_TRUE(obs::tracer().events().empty());
}

#endif  // RCT_OBS_ENABLED

// Holds in both builds: a tape is how a client-requested request trace is
// recorded, and that works with the timing compiled out too.
TEST(ObsTape, CollectsSpansOfItsThreadWhileInstalled) {
  obs::Tape tape;
  {
    const obs::TapeScope taping(&tape);
    { const obs::Span s("test.tape.outer", "test", "net_0"); }
    obs::record_wait("test.tape.wait", "test", obs::timestamp_ns());
    // Another thread has no tape installed: its span must not land here.
    std::thread([] { const obs::Span s("test.tape.other_thread", "test"); }).join();
  }
  { const obs::Span s("test.tape.after_uninstall", "test"); }
  ASSERT_EQ(tape.size(), 2u);
  EXPECT_STREQ(tape[0].name, "test.tape.outer");
  EXPECT_STREQ(tape[0].cat, "test");
  EXPECT_EQ(tape[0].detail, "net_0");
  EXPECT_STREQ(tape[1].name, "test.tape.wait");
  EXPECT_LE(tape[0].ts_ns + tape[0].dur_ns, tape[1].ts_ns + tape[1].dur_ns);
  EXPECT_EQ(obs::current_tape(), nullptr);

  // Re-installing the tape on a second thread (the server's pool hand-off)
  // collects that thread's spans, nested scopes restore the outer tape,
  // and a null scope installs nothing.
  obs::Tape inner;
  std::thread([&tape, &inner] {
    const obs::TapeScope taping(&tape);
    {
      const obs::TapeScope nested(&inner);
      const obs::Span s("test.tape.inner", "test");
    }
    const obs::TapeScope none(nullptr);
    EXPECT_EQ(obs::current_tape(), &tape);
    const obs::Span s("test.tape.worker", "test");
  }).join();
  ASSERT_EQ(tape.size(), 3u);
  EXPECT_STREQ(tape[2].name, "test.tape.worker");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_STREQ(inner[0].name, "test.tape.inner");
}

// --- quantile estimation ----------------------------------------------------

TEST(ObsQuantile, EmptyHistogramIsZero) {
  const obs::Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(ObsQuantile, AllSamplesInOneBucketClampToObservedValue) {
  obs::Histogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 4; ++i) h.observe(1.5);
  // Interpolation inside the (1, 2] bucket is clamped to [min, max] = [1.5, 1.5].
  for (const double q : {0.01, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 1.5);
}

TEST(ObsQuantile, SampleExactlyOnBucketUpperBound) {
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(2.0);  // le semantics: lands in the (1, 2] bucket, not (2, 5]
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(ObsQuantile, MassInOverflowBucketStaysWithinObservedRange) {
  obs::Histogram h({1.0});
  h.observe(5.0);
  h.observe(10.0);  // both land in the +Inf bucket, which has no upper bound
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 5.0);
  EXPECT_LE(p50, 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);  // capped at the observed max
}

TEST(ObsQuantile, MonotoneInQ) {
  obs::Histogram h({1.0, 2.0, 5.0, 10.0});
  for (const double v : {0.5, 1.5, 1.7, 3.0, 4.0, 7.0, 9.0, 12.0}) h.observe(v);
  double prev = h.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
    prev = cur;
  }
  EXPECT_GE(h.quantile(0.0), 0.5);
  EXPECT_LE(h.quantile(1.0), 12.0);
}

TEST(ObsConcurrency, QuantileIsSaneUnder8ConcurrentObservers) {
  obs::Histogram& h = obs::registry().histogram("test.obs.concurrent_quantile");
  h.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 1; i <= kPerThread; ++i)
        h.observe(1e-6 * static_cast<double>(i % 1000 + 1));
    });
  // Read quantiles while the observers hammer the histogram: the estimate
  // may lag in-flight samples but must stay inside the possible range.
  for (int i = 0; i < 200; ++i) {
    const double p95 = h.quantile(0.95);
    EXPECT_GE(p95, 0.0);
    EXPECT_LE(p95, 1e-3 + 1e-9);
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1e-3 + 1e-9);
}

// --- Prometheus exposition --------------------------------------------------

TEST(ObsPrometheus, CountersGaugesAndHistogramsExposeSanitizedNames) {
  obs::registry().reset();
  obs::registry().counter("test.prom.counter").add(7);
  obs::registry().gauge("test.prom.gauge").set(1.5);
  obs::Histogram& h = obs::registry().histogram("test.prom.hist_seconds");
  h.observe(3e-6);
  h.observe(100.0);  // overflow bucket

  const std::string text = obs::registry().to_prometheus();
  EXPECT_NE(text.find("# HELP rct_test_prom_counter rct counter test.prom.counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rct_test_prom_counter counter\n"), std::string::npos);
  EXPECT_NE(text.find("rct_test_prom_counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("rct_test_prom_gauge 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rct_test_prom_hist_seconds histogram\n"), std::string::npos);
  EXPECT_NE(text.find("rct_test_prom_hist_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rct_test_prom_hist_seconds_count 2\n"), std::string::npos);
}

TEST(ObsPrometheus, HistogramBucketsAreCumulative) {
  obs::registry().reset();
  obs::Histogram& h = obs::registry().histogram("test.prom.cumulative");
  (void)h;
  (void)obs::registry().histogram("test.prom.cumulative");  // same instrument
  h.observe(1.5e-6);
  h.observe(3e-6);
  h.observe(3e-6);

  const std::string text = obs::registry().to_prometheus();
  // Parse every bucket line of this histogram and check the counts never
  // decrease as le increases (exposition order is ascending le).
  std::uint64_t prev = 0;
  std::size_t buckets = 0;
  std::size_t pos = 0;
  const std::string needle = "rct_test_prom_cumulative_bucket{le=\"";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const std::size_t count_at = text.find("} ", pos);
    ASSERT_NE(count_at, std::string::npos);
    const std::uint64_t count = std::strtoull(text.c_str() + count_at + 2, nullptr, 10);
    EXPECT_GE(count, prev);
    prev = count;
    ++buckets;
    ++pos;
  }
  EXPECT_GT(buckets, 2u);
  EXPECT_EQ(prev, 3u);  // +Inf bucket holds every sample
}

// --- structured log ---------------------------------------------------------

TEST(ObsLog, ParseLevelRoundTrips) {
  obs::log::Level level = obs::log::Level::kOff;
  EXPECT_TRUE(obs::log::parse_level("debug", level));
  EXPECT_EQ(level, obs::log::Level::kDebug);
  EXPECT_TRUE(obs::log::parse_level("warn", level));
  EXPECT_EQ(level, obs::log::Level::kWarn);
  EXPECT_FALSE(obs::log::parse_level("verbose", level));
  EXPECT_EQ(level, obs::log::Level::kWarn);  // untouched on failure
}

/// Reads a whole file into a string.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

TEST(ObsLog, EmitsParseableJsonLinesAndFiltersByLevel) {
  const std::string path = testing::TempDir() + "rct_obs_log_test.jsonl";
  obs::log::Logger& log = obs::log::logger();
  ASSERT_TRUE(log.open(path));
  log.set_level(obs::log::Level::kInfo);
  EXPECT_TRUE(log.enabled(obs::log::Level::kWarn));
  EXPECT_FALSE(log.enabled(obs::log::Level::kDebug));

  obs::log::debug("test.log.suppressed", {{"n", std::uint64_t{1}}});
  obs::log::info("test.log.kept",
                 {{"net", "clk\"quoted\""}, {"count", std::uint64_t{3}}, {"ok", true},
                  {"ratio", 0.5}});
  obs::log::warn("test.log.warned", {});
  log.close();
  EXPECT_FALSE(log.enabled(obs::log::Level::kError));  // sink detached

  const std::vector<std::string> lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 2u);
  const json::Value first = parse_json(lines[0]);
  EXPECT_EQ(first.at("event").text, "test.log.kept");
  EXPECT_EQ(first.at("level").text, "info");
  EXPECT_GT(first.at("ts_us").number(), 0.0);
  EXPECT_EQ(first.at("net").text, "clk\"quoted\"");  // escaping round-trips
  EXPECT_DOUBLE_EQ(first.at("count").number(), 3.0);
  EXPECT_EQ(first.at("ok").kind, Kind::kBool);
  EXPECT_DOUBLE_EQ(first.at("ratio").number(), 0.5);
  EXPECT_EQ(parse_json(lines[1]).at("event").text, "test.log.warned");
  std::remove(path.c_str());
}

TEST(ObsLog, RateLimiterShedsAndReportsDrops) {
  const std::string path = testing::TempDir() + "rct_obs_log_rate_test.jsonl";
  obs::log::Logger& log = obs::log::logger();
  ASSERT_TRUE(log.open(path));
  log.set_level(obs::log::Level::kInfo);
  log.set_rate_limit(10);  // tiny budget: the burst is 10 events
  const std::uint64_t dropped_before = log.dropped();
  for (int i = 0; i < 1000; ++i) obs::log::info("test.log.flood", {});
  log.close();
  log.set_rate_limit(10000);  // restore the default for other tests

  EXPECT_GT(log.dropped(), dropped_before);
  const std::vector<std::string> lines = lines_of(slurp(path));
  // Far fewer lines than emits, and the tail records the shed count.
  EXPECT_LT(lines.size(), 1000u);
  ASSERT_FALSE(lines.empty());
  bool saw_drop_report = false;
  for (const std::string& line : lines)
    if (parse_json(line).at("event").text == "obs.log.dropped") saw_drop_report = true;
  EXPECT_TRUE(saw_drop_report);
  std::remove(path.c_str());
}

TEST(ObsLog, ConcurrentEmittersProduceWholeLines) {
  const std::string path = testing::TempDir() + "rct_obs_log_mt_test.jsonl";
  obs::log::Logger& log = obs::log::logger();
  ASSERT_TRUE(log.open(path));
  log.set_level(obs::log::Level::kInfo);
  log.set_rate_limit(0);  // unlimited: this test wants every line
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        obs::log::info("test.log.mt", {{"thread", static_cast<std::uint64_t>(t)}});
    });
  for (std::thread& t : threads) t.join();
  log.close();
  log.set_rate_limit(10000);

  const std::vector<std::string> lines = lines_of(slurp(path));
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (const std::string& line : lines) EXPECT_NO_THROW((void)parse_json(line));
  std::remove(path.c_str());
}

// --- flight recorder --------------------------------------------------------

TEST(ObsFlight, DisarmedRecorderRecordsNothing) {
  obs::flight::Recorder rec(8);
  auto h = rec.begin("net_a", "analyze");
  rec.end(h, obs::flight::Outcome::kOk);
  rec.record("net_b", "analyze", obs::flight::Outcome::kFailed, robust::Code::kTaskFailure, 5);
  EXPECT_TRUE(rec.events().empty());
}

TEST(ObsFlight, BeginEndCompletesEventInPlace) {
  obs::flight::Recorder rec(8);
  rec.set_enabled(true);
  auto h = rec.begin("net_a", "analyze");
  {
    const auto running = rec.events();
    ASSERT_EQ(running.size(), 1u);
    EXPECT_EQ(running[0].outcome, obs::flight::Outcome::kRunning);
  }
  rec.end(h, obs::flight::Outcome::kTimeout, robust::Code::kTimeout);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].net, "net_a");
  EXPECT_STREQ(events[0].phase, "analyze");
  EXPECT_EQ(events[0].outcome, obs::flight::Outcome::kTimeout);
  EXPECT_EQ(events[0].code, robust::Code::kTimeout);
}

TEST(ObsFlight, EventsAreStampedOnTheTracerClock) {
  // Flight-dump start times share --trace-out's timeline (the tracer epoch),
  // in every build: the recorder keeps no epoch of its own.
  (void)obs::tracer().now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  obs::flight::Recorder rec(8);
  rec.set_enabled(true);
  const std::uint64_t before = obs::tracer().now_ns();
  auto h = rec.begin("net_a", "analyze");
  const std::uint64_t begun = obs::tracer().now_ns();
  rec.end(h, obs::flight::Outcome::kOk);
  const std::uint64_t ended = obs::tracer().now_ns();
  rec.record("net_b", "parse", obs::flight::Outcome::kOk, robust::Code::kNone, 1000);
  const std::uint64_t recorded = obs::tracer().now_ns();
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GE(events[0].start_ns, before);
  EXPECT_LE(events[0].start_ns, begun);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns, ended);
  // A one-shot record ends when it is recorded, so it starts dur_ns earlier.
  EXPECT_GE(events[1].start_ns + 1000, ended);
  EXPECT_LE(events[1].start_ns + 1000, recorded);
}

TEST(ObsFlight, RingEvictsOldestAndCounts) {
  obs::flight::Recorder rec(4);
  rec.set_enabled(true);
  for (int i = 0; i < 10; ++i)
    rec.record("net_" + std::to_string(i), "analyze", obs::flight::Outcome::kOk,
               robust::Code::kNone, 1);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);  // ring capacity
  EXPECT_EQ(rec.evicted(), 6u);
  // The survivors are the newest four, still in begin order.
  EXPECT_STREQ(events[0].net, "net_6");
  EXPECT_STREQ(events[3].net, "net_9");
}

TEST(ObsFlight, LongNetNamesAreTruncatedNotOverflowed) {
  obs::flight::Recorder rec(4);
  rec.set_enabled(true);
  const std::string lang(200, 'x');
  rec.record(lang, "analyze", obs::flight::Outcome::kOk, robust::Code::kNone, 1);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].net).size(), obs::flight::Event::kNetCapacity - 1);
}

TEST(ObsFlight, JsonDumpParsesBackWithSchemaVersion) {
  obs::flight::Recorder rec(8);
  rec.set_enabled(true);
  rec.record("net_a", "analyze", obs::flight::Outcome::kFailed, robust::Code::kNanValue, 42);
  const json::Value dump = parse_json(rec.to_json());
  EXPECT_DOUBLE_EQ(dump.at("schema_version").number(), 1.0);
  EXPECT_DOUBLE_EQ(dump.at("evicted").number(), 0.0);
  ASSERT_EQ(dump.at("events").items.size(), 1u);
  const json::Value& e = dump.at("events").items[0];
  EXPECT_EQ(e.at("net").text, "net_a");
  EXPECT_EQ(e.at("phase").text, "analyze");
  EXPECT_EQ(e.at("outcome").text, "failed");
  EXPECT_EQ(e.at("code").text, "nan-value");
  EXPECT_DOUBLE_EQ(e.at("dur_ns").number(), 42.0);
}

TEST(ObsFlight, EventsMergeAcrossThreadsBySequence) {
  obs::flight::Recorder rec(64);
  rec.set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 8; ++i)
        rec.record("net_t" + std::to_string(t), "analyze", obs::flight::Outcome::kOk,
                   robust::Code::kNone, 1);
    });
  for (std::thread& t : threads) t.join();
  const auto events = rec.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * 8);
  for (std::size_t i = 1; i < events.size(); ++i) EXPECT_LT(events[i - 1].seq, events[i].seq);
  std::vector<std::uint32_t> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsFlight, FormatTextNamesFailedNets) {
  obs::flight::Recorder rec(8);
  rec.set_enabled(true);
  rec.record("net_bad", "retry", obs::flight::Outcome::kFailed, robust::Code::kTaskFailure, 1000);
  const std::string text = rec.format_text();
  EXPECT_NE(text.find("net_bad"), std::string::npos);
  EXPECT_NE(text.find("retry"), std::string::npos);
  EXPECT_NE(text.find("failed"), std::string::npos);
  EXPECT_NE(text.find("task-failure"), std::string::npos);
}

// An id of one kind does not name an instrument of another.
static_assert(!std::is_invocable_v<decltype(&obs::counter), obs::H>);
static_assert(!std::is_invocable_v<decltype(&obs::gauge), obs::C>);
static_assert(!std::is_invocable_v<decltype(&obs::histogram), obs::G>);

TEST(ObsInstruments, TableNamesAreUniqueDottedAndTimedInSeconds) {
  // `layer.component.op`, where a few layer-wide series (server.state,
  // store.bytes) have no component and per-command splits add a fourth
  // segment (server.request.report.seconds).
  const std::regex dotted("[a-z]+(\\.[a-z][a-z0-9_]*){1,3}");
  std::set<std::string_view> names;
  std::set<std::string> prometheus_names;
  for (const obs::Instrument& row : obs::kInstruments) {
    const std::string name(row.name);
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate " << name;
    std::string prom = name;
    std::replace(prom.begin(), prom.end(), '.', '_');
    EXPECT_TRUE(prometheus_names.insert(prom).second) << "Prometheus name clash: " << name;
    EXPECT_TRUE(std::regex_match(name, dotted)) << name;
    if (row.kind == obs::Kind::kLatency) {
      EXPECT_TRUE(row.name.ends_with("seconds")) << name;
    }
  }
  EXPECT_EQ(obs::info(obs::C::kServerRequests).name, "server.requests");
  EXPECT_EQ(obs::info(obs::G::kServerState).name, "server.state");
  EXPECT_EQ(obs::info(obs::H::kEngineNetAnalyze).name, "engine.net.analyze_seconds");
  EXPECT_EQ(obs::info(obs::C::kServerRequests).kind, obs::Kind::kCounter);
  EXPECT_EQ(obs::info(obs::G::kServerState).kind, obs::Kind::kGauge);
  EXPECT_EQ(obs::info(obs::H::kEngineNetAnalyze).kind, obs::Kind::kLatency);
  EXPECT_EQ(obs::info(obs::H::kCoreReportBoundGap).kind, obs::Kind::kRatio);
}

}  // namespace
