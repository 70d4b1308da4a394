// Tests for src/robust (error taxonomy, deadlines, fault injection) and the
// degradation / retry / timeout machinery it powers in core::build_report
// and the batch engine, plus the malformed-SPEF corpus: every deck in
// testdata/malformed must yield structured diagnostics, never a crash.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "engine/batch.hpp"
#include "rctree/netlist_parser.hpp"
#include "rctree/spef.hpp"
#include "robust/deadline.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"

#ifndef RCT_TESTDATA_DIR
#define RCT_TESTDATA_DIR "testdata"
#endif

namespace rct {
namespace {

using robust::Category;
using robust::Code;

std::string malformed(const char* file) {
  return std::string(RCT_TESTDATA_DIR) + "/malformed/" + file;
}

/// Two clean two-node nets; reused as the "nothing wrong here" baseline.
const char* kCleanSpef =
    "*SPEF \"IEEE 1481-1998\"\n"
    "*DESIGN \"clean\"\n"
    "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 OHM\n"
    "*D_NET net_a 0.1\n*CONN\n*P d1 I\n*I p1 O\n"
    "*CAP\n1 m1 0.05\n2 p1 0.05\n"
    "*RES\n1 d1 m1 100\n2 m1 p1 100\n*END\n"
    "*D_NET net_b 0.2\n*CONN\n*P d2 I\n*I p2 O\n*I p3 O\n"
    "*CAP\n1 m2 0.05\n2 p2 0.05\n3 p3 0.1\n"
    "*RES\n1 d2 m2 120\n2 m2 p2 80\n3 m2 p3 60\n*END\n";

// ---------------------------------------------------------------- taxonomy

TEST(Taxonomy, CodeNamesAndCategories) {
  EXPECT_EQ(robust::code_name(Code::kTimeout), "timeout");
  EXPECT_EQ(robust::code_name(Code::kNonPhysicalValue), "non-physical-value");
  EXPECT_EQ(robust::category_of(Code::kSyntax), Category::kParse);
  EXPECT_EQ(robust::category_of(Code::kCycle), Category::kTopology);
  EXPECT_EQ(robust::category_of(Code::kNanValue), Category::kNumeric);
  EXPECT_EQ(robust::category_of(Code::kTimeout), Category::kResource);
  EXPECT_EQ(robust::category_of(Code::kCancelled), Category::kCancelled);
  EXPECT_EQ(robust::category_name(Category::kNumeric), "numeric");
}

TEST(Taxonomy, ErrorCarriesCodeLocationAndTaggedMessage) {
  const robust::Error e(Code::kBadNumber, "bad value '12q'", {"deck.sp", 7});
  EXPECT_EQ(e.code(), Code::kBadNumber);
  EXPECT_EQ(e.category(), Category::kParse);
  EXPECT_EQ(e.location().file, "deck.sp");
  EXPECT_EQ(e.location().line, 7u);
  const std::string what = e.what();
  EXPECT_NE(what.find("deck.sp line 7"), std::string::npos);
  EXPECT_NE(what.find("bad value '12q'"), std::string::npos);
  EXPECT_NE(what.find("[parse/bad-number]"), std::string::npos);
}

TEST(Taxonomy, WithFileRebindsLocation) {
  const robust::Error e(Code::kSyntax, "oops", {"", 3}, "spef");
  const robust::Error bound = e.with_file("chip.spef");
  EXPECT_EQ(bound.location().file, "chip.spef");
  EXPECT_NE(std::string(bound.what()).find("chip.spef line 3"), std::string::npos);
}

TEST(Taxonomy, ParserErrorsAreRobustErrors) {
  // Both front ends unified on the taxonomy: catching robust::Error is
  // enough to see file, line and typed code from either parser.
  try {
    (void)parse_netlist(".input a\nRx a b\n");
    FAIL() << "expected NetlistError";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.category(), Category::kParse);
    EXPECT_EQ(e.location().line, 2u);
  }
  try {
    (void)parse_spef("*D_NET n 1\n*RES\n1 a b -5\n*END\n");
    FAIL() << "expected SpefError";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.code(), Code::kNonPhysicalValue);
    EXPECT_EQ(e.location().line, 3u);
  }
}

// ---------------------------------------------------------------- deadline

TEST(DeadlineTest, UnarmedNeverExpires) {
  const robust::Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_NO_THROW(none.check("anywhere"));
  const robust::Deadline zero = robust::Deadline::after_ms(0);
  EXPECT_FALSE(zero.armed());
  EXPECT_NO_THROW(zero.check("anywhere"));
}

TEST(DeadlineTest, ExpiryThrowsTimeoutNamingCheckpoint) {
  const robust::Deadline d = robust::Deadline::after_ms(1);
  EXPECT_TRUE(d.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.expired());
  try {
    d.check("unit.test.site");
    FAIL() << "expected timeout";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.code(), Code::kTimeout);
    EXPECT_NE(std::string(e.what()).find("unit.test.site"), std::string::npos);
  }
}

TEST(DeadlineTest, CancelThrowsCancelledEvenWhenUnarmed) {
  // An unarmed deadline is still cancellable: graceful drain uses this to
  // cut loose requests that never asked for a timeout.
  const robust::Deadline none;
  EXPECT_FALSE(none.armed());
  none.cancel();
  try {
    none.check("drain.checkpoint");
    FAIL() << "expected cancellation";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.code(), Code::kCancelled);
    EXPECT_NE(std::string(e.what()).find("drain.checkpoint"), std::string::npos);
  }
}

TEST(DeadlineTest, CancelWinsOverExpiry) {
  // When a drain cancels an already-expired deadline, the typed error is
  // "cancelled", not "timeout" — the client should not retry a drained server.
  const robust::Deadline d = robust::Deadline::after_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  d.cancel();
  try {
    d.check("x");
    FAIL() << "expected cancellation";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.code(), Code::kCancelled);
  }
}

TEST(ErrorTest, OverloadCodesRoundTripNames) {
  EXPECT_EQ(robust::code_name(Code::kOverloaded), "overloaded");
  EXPECT_EQ(robust::code_name(Code::kRequestTooLarge), "request-too-large");
  EXPECT_EQ(robust::category_of(Code::kOverloaded), robust::Category::kResource);
  EXPECT_EQ(robust::category_of(Code::kRequestTooLarge), robust::Category::kResource);
}

// ----------------------------------------------------------- fault harness

#if RCT_FAULT_ENABLED

/// Every fault test must leave the process-global registry clean.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    robust::fault::disarm_all();
    robust::fault::reset_fired();
  }
  void TearDown() override {
    robust::fault::disarm_all();
    robust::fault::reset_fired();
  }
};

TEST_F(FaultTest, ThrowFiresExactlyCountTimes) {
  EXPECT_FALSE(robust::fault::any_armed());
  robust::fault::arm("ft.throw", robust::fault::Action::kThrow, 0, 2);
  EXPECT_TRUE(robust::fault::any_armed());
  EXPECT_THROW(robust::fault::maybe_throw("ft.throw"), robust::Error);
  EXPECT_THROW(robust::fault::maybe_throw("ft.throw", Code::kNonConvergence),
               robust::Error);
  EXPECT_NO_THROW(robust::fault::maybe_throw("ft.throw"));  // budget spent
  EXPECT_EQ(robust::fault::fired_count("ft.throw"), 2u);
  EXPECT_FALSE(robust::fault::any_armed());
}

TEST_F(FaultTest, CorruptYieldsNanOnlyWhileArmed) {
  EXPECT_EQ(robust::fault::corrupt("ft.nan", 1.5), 1.5);
  robust::fault::arm("ft.nan", robust::fault::Action::kNan);
  EXPECT_TRUE(std::isnan(robust::fault::corrupt("ft.nan", 1.5)));
  robust::fault::disarm("ft.nan");
  EXPECT_EQ(robust::fault::corrupt("ft.nan", 2.5), 2.5);
}

TEST_F(FaultTest, SleepDelaysForArmedDuration) {
  robust::fault::arm("ft.sleep", robust::fault::Action::kSleep, 30);
  const auto t0 = std::chrono::steady_clock::now();
  robust::fault::maybe_sleep("ft.sleep");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 25);
}

TEST_F(FaultTest, SpecStringArmsEntriesAndToleratesBlanks) {
  EXPECT_EQ(robust::fault::arm_from_string("a=throw; b = sleep:10 x2, c=nanx1"), 3u);
  EXPECT_THROW(robust::fault::maybe_throw("a"), robust::Error);
  EXPECT_TRUE(std::isnan(robust::fault::corrupt("c", 0.0)));
  EXPECT_EQ(robust::fault::corrupt("c", 4.0), 4.0);  // x1 budget spent
}

TEST_F(FaultTest, MistypedSpecThrowsSyntaxError) {
  try {
    (void)robust::fault::arm_from_string("site=explode");
    FAIL() << "expected syntax error";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.code(), Code::kSyntax);
  }
  EXPECT_THROW((void)robust::fault::arm_from_string("=throw"), robust::Error);
}

#endif  // RCT_FAULT_ENABLED

// -------------------------------------------------- strict vs lenient SPEF

TEST(LenientSpef, AgreesWithStrictOnCleanInput) {
  const SpefFile strict = parse_spef(kCleanSpef);
  SpefParseOptions opt;
  opt.lenient = true;
  const SpefFile lenient = parse_spef(kCleanSpef, opt);
  EXPECT_TRUE(lenient.diagnostics.empty());
  EXPECT_EQ(lenient.nets_rejected, 0u);
  ASSERT_EQ(strict.nets.size(), lenient.nets.size());
  for (std::size_t i = 0; i < strict.nets.size(); ++i) {
    EXPECT_EQ(strict.nets[i].name, lenient.nets[i].name);
    EXPECT_EQ(strict.nets[i].driver, lenient.nets[i].driver);
    EXPECT_EQ(strict.nets[i].loads, lenient.nets[i].loads);
    EXPECT_EQ(strict.nets[i].tree.size(), lenient.nets[i].tree.size());
  }
}

TEST(LenientSpef, KeepsGoodNetsAroundABadOne) {
  SpefParseOptions opt;
  opt.lenient = true;
  const SpefFile f = parse_spef_file(malformed("mixed_good_bad.spef"), opt);
  ASSERT_EQ(f.nets.size(), 2u);
  EXPECT_EQ(f.nets[0].name, "good");
  EXPECT_EQ(f.nets[1].name, "good2");
  EXPECT_EQ(f.nets_rejected, 1u);
  ASSERT_EQ(f.diagnostics.size(), 1u);
  EXPECT_EQ(f.diagnostics[0].code, Code::kNonPhysicalValue);
  EXPECT_EQ(f.diagnostics[0].net, "broken");
}

TEST(LenientSpef, MalformedCorpusAlwaysDiagnosesNeverCrashes) {
  const char* corpus[] = {
      "truncated_dnet.spef", "negative_r.spef",     "nan_cap.spef",
      "negative_cap.spef",   "duplicate_node.spef", "dangling_load.spef",
      "empty.spef",          "no_driver.spef",      "cycle.spef",
      "bad_unit.spef",       "mixed_good_bad.spef",
  };
  for (const char* name : corpus) {
    SCOPED_TRACE(name);
    // Strict: a typed SpefError, never anything else.
    try {
      (void)parse_spef_file(malformed(name));
      FAIL() << "strict parse accepted a malformed deck";
    } catch (const SpefError& e) {
      EXPECT_NE(e.code(), Code::kNone);
      EXPECT_EQ(e.location().file, malformed(name));
    }
    // Lenient: recovers with at least one structured diagnostic.
    SpefParseOptions opt;
    opt.lenient = true;
    SpefFile f;
    ASSERT_NO_THROW(f = parse_spef_file(malformed(name), opt));
    ASSERT_FALSE(f.diagnostics.empty());
    for (const auto& d : f.diagnostics) {
      EXPECT_NE(d.code, Code::kNone);
      EXPECT_FALSE(d.message.empty());
      EXPECT_EQ(d.location.file, malformed(name));
    }
  }
}

TEST(LenientSpef, MutatedSpefNeverEscapesTheTaxonomy) {
  const std::string clean = kCleanSpef;
  std::mt19937 rng(20260805u);
  std::vector<std::string> variants;
  // Truncations at a spread of byte offsets (covers mid-token, mid-net EOF).
  for (std::size_t cut = 0; cut < clean.size(); cut += 37)
    variants.push_back(clean.substr(0, cut));
  // Random single-character corruptions.
  for (int i = 0; i < 60; ++i) {
    std::string v = clean;
    const char garbage[] = {'x', '-', '.', '*', '\t', '"', '9', '\0'};
    v[rng() % v.size()] = garbage[rng() % sizeof(garbage)];
    variants.push_back(std::move(v));
  }
  // Random line deletions.
  for (int i = 0; i < 20; ++i) {
    std::string v;
    std::size_t pos = 0;
    while (pos < clean.size()) {
      std::size_t end = clean.find('\n', pos);
      if (end == std::string::npos) end = clean.size() - 1;
      if (rng() % 5 != 0) v.append(clean, pos, end - pos + 1);
      pos = end + 1;
    }
    variants.push_back(std::move(v));
  }
  SpefParseOptions opt;
  opt.lenient = true;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE(i);
    // Lenient must always return; strict must fail only through SpefError.
    EXPECT_NO_THROW((void)parse_spef(variants[i], opt));
    try {
      (void)parse_spef(variants[i]);
    } catch (const SpefError&) {
    } catch (...) {
      FAIL() << "strict parse threw outside the taxonomy";
    }
  }
}

// --------------------------------------------- degradation in core::report

#if RCT_FAULT_ENABLED

RCTree small_tree() {
  return parse_netlist(".input in\nR1 in a 100\nR2 a b 50\nC1 a 0 1p\nC2 b 0 2p\n").tree;
}

TEST_F(FaultTest, NanExactDelayDegradesRowToMomentBounds) {
  const RCTree tree = small_tree();
  robust::fault::arm("core.report.exact_delay", robust::fault::Action::kNan);
  const auto rows = core::build_report(tree);
  for (const auto& r : rows) {
    EXPECT_TRUE(r.degraded);
    EXPECT_FALSE(r.exact_delay.has_value());
    EXPECT_TRUE(std::isfinite(r.elmore));  // bounds survive the fallback
  }
  robust::fault::disarm_all();
  for (const auto& r : core::build_report(tree)) {
    EXPECT_FALSE(r.degraded);
    ASSERT_TRUE(r.exact_delay.has_value());
    // The paper's sandwich the validator enforces: lower <= median <= elmore.
    EXPECT_GE(*r.exact_delay, r.lower_bound - 1e-18);
    EXPECT_LE(*r.exact_delay, r.elmore + 1e-18);
  }
}

TEST_F(FaultTest, ExpiredDeadlineUnwindsBuildReportWithTimeout) {
  const RCTree tree = small_tree();
  core::ReportOptions opt;
  const robust::Deadline d = robust::Deadline::after_ms(1);
  opt.deadline = &d;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  try {
    (void)core::build_report(tree, opt);
    FAIL() << "expected timeout";
  } catch (const robust::Error& e) {
    EXPECT_EQ(e.code(), Code::kTimeout);
  }
}

// ------------------------------------------------- engine retry / timeout

std::vector<SpefNet> clean_nets() { return parse_spef(kCleanSpef).nets; }

TEST_F(FaultTest, EigensolveThrowTriggersMomentsRetry) {
  robust::fault::arm("core.report.eigensolve", robust::fault::Action::kThrow);
  engine::BatchOptions opt;
  opt.jobs = 1;
  const engine::BatchResult r = engine::analyze_nets(clean_nets(), opt);
  ASSERT_EQ(r.nets.size(), 2u);
  EXPECT_EQ(r.stats.failures, 0u);
  EXPECT_EQ(r.stats.retried, 2u);
  EXPECT_EQ(r.stats.degraded, 2u);
  for (const auto& net : r.nets) {
    EXPECT_TRUE(net.ok());
    EXPECT_TRUE(net.retried);
    EXPECT_TRUE(net.degraded);
    ASSERT_FALSE(net.rows.empty());
    for (const auto& row : net.rows) EXPECT_FALSE(row.exact_delay.has_value());
  }
}

TEST_F(FaultTest, SlowNetHitsDeadlineAndRecordsTimeout) {
  robust::fault::arm("engine.net.analyze", robust::fault::Action::kSleep, 60);
  engine::BatchOptions opt;
  opt.jobs = 1;
  opt.net_timeout_ms = 10;
  const engine::BatchResult r = engine::analyze_nets(clean_nets(), opt);
  EXPECT_EQ(r.stats.failures, 2u);
  EXPECT_EQ(r.stats.timed_out, 2u);
  for (const auto& net : r.nets) {
    EXPECT_FALSE(net.ok());
    EXPECT_EQ(net.code, Code::kTimeout);
    EXPECT_TRUE(net.timed_out);
    EXPECT_EQ(net.phase, "retry");  // the moments retry timed out too
    EXPECT_NE(net.error.find("deadline exceeded"), std::string::npos);
  }
}

TEST_F(FaultTest, FailureRecordSchemaInBothRenderers) {
  robust::fault::arm("engine.net.analyze", robust::fault::Action::kThrow);
  engine::BatchOptions opt;
  opt.jobs = 1;
  opt.retry_on_failure = false;
  const engine::BatchResult r = engine::analyze_nets(clean_nets(), opt);
  ASSERT_EQ(r.stats.failures, 2u);
  EXPECT_EQ(r.nets[0].code, Code::kTaskFailure);
  EXPECT_EQ(r.nets[0].phase, "analyze");
  const std::string text = engine::format_batch(r);
  EXPECT_NE(text.find("record: code=task-failure category=resource "
                      "phase=analyze net=net_a"),
            std::string::npos);
  const std::string json = engine::format_batch_json(r);
  EXPECT_NE(json.find("\"code\":\"task-failure\""), std::string::npos);
  EXPECT_NE(json.find("\"category\":\"resource\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"loads\":[]"), std::string::npos);
}

TEST_F(FaultTest, FailureBudgetCancelsRemainingNets) {
  robust::fault::arm("engine.net.analyze", robust::fault::Action::kThrow);
  std::vector<SpefNet> nets = clean_nets();
  const std::vector<SpefNet> base = nets;
  for (int i = 0; i < 2; ++i) nets.insert(nets.end(), base.begin(), base.end());
  ASSERT_EQ(nets.size(), 6u);
  engine::BatchOptions opt;
  opt.jobs = 1;  // serial: exactly `budget` nets fail before the rest cancel
  opt.retry_on_failure = false;
  opt.max_failures = 2;
  const engine::BatchResult r = engine::analyze_nets(nets, opt);
  EXPECT_EQ(r.stats.failures, 6u);
  EXPECT_EQ(r.stats.cancelled, 4u);
  // WHICH nets fail vs cancel follows pool scheduling order, not input
  // order (documented) — assert the split, not the positions.
  std::size_t analyzed_failures = 0;
  for (const auto& net : r.nets) {
    EXPECT_FALSE(net.ok());
    if (net.code == Code::kCancelled) {
      EXPECT_EQ(net.phase, "cancelled");
    } else {
      EXPECT_EQ(net.code, Code::kTaskFailure);
      EXPECT_EQ(net.phase, "analyze");
      ++analyzed_failures;
    }
  }
  EXPECT_EQ(analyzed_failures, 2u);
}

TEST_F(FaultTest, FailFastIsABudgetOfOne) {
  robust::fault::arm("engine.net.analyze", robust::fault::Action::kThrow);
  engine::BatchOptions opt;
  opt.jobs = 1;
  opt.retry_on_failure = false;
  opt.max_failures = 1;
  const engine::BatchResult r = engine::analyze_nets(clean_nets(), opt);
  EXPECT_EQ(r.stats.failures, 2u);
  EXPECT_EQ(r.stats.cancelled, 1u);
  const std::size_t cancelled_count =
      static_cast<std::size_t>(r.nets[0].code == Code::kCancelled) +
      static_cast<std::size_t>(r.nets[1].code == Code::kCancelled);
  EXPECT_EQ(cancelled_count, 1u);
}

TEST_F(FaultTest, DegradedBatchOutputByteIdenticalAcrossJobs) {
  robust::fault::arm("core.report.exact_delay", robust::fault::Action::kNan);
  const std::vector<SpefNet> nets = clean_nets();
  std::string text_ref;
  std::string json_ref;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    engine::BatchOptions opt;
    opt.jobs = jobs;
    const engine::BatchResult r = engine::analyze_nets(nets, opt);
    EXPECT_EQ(r.stats.degraded, 2u);
    const std::string text = engine::format_batch(r);
    const std::string json = engine::format_batch_json(r);
    if (text_ref.empty()) {
      text_ref = text;
      json_ref = json;
      EXPECT_NE(text.find("degraded"), std::string::npos);
      EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
    } else {
      EXPECT_EQ(text, text_ref) << "jobs=" << jobs;
      EXPECT_EQ(json, json_ref) << "jobs=" << jobs;
    }
  }
}

#endif  // RCT_FAULT_ENABLED

}  // namespace
}  // namespace rct
