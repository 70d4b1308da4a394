// The parallel-ingestion contract: for ANY thread count, the mmap + index +
// section-fan-out pipeline must be observably identical to the serial
// parse_spef() — same nets, same diagnostics in the same order, same
// strict-mode error — and engine::analyze_spef_file (fused parse+analyze)
// must match parse-then-analyze_batch.  The corpus is the real testdata
// plus the malformed decks, so every recovery path crosses the merge.

#include "engine/parallel_parse.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch.hpp"
#include "helpers.hpp"
#include "rctree/generators.hpp"
#include "rctree/mapped_file.hpp"
#include "rctree/spef.hpp"
#include "rctree/spef_index.hpp"
#include "robust/fault.hpp"

namespace rct {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<fs::path> corpus() {
  const fs::path root = RCT_TESTDATA_DIR;
  std::vector<fs::path> decks = {root / "two_nets.spef"};
  for (const auto& entry : fs::directory_iterator(root / "malformed"))
    if (entry.path().extension() == ".spef") decks.push_back(entry.path());
  std::sort(decks.begin(), decks.end());
  return decks;
}

/// Deep observable equality: header, serialized nets, diagnostics, rejects.
void expect_same_file(const SpefFile& expected, const SpefFile& actual,
                      const std::string& context) {
  EXPECT_EQ(expected.design, actual.design) << context;
  EXPECT_EQ(expected.time_unit, actual.time_unit) << context;
  EXPECT_EQ(expected.cap_unit, actual.cap_unit) << context;
  EXPECT_EQ(expected.res_unit, actual.res_unit) << context;
  EXPECT_EQ(write_spef(expected), write_spef(actual)) << context;
  EXPECT_EQ(expected.nets_rejected, actual.nets_rejected) << context;
  ASSERT_EQ(expected.diagnostics.size(), actual.diagnostics.size()) << context;
  for (std::size_t i = 0; i < expected.diagnostics.size(); ++i) {
    EXPECT_EQ(expected.diagnostics[i].to_string("spef"),
              actual.diagnostics[i].to_string("spef"))
        << context << " diagnostic " << i;
    EXPECT_EQ(expected.diagnostics[i].net, actual.diagnostics[i].net) << context;
  }
}

TEST(SpefParallel, LenientMatchesSerialOnWholeCorpusAtEveryJobCount) {
  for (const fs::path& deck : corpus()) {
    const std::string text = read_file(deck);
    SpefParseOptions serial_options;
    serial_options.lenient = true;
    const SpefFile expected = parse_spef(text, serial_options);
    for (const std::size_t jobs : {1u, 2u, 8u}) {
      engine::ParseOptions options;
      options.jobs = jobs;
      options.spef.lenient = true;
      const engine::ParsedSpef parsed = engine::parse_spef_parallel(text, options);
      expect_same_file(expected, parsed.file,
                       deck.filename().string() + " jobs=" + std::to_string(jobs));
      EXPECT_EQ(parsed.stats.nets, parsed.file.nets.size());
      EXPECT_EQ(parsed.stats.nets_rejected, parsed.file.nets_rejected);
      EXPECT_EQ(parsed.stats.bytes, text.size());
    }
  }
}

TEST(SpefParallel, StrictThrowsTheSerialError) {
  for (const fs::path& deck : corpus()) {
    const std::string text = read_file(deck);
    std::string serial_what, serial_code;
    try {
      (void)parse_spef(text, {});
    } catch (const robust::Error& e) {
      serial_what = e.what();
      serial_code = robust::code_name(e.code());
    }
    for (const std::size_t jobs : {1u, 8u}) {
      engine::ParseOptions options;
      options.jobs = jobs;
      std::string parallel_what, parallel_code;
      try {
        (void)engine::parse_spef_parallel(text, options);
      } catch (const robust::Error& e) {
        parallel_what = e.what();
        parallel_code = robust::code_name(e.code());
      }
      EXPECT_EQ(serial_what, parallel_what) << deck.filename() << " jobs=" << jobs;
      EXPECT_EQ(serial_code, parallel_code) << deck.filename() << " jobs=" << jobs;
    }
  }
}

TEST(SpefParallel, RepeatedRunsAreDeterministic) {
  const std::string text = read_file(fs::path(RCT_TESTDATA_DIR) / "malformed" /
                                     "mixed_good_bad.spef");
  engine::ParseOptions options;
  options.jobs = 8;
  options.spef.lenient = true;
  const engine::ParsedSpef first = engine::parse_spef_parallel(text, options);
  for (int round = 0; round < 5; ++round) {
    const engine::ParsedSpef again = engine::parse_spef_parallel(text, options);
    expect_same_file(first.file, again.file, "round " + std::to_string(round));
  }
}

TEST(SpefParallel, FileEntryPointMatchesInMemoryParse) {
  const fs::path deck = fs::path(RCT_TESTDATA_DIR) / "two_nets.spef";
  engine::ParseOptions options;
  options.jobs = 2;
  const engine::ParsedSpef from_file = engine::parse_spef_parallel_file(deck.string(), options);
  const engine::ParsedSpef from_text = engine::parse_spef_parallel(read_file(deck), options);
  expect_same_file(from_text.file, from_file.file, "file vs text");
  EXPECT_THROW((void)engine::parse_spef_parallel_file("/nonexistent/deck.spef"), SpefError);
}

TEST(SpefParallel, FusedAnalyzeMatchesParseThenBatch) {
  // The fused pass counts its nets instead of merging them: its file-level
  // outcome (design, diagnostics, rejects, the empty-input rule that
  // empty.spef trips, the strict error) must still match the full merge.
  for (const fs::path& deck : corpus()) {
    for (const bool lenient : {true, false}) {
      const std::string context =
          deck.filename().string() + (lenient ? " (lenient)" : " (strict)");
      engine::ParseOptions parse_options;
      parse_options.spef.lenient = lenient;
      engine::BatchOptions batch_options;
      batch_options.jobs = 2;
      batch_options.use_cache = false;

      std::optional<engine::ParsedSpef> parsed;
      std::string parse_what;
      try {
        parsed = engine::parse_spef_parallel_file(deck.string(), parse_options);
      } catch (const SpefError& e) {
        parse_what = e.what();
      }
      std::optional<engine::FileBatchResult> fused;
      std::string fused_what;
      try {
        fused = engine::analyze_spef_file(deck.string(), batch_options, parse_options.spef);
      } catch (const SpefError& e) {
        fused_what = e.what();
      }
      EXPECT_EQ(parse_what, fused_what) << context;
      ASSERT_EQ(parsed.has_value(), fused.has_value()) << context;
      if (!parsed) continue;

      const engine::BatchResult expected = engine::analyze_batch(parsed->file, batch_options);
      EXPECT_EQ(engine::format_batch(expected), engine::format_batch(fused->batch)) << context;
      EXPECT_EQ(parsed->file.design, fused->batch.design) << context;
      EXPECT_EQ(parsed->stats.nets, fused->parse.nets) << context;
      EXPECT_EQ(parsed->stats.sections, fused->parse.sections) << context;
      EXPECT_EQ(parsed->file.nets_rejected, fused->nets_rejected) << context;
      ASSERT_EQ(parsed->file.diagnostics.size(), fused->diagnostics.size()) << context;
      for (std::size_t i = 0; i < fused->diagnostics.size(); ++i)
        EXPECT_EQ(parsed->file.diagnostics[i].to_string("spef"),
                  fused->diagnostics[i].to_string("spef"))
            << context;
    }
  }
}

TEST(SpefParallel, FusedAnalyzeStrictThrowsLikeTheParser) {
  const fs::path deck = fs::path(RCT_TESTDATA_DIR) / "malformed" / "negative_r.spef";
  std::string parse_what;
  try {
    (void)engine::parse_spef_parallel_file(deck.string(), {});
  } catch (const SpefError& e) {
    parse_what = e.what();
  }
  ASSERT_FALSE(parse_what.empty());
  std::string fused_what;
  try {
    (void)engine::analyze_spef_file(deck.string());
  } catch (const SpefError& e) {
    fused_what = e.what();
  }
  EXPECT_EQ(parse_what, fused_what);
}

// ---------------------------------------------------------------------------
// The fused path with the row cache on: content twins (same topology and
// R/C, renamed nodes) hit the cache, and the output still matches an
// uncached parse-then-batch run byte for byte.

/// A deck of `distinct` random nets with a renamed twin of every other one
/// written right after it; writes it to a temp file and returns the path.
struct TwinDeck {
  fs::path path;
  std::size_t twins = 0;

  explicit TwinDeck(std::size_t distinct) {
    SpefFile file;
    file.design = "twins";
    for (std::size_t i = 0; i < distinct; ++i) {
      const RCTree tree = gen::random_tree(6 + 3 * i, 100 + i);
      const auto add = [&file](std::string name, RCTree t) {
        SpefNet net;
        net.name = std::move(name);
        net.driver = "drv";
        net.loads = t.leaves();
        net.tree = std::move(t);
        file.nets.push_back(std::move(net));
      };
      add("net" + std::to_string(i), testing::renamed(tree, "n" + std::to_string(i) + "_"));
      if (i % 2 == 0) {
        add("twin" + std::to_string(i), testing::renamed(tree, "t" + std::to_string(i) + "_"));
        ++twins;
      }
    }
    path = fs::temp_directory_path() /
           ("rct_fused_cache_" + std::to_string(distinct) + "_" +
            std::to_string(static_cast<unsigned long>(::getpid())) + ".spef");
    std::ofstream(path, std::ios::binary) << write_spef(file);
  }
  ~TwinDeck() { fs::remove(path); }
};

void expect_same_rows(const engine::NetResult& a, const engine::NetResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << a.name;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const core::NodeReport& x = a.rows[i];
    const core::NodeReport& y = b.rows[i];
    EXPECT_EQ(x.node, y.node) << a.name;
    EXPECT_EQ(x.depth, y.depth) << a.name;
    EXPECT_EQ(x.elmore, y.elmore) << a.name;
    EXPECT_EQ(x.sigma, y.sigma) << a.name;
    EXPECT_EQ(x.skewness, y.skewness) << a.name;
    EXPECT_EQ(x.lower_bound, y.lower_bound) << a.name;
    EXPECT_EQ(x.single_pole, y.single_pole) << a.name;
    EXPECT_EQ(x.prh_tmin, y.prh_tmin) << a.name;
    EXPECT_EQ(x.prh_tmax, y.prh_tmax) << a.name;
    EXPECT_EQ(x.exact_delay, y.exact_delay) << a.name;
    EXPECT_EQ(x.exact_rise, y.exact_rise) << a.name;
    EXPECT_EQ(x.degraded, y.degraded) << a.name;
  }
}

TEST(SpefFusedCache, TwinsHitAndOutputMatchesUncachedParseThenBatch) {
  const TwinDeck deck(12);
  ASSERT_EQ(deck.twins, 6u);
  engine::BatchOptions uncached;
  uncached.jobs = 2;
  uncached.use_cache = false;
  const engine::ParsedSpef parsed = engine::parse_spef_parallel_file(deck.path.string(), {});
  const std::string expected =
      engine::format_batch_json(engine::analyze_batch(parsed.file, uncached));

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    engine::BatchOptions cached;
    cached.jobs = jobs;
    const engine::FileBatchResult fused = engine::analyze_spef_file(deck.path.string(), cached);
    EXPECT_EQ(expected, engine::format_batch_json(fused.batch)) << "jobs " << jobs;
    const engine::EngineStats& stats = fused.batch.stats;
    EXPECT_EQ(stats.nets, parsed.file.nets.size());
    EXPECT_EQ(stats.tasks_run + stats.cache_hits, stats.nets) << "jobs " << jobs;
    if (jobs == 1) {
      // One worker: every twin runs after its original, so each one hits.
      EXPECT_EQ(stats.cache_hits, deck.twins);
      EXPECT_EQ(stats.tasks_run, parsed.file.nets.size() - deck.twins);
    }
  }
}

#if RCT_FAULT_ENABLED

TEST(SpefFusedCache, EigensolveThrowRetriesEveryNetOnTheMomentsPath) {
  const TwinDeck deck(6);
  engine::BatchOptions moments;
  moments.jobs = 1;
  moments.report.with_exact = false;
  const engine::FileBatchResult expected = engine::analyze_spef_file(deck.path.string(), moments);

  robust::fault::arm("core.report.eigensolve", robust::fault::Action::kThrow);
  engine::BatchOptions exact;
  exact.jobs = 1;
  const engine::FileBatchResult fused = engine::analyze_spef_file(deck.path.string(), exact);
  robust::fault::disarm_all();
  robust::fault::reset_fired();

  ASSERT_EQ(fused.batch.nets.size(), expected.batch.nets.size());
  EXPECT_EQ(fused.batch.stats.failures, 0u);
  EXPECT_EQ(fused.batch.stats.retried, fused.batch.nets.size());
  EXPECT_EQ(fused.batch.stats.degraded, fused.batch.nets.size());
  for (std::size_t i = 0; i < fused.batch.nets.size(); ++i) {
    const engine::NetResult& net = fused.batch.nets[i];
    EXPECT_TRUE(net.ok()) << net.name << ": " << net.error;
    EXPECT_TRUE(net.retried) << net.name;
    EXPECT_TRUE(net.degraded) << net.name;
    EXPECT_FALSE(expected.batch.nets[i].retried) << net.name;
    expect_same_rows(net, expected.batch.nets[i]);
  }
}

#endif  // RCT_FAULT_ENABLED

// ---------------------------------------------------------------------------
// A deck of several index stripes through the fused path: striped index,
// parallel render and the worker-side cache teardown all run (and run under
// ThreadSanitizer in scripts/check.sh).

/// Random nets, each followed by a renamed content twin every other time,
/// with one malformed net (negative resistance) in the middle.
struct StripedDeck {
  fs::path path;
  std::string text;
  std::size_t malformed_line = 0;

  StripedDeck() {
    SpefFile file;
    file.design = "striped";
    for (std::size_t i = 0; text.size() < 3 * spef::kMinStripeBytes; ++i) {
      const RCTree tree = gen::random_tree(6 + i % 12, 500 + i);
      const auto add = [&file](std::string name, RCTree t) {
        SpefNet net;
        net.name = std::move(name);
        net.driver = "drv";
        net.loads = t.leaves();
        net.tree = std::move(t);
        file.nets.push_back(std::move(net));
      };
      add("net" + std::to_string(i), testing::renamed(tree, "n" + std::to_string(i) + "_"));
      if (i % 2 == 0)
        add("twin" + std::to_string(i), testing::renamed(tree, "t" + std::to_string(i) + "_"));
      if (i % 64 == 0) text = write_spef(file);
    }
    text = write_spef(file);
    const std::size_t middle = text.find("*D_NET", text.size() / 2);
    malformed_line = 1 + static_cast<std::size_t>(
                             std::count(text.begin(), text.begin() + middle, '\n')) + 7;
    text.insert(middle,
                "*D_NET broken 1\n*CONN\n*P drv I\n*I b1 O\n*CAP\n1 b1 0.5\n*RES\n"
                "1 drv b1 -5\n*END\n\n");
    path = fs::temp_directory_path() /
           ("rct_striped_" + std::to_string(static_cast<unsigned long>(::getpid())) + ".spef");
    std::ofstream(path, std::ios::binary) << text;
  }
  ~StripedDeck() { fs::remove(path); }
};

TEST(SpefParallel, StripedDeckFusedMatchesSerialParseThenBatch) {
  const StripedDeck deck;
  ASSERT_GE(deck.text.size(), 2 * spef::kMinStripeBytes);

  SpefParseOptions lenient;
  lenient.lenient = true;
  lenient.path = deck.path.string();  // analyze_spef_file names its diagnostics by path
  const SpefFile parsed = parse_spef(deck.text, lenient);
  ASSERT_EQ(parsed.nets_rejected, 1u);
  ASSERT_GE(parsed.nets.size(), 768u);  // enough for a three-part parallel render
  engine::BatchOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  const std::string expected = engine::format_batch_json(engine::analyze_batch(parsed, serial));

  SpefParseOptions parse_options;
  parse_options.lenient = true;
  for (std::size_t jobs = 1; jobs <= 4; ++jobs) {
    engine::BatchOptions options;
    options.jobs = jobs;
    const engine::FileBatchResult fused =
        engine::analyze_spef_file(deck.path.string(), options, parse_options);
    EXPECT_EQ(expected, engine::format_batch_json(fused.batch)) << "jobs " << jobs;
    EXPECT_EQ(fused.nets_rejected, parsed.nets_rejected) << "jobs " << jobs;
    ASSERT_EQ(fused.diagnostics.size(), parsed.diagnostics.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < parsed.diagnostics.size(); ++i)
      EXPECT_EQ(fused.diagnostics[i].to_string("spef"), parsed.diagnostics[i].to_string("spef"))
          << "jobs " << jobs;
  }

  robust::Code serial_code = robust::Code::kNone;
  std::size_t serial_line = 0;
  try {
    (void)parse_spef(deck.text);
  } catch (const SpefError& e) {
    serial_code = e.code();
    serial_line = e.location().line;
  }
  EXPECT_EQ(serial_code, robust::Code::kNonPhysicalValue);
  EXPECT_EQ(serial_line, deck.malformed_line);
  for (std::size_t jobs = 1; jobs <= 4; ++jobs) {
    engine::BatchOptions options;
    options.jobs = jobs;
    robust::Code code = robust::Code::kNone;
    std::size_t line = 0;
    try {
      (void)engine::analyze_spef_file(deck.path.string(), options);
    } catch (const SpefError& e) {
      code = e.code();
      line = e.location().line;
    }
    EXPECT_EQ(code, serial_code) << "jobs " << jobs;
    EXPECT_EQ(line, serial_line) << "jobs " << jobs;
  }
}

// ---------------------------------------------------------------------------
// Tokenization edge cases through the full pipeline.

TEST(SpefParallel, CrlfLineEndingsParse) {
  const std::string text =
      "*DESIGN \"crlf\"\r\n*D_NET n 1\r\n*CONN\r\n*P a I\r\n*CAP\r\n1 b 5\r\n"
      "*RES\r\n1 a b 2\r\n*END\r\n";
  const SpefFile expected = parse_spef(text);
  engine::ParseOptions options;
  options.jobs = 2;
  const engine::ParsedSpef parsed = engine::parse_spef_parallel(text, options);
  expect_same_file(expected, parsed.file, "crlf");
  ASSERT_EQ(parsed.file.nets.size(), 1u);
  EXPECT_EQ(parsed.file.design, "crlf");
  EXPECT_DOUBLE_EQ(parsed.file.nets[0].tree.capacitance(0), 5e-12);
}

TEST(SpefParallel, TabSeparatedTokensParse) {
  const std::string text =
      "*D_NET\tn\t1\n*CONN\n*P\ta\tI\n*CAP\n1\tb\t5\n*RES\n1\ta\tb\t2\n*END\n";
  const engine::ParsedSpef parsed = engine::parse_spef_parallel(text, {});
  ASSERT_EQ(parsed.file.nets.size(), 1u);
  EXPECT_EQ(parsed.file.nets[0].name, "n");
  EXPECT_DOUBLE_EQ(parsed.file.nets[0].tree.resistance(0), 2.0);
  expect_same_file(parse_spef(text), parsed.file, "tabs");
}

TEST(SpefParallel, FinalSectionWithoutTrailingNewline) {
  const std::string text =
      "*D_NET n 1\n*CONN\n*P a I\n*CAP\n1 b 5\n*RES\n1 a b 2\n*END";  // no \n
  const engine::ParsedSpef parsed = engine::parse_spef_parallel(text, {});
  ASSERT_EQ(parsed.file.nets.size(), 1u);
  expect_same_file(parse_spef(text), parsed.file, "no trailing newline");
}

TEST(SpefParallel, TruncatedFinalSectionMatchesSerial) {
  const std::string text = "*D_NET n 1\n*CONN\n*P a I\n*CAP\n1 b 5";  // no *RES/*END
  SpefParseOptions lenient;
  lenient.lenient = true;
  engine::ParseOptions options;
  options.spef.lenient = true;
  const engine::ParsedSpef parsed = engine::parse_spef_parallel(text, options);
  expect_same_file(parse_spef(text, lenient), parsed.file, "truncated tail");
}

TEST(SpefParallel, FuzzSoupMatchesSerial) {
  // Seeded pseudo-fuzz: random token soup must give the parallel pipeline
  // the same lenient outcome (and the same strict error) as the serial
  // parser — never a crash, never a divergence.
  std::mt19937_64 rng(7);
  static constexpr char kChars[] = "abcXYZ0189.*-+_ \t\n\r\"RCrpnlDNET()=;/";
  std::uniform_int_distribution<std::size_t> pick(0, sizeof(kChars) - 2);
  for (int i = 0; i < 150; ++i) {
    std::string soup = "*SPEF\n";
    const std::size_t len = 30 + (static_cast<std::size_t>(i) * 13) % 500;
    for (std::size_t k = 0; k < len; ++k) soup.push_back(kChars[pick(rng)]);
    SpefParseOptions lenient;
    lenient.lenient = true;
    engine::ParseOptions options;
    options.jobs = 4;
    options.spef.lenient = true;
    const SpefFile expected = parse_spef(soup, lenient);
    const engine::ParsedSpef parsed = engine::parse_spef_parallel(soup, options);
    expect_same_file(expected, parsed.file, "soup seed " + std::to_string(i));
  }
}

TEST(SpefParallel, FuzzTruncationsMatchSerial) {
  const std::string base = read_file(fs::path(RCT_TESTDATA_DIR) / "two_nets.spef");
  SpefParseOptions lenient;
  lenient.lenient = true;
  engine::ParseOptions options;
  options.jobs = 4;
  options.spef.lenient = true;
  for (std::size_t cut = 1; cut < base.size(); cut += 7) {
    const std::string text = base.substr(0, cut);
    const SpefFile expected = parse_spef(text, lenient);
    const engine::ParsedSpef parsed = engine::parse_spef_parallel(text, options);
    expect_same_file(expected, parsed.file, "cut " + std::to_string(cut));
  }
}

// ---------------------------------------------------------------------------
// Index pass.

TEST(SpefIndex, FindsSectionExtentsAndLines) {
  const std::string text =
      "*SPEF \"x\"\n"          // line 1   run
      "*D_NET a 1\n"           // line 2   section 0
      "*END\n"                 // line 3
      "stray\n"                // line 4   run
      "*D_NET b 1\n"           // line 5   section 1 (no *END: runs to EOF)
      "1 n 2\n";               // line 6
  const spef::Layout layout = spef::index_spef(text);
  EXPECT_EQ(layout.bytes, text.size());
  EXPECT_EQ(layout.lines, 7u);  // trailing newline => phantom empty line 7
  ASSERT_EQ(layout.sections.size(), 2u);
  EXPECT_EQ(layout.sections[0].first_line, 2u);
  EXPECT_EQ(layout.sections[0].end_line, 3u);
  EXPECT_TRUE(layout.sections[0].has_end);
  EXPECT_EQ(text.substr(layout.sections[0].offset, layout.sections[0].length),
            "*D_NET a 1\n*END\n");
  EXPECT_EQ(layout.sections[1].first_line, 5u);
  EXPECT_FALSE(layout.sections[1].has_end);
  ASSERT_EQ(layout.runs.size(), 2u);
  EXPECT_EQ(layout.runs[0].first_line, 1u);
  EXPECT_EQ(layout.runs[1].first_line, 4u);
  ASSERT_EQ(layout.chunks.size(), 4u);
  EXPECT_FALSE(layout.chunks[0].is_section);
  EXPECT_TRUE(layout.chunks[1].is_section);
}

TEST(SpefIndex, ChunkedFeedMatchesWholeBuffer) {
  const std::string text =
      "*SPEF \"x\"\r\n*D_NET alpha 1\n*END\n\n*D_NET beta 2\r\n*END\r\n";
  const spef::Layout whole = spef::index_spef(text);
  // Re-feed byte-by-byte: lines and the *D_NET/*END tokens span chunks.
  spef::Indexer indexer;
  for (char c : text) indexer.feed({&c, 1});
  const spef::Layout chunked = indexer.finish();
  EXPECT_EQ(whole.bytes, chunked.bytes);
  EXPECT_EQ(whole.lines, chunked.lines);
  ASSERT_EQ(whole.sections.size(), chunked.sections.size());
  for (std::size_t i = 0; i < whole.sections.size(); ++i) {
    EXPECT_EQ(whole.sections[i].offset, chunked.sections[i].offset);
    EXPECT_EQ(whole.sections[i].length, chunked.sections[i].length);
    EXPECT_EQ(whole.sections[i].first_line, chunked.sections[i].first_line);
    EXPECT_EQ(whole.sections[i].end_line, chunked.sections[i].end_line);
  }
}

TEST(SpefIndex, OffsetsPast2GiBStayExact) {
  // Drive the byte/line counters past 2^31 by re-feeding one 8 MiB filler
  // buffer instead of allocating a >2 GiB fixture.  Only offsets and line
  // numbers are meaningful for re-fed buffers (the extents do not alias one
  // live allocation), which is exactly what this test checks.
  const std::string line = "// filler comment line to pad the deck\n";
  std::string block;
  const std::size_t block_bytes = 8u << 20;
  while (block.size() + line.size() <= block_bytes) block += line;
  const std::size_t lines_per_block = block.size() / line.size();

  spef::Indexer indexer;
  const std::uint64_t two_gib = std::uint64_t{1} << 31;
  std::uint64_t fed = 0;
  std::size_t blocks = 0;
  while (fed <= two_gib) {
    indexer.feed(block);
    fed += block.size();
    ++blocks;
  }
  EXPECT_EQ(indexer.bytes_consumed(), fed);
  ASSERT_GT(fed, two_gib);

  const std::string tail = "*D_NET deep 1\n*END\n";
  indexer.feed(tail);
  const spef::Layout layout = indexer.finish();
  EXPECT_EQ(layout.bytes, fed + tail.size());
  ASSERT_EQ(layout.sections.size(), 1u);
  EXPECT_EQ(layout.sections[0].offset, fed);          // starts past 2 GiB
  EXPECT_EQ(layout.sections[0].length, tail.size());
  EXPECT_EQ(layout.sections[0].first_line, blocks * lines_per_block + 1);
  EXPECT_EQ(layout.sections[0].end_line, blocks * lines_per_block + 2);
  EXPECT_TRUE(layout.sections[0].has_end);
}

// ---------------------------------------------------------------------------
// Striped index: any stripe count, and any stripe run order, must give the
// one-stripe layout field for field.

void expect_same_layout(const spef::Layout& expected, const spef::Layout& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.bytes, actual.bytes) << context;
  EXPECT_EQ(expected.lines, actual.lines) << context;
  ASSERT_EQ(expected.sections.size(), actual.sections.size()) << context;
  for (std::size_t i = 0; i < expected.sections.size(); ++i) {
    const spef::Section& e = expected.sections[i];
    const spef::Section& a = actual.sections[i];
    EXPECT_EQ(e.offset, a.offset) << context << " section " << i;
    EXPECT_EQ(e.length, a.length) << context << " section " << i;
    EXPECT_EQ(e.first_line, a.first_line) << context << " section " << i;
    EXPECT_EQ(e.end_line, a.end_line) << context << " section " << i;
    EXPECT_EQ(e.has_end, a.has_end) << context << " section " << i;
  }
  ASSERT_EQ(expected.runs.size(), actual.runs.size()) << context;
  for (std::size_t i = 0; i < expected.runs.size(); ++i) {
    EXPECT_EQ(expected.runs[i].offset, actual.runs[i].offset) << context << " run " << i;
    EXPECT_EQ(expected.runs[i].length, actual.runs[i].length) << context << " run " << i;
    EXPECT_EQ(expected.runs[i].first_line, actual.runs[i].first_line) << context << " run " << i;
  }
  ASSERT_EQ(expected.chunks.size(), actual.chunks.size()) << context;
  for (std::size_t i = 0; i < expected.chunks.size(); ++i) {
    EXPECT_EQ(expected.chunks[i].is_section, actual.chunks[i].is_section)
        << context << " chunk " << i;
    EXPECT_EQ(expected.chunks[i].index, actual.chunks[i].index) << context << " chunk " << i;
  }
}

/// Runs the stripes last-first, so no stripe can lean on its predecessor.
const spef::ForEach kReversed = [](std::size_t n, const std::function<void(std::size_t)>& fn) {
  for (std::size_t k = n; k-- > 0;) fn(k);
};

void expect_stripes_match(const std::string& text, const std::string& context) {
  const spef::Layout one = spef::index_spef(text);
  for (std::size_t stripes = 1; stripes <= 8; ++stripes)
    expect_same_layout(one, spef::index_spef(text, stripes, kReversed),
                       context + " stripes=" + std::to_string(stripes));
}

TEST(SpefIndex, StripedMatchesOneStripeOnCorpus) {
  for (const fs::path& deck : corpus()) expect_stripes_match(read_file(deck), deck.filename());
}

TEST(SpefIndex, StripedMatchesOneStripeOnEdgeTexts) {
  const std::pair<const char*, const char*> texts[] = {
      {"crlf", "*SPEF \"x\"\r\n*D_NET a 1\r\n*CONN\r\n*END\r\n\r\n*D_NET b 2\r\n*END\r\n"},
      {"comments",
       "// header\n*D_NET a 1 // trailing\n*END// glued\n  // indented\n*D_NET//x\n*END\n"},
      {"lowercase", "*d_net a 1\n*conn\n*end\n\n*D_net b 1\n*End\n"},
      {"end outside any section", "*END\n*SPEF \"x\"\n*END\n*D_NET a 1\n*END\n*END\nstray\n"},
      {"missing end", "*D_NET a 1\n*CONN\n*D_NET b 1\n1 x 2\n"},
      {"no trailing newline", "*D_NET a 1\n*END\n\n*D_NET b 1\n*END"},
      {"empty", ""},
      {"one newline", "\n"},
  };
  for (const auto& [name, text] : texts) expect_stripes_match(text, name);
}

TEST(SpefIndex, StripeCutsAnywhereMatchOneStripe) {
  // A growing first line slides every stripe cut across each line of the
  // body in turn: into a section, into a file-scope run, onto the blank
  // separator lines, and onto *D_NET / *END lines themselves.
  const std::string body =
      "*SPEF \"x\"\n*DESIGN \"d\"\n\n*D_NET a 1\n*CONN\n*P p I\n*END\n\n"
      "stray statement\n// comment\n\n*D_NET b 2\n*CAP\n1 n 1\n*END\n\n\n*D_NET c 3\n";
  for (std::size_t pad = 0; pad <= 2 * body.size(); ++pad) {
    const std::string text = "//" + std::string(pad, 'x') + "\n" + body;
    const spef::Layout one = spef::index_spef(text);
    for (const std::size_t stripes : {2u, 3u})
      expect_same_layout(one, spef::index_spef(text, stripes, kReversed),
                         "pad=" + std::to_string(pad) + " stripes=" + std::to_string(stripes));
  }
}

TEST(SpefIndex, StripeCountFollowsInputSize) {
  EXPECT_EQ(spef::stripe_count(0, 4), 1u);
  EXPECT_EQ(spef::stripe_count(2 * spef::kMinStripeBytes - 1, 4), 1u);
  EXPECT_EQ(spef::stripe_count(2 * spef::kMinStripeBytes, 4), 2u);
  EXPECT_EQ(spef::stripe_count(100 * spef::kMinStripeBytes, 3), 3u);
  EXPECT_EQ(spef::stripe_count(100 * spef::kMinStripeBytes, 0), 1u);
}

// ---------------------------------------------------------------------------
// MappedFile.

TEST(MappedFile, MapsRegularFiles) {
  const fs::path path = fs::temp_directory_path() / "rct_mapped_file_test.spef";
  const std::string content = "*D_NET n 1\n*END\n";
  std::ofstream(path, std::ios::binary) << content;
  MappedFile file;
  ASSERT_TRUE(file.open(path.string())) << file.error();
  EXPECT_TRUE(file.ok());
  EXPECT_TRUE(file.mapped());
  EXPECT_EQ(file.view(), content);
  EXPECT_EQ(file.size(), content.size());
  file.close();
  EXPECT_EQ(file.size(), 0u);
  fs::remove(path);
}

TEST(MappedFile, EmptyFileFallsBackAndIsOk) {
  const fs::path path = fs::temp_directory_path() / "rct_mapped_empty_test.spef";
  std::ofstream(path, std::ios::binary).flush();
  MappedFile file;
  ASSERT_TRUE(file.open(path.string())) << file.error();
  EXPECT_TRUE(file.ok());
  EXPECT_FALSE(file.mapped());  // mmap of length 0 is an error; heap path
  EXPECT_EQ(file.view(), "");
  fs::remove(path);
}

TEST(MappedFile, NonRegularFileUsesHeapFallback) {
  MappedFile file;
  if (!file.open("/proc/self/status")) GTEST_SKIP() << "/proc not available";
  EXPECT_TRUE(file.ok());
  EXPECT_FALSE(file.mapped());
  EXPECT_NE(file.view().find("Name:"), std::string_view::npos);
}

TEST(MappedFile, MissingFileReportsError) {
  MappedFile file;
  EXPECT_FALSE(file.open("/nonexistent/rct/deck.spef"));
  EXPECT_FALSE(file.ok());
  EXPECT_FALSE(file.error().empty());
}

TEST(MappedFile, MoveTransfersTheMapping) {
  const fs::path path = fs::temp_directory_path() / "rct_mapped_move_test.spef";
  const std::string content = "*D_NET m 1\n*END\n";
  std::ofstream(path, std::ios::binary) << content;
  MappedFile a;
  ASSERT_TRUE(a.open(path.string()));
  MappedFile b(std::move(a));
  EXPECT_EQ(b.view(), content);
  EXPECT_FALSE(a.ok());  // NOLINT(bugprone-use-after-move): moved-from is empty
  fs::remove(path);
}

}  // namespace
}  // namespace rct
