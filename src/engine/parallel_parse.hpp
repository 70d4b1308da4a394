#pragma once
// Parallel SPEF ingestion: the decomposed parse pipeline (rctree/
// spef_pipeline.hpp) fanned across the engine's work-stealing ThreadPool.
//
// The pool is created first: prepare_spef() indexes the mapped bytes in
// newline-aligned stripes on it (one per worker once the input is at least
// two spef::kMinStripeBytes long) and replays the file-scope lines serially
// (units, *DESIGN, header keywords); the *D_NET sections it found are
// independent, so parse_spef_parallel() parses them concurrently — one
// task per section, each against its own unit snapshot with a per-thread
// arena for scratch — and writes every result into a preassigned slot.
// merge_spef() then stitches the slots back together in file order, so the
// returned SpefFile (nets, lenient diagnostics, strict-mode error choice)
// is byte-identical to the serial parse_spef() for any thread count.
//
// Observability: `parse.bytes` (counter), `parse.sections.total` /
// `parse.sections.completed` (counters; the CLI --progress meter's parse
// phase), `parse.index.seconds` and `parse.nets.seconds` (histograms), and
// one flight-recorder "parse" event per section.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "rctree/spef.hpp"
#include "rctree/spef_pipeline.hpp"

namespace rct::engine {

/// Knobs for one parallel parse.
struct ParseOptions {
  /// Parser threads; 0 = hardware concurrency.  The pool exists before the
  /// index (which it stripes), so it is not capped at the section count.
  /// 1 indexes and parses on the calling thread with no pool; a deck of
  /// fewer than two sections is parsed on the calling thread too.
  std::size_t jobs = 0;
  SpefParseOptions spef;  ///< strict/lenient and the diagnostics path
};

/// What the parse did and where the time went.  All wall-clock (this is an
/// I/O-shaped phase); rctbench reports it as `rctree.parse_mb_per_s`.
struct ParseStats {
  std::size_t bytes = 0;
  std::size_t sections = 0;       ///< *D_NET sections found by the index pass
  std::size_t nets = 0;           ///< nets that survived parsing
  std::size_t nets_rejected = 0;  ///< lenient mode: sections skipped
  std::size_t threads = 0;        ///< pool size used (1 = serial sections)
  double index_seconds = 0.0;     ///< index + file-scope pass
  double sections_seconds = 0.0;  ///< section fan-out (parallel wall)
  double total_seconds = 0.0;     ///< map + index + sections + merge

  /// One-line human-readable summary with derived throughput (MB/s and
  /// nets/s).  Contains timings — stderr only, never stdout.
  [[nodiscard]] std::string summary() const;
};

/// A parsed file plus its parse accounting.
struct ParsedSpef {
  SpefFile file;
  ParseStats stats;
};

/// Parses SPEF text with the section fan-out described above.  Throws
/// SpefError exactly where parse_spef() would (strict mode picks the error
/// of the earliest-in-file chunk, not the first to finish).
[[nodiscard]] ParsedSpef parse_spef_parallel(std::string_view text,
                                             const ParseOptions& options = {});

/// Maps `path` (mmap with a heap fallback for pipes/specials) and parses
/// it.  Throws SpefError(kFileOpen) when the file cannot be opened.
[[nodiscard]] ParsedSpef parse_spef_parallel_file(const std::string& path,
                                                  const ParseOptions& options = {});

class ThreadPool;  // thread_pool.hpp

namespace detail {

/// The caller's hooks into the section driver.
struct SectionHooks {
  const char* index_span = nullptr;     ///< trace name of the index pass (null: none)
  const char* sections_span = nullptr;  ///< trace name of the fan-out (null: none)
  /// On the calling thread once the index has counted the sections.
  std::function<void(std::size_t sections)> indexed;
  /// On the thread that parsed section `i`, with its result slot.
  std::function<void(std::size_t i, spef::ShardResult& section)> parsed;
};

/// The index plan plus one result slot per section.
struct ParsedSections {
  spef::ParsePlan plan;
  std::vector<spef::ShardResult> sections;
};

/// The section driver behind parse_spef_parallel() and analyze_spef_file().
/// Indexes `text` (striped across `pool` when given), then parses every
/// *D_NET section into its slot: one task per section on `pool` when there
/// is one and the deck has two or more sections, otherwise on the calling
/// thread, stopping at the first strict error.  Fills the index, section
/// and thread fields of `stats`.
[[nodiscard]] ParsedSections parse_sections(ThreadPool* pool, std::string_view text,
                                            const SpefParseOptions& options,
                                            ParseStats& stats, const SectionHooks& hooks = {});

}  // namespace detail

}  // namespace rct::engine
