#pragma once
// Decomposed SPEF parse pipeline.  parse_spef() is equivalent to:
//
//   ParsePlan plan = prepare_spef(text, options);        // index + header pass
//   for (i : plan.layout.sections)                       // parallelizable
//     results[i] = parse_spef_section(text, plan, i, arena);
//   SpefFile file = merge_spef(plan, results, options);  // deterministic order
//
// prepare_spef() runs the index pass (spef_index.hpp) — striped across a
// caller's threads when it passes a stripe count and a ForEach — and then
// processes the file-scope line runs serially — header keywords, *DESIGN,
// unit lines, stray statements — recording the unit state each *D_NET
// section starts with.  parse_spef_section() parses one *D_NET section against its unit
// snapshot; sections are independent, so engine::parse_spef_parallel fans
// them across a thread pool.  merge_spef() stitches run and section results
// back together in file (chunk) order, which reproduces the serial parser's
// diagnostic order exactly; in strict mode it rethrows the error from the
// earliest chunk — the same error the serial parser would have thrown first.
// Its file-level half, merge_file_scope(), serves callers that consume the
// nets as they are parsed (engine::analyze_spef_file) and only count them.
//
// Known (intentional) divergence from the old single-pass parser, affecting
// only pathological inputs: a unit line INSIDE a *D_NET section used to
// rescale every later net; now it applies only within its own section.  Unit
// lines at file scope — where every real deck puts them — behave identically.
//
// Arena lifetime rule: ShardResult owns only heap data (SpefNet trees,
// diagnostic strings).  Scratch allocated from the caller's Arena dies at
// Arena::reset(); node-name views point into `text`, which must outlive the
// returned SpefFile only if callers keep views (SpefFile itself copies).

#include <cstddef>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "rctree/arena.hpp"
#include "rctree/spef.hpp"
#include "rctree/spef_index.hpp"

namespace rct::spef {

/// Unit scale state (seconds / farads / ohms per SPEF unit).
struct Units {
  double time = 1e-9;
  double cap = 1e-12;
  double res = 1.0;
};

/// Output of parsing one chunk (a file-scope run or a *D_NET section).
struct ShardResult {
  std::vector<SpefNet> nets;                    ///< at most 1 for sections
  std::vector<robust::Diagnostic> diagnostics;  ///< lenient mode, input order
  std::size_t nets_rejected = 0;
  bool has_design = false;
  std::string design;  ///< last *DESIGN value seen in this chunk
  /// Strict mode: the error this chunk's lines would have thrown first in
  /// the serial parser (rethrown by merge_spef for the earliest chunk).
  std::exception_ptr error;
};

/// Index + serial header pass.
struct ParsePlan {
  Layout layout;
  std::vector<Units> section_units;      ///< unit snapshot per section
  std::vector<ShardResult> run_results;  ///< one per layout.runs
  Units final_units;                     ///< unit state after the last run
};

/// Indexes `text` in `stripes` stripes through `for_each` (see index_spef;
/// the layout does not depend on either), then runs the header pass.
[[nodiscard]] ParsePlan prepare_spef(std::string_view text, const SpefParseOptions& options,
                                     std::size_t stripes = 1, const ForEach& for_each = {});

/// Parses section `index` of plan.layout against `text` (the same buffer the
/// plan was prepared from).  Scratch comes from `arena`; the caller may
/// reset() it after each call.  Thread-safe across distinct sections given
/// distinct arenas.
[[nodiscard]] ShardResult parse_spef_section(std::string_view text, const ParsePlan& plan,
                                             std::size_t index,
                                             const SpefParseOptions& options, Arena& arena);

/// Everything a merged SpefFile holds except its nets.
struct FileScope {
  Units units;  ///< unit state after the last run
  std::string design;
  std::vector<robust::Diagnostic> diagnostics;  ///< lenient mode, file order
  std::size_t nets_rejected = 0;
};

/// The file-level half of the merge, in chunk order.  `sections[i]` must be
/// the result for plan.layout.sections[i]; their nets are left alone, and
/// `nets` (how many the parse produced) decides the empty-input rule.
/// Strict mode: rethrows the earliest chunk's error.
[[nodiscard]] FileScope merge_file_scope(ParsePlan& plan, std::vector<ShardResult>& sections,
                                         std::size_t nets, const SpefParseOptions& options);

/// Assembles the final SpefFile in file order: merge_file_scope plus the
/// nets.  Consumes both arguments.
[[nodiscard]] SpefFile merge_spef(ParsePlan&& plan, std::vector<ShardResult>&& sections,
                                  const SpefParseOptions& options);

}  // namespace rct::spef
