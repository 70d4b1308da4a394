#pragma once
// Parallel batch timing engine.
//
// Real extracted designs carry thousands of independent nets; bound reports
// for them are embarrassingly parallel.  analyze_batch()/analyze_nets() fan
// the nets of a SpefFile out across a ThreadPool — one task per net, each
// producing the existing core::build_report rows — consult a
// content-addressed NetCache so repeated nets (clock meshes, stamped
// macros) skip recomputation, and merge results deterministically in input
// order: the output is bit-identical for any thread count.
//
// Failures are per-net, never process-fatal: a net that throws gets a
// structured failure record (typed robust::Code, phase, message) and every
// other net still completes.  Nets whose exact path fails get one automatic
// retry on the cheap moments path; rows produced that way are flagged
// `degraded`.  A cooperative per-net deadline (net_timeout_ms) and a
// failure budget (max_failures) bound runaway batches.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "engine/parallel_parse.hpp"
#include "rctree/spef.hpp"
#include "robust/error.hpp"

namespace rct::engine {

class CacheBackend;  // net_cache.hpp

/// Knobs for one batch run.
struct BatchOptions {
  std::size_t jobs = 0;        ///< worker threads; 0 = hardware concurrency
  /// Shared per-net report options.  leaves_only is rejected (kUnsupported):
  /// the renderers index each load's row by node id.
  core::ReportOptions report;
  bool use_cache = true;       ///< skip recomputation of content-identical nets
  /// LRU cap on the in-memory NetCache's row entries; 0 keeps the pre-cap
  /// unbounded behavior (stdout stays byte-identical).  Maps to the CLI's
  /// --cache-max-entries.
  std::size_t cache_max_entries = 0;
  /// Optional second-level persistent store consulted on cache misses and
  /// written through on inserts (e.g. server::DiskStore via `--store DIR`);
  /// nullptr = memory only.  Ignored when use_cache is false.
  std::shared_ptr<CacheBackend> cache_backend;
  /// Cooperative per-net deadline in milliseconds; 0 disables.  Checked at
  /// analysis checkpoints (threads are never killed), so overshoot is
  /// bounded by the longest uninterruptible step, not by luck.
  std::uint64_t net_timeout_ms = 0;
  /// Stop scheduling new nets once this many have failed; 0 = unlimited.
  /// Skipped nets get a kCancelled record.  WHICH nets get cancelled is
  /// scheduling-dependent: workers pop their own deque newest-first while
  /// the caller is still submitting, so even at jobs = 1 the order (and
  /// the cancelled set) varies between identical runs.  Once the budget
  /// trips, stdout is not byte-identical across runs or --jobs values.
  std::size_t max_failures = 0;
  /// One automatic retry of a failed exact-path net on the moments path
  /// (with_exact = false, fresh deadline).  Parse/topology failures are
  /// not retried — they would fail identically.
  bool retry_on_failure = true;
};

/// Outcome for one input net.
struct NetResult {
  std::string name;
  std::string driver;
  std::vector<NodeId> loads;
  std::vector<std::string> load_names;  ///< tree name of each of `loads`, in order
  std::size_t nodes = 0;
  double total_capacitance = 0.0;       ///< farads
  std::vector<core::NodeReport> rows;   ///< empty when error is set
  std::string error;                    ///< per-net failure message, if any
  /// Typed failure code (kNone when ok); category via robust::category_of.
  robust::Code code = robust::Code::kNone;
  /// Where the final failure happened: "analyze", "retry" or "cancelled".
  /// Empty when ok.
  std::string phase;
  bool retried = false;    ///< rows (or final failure) came from the moments retry
  bool timed_out = false;  ///< a deadline expired (even if the retry then succeeded)
  /// Wall time spent analyzing this net, summed across attempts (0 for
  /// cancelled nets).  Feeds the CLI's `--top-slow` table; deliberately
  /// absent from the deterministic stdout renderers.
  double analyze_seconds = 0.0;
  /// Any row degraded (exact result discarded, see core::NodeReport), or
  /// the whole net fell back to the moments retry.
  bool degraded = false;
  bool from_cache = false;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Wall and process-CPU time of one engine phase, seconds.
struct PhaseTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Observability: what the engine did and where the time went.  The
/// counter fields are a per-run view over the global obs::MetricsRegistry
/// (captured as before/after deltas of the `engine.*` counters), so this
/// summary, `--metrics-out` snapshots and the `--progress` meter all read
/// one source of truth.  Concurrent analyze_nets() runs in one process
/// would fold into each other's deltas; run batches sequentially when the
/// per-run stats matter.
struct EngineStats {
  std::size_t nets = 0;       ///< input nets
  std::size_t tasks_run = 0;  ///< analyze attempts (cache misses; retries count)
  std::size_t cache_hits = 0;
  std::size_t failures = 0;   ///< nets with a failure record (cancelled included)
  std::size_t degraded = 0;   ///< nets with any degraded row or a moments retry
  std::size_t retried = 0;    ///< nets that took the automatic moments retry
  std::size_t timed_out = 0;  ///< nets that hit the cooperative deadline
  std::size_t cancelled = 0;  ///< nets skipped after the failure budget tripped
  std::size_t threads = 0;    ///< pool size used
  PhaseTime analyze;        ///< fan-out + per-net analysis
  PhaseTime merge;          ///< in-order result collection
  PhaseTime total;

  /// One-line human-readable summary (for stderr; contains timings, so it is
  /// intentionally kept out of the deterministic stdout renderers below).
  [[nodiscard]] std::string summary() const;
};

/// A finished batch: one NetResult per input net, in input order.
struct BatchResult {
  std::string design;  ///< from the SPEF header; empty for raw net spans
  std::vector<NetResult> nets;
  EngineStats stats;
};

/// Analyzes a span of nets across `options.jobs` threads.
[[nodiscard]] BatchResult analyze_nets(std::span<const SpefNet> nets,
                                       const BatchOptions& options = {});

/// Analyzes every net of a parsed SPEF file.
[[nodiscard]] BatchResult analyze_batch(const SpefFile& file, const BatchOptions& options = {});

/// A batch run that parsed its own input: the BatchResult plus the
/// file-level parse outcome (lenient diagnostics in file order, rejected
/// section count, parse accounting).
struct FileBatchResult {
  BatchResult batch;
  std::vector<robust::Diagnostic> diagnostics;
  std::size_t nets_rejected = 0;
  ParseStats parse;
};

/// Maps `path` and runs the whole pass on one thread pool of
/// `options.jobs` workers, created before the index (which it stripes, see
/// spef::index_spef), so it is not capped at the section count.  Each
/// *D_NET section is one task that parses the section and immediately
/// analyzes the net it produced, so early nets are being timed while late
/// sections are still being tokenized — there is no parse/analyze barrier.
/// The finished row cache is freed on the workers while the calling thread
/// merges.
/// Results land in per-section slots and are merged in file order, so
/// nets, rows, diagnostics and the strict-mode error choice are identical
/// to parse + analyze_batch() run back to back, for any thread count.
/// `parse_options` selects strict/lenient.  Throws SpefError exactly where
/// parse_spef_file() would.
[[nodiscard]] FileBatchResult analyze_spef_file(const std::string& path,
                                                const BatchOptions& options = {},
                                                const SpefParseOptions& parse_options = {});

/// Plain-text renderer used by `rct batch`.  Deterministic: no timings,
/// thread counts or cache provenance, so output is byte-identical for any
/// --jobs value (except under a tripped max_failures budget, where the set
/// of cancelled nets varies between runs).
[[nodiscard]] std::string format_batch(const BatchResult& result);

/// JSON renderer (schema documented in README.md), same determinism
/// guarantee as format_batch().  Renders contiguous net ranges on
/// `result.stats.threads` threads (serially for one thread or a small
/// batch) and joins them in order; the bytes do not depend on the split.
[[nodiscard]] std::string format_batch_json(const BatchResult& result);

}  // namespace rct::engine
