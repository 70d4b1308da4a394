#pragma once
// Per-node delay report: every metric the paper's Table I compares, for any
// tree, in one call — plus a plain-text table renderer.  This is the "STA
// net report" entry point downstream users call.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/tree_context.hpp"
#include "rctree/rctree.hpp"
#include "robust/deadline.hpp"

namespace rct::core {

/// All Table-I-style metrics at one node (seconds).  Rows are pure
/// content: they name their node by id, and renderers look the name up in
/// the tree, so content-identical trees share rows whatever their names.
struct NodeReport {
  NodeId node;                        ///< the node this row describes
  std::size_t depth;                  ///< edges from the source
  double elmore;                      ///< T_D (upper bound)
  double sigma;                       ///< sqrt(mu2) of h(t)
  double skewness;                    ///< gamma of h(t) (>= 0 by Lemma 2)
  double lower_bound;                 ///< max(T_D - sigma, 0)
  double single_pole;                 ///< ln(2) T_D
  double prh_tmin;                    ///< Penfield-Rubinstein lower, 50%
  double prh_tmax;                    ///< Penfield-Rubinstein upper, 50%
  std::optional<double> exact_delay;  ///< exact 50% step delay, if computed
  std::optional<double> exact_rise;   ///< exact 10-90% rise time, if computed
  /// Degradation ladder: true when the exact path was requested but its
  /// result was discarded (eigensolve produced non-finite poles, the row's
  /// residues failed the moment-consistency oracle, or the exact delay was
  /// NaN / violated the paper's lower <= exact <= elmore guarantee) and the
  /// row fell back to moment bounds — or when the moments themselves are
  /// non-finite (nothing left to fall back to).
  bool degraded = false;
};

/// Options for report generation.
struct ReportOptions {
  bool with_exact = true;      ///< run the exact pole/residue solve (O(N^2))
  double fraction = 0.5;       ///< threshold fraction for delays/bounds
  bool leaves_only = false;    ///< restrict rows to leaf nodes
  /// Largest tree (in nodes) the O(N^2) exact solve is attempted on; larger
  /// trees get bound-only rows even when with_exact is set.  Shared by the
  /// CLI `spef` and `batch` commands (--exact-limit).
  std::size_t exact_node_limit = 2000;
  /// Cooperative deadline checked before the eigensolve and every few
  /// rows; expiry throws robust::Error(kTimeout).  Borrowed, not owned;
  /// nullptr = no deadline.  Deliberately excluded from NetKey hashing
  /// (it never changes the rows, only whether they finish).
  const robust::Deadline* deadline = nullptr;
};

/// Builds the report for every node (or every leaf).  Constructs a
/// one-shot analysis::TreeContext internally and forwards to the overload
/// below.
[[nodiscard]] std::vector<NodeReport> build_report(const RCTree& tree,
                                                   const ReportOptions& options = {});

/// Same report from a caller-built TreeContext, for callers that already
/// hold one or read its arrays too.  All derived arrays (depths, Elmore
/// delays, impulse stats, PRH terms) come from the context, so the per-node
/// loop is a fixed set of O(N) array reads — no per-call tree walks.
/// Output is bit-identical to the tree overload.
[[nodiscard]] std::vector<NodeReport> build_report(const analysis::TreeContext& context,
                                                   const ReportOptions& options = {});

/// Moment-consistency oracle for one exact row: the residues `row` over
/// `poles` must reproduce the path-traced moments, |sum_j a_j - 1| <= 1e-9
/// (m0) and |sum_j a_j/lambda_j - elmore| <= 1e-9 elmore + elmore_slack
/// (m1 = T_D).  `elmore_slack` admits a known shift of the solved system's
/// T_D, such as the exact solver's capacitance floor.  O(poles).
[[nodiscard]] bool exact_row_consistent(std::span<const double> row,
                                        std::span<const double> poles, double elmore,
                                        double elmore_slack = 0.0);

/// Renders reports as an aligned text table (times in ns), naming each row
/// by `tree.name(row.node)`; `rows` must come from `tree` or a content twin.
[[nodiscard]] std::string format_report(const RCTree& tree, const std::vector<NodeReport>& rows);

/// Binary row serialization — the persistence format the content-addressed
/// on-disk store (src/server) writes under each NetKey.  Little-endian,
/// fixed layout: u64 row count, then per row the u64 node id, the u64
/// depth, the seven double metrics as raw bit patterns (bit-exact round
/// trip, NaN/Inf safe) and one flag byte (exact_delay / exact_rise
/// presence, degraded) followed by the optional exact values.  No names:
/// the blob is content only.  The blob itself is unversioned and does not
/// range-check node ids (it knows no tree); the store's envelope carries
/// version + checksum, and the store checks ids against its key.
[[nodiscard]] std::string serialize_report(const std::vector<NodeReport>& rows);

/// Inverse of serialize_report().  Returns nullopt on any truncation or
/// malformed framing (never throws, never reads out of bounds) so callers
/// can treat a damaged cache entry as a miss and recompute.
[[nodiscard]] std::optional<std::vector<NodeReport>> deserialize_report(
    std::string_view bytes);

}  // namespace rct::core
