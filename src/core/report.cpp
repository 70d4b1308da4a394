#include "core/report.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/bounds.hpp"
#include "core/elmore.hpp"
#include "core/penfield_rubinstein.hpp"
#include "moments/central.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "robust/fault.hpp"
#include "sim/exact.hpp"

namespace rct::core {
namespace {

/// Every pole of a healthy RC tree is finite and strictly positive;
/// anything else marks the whole eigensolve as garbage.
bool poles_valid(const sim::ExactAnalysis& exact) {
  for (const double l : exact.poles())
    if (!std::isfinite(l) || l <= 0.0) return false;
  return true;
}

/// How often the row loop polls the cooperative deadline: each row costs a
/// bracketing root search, so a small stride keeps the overshoot bounded
/// without measurable overhead.
constexpr NodeId kDeadlineStride = 64;

}  // namespace

bool exact_row_consistent(std::span<const double> row, std::span<const double> poles,
                          double elmore, double elmore_slack) {
  constexpr double kMomentRelTol = 1e-9;
  double m0 = 0.0;
  double m1 = 0.0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    m0 += row[j];
    m1 += row[j] / poles[j];
  }
  return std::abs(m0 - 1.0) <= kMomentRelTol &&
         std::abs(m1 - elmore) <= kMomentRelTol * elmore + elmore_slack;
}

std::vector<NodeReport> build_report(const RCTree& tree, const ReportOptions& options) {
  return build_report(analysis::TreeContext(tree), options);
}

std::vector<NodeReport> build_report(const analysis::TreeContext& context,
                                     const ReportOptions& options) {
  const obs::Span span("core.report.build", "core", {},
                       &obs::histogram(obs::H::kCoreReportBuild));
  const RCTree& tree = context.tree();
  if (options.deadline) options.deadline->check("core.report.build");
  const auto stats = context.impulse_stats();
  const moments::PrhTerms& prh = context.prh_terms();
  const auto depths = context.depths();
  const auto td = context.elmore_delays();
  const auto rpath = context.path_resistances();
  std::optional<sim::ExactAnalysis> exact;
  bool eigensolve_invalid = false;
  if (options.with_exact && tree.size() <= options.exact_node_limit) {
    if (options.deadline) options.deadline->check("core.report.eigensolve");
    const obs::Span solve_span("core.report.eigensolve", "core", {},
                               &obs::histogram(obs::H::kCoreReportEigensolve));
    // An eigensolve that THROWS propagates to the caller (the batch engine
    // retries the net on the moments path); one that returns garbage is
    // caught just below and degrades every row instead.
    robust::fault::maybe_throw("core.report.eigensolve", robust::Code::kNonConvergence);
    exact.emplace(tree);
    if (!poles_valid(*exact)) {
      exact.reset();
      eigensolve_invalid = true;
      obs::counter(obs::C::kCoreReportEigensolveInvalid).add();
    }
  }
  // Which path produced the delay column: the O(N^2) exact solve or
  // moment-based bounds only (limit cutoff, with_exact=false, or a
  // discarded non-convergent solve).
  obs::counter(exact ? obs::C::kCoreReportExactPath : obs::C::kCoreReportMomentsOnly).add();

  // Relative slack on the paper's lower <= exact <= elmore guarantee: the
  // bracketing root search and the moment sums round differently, so exact
  // equality at the boundary is not guaranteed in floating point.
  constexpr double kBoundRelTol = 1e-6;

  // Exactly one row per node (per leaf under leaves_only): no regrowth,
  // and no spare capacity carried into a cache.
  std::size_t row_count = tree.size();
  if (options.leaves_only) {
    row_count = 0;
    for (NodeId i = 0; i < tree.size(); ++i) row_count += tree.is_leaf(i) ? 1 : 0;
  }
  std::vector<NodeReport> rows;
  rows.reserve(row_count);
  const double single_pole_scale = -std::log(1.0 - options.fraction);
  double gap_sum = 0.0;
  std::size_t gap_rows = 0;
  for (NodeId i = 0; i < tree.size(); ++i) {
    if (options.deadline && i % kDeadlineStride == 0) options.deadline->check("core.report.rows");
    if (options.leaves_only && !tree.is_leaf(i)) continue;
    NodeReport r;
    r.node = i;
    r.depth = depths[i];
    r.elmore = stats[i].mean;
    r.sigma = stats[i].sigma;
    r.skewness = stats[i].skewness;
    r.lower_bound = std::max(r.elmore - r.sigma, 0.0);
    r.single_pole = single_pole_scale * r.elmore;
    r.prh_tmin = prh_t_min(prh, i, options.fraction);
    r.prh_tmax = prh_t_max(prh, i, options.fraction);
    if (!std::isfinite(r.elmore) || !std::isfinite(r.sigma)) {
      // Moments themselves are broken: nothing to fall back to, but the
      // row still ships (flagged) rather than poisoning the whole net.
      r.degraded = true;
    } else if (r.elmore > 0.0) {
      gap_sum += (r.elmore - r.lower_bound) / r.elmore;
      ++gap_rows;
    }
    if (eigensolve_invalid) r.degraded = true;
    if (exact && !exact_row_consistent(exact->coefficient_row(i), exact->poles(), td[i],
                                       exact->floor_added_capacitance() * rpath[i])) {
      // The residues do not explain the path-traced moments: the solve
      // is wrong at this node, whatever its crossing would say.
      r.degraded = true;
      obs::counter(obs::C::kCoreReportMomentMismatch).add();
    } else if (exact) {
      double d = exact->step_delay(i, options.fraction);
      d = robust::fault::corrupt("core.report.exact_delay", d);
      // The paper's lower <= median <= elmore sandwich only speaks about
      // the 50% crossing; other fractions get the NaN check alone.
      const double tol = kBoundRelTol * std::max(std::abs(r.elmore), 1e-18);
      const bool median = options.fraction == 0.5;
      if (!std::isfinite(d) || (median && (d < r.lower_bound - tol || d > r.elmore + tol))) {
        // The exact value escaped the paper's bounds (Theorem 1): trust
        // the moments, drop the exact columns, and flag the row.
        r.degraded = true;
      } else {
        r.exact_delay = d;
        r.exact_rise = exact->step_rise_time_10_90(i);
        if (d > 0.0)  // the Elmore upper bound's relative error
          obs::histogram(obs::H::kCoreReportExactError).observe(std::abs(r.elmore - d) / d);
      }
    }
    if (r.degraded) obs::counter(obs::C::kCoreReportDegradedRows).add();
    rows.push_back(r);
  }
  // Theorem 1's mean relative sandwich width, once per report (per row
  // would cost a fifth of a moments-only report).
  if (gap_rows > 0)
    obs::histogram(obs::H::kCoreReportBoundGap).observe(gap_sum / static_cast<double>(gap_rows));
  return rows;
}

namespace {

// Little-endian framing helpers for the binary row blob.  Explicit byte
// writes (not memcpy-of-struct) keep the format layout-stable across
// compilers; doubles round-trip through their raw bit patterns.
void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out += static_cast<char>((v >> shift) & 0xffULL);
}

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

/// Bounds-checked sequential reader over the serialized blob.  Every take_*
/// clears `ok` instead of reading past the end, so a truncated or corrupted
/// blob can never fault — it just fails to decode.
struct BlobReader {
  const char* p;
  const char* end;
  bool ok = true;

  explicit BlobReader(std::string_view bytes)
      : p(bytes.data()), end(bytes.data() + bytes.size()) {}

  std::uint64_t take_u64() {
    if (!ok || end - p < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p++)) << shift;
    return v;
  }

  double take_f64() { return std::bit_cast<double>(take_u64()); }

  std::uint8_t take_u8() {
    if (!ok || p == end) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(*p++);
  }
};

constexpr std::uint8_t kHasExactDelay = 1u << 0;
constexpr std::uint8_t kHasExactRise = 1u << 1;
constexpr std::uint8_t kDegraded = 1u << 2;

}  // namespace

std::string serialize_report(const std::vector<NodeReport>& rows) {
  std::string out;
  out.reserve(16 + rows.size() * 96);
  put_u64(out, rows.size());
  for (const NodeReport& r : rows) {
    put_u64(out, r.node);
    put_u64(out, r.depth);
    put_f64(out, r.elmore);
    put_f64(out, r.sigma);
    put_f64(out, r.skewness);
    put_f64(out, r.lower_bound);
    put_f64(out, r.single_pole);
    put_f64(out, r.prh_tmin);
    put_f64(out, r.prh_tmax);
    std::uint8_t flags = 0;
    if (r.exact_delay) flags |= kHasExactDelay;
    if (r.exact_rise) flags |= kHasExactRise;
    if (r.degraded) flags |= kDegraded;
    out += static_cast<char>(flags);
    if (r.exact_delay) put_f64(out, *r.exact_delay);
    if (r.exact_rise) put_f64(out, *r.exact_rise);
  }
  return out;
}

std::optional<std::vector<NodeReport>> deserialize_report(std::string_view bytes) {
  BlobReader in(bytes);
  const std::uint64_t n_rows = in.take_u64();
  if (!in.ok) return std::nullopt;
  // A row costs at least 73 bytes (node, depth, seven doubles and the flag
  // byte, with no exact values); reject counts the blob cannot hold so a
  // corrupted length field never triggers a huge allocation.
  if (n_rows > static_cast<std::uint64_t>(in.end - in.p) / 73) return std::nullopt;
  std::vector<NodeReport> rows;
  rows.reserve(n_rows);
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    NodeReport r;
    r.node = in.take_u64();
    r.depth = in.take_u64();
    r.elmore = in.take_f64();
    r.sigma = in.take_f64();
    r.skewness = in.take_f64();
    r.lower_bound = in.take_f64();
    r.single_pole = in.take_f64();
    r.prh_tmin = in.take_f64();
    r.prh_tmax = in.take_f64();
    const std::uint8_t flags = in.take_u8();
    if (flags & kHasExactDelay) r.exact_delay = in.take_f64();
    if (flags & kHasExactRise) r.exact_rise = in.take_f64();
    r.degraded = (flags & kDegraded) != 0;
    if (!in.ok) return std::nullopt;
    rows.push_back(r);
  }
  if (in.p != in.end) return std::nullopt;  // trailing garbage = damage
  return rows;
}

std::string format_report(const RCTree& tree, const std::vector<NodeReport>& rows) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-8s %5s %9s %9s %9s %9s %9s %9s %9s %9s\n", "node", "depth",
                "exact", "elmore", "lower", "ln2*TD", "PRH_tmin", "PRH_tmax", "sigma", "skew");
  os << buf;
  auto ns = [](double s) { return s * 1e9; };
  for (const auto& r : rows) {
    char exact_col[32];
    if (r.exact_delay)
      std::snprintf(exact_col, sizeof(exact_col), "%9.4f", ns(*r.exact_delay));
    else
      std::snprintf(exact_col, sizeof(exact_col), "%9s", "-");
    std::snprintf(buf, sizeof(buf), "%-8s %5zu %s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.3f\n",
                  tree.name(r.node).c_str(), r.depth, exact_col, ns(r.elmore),
                  ns(r.lower_bound), ns(r.single_pole), ns(r.prh_tmin), ns(r.prh_tmax),
                  ns(r.sigma), r.skewness);
    os << buf;
  }
  os << "(times in ns)\n";
  return os.str();
}

}  // namespace rct::core
