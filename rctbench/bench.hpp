#pragma once
// rctbench — shared declarations of the end-to-end benchmark program.
//
// The program has two subcommands (see main.cpp):
//   gen  writes a workload's seeded SPEF deck into a directory;
//   run  measures one workload on that deck and prints the result.
// Workloads live in batch_workloads.cpp and serve_workload.cpp, the
// per-layer accounting of the traced run in layers.cpp, and the output
// and correctness helpers in report.cpp.

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rctbench {

/// Command-line settings of one `run`.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  std::string deck_dir;   ///< where `gen` wrote the deck
  std::string work_dir;   ///< scratch for sockets, stores and outputs
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the reported metrics plus counts,
/// and a free-form JSON object of supporting numbers (sample counts,
/// per-rung ladder results, module split) printed on its own line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string detail_json = "{}";
};

/// Thrown when an output fails a correctness check; main() exits non-zero
/// without printing a result.
struct OracleError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- decks (deck.cpp) -------------------------------------------------------

/// Deck file of a workload inside `deck_dir`.
[[nodiscard]] std::string deck_path(const std::string& deck_dir);
/// Writes the seeded deck of `workload`; throws std::invalid_argument for an
/// unknown workload.
void generate_deck(const std::string& workload, std::uint64_t seed, const std::string& deck_dir);
/// The seeded mix of net sizes the batch_exact deck draws from.
inline constexpr std::size_t kExactSizes[] = {16, 96, 250};
/// Nets per size class in the batch_exact deck (fixed counts, so every seed
/// carries the same amount of work; only shapes and values vary).
inline constexpr std::size_t kExactCounts[] = {82, 15, 3};
/// batch_moments_stamped: distinct nets, and stamped copies of them.
inline constexpr std::size_t kStampedDistinct = 5000;
inline constexpr std::size_t kStampedCopies = 5000;
inline constexpr std::size_t kStampedNodes = 24;
/// serve_mixed: nets in the loaded design (the 128-net warm set plus enough
/// never-requested nets for the cold share of a 60 s window), and nodes per net.
inline constexpr std::size_t kServeNets = 2600;
inline constexpr std::size_t kServeNodes = 96;

// --- workloads --------------------------------------------------------------

[[nodiscard]] Result run_batch(const RunOptions& options);  // batch_exact, batch_moments_stamped
[[nodiscard]] Result run_serve(const RunOptions& options);  // serve_mixed

// --- shared helpers (report.cpp) --------------------------------------------

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of a copy of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Strict JSON check of `text` (RFC 8259 grammar: `inf`/`nan` are not
/// tokens).  Also enforces the paper's sandwich on every object that carries
/// an exact delay: max(mu - sigma, 0) <= t50 <= T_D within the 1e-6 relative
/// slack core::build_report applies.  Both the batch JSON keys
/// (elmore_s/lower_bound_s/exact_delay_s) and the server row keys
/// (elmore/lower_bound/exact_delay) are recognised.  Returns the number of
/// exact rows checked; throws OracleError on any violation.
std::size_t check_json(std::string_view text, std::string_view what);

/// The sandwich check on one value triple; throws OracleError.
void check_sandwich(double lower, double exact, double elmore, std::string_view what);

/// Host and build fingerprint as a JSON object.
[[nodiscard]] std::string fingerprint_json();

/// Minimal JSON object writer for detail lines.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string done() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

}  // namespace rctbench
