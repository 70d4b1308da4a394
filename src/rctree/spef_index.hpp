#pragma once
// SPEF index pass: finds every `*D_NET` ... `*END` section and the
// file-scope line runs between them, recording byte offsets and 1-based
// line numbers — without tokenizing values or allocating per line.  The
// section parsers (spef.cpp) then work purely on std::string_view slices of
// the same buffer, and engine::parse_spef_parallel fans the sections across
// a thread pool.
//
// The pass has two halves.  A scanner classifies each line's FIRST token
// (case-insensitive `*D_NET` / `*END`, honoring `//` comments and
// CR/tab/space separators) and records only the lines the section/run
// state machine can react to: every `*D_NET` and `*END` line, plus the
// first other line after an `*END` (or after the scan's start).  A serial
// replay then runs the state machine over those events; its cost grows with
// the section count, not the byte count.  index_spef() cuts a large buffer
// into newline-aligned stripes and scans them concurrently (line numbers
// are stripe-local until the replay rebases them); the Indexer is the
// one-stripe case of the same code.  Everything else — units, *DESIGN,
// defects — is the parsers' business, so scanning stays memchr-speed.
//
// Offsets and line counters are 64-bit and the Indexer is feed()-able in
// chunks, so >4 GiB decks index correctly; the unit tests drive the
// arithmetic past 2^31 bytes by refeeding one buffer instead of allocating
// a giant fixture.

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace rct::spef {

/// One *D_NET section: byte extent [offset, offset+length) covering the
/// *D_NET line through the *END line (inclusive, with its newline) — or
/// through the last line before the next *D_NET / EOF when *END is missing.
struct Section {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::size_t first_line = 0;  ///< 1-based line number of the *D_NET line
  /// Line number the net is "finished" at — the *END line, the next *D_NET
  /// line, or the last line of the file — matching the legacy parser's
  /// error locations exactly.
  std::size_t end_line = 0;
  bool has_end = false;  ///< terminated by *END (vs next *D_NET / EOF)
};

/// A maximal run of consecutive lines outside any section (header lines,
/// stray statements between *END and the next *D_NET).
struct FileScopeRun {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::size_t first_line = 0;
};

/// Sections and runs interleaved in file order; processing chunks in this
/// order visits every line exactly once, in line order.
struct Chunk {
  bool is_section = false;
  std::uint32_t index = 0;  ///< into Layout::sections or Layout::runs
};

struct Layout {
  std::uint64_t bytes = 0;
  /// Total line count as the legacy parser counted it: #newlines + 1 (a
  /// trailing newline yields a phantom final empty line).
  std::size_t lines = 0;
  std::vector<Section> sections;
  std::vector<FileScopeRun> runs;
  std::vector<Chunk> chunks;
};

/// A line the replay reacts to (see the file comment).
struct LineEvent {
  enum Kind : std::uint8_t { kDnet, kEnd, kOther };
  std::uint64_t start = 0;  ///< byte offset of the line
  std::uint64_t end = 0;    ///< offset past its newline (or end of input)
  std::size_t line = 0;     ///< 1-based, counted from the scan's first line
  Kind kind = kOther;
};

/// Runs fn(0) ... fn(n-1), possibly concurrently, and returns once all have.
using ForEach = std::function<void(std::size_t n, const std::function<void(std::size_t)>& fn)>;

/// Incremental scanner.  feed() consumes any byte chunking (lines may span
/// chunks); finish() closes the final section/run and returns the layout.
/// When fed a single contiguous buffer, section/run extents are valid
/// slices of it; when re-feeding buffers (offset-arithmetic tests), only
/// offsets and line numbers are meaningful.
class Indexer {
 public:
  Indexer() = default;

  void feed(std::string_view chunk);
  [[nodiscard]] Layout finish();

  [[nodiscard]] std::uint64_t bytes_consumed() const { return offset_ - base_; }
  [[nodiscard]] std::size_t lines_seen() const { return line_; }

 private:
  friend Layout index_spef(std::string_view text, std::size_t stripes, const ForEach& for_each);

  /// A stripe scanner: `base` is the offset of its first byte;
  /// `expected_events` presizes the event buffer.
  Indexer(std::uint64_t base, std::size_t expected_events);

  /// Runs the section/run state machine over the events of `count`
  /// consecutive scans (stripe-local lines rebased) and closes the layout
  /// at the last scan's end.
  static Layout replay(const Indexer* scans, std::size_t count);
  /// Completes a final line that has no newline (idempotent).
  void end_of_input();
  void line_complete(std::uint64_t line_end);

  std::vector<LineEvent> events_;
  std::uint64_t base_ = 0;
  std::uint64_t offset_ = 0;      ///< absolute offset of the next byte
  std::size_t line_ = 0;          ///< lines completed so far (scan-local)
  std::uint64_t line_start_ = 0;  ///< absolute offset of the current line
  bool partial_line_ = false;     ///< end_of_input() completed an unterminated line
  bool want_other_ = true;        ///< record the next kOther line
  // First-token capture for the current (possibly chunk-spanning) line.
  char token_[16] = {};
  std::uint8_t token_len_ = 0;
  bool token_done_ = false;  ///< token ended (or line proved uninteresting)
  bool in_leading_ws_ = true;
};

/// Below this many bytes per stripe, striping costs more than it saves.
inline constexpr std::uint64_t kMinStripeBytes = std::uint64_t{256} << 10;

/// Stripe count for `bytes` of input on `workers` threads: one per worker,
/// but never a stripe shorter than kMinStripeBytes (so at least 1).
[[nodiscard]] std::size_t stripe_count(std::uint64_t bytes, std::size_t workers);

/// Indexes one contiguous buffer in `stripes` newline-aligned stripes,
/// scanned through `for_each` (serially when it is empty).  The layout is
/// identical for every stripe count.
[[nodiscard]] Layout index_spef(std::string_view text, std::size_t stripes = 1,
                                const ForEach& for_each = {});

}  // namespace rct::spef
