#pragma once
// rct::json — the one JSON writer and the one JSON reader.
//
// Every JSON byte rct emits (batch rows, serve responses, metrics
// snapshots, Chrome traces, JSON-lines logs, the flight tape) goes through
// the append_* writers below, and every JSON text rct reads (protocol
// requests, `trace` responses, the tests' parse-backs) goes through parse().
//
// The string writer escapes `"` `\` `\n` `\r` `\t` by name and every other
// control byte as \u00XX; bytes >= 0x80 pass through, so UTF-8 stays UTF-8.
// Numbers are the shortest decimal that reads back to the same double
// (std::to_chars: 7.26e-12, 0.5, 3); JSON has no inf/nan, so a non-finite
// value is written as null.
//
// parse() is a strict RFC 8259 reader into a small Value tree: it rejects
// trailing commas, leading zeros, bare inf/nan/hex, raw control bytes in
// strings and trailing bytes; decodes \uXXXX (surrogate pairs included) to
// UTF-8; and keeps each number as its raw token, so ids parse exactly as
// u64.  Nesting deeper than kMaxDepth is an error, not a recursion: `rct
// serve` accepts 1 MiB request lines.  parse() never throws.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rct::json {

/// Appends `s` as a JSON string literal (quoted, escaped).
void append_string(std::string& out, std::string_view s);

/// Appends `v` as the shortest round-trip decimal, or `null` when non-finite.
void append_number(std::string& out, double v);

/// Appends `ns` as microseconds with nanosecond precision, fixed format.
void append_us(std::string& out, std::uint64_t ns);

/// Containers nested deeper than this are a parse error.
inline constexpr int kMaxDepth = 64;

struct Member;

/// One parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;             ///< decoded string contents, or the raw number token
  std::vector<Value> items;     ///< array elements
  std::vector<Member> members;  ///< object members, in document order

  /// The last member named `key` (JSON leaves duplicates to the reader;
  /// last-wins matches a sequential reader), or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// Like find(), but a missing key throws std::out_of_range.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const { return find(key) != nullptr; }

  /// The number as a double; NaN for non-numbers and out-of-range tokens.
  [[nodiscard]] double number() const;
  /// The number as an exact u64; nullopt unless the token is a
  /// non-negative integer (no fraction or exponent) that fits.
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const;
};

struct Member {
  std::string key;
  Value value;
};

/// Parses one complete JSON text (surrounding whitespace allowed).  On
/// failure returns nullopt and, when `error` is given, a message naming
/// the byte offset.
[[nodiscard]] std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace rct::json
