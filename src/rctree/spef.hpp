#pragma once
// SPEF-lite: reader/writer for a practical subset of the IEEE 1481 Standard
// Parasitic Exchange Format — the format production parasitic extractors
// emit and production timers consume.  Supporting it makes the toolkit a
// drop-in analysis backend for real extracted nets.
//
// Supported subset (one *D_NET per net):
//
//   *SPEF "IEEE 1481-1998"      (header lines up to the first *D_NET kept
//   *DESIGN "name"               as opaque metadata)
//   *T_UNIT 1 NS  *C_UNIT 1 PF  *R_UNIT 1 OHM
//   *D_NET netname total_cap
//   *CONN
//   *P port_name I|O            (the driving port is the tree source)
//   *I pin_name I|O
//   *CAP
//   idx node cap
//   *RES
//   idx nodeA nodeB res
//   *END
//
// Unsupported constructs (coupling caps `node1 node2 cap` inside *CAP,
// *INDUC, name maps) raise SpefError — a robust::Error carrying a typed
// code plus the file path and 1-based line number.
//
// Two parse modes (SpefParseOptions):
//   strict  (default) — the first defect throws SpefError.
//   lenient           — defects become robust::Diagnostic records on the
//     returned SpefFile and the parser recovers: a malformed *D_NET section
//     is skipped whole, a negative finite capacitance is clamped to 0F
//     (repair), a load pin missing from the parasitics is dropped, and
//     non-finite or non-positive resistances reject just that net.  Good
//     nets always survive bad siblings.

#include <string>
#include <string_view>
#include <vector>

#include "rctree/mapped_file.hpp"
#include "rctree/rctree.hpp"
#include "robust/error.hpp"

namespace rct {

/// Error raised on malformed or unsupported SPEF text (strict mode).
struct SpefError : robust::Error {
  using robust::Error::Error;
  /// Pre-taxonomy convenience: a bare message is a syntax error.
  explicit SpefError(const std::string& message)
      : robust::Error(robust::Code::kSyntax, message, {}, "spef") {}
};

/// One parasitic net parsed from SPEF.
struct SpefNet {
  std::string name;
  RCTree tree;
  std::string driver;             ///< node name of the driving port
  std::vector<NodeId> loads;      ///< ids of *I load pins
};

/// A parsed SPEF file.
struct SpefFile {
  std::string design;
  double time_unit = 1e-9;        ///< seconds per SPEF time unit
  double cap_unit = 1e-12;        ///< farads per SPEF cap unit
  double res_unit = 1.0;          ///< ohms per SPEF res unit
  std::vector<SpefNet> nets;
  /// Lenient mode only: every recovered defect, in input order (strict
  /// parses throw at the first one instead).
  std::vector<robust::Diagnostic> diagnostics;
  /// Lenient mode only: *D_NET sections dropped whole because of defects.
  std::size_t nets_rejected = 0;
};

/// Parse-mode knobs.
struct SpefParseOptions {
  bool lenient = false;  ///< collect diagnostics + recover instead of throwing
  std::string path;      ///< source file for error locations ("" = in-memory)
};

/// Parses SPEF text.  Strict mode throws SpefError (typed code, 1-based
/// line) on malformed input; lenient mode records diagnostics and recovers.
[[nodiscard]] SpefFile parse_spef(std::string_view text, const SpefParseOptions& options);
[[nodiscard]] SpefFile parse_spef(std::string_view text);

/// Maps SPEF deck `path` for parsing, and names it in `options.path` when
/// that is empty so errors and diagnostics carry the file.  Throws
/// SpefError(kFileOpen) "cannot open '<path>'" when it cannot be read.
/// Every entry point that parses a deck from disk opens it here.
[[nodiscard]] MappedFile map_spef_file(const std::string& path, SpefParseOptions& options);

/// Parses a SPEF file from disk; errors and diagnostics carry `path`.
[[nodiscard]] SpefFile parse_spef_file(const std::string& path,
                                       const SpefParseOptions& options);
[[nodiscard]] SpefFile parse_spef_file(const std::string& path);

/// Serializes nets back to SPEF-lite (units: NS / PF / OHM).
[[nodiscard]] std::string write_spef(const SpefFile& file);

/// Convenience: wraps one RCTree as a single-net SpefFile.
[[nodiscard]] SpefFile spef_from_tree(const RCTree& tree, std::string net_name,
                                      std::string design = "rct");

}  // namespace rct
