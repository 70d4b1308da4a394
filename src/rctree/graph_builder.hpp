#pragma once
// Shared element-graph -> RCTree construction used by both netlist and SPEF
// parsers: BFS from the driving node over resistor edges, consuming each
// resistor once, validating tree-ness (no loops, nothing disconnected, all
// capacitors grounded on tree nodes).

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rctree/arena.hpp"
#include "rctree/rctree.hpp"
#include "robust/error.hpp"

namespace rct::detail {

/// A two-terminal resistor between named nodes.  `tag` is an opaque caller
/// token (source line number) echoed in errors.
struct ResistorEdge {
  std::string a;
  std::string b;
  double value;
  std::size_t tag;
};

/// Raised when the element graph is not a tree rooted at the input node.
/// `tag` is the offending resistor's tag, or 0 for global problems; `code`
/// is the topology code the caller folds into its own typed error.
struct GraphBuildError : std::runtime_error {
  GraphBuildError(const std::string& msg, std::size_t tag_in,
                  robust::Code code_in = robust::Code::kDisconnected)
      : std::runtime_error(msg), tag(tag_in), code(code_in) {}
  std::size_t tag;
  robust::Code code;
};

/// Result of tree construction.
struct BuiltTree {
  RCTree tree;
  std::vector<std::string> warnings;  ///< capless nodes, ignored input cap
  /// build_tree_from_dense only: dense id -> tree node id, kSource for the
  /// input node and any node the BFS did not reach.  Arena-backed: valid
  /// until the arena passed to build_tree_from_dense is reset.
  std::span<const NodeId> tree_id;
};

/// Builds the RC tree rooted at `input_node`.  `cap_at` maps node name ->
/// total grounded capacitance (consumed; a cap on the input node is dropped
/// with a warning; leftover caps on unknown nodes are an error).
[[nodiscard]] BuiltTree build_tree_from_elements(const std::vector<ResistorEdge>& resistors,
                                                 std::map<std::string, double> cap_at,
                                                 const std::string& input_node);

/// Sentinel for "input node never mentioned in the parasitics".
inline constexpr std::uint32_t kNoDenseNode = 0xffffffffu;

/// A resistor between dense node ids (see DenseElements).
struct DenseResistor {
  std::uint32_t a;
  std::uint32_t b;
  double value;
  std::size_t tag;  ///< opaque caller token (source line) echoed in errors
};

/// Element graph with node names already interned to dense ids
/// 0..names.size()-1 by the caller (the SPEF shard parser), so tree
/// construction does no hashing at all.  `caps[i]` / `has_cap[i]` carry the
/// accumulated grounded capacitance at node i; names are views into the
/// parse buffer.
struct DenseElements {
  std::span<const std::string_view> names;
  std::span<const DenseResistor> resistors;
  std::span<const double> caps;
  std::span<const unsigned char> has_cap;
};

/// Zero-copy construction used by the SPEF section parsers: same traversal
/// order, warnings and error messages as the std::string overload, but all
/// intermediate topology state (CSR adjacency, BFS frontier, visit flags)
/// lives in `arena`.  `input` is the dense id of the driving node, or
/// kNoDenseNode when it never appeared (reported as "touches no resistor",
/// with `input_name` in the message).  Only the returned BuiltTree owns
/// heap memory.
[[nodiscard]] BuiltTree build_tree_from_dense(const DenseElements& elements,
                                              std::uint32_t input,
                                              std::string_view input_name, Arena& arena);

}  // namespace rct::detail
