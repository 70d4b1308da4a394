#pragma once
// The RC-tree circuit model of Penfield-Rubinstein / Gupta-Tutuianu-Pileggi:
// an ideal voltage source drives a tree of resistors; every non-source node
// carries a capacitor to ground; there are no resistors to ground and no
// floating capacitors.
//
// Representation: nodes are indexed 0..size()-1 in topological order
// (parents precede children).  Each node stores the resistance of the edge
// to its parent and its grounded capacitance.  The source is implicit: a
// node whose parent is kSource hangs directly off the ideal input source.

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace rct {

/// Index of a node within an RCTree.
using NodeId = std::size_t;

/// Sentinel parent id: the node attaches directly to the input source.
inline constexpr NodeId kSource = std::numeric_limits<NodeId>::max();

class RCTreeBuilder;

/// Immutable RC tree.  Construct via RCTreeBuilder.
class RCTree {
 public:
  /// Constructs an empty tree (useful as a placeholder; most accessors
  /// require a non-empty tree built via RCTreeBuilder).
  RCTree() = default;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] bool empty() const { return nodes_.empty(); }

  /// Parent node id, or kSource for nodes attached to the input source.
  [[nodiscard]] NodeId parent(NodeId i) const { return nodes_[i].parent; }
  /// Resistance (ohms) of the edge from node i to its parent.
  [[nodiscard]] double resistance(NodeId i) const { return nodes_[i].resistance; }
  /// Grounded capacitance (farads) at node i.
  [[nodiscard]] double capacitance(NodeId i) const { return nodes_[i].capacitance; }
  [[nodiscard]] const std::string& name(NodeId i) const { return name_[i]; }

  /// Children of node i (use children_of_source() for the roots).
  [[nodiscard]] std::span<const NodeId> children(NodeId i) const;
  /// Nodes attached directly to the input source.
  [[nodiscard]] std::span<const NodeId> children_of_source() const;

  [[nodiscard]] bool is_leaf(NodeId i) const { return children(i).empty(); }
  /// All leaf node ids, ascending.
  [[nodiscard]] std::vector<NodeId> leaves() const;

  // depth / path_resistance / subtree_capacitance: no library, bench, tool
  // or example code calls these per-call walks; they stay as the
  // independent reference that test_analysis checks the TreeContext
  // arrays against.

  /// Number of resistive edges between the source and node i (>= 1).
  /// Cost: O(depth) parent walk per call — per-node loops over a whole tree
  /// should read analysis::TreeContext::depths() instead.
  [[nodiscard]] std::size_t depth(NodeId i) const;
  /// Total resistance of the source->i path (R_ii in the paper's notation).
  /// Cost: O(depth) parent walk per call — use
  /// analysis::TreeContext::path_resistances() in loops.
  [[nodiscard]] double path_resistance(NodeId i) const;
  /// Sum of all capacitances in the tree.
  [[nodiscard]] double total_capacitance() const;
  /// Sum of capacitances in the subtree rooted at i (including i).
  /// Cost: O(subtree) DFS per call — use
  /// analysis::TreeContext::subtree_capacitances() in loops.
  [[nodiscard]] double subtree_capacitance(NodeId i) const;

  /// Node lookup by name; nullopt when absent.
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;
  /// Node lookup by name; throws std::out_of_range when absent.
  [[nodiscard]] NodeId at(std::string_view name) const;

  /// Returns a copy with every resistance scaled by kr and capacitance by kc.
  /// (All Elmore-family metrics scale by kr*kc.)
  [[nodiscard]] RCTree scaled(double kr, double kc) const;

  /// Renders the tree as a netlist deck understood by parse_netlist().
  [[nodiscard]] std::string to_netlist(std::string_view title = "rct tree") const;

 private:
  friend class RCTreeBuilder;

  /// One node's edge to its parent and its grounded capacitance.
  struct Node {
    NodeId parent;
    double resistance;
    double capacitance;
  };

  // Three arrays, so building a tree costs three allocations.
  std::vector<Node> nodes_;
  std::vector<std::string> name_;
  // CSR children adjacency in one array: size()+3 slot offsets (slot size()
  // is the source), then the child lists they index.
  std::vector<NodeId> children_;
};

/// Incremental RC-tree construction with validation.
///
/// Nodes must be added parent-first; the builder enforces positive
/// resistance, non-negative capacitance and unique non-empty names.
class RCTreeBuilder {
 public:
  /// Adds a node and returns its id.  `parent` is a previously returned id
  /// or kSource.  Throws std::invalid_argument on constraint violations.
  NodeId add_node(std::string name, NodeId parent, double resistance, double capacitance);

  /// Validation-free fast path for callers whose construction already
  /// proves the invariants (graph_builder's BFS: names are unique and
  /// non-empty, parents precede children, values are pre-validated).
  /// Mixing with add_node() on the same builder is not supported: this
  /// path does not register names for duplicate detection.
  NodeId add_node_unchecked(std::string name, NodeId parent, double resistance,
                            double capacitance) {
    nodes_.push_back({parent, resistance, capacitance});
    name_.push_back(std::move(name));
    return nodes_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Presizes for `n` nodes, so a builder that adds exactly `n` hands
  /// build() exact-size arrays.
  void reserve(std::size_t n) {
    nodes_.reserve(n);
    name_.reserve(n);
  }

  /// Finalizes the tree.  Throws std::invalid_argument if empty or if no
  /// node attaches to the source.
  [[nodiscard]] RCTree build() &&;

 private:
  std::vector<RCTree::Node> nodes_;
  std::vector<std::string> name_;
  std::unordered_set<std::string> seen_names_;  // O(1) duplicate detection
};

}  // namespace rct
