#include "rctree/rctree.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "rctree/units.hpp"

namespace rct {

std::span<const NodeId> RCTree::children(NodeId i) const {
  const NodeId* const list = children_.data() + size() + 3;
  return {list + children_[i], children_[i + 1] - children_[i]};
}

std::span<const NodeId> RCTree::children_of_source() const { return children(size()); }

std::vector<NodeId> RCTree::leaves() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < size(); ++i)
    if (is_leaf(i)) out.push_back(i);
  return out;
}

std::size_t RCTree::depth(NodeId i) const {
  std::size_t d = 0;
  for (NodeId v = i; v != kSource; v = parent(v)) ++d;
  return d;
}

double RCTree::path_resistance(NodeId i) const {
  double r = 0.0;
  for (NodeId v = i; v != kSource; v = parent(v)) r += resistance(v);
  return r;
}

double RCTree::total_capacitance() const {
  double c = 0.0;
  for (const Node& v : nodes_) c += v.capacitance;
  return c;
}

double RCTree::subtree_capacitance(NodeId i) const {
  // Explicit stack: recursion would overflow on deep (100k+) chains.
  double c = 0.0;
  std::vector<NodeId> stack{i};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    c += capacitance(v);
    for (NodeId ch : children(v)) stack.push_back(ch);
  }
  return c;
}

std::optional<NodeId> RCTree::find(std::string_view name) const {
  for (NodeId i = 0; i < size(); ++i)
    if (name_[i] == name) return i;
  return std::nullopt;
}

NodeId RCTree::at(std::string_view name) const {
  if (auto id = find(name)) return *id;
  throw std::out_of_range("RCTree::at: no node named '" + std::string(name) + "'");
}

RCTree RCTree::scaled(double kr, double kc) const {
  if (kr <= 0.0 || kc < 0.0) throw std::invalid_argument("RCTree::scaled: bad scale factors");
  RCTree t = *this;
  for (Node& v : t.nodes_) {
    v.resistance *= kr;
    v.capacitance *= kc;
  }
  return t;
}

std::string RCTree::to_netlist(std::string_view title) const {
  std::ostringstream os;
  os << "* " << title << "\n";
  os << ".input in\n";
  for (NodeId i = 0; i < size(); ++i) {
    const std::string up = (parent(i) == kSource) ? "in" : name_[parent(i)];
    os << "R" << i + 1 << " " << up << " " << name_[i] << " "
       << format_engineering(resistance(i)) << "\n";
    os << "C" << i + 1 << " " << name_[i] << " 0 " << format_engineering(capacitance(i))
       << "\n";
  }
  os << ".end\n";
  return os.str();
}

NodeId RCTreeBuilder::add_node(std::string name, NodeId parent, double resistance,
                               double capacitance) {
  if (name.empty()) throw std::invalid_argument("RCTreeBuilder: empty node name");
  if (parent != kSource && parent >= nodes_.size())
    throw std::invalid_argument("RCTreeBuilder: parent of '" + name + "' does not exist yet");
  if (!(resistance > 0.0))
    throw std::invalid_argument("RCTreeBuilder: resistance must be positive at '" + name + "'");
  if (capacitance < 0.0)
    throw std::invalid_argument("RCTreeBuilder: negative capacitance at '" + name + "'");
  if (!seen_names_.insert(name).second)
    throw std::invalid_argument("RCTreeBuilder: duplicate node name '" + name + "'");

  nodes_.push_back({parent, resistance, capacitance});
  name_.push_back(std::move(name));
  return nodes_.size() - 1;
}

RCTree RCTreeBuilder::build() && {
  if (nodes_.empty()) throw std::invalid_argument("RCTreeBuilder: empty tree");
  const std::size_t n = nodes_.size();

  RCTree t;
  t.nodes_ = std::move(nodes_);
  t.name_ = std::move(name_);

  // CSR children lists by counting sort, with no scratch arrays.  The
  // source occupies virtual slot n.  Slot s is counted at offset[s + 2], so
  // after the prefix sum offset[s + 1] is slot s's start; filling through
  // it as a cursor leaves it at slot s's end, which is slot s + 1's start
  // (offset[n + 2], the source's end, is left over: it equals offset[n + 1]).
  const auto slot_of = [&t, n](NodeId i) { return t.parent(i) == kSource ? n : t.parent(i); };
  t.children_.assign(n + 3 + n, 0);
  NodeId* const offset = t.children_.data();
  NodeId* const list = offset + n + 3;
  for (NodeId i = 0; i < n; ++i) ++offset[slot_of(i) + 2];
  if (offset[n + 2] == 0)
    throw std::invalid_argument("RCTreeBuilder: no node attaches to the source");
  for (std::size_t s = 2; s < n + 3; ++s) offset[s] += offset[s - 1];
  for (NodeId i = 0; i < n; ++i) list[offset[slot_of(i) + 1]++] = i;
  return t;
}

}  // namespace rct
