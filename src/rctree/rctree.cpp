#include "rctree/rctree.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "rctree/units.hpp"

namespace rct {

std::span<const NodeId> RCTree::children(NodeId i) const {
  return {child_list_.data() + child_offset_[i], child_offset_[i + 1] - child_offset_[i]};
}

std::span<const NodeId> RCTree::children_of_source() const {
  const std::size_t n = size();
  return {child_list_.data() + child_offset_[n], child_offset_[n + 1] - child_offset_[n]};
}

std::vector<NodeId> RCTree::leaves() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < size(); ++i)
    if (is_leaf(i)) out.push_back(i);
  return out;
}

std::size_t RCTree::depth(NodeId i) const {
  std::size_t d = 0;
  for (NodeId v = i; v != kSource; v = parent_[v]) ++d;
  return d;
}

double RCTree::path_resistance(NodeId i) const {
  double r = 0.0;
  for (NodeId v = i; v != kSource; v = parent_[v]) r += res_[v];
  return r;
}

double RCTree::total_capacitance() const {
  double c = 0.0;
  for (double v : cap_) c += v;
  return c;
}

double RCTree::subtree_capacitance(NodeId i) const {
  // Explicit stack: recursion would overflow on deep (100k+) chains.
  double c = 0.0;
  std::vector<NodeId> stack{i};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    c += cap_[v];
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
  for (double& r : t.res_) r *= kr;
  for (double& c : t.cap_) c *= kc;
  return t;
}

std::string RCTree::to_netlist(std::string_view title) const {
  std::ostringstream os;
  os << "* " << title << "\n";
  os << ".input in\n";
  for (NodeId i = 0; i < size(); ++i) {
    const std::string up = (parent_[i] == kSource) ? "in" : name_[parent_[i]];
    os << "R" << i + 1 << " " << up << " " << name_[i] << " " << format_engineering(res_[i])
       << "\n";
    os << "C" << i + 1 << " " << name_[i] << " 0 " << format_engineering(cap_[i]) << "\n";
  }
  os << ".end\n";
  return os.str();
}

NodeId RCTreeBuilder::add_node(std::string name, NodeId parent, double resistance,
                               double capacitance) {
  if (name.empty()) throw std::invalid_argument("RCTreeBuilder: empty node name");
  if (parent != kSource && parent >= parent_.size())
    throw std::invalid_argument("RCTreeBuilder: parent of '" + name + "' does not exist yet");
  if (!(resistance > 0.0))
    throw std::invalid_argument("RCTreeBuilder: resistance must be positive at '" + name + "'");
  if (capacitance < 0.0)
    throw std::invalid_argument("RCTreeBuilder: negative capacitance at '" + name + "'");
  if (!seen_names_.insert(name).second)
    throw std::invalid_argument("RCTreeBuilder: duplicate node name '" + name + "'");

  parent_.push_back(parent);
  res_.push_back(resistance);
  cap_.push_back(capacitance);
  name_.push_back(std::move(name));
  return parent_.size() - 1;
}

RCTree RCTreeBuilder::build() && {
  if (parent_.empty()) throw std::invalid_argument("RCTreeBuilder: empty tree");
  const std::size_t n = parent_.size();

  RCTree t;
  t.parent_ = std::move(parent_);
  t.res_ = std::move(res_);
  t.cap_ = std::move(cap_);
  t.name_ = std::move(name_);

  // CSR children lists by counting sort, with no scratch arrays.  The
  // source occupies virtual slot n.  Slot s is counted at offset[s + 2], so
  // after the prefix sum offset[s + 1] is slot s's start; filling through
  // it as a cursor leaves it at slot s's end, which is slot s + 1's start.
  const auto slot_of = [&t, n](NodeId i) { return t.parent_[i] == kSource ? n : t.parent_[i]; };
  std::vector<std::size_t>& offset = t.child_offset_;
  offset.assign(n + 3, 0);
  for (NodeId i = 0; i < n; ++i) ++offset[slot_of(i) + 2];
  if (offset[n + 2] == 0)
    throw std::invalid_argument("RCTreeBuilder: no node attaches to the source");
  for (std::size_t s = 2; s < n + 3; ++s) offset[s] += offset[s - 1];
  t.child_list_.resize(n);
  for (NodeId i = 0; i < n; ++i) t.child_list_[offset[slot_of(i) + 1]++] = i;
  offset.pop_back();  // the source's end, already at offset[n + 1]
  return t;
}

}  // namespace rct
