#include "rctree/transform.hpp"

#include <stdexcept>
#include <vector>

namespace rct {

RCTree merge_series(const RCTree& tree) {
  const std::size_t n = tree.size();
  // Accumulated resistance from each kept node up to its nearest kept
  // ancestor (or source).  A node is collapsed iff cap == 0 and exactly one
  // child and it is not needed as a branch point.
  std::vector<char> collapsed(n, 0);
  for (NodeId i = 0; i < n; ++i)
    collapsed[i] = (tree.capacitance(i) == 0.0 && tree.children(i).size() == 1) ? 1 : 0;

  RCTreeBuilder b;
  std::vector<NodeId> new_id(n, kSource);
  for (NodeId i = 0; i < n; ++i) {
    if (collapsed[i]) continue;
    // Walk up through collapsed ancestors, summing resistance.
    double res = tree.resistance(i);
    NodeId p = tree.parent(i);
    while (p != kSource && collapsed[p]) {
      res += tree.resistance(p);
      p = tree.parent(p);
    }
    const NodeId parent = (p == kSource) ? kSource : new_id[p];
    new_id[i] = b.add_node(tree.name(i), parent, res, tree.capacitance(i));
  }
  if (b.size() == 0) throw std::invalid_argument("merge_series: tree collapses to nothing");
  return std::move(b).build();
}

RCTree prune_subtree(const RCTree& tree, NodeId node, bool lump) {
  if (node >= tree.size()) throw std::invalid_argument("prune_subtree: node out of range");
  if (tree.parent(node) == kSource)
    throw std::invalid_argument("prune_subtree: cannot prune a root subtree");

  // Mark the subtree.
  std::vector<char> doomed(tree.size(), 0);
  doomed[node] = 1;
  for (NodeId i = node + 1; i < tree.size(); ++i) {
    const NodeId p = tree.parent(i);
    if (p != kSource && doomed[p]) doomed[i] = 1;
  }
  // Sum the lumped capacitance from the marks just computed instead of
  // paying RCTree::subtree_capacitance's separate O(subtree) DFS.
  double lumped = 0.0;
  if (lump)
    for (NodeId i = 0; i < tree.size(); ++i)
      if (doomed[i]) lumped += tree.capacitance(i);

  RCTreeBuilder b;
  std::vector<NodeId> new_id(tree.size(), kSource);
  for (NodeId i = 0; i < tree.size(); ++i) {
    if (doomed[i]) continue;
    const NodeId p = tree.parent(i);
    const double extra = (i == tree.parent(node)) ? lumped : 0.0;
    new_id[i] = b.add_node(tree.name(i), p == kSource ? kSource : new_id[p],
                           tree.resistance(i), tree.capacitance(i) + extra);
  }
  return std::move(b).build();
}

RCTree add_cap(const RCTree& tree, NodeId node, double extra) {
  if (node >= tree.size()) throw std::invalid_argument("add_cap: node out of range");
  if (tree.capacitance(node) + extra < 0.0)
    throw std::invalid_argument("add_cap: capacitance would go negative");
  RCTreeBuilder b;
  for (NodeId i = 0; i < tree.size(); ++i)
    b.add_node(tree.name(i), tree.parent(i), tree.resistance(i),
               tree.capacitance(i) + (i == node ? extra : 0.0));
  return std::move(b).build();
}

RCTree segmented_wire(double length, const WireParams& params, std::size_t sections,
                      double driver_resistance, double load_cap) {
  if (!(length > 0.0) || sections < 1)
    throw std::invalid_argument("segmented_wire: need positive length and >= 1 section");
  if (!(params.res_per_length > 0.0) || !(params.cap_per_length >= 0.0))
    throw std::invalid_argument("segmented_wire: bad per-unit parameters");
  const double r_seg = params.res_per_length * length / static_cast<double>(sections);
  const double c_seg = params.cap_per_length * length / static_cast<double>(sections);
  RCTreeBuilder b;
  // Driver section carries half of the first segment's cap (pi split).
  NodeId prev = b.add_node("w1", kSource, driver_resistance + 0.5 * r_seg, c_seg);
  for (std::size_t i = 2; i <= sections; ++i)
    prev = b.add_node(std::string("w").append(std::to_string(i)), prev, r_seg, c_seg);
  b.add_node("load", prev, 0.5 * r_seg, load_cap);
  return std::move(b).build();
}

}  // namespace rct
