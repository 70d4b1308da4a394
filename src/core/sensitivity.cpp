#include "core/sensitivity.hpp"

#include <stdexcept>

#include "moments/path_tracing.hpp"

namespace rct::core {

std::vector<double> elmore_cap_sensitivities(const RCTree& tree, NodeId node) {
  if (node >= tree.size()) throw std::invalid_argument("cap_sensitivities: node out of range");
  const std::vector<double> rpath = moments::path_resistances(tree);

  // R_k,node = rpath[LCA(k, node)].  Partition the tree by the deepest
  // source->node path vertex each k shares: nodes in subtree(v) but not in
  // subtree(next-path-vertex) share exactly rpath[v].
  std::vector<NodeId> path;
  for (NodeId v = node; v != kSource; v = tree.parent(v)) path.push_back(v);
  // path is node -> root order; mark membership.
  std::vector<char> on_path(tree.size(), 0);
  for (NodeId v : path) on_path[v] = 1;

  // For every k: walk is O(1) amortized via parent propagation — the LCA
  // with `node` of k equals that of k's parent unless k itself is on the
  // path.  Parents precede children, so one forward sweep suffices.
  std::vector<double> sens(tree.size());
  for (NodeId k = 0; k < tree.size(); ++k) {
    if (on_path[k]) {
      sens[k] = rpath[k];  // k is an ancestor-or-self of node
    } else {
      const NodeId p = tree.parent(k);
      sens[k] = (p == kSource) ? 0.0 : sens[p];
    }
  }
  return sens;
}

std::vector<double> elmore_res_sensitivities(const RCTree& tree, NodeId node) {
  if (node >= tree.size()) throw std::invalid_argument("res_sensitivities: node out of range");
  const std::vector<double> ctot = moments::subtree_capacitances(tree);
  std::vector<double> sens(tree.size(), 0.0);
  for (NodeId v = node; v != kSource; v = tree.parent(v)) sens[v] = ctot[v];
  return sens;
}

}  // namespace rct::core
