#include "sim/tree_solver.hpp"

#include <stdexcept>

#include "robust/error.hpp"

namespace rct::sim {

TreeSystem::TreeSystem(const RCTree& tree, double a) {
  if (a < 0.0) throw std::invalid_argument("TreeSystem: a must be >= 0");
  const std::size_t n = tree.size();
  parent_.resize(n);
  edge_g_.resize(n);
  diag_.assign(n, 0.0);

  for (NodeId i = 0; i < n; ++i) {
    parent_[i] = tree.parent(i);
    const double g = 1.0 / tree.resistance(i);
    edge_g_[i] = g;
    diag_[i] += g + a * tree.capacitance(i);
    if (parent_[i] != kSource) diag_[parent_[i]] += g;
  }

  // Leaf-to-root elimination: children have larger indices than parents, so
  // a reverse index sweep is a valid elimination order.  Eliminating child i
  // updates its parent's diagonal by -g_i^2 / d_i (no other fill).
  for (NodeId i = n; i-- > 0;) {
    if (diag_[i] <= 0.0)
      throw robust::Error(robust::Code::kNonPhysicalValue,
                          "TreeSystem: matrix not positive definite");
    if (parent_[i] != kSource) diag_[parent_[i]] -= edge_g_[i] * edge_g_[i] / diag_[i];
  }
}

void TreeSystem::solve_in_place(std::vector<double>& rhs) const {
  const std::size_t n = diag_.size();
  if (rhs.size() != n) throw std::invalid_argument("TreeSystem::solve: size mismatch");
  // Forward: fold children into parents (L^-1), leaf-to-root.
  for (NodeId i = n; i-- > 0;) {
    rhs[i] /= diag_[i];
    if (parent_[i] != kSource) rhs[parent_[i]] += edge_g_[i] * rhs[i];
  }
  // Backward: root-to-leaf (L^-T).  Note the off-diagonal is -g.
  for (NodeId i = 0; i < n; ++i) {
    if (parent_[i] != kSource) rhs[i] += edge_g_[i] / diag_[i] * rhs[parent_[i]];
  }
}

std::vector<double> TreeSystem::solve(std::vector<double> rhs) const {
  solve_in_place(rhs);
  return rhs;
}

}  // namespace rct::sim
