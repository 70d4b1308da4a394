#include "sim/mna.hpp"

namespace rct::sim {

Mna assemble_mna(const RCTree& tree) {
  const std::size_t n = tree.size();
  Mna m{linalg::Matrix::square(n), std::vector<double>(n), std::vector<double>(n, 0.0)};
  for (NodeId i = 0; i < n; ++i) {
    m.capacitance[i] = tree.capacitance(i);
    const double g = 1.0 / tree.resistance(i);
    m.conductance(i, i) += g;
    const NodeId p = tree.parent(i);
    if (p == kSource) {
      m.injection[i] += g;
    } else {
      m.conductance(p, p) += g;
      m.conductance(i, p) -= g;
      m.conductance(p, i) -= g;
    }
  }
  return m;
}

std::vector<std::vector<double>> mna_moments(const RCTree& tree, std::size_t order) {
  const Mna m = assemble_mna(tree);
  const linalg::LuFactor lu(m.conductance);
  std::vector<std::vector<double>> out;
  out.reserve(order + 1);
  out.push_back(lu.solve(m.injection));  // m_0 (all ones for an RC tree)
  for (std::size_t k = 1; k <= order; ++k) {
    std::vector<double> rhs(tree.size());
    for (std::size_t i = 0; i < tree.size(); ++i) rhs[i] = -m.capacitance[i] * out.back()[i];
    out.push_back(lu.solve(rhs));
  }
  return out;
}

}  // namespace rct::sim
