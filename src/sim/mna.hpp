#pragma once
// Modified nodal analysis (MNA) assembly for RC trees:
//
//   C dv/dt = -G v + b * vin(t)
//
// where G is the (SPD) conductance matrix with the ideal source node
// eliminated, C the diagonal capacitance matrix, and b the injection vector
// (b_k = 1/R_k for nodes hanging directly off the source).
//
// Also provides the transfer-function moment series from the MNA view,
//   V(s) = (G + sC)^{-1} b  expanded about s = 0,
// which the test suite cross-checks against O(N) path tracing.

#include <vector>

#include "linalg/dense_matrix.hpp"
#include "rctree/rctree.hpp"

namespace rct::sim {

/// Assembled MNA matrices for an RC tree.
struct Mna {
  linalg::Matrix conductance;     ///< G, size N x N
  std::vector<double> capacitance;  ///< diagonal of C
  std::vector<double> injection;    ///< b
};

/// Assembles G, diag(C) and b for the tree.
[[nodiscard]] Mna assemble_mna(const RCTree& tree);

/// Transfer-function moment vectors m_0..m_order at every node from the MNA
/// view: m_0 = G^{-1} b (all ones), m_k = -G^{-1} C m_{k-1}.
/// Result[k][i] is the k-th moment at node i (H_i(s) = sum_k m_k[i] s^k).
[[nodiscard]] std::vector<std::vector<double>> mna_moments(const RCTree& tree, std::size_t order);

}  // namespace rct::sim
