#pragma once
// O(N) path-tracing computation of RC-tree moments (Section II-C/D).
//
// All quantities below come from linear-time tree traversals — the property
// that makes the Elmore metric ubiquitous in synthesis/placement/routing:
//
//  * Elmore delays         T_D(i) = sum_k R_ki C_k              (eq. 4)
//  * transfer moments      m_k(i) with H_i(s) = sum_k m_k(i) s^k (eq. 8-9),
//    via the RICE recurrence m_k(i) = m_k(par) - r_i * sum_{j in sub(i)}
//    c_j m_{k-1}(j)
//  * Penfield-Rubinstein terms T_P, T_D(i), T_R(i)               (eq. 16)
//
// Distribution moments M_q = int t^q h dt relate to transfer moments by
// M_q = (-1)^q q! m_q.

#include <span>
#include <vector>

#include "rctree/rctree.hpp"

namespace rct::moments {

/// Elmore delay T_D at every node (seconds).  O(N).
[[nodiscard]] std::vector<double> elmore_delays(const RCTree& tree);

/// Elmore delays from a precomputed subtree-capacitance array (as produced
/// by subtree_capacitances()).  Bit-identical to elmore_delays(tree); lets
/// callers that already hold the array (analysis::TreeContext) skip the
/// extra sweep.  O(N).
[[nodiscard]] std::vector<double> elmore_delays_from(const RCTree& tree,
                                                     std::span<const double> ctot);

/// Downstream (subtree) capacitance at every node.  O(N).
[[nodiscard]] std::vector<double> subtree_capacitances(const RCTree& tree);

/// Source-to-node path resistance R_ii at every node.  O(N).
[[nodiscard]] std::vector<double> path_resistances(const RCTree& tree);

/// Transfer-function moments: result[k][i] = m_k at node i, for k = 0..order.
/// m_0 = 1 everywhere; m_1(i) = -T_D(i).  O(N * order).
[[nodiscard]] std::vector<std::vector<double>> transfer_moments(const RCTree& tree,
                                                                std::size_t order);

/// Distribution moments M_q(i) = int t^q h_i(t) dt = (-1)^q q! m_q(i);
/// result[q][i], q = 0..order.
[[nodiscard]] std::vector<std::vector<double>> distribution_moments(const RCTree& tree,
                                                                    std::size_t order);

/// The three Penfield-Rubinstein path-tracing terms (eq. 16).
struct PrhTerms {
  double tp;               ///< T_P  = sum_k R_kk C_k (shared by all nodes)
  std::vector<double> td;  ///< T_D(i)
  std::vector<double> tr;  ///< T_R(i) = sum_k R_ki^2 C_k / R_ii
};

/// Computes T_P, T_D, T_R in O(N) total using the ancestor recurrence
/// A(w) = A(parent) + (R_ww^2 - R_vv^2) * Ctot(w) for A(w) = sum_k C_k R_kw^2.
[[nodiscard]] PrhTerms prh_terms(const RCTree& tree);

/// PRH terms from precomputed ctot/rpath/td arrays (as produced by the
/// sibling functions above).  Bit-identical to prh_terms(tree); shares no
/// tree sweeps, so a caller holding the arrays pays only the two O(N)
/// T_P / T_R loops.
[[nodiscard]] PrhTerms prh_terms_from(const RCTree& tree, std::span<const double> ctot,
                                      std::span<const double> rpath,
                                      std::span<const double> td);

/// Reference (quadratic-time) computation of sum_k R_ki^2 C_k used by the
/// test suite to validate the O(N) recurrence.
[[nodiscard]] std::vector<double> squared_common_resistance_slow(const RCTree& tree);

}  // namespace rct::moments
