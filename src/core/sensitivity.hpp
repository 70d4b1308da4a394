#pragma once
// Analytic Elmore sensitivities — the gradients sizing/placement optimizers
// differentiate through.  Both follow directly from T_D(i) = sum_k R_ki C_k:
//
//   d T_D(i) / d c_k = R_ki            (shared-path resistance)
//   d T_D(i) / d r_e = Ctot(e) if the edge e lies on the source->i path,
//                      0 otherwise
//
// Each full gradient is computed in O(N) by one subtree sweep plus one
// path-partition sweep, so a gradient step costs no more than a delay
// evaluation — another reason the Elmore metric owns the inner loop.

#include <vector>

#include "rctree/rctree.hpp"

namespace rct::core {

/// d T_D(node) / d c_k for every k (i.e. the vector of shared-path
/// resistances R_k,node).  O(N).
[[nodiscard]] std::vector<double> elmore_cap_sensitivities(const RCTree& tree, NodeId node);

/// d T_D(node) / d r_e for every edge e (indexed by the edge's lower node).
/// Nonzero exactly on the source->node path, where it equals the subtree
/// capacitance below the edge.  O(N).
[[nodiscard]] std::vector<double> elmore_res_sensitivities(const RCTree& tree, NodeId node);

}  // namespace rct::core
