#include "moments/path_tracing.hpp"

#include <algorithm>
#include <stdexcept>

namespace rct::moments {

std::vector<double> subtree_capacitances(const RCTree& tree) {
  const std::size_t n = tree.size();
  std::vector<double> ctot(n);
  // Children have larger indices than parents, so one reverse sweep folds
  // subtotals upward.
  for (NodeId i = n; i-- > 0;) {
    ctot[i] += tree.capacitance(i);
    const NodeId p = tree.parent(i);
    if (p != kSource) ctot[p] += ctot[i];
  }
  return ctot;
}

std::vector<double> path_resistances(const RCTree& tree) {
  const std::size_t n = tree.size();
  std::vector<double> rpath(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId p = tree.parent(i);
    rpath[i] = tree.resistance(i) + (p == kSource ? 0.0 : rpath[p]);
  }
  return rpath;
}

std::vector<double> elmore_delays_from(const RCTree& tree, std::span<const double> ctot) {
  const std::size_t n = tree.size();
  std::vector<double> td(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId p = tree.parent(i);
    td[i] = tree.resistance(i) * ctot[i] + (p == kSource ? 0.0 : td[p]);
  }
  return td;
}

std::vector<double> elmore_delays(const RCTree& tree) {
  return elmore_delays_from(tree, subtree_capacitances(tree));
}

namespace {

/// One step of the RICE recurrence: m_k at every node from the m_{k-1}
/// vector.
std::vector<double> next_transfer_moment(const RCTree& tree, const std::vector<double>& prev) {
  const std::size_t n = tree.size();
  // Upward pass: accumulate c_j * m_{k-1}(j) over subtrees.
  std::vector<double> weighted(n);
  for (NodeId i = 0; i < n; ++i) weighted[i] = tree.capacitance(i) * prev[i];
  for (NodeId i = n; i-- > 0;) {
    const NodeId p = tree.parent(i);
    if (p != kSource) weighted[p] += weighted[i];
  }
  // Downward pass: m_k(i) = m_k(parent) - r_i * subtree_sum(i).
  std::vector<double> cur(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId p = tree.parent(i);
    cur[i] = (p == kSource ? 0.0 : cur[p]) - tree.resistance(i) * weighted[i];
  }
  return cur;
}

}  // namespace

std::vector<std::vector<double>> transfer_moments(const RCTree& tree, std::size_t order) {
  std::vector<std::vector<double>> m;
  m.reserve(order + 1);
  m.emplace_back(tree.size(), 1.0);  // m_0 = 1 (DC gain of an RC tree)
  for (std::size_t k = 1; k <= order; ++k) m.push_back(next_transfer_moment(tree, m.back()));
  return m;
}

std::vector<std::vector<double>> distribution_moments(const RCTree& tree, std::size_t order) {
  auto m = transfer_moments(tree, order);
  double sign_fact = 1.0;  // (-1)^q q!
  for (std::size_t q = 1; q <= order; ++q) {
    sign_fact *= -static_cast<double>(q);
    for (double& v : m[q]) v *= sign_fact;
  }
  return m;
}

PrhTerms prh_terms_from(const RCTree& tree, std::span<const double> ctot,
                        std::span<const double> rpath, std::span<const double> td) {
  const std::size_t n = tree.size();
  PrhTerms out;
  out.td.assign(td.begin(), td.end());
  out.tp = 0.0;
  for (NodeId i = 0; i < n; ++i) out.tp += rpath[i] * tree.capacitance(i);

  // A(w) = sum_k C_k R_kw^2, built top-down (see header).
  std::vector<double> a(n);
  out.tr.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const NodeId p = tree.parent(i);
    const double parent_a = (p == kSource) ? 0.0 : a[p];
    const double parent_r = (p == kSource) ? 0.0 : rpath[p];
    a[i] = parent_a + (rpath[i] * rpath[i] - parent_r * parent_r) * ctot[i];
    out.tr[i] = a[i] / rpath[i];
  }
  return out;
}

PrhTerms prh_terms(const RCTree& tree) {
  const std::vector<double> ctot = subtree_capacitances(tree);
  const std::vector<double> rpath = path_resistances(tree);
  return prh_terms_from(tree, ctot, rpath, elmore_delays_from(tree, ctot));
}

std::vector<double> squared_common_resistance_slow(const RCTree& tree) {
  const std::size_t n = tree.size();
  // R_ki = resistance of the common prefix of the source->i and source->k
  // paths.  Quadratic reference implementation by explicit path walks.
  auto path_of = [&](NodeId x) {
    std::vector<NodeId> p;
    for (NodeId v = x; v != kSource; v = tree.parent(v)) p.push_back(v);
    std::reverse(p.begin(), p.end());
    return p;
  };
  std::vector<std::vector<NodeId>> paths(n);
  for (NodeId i = 0; i < n; ++i) paths[i] = path_of(i);

  std::vector<double> out(n, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId k = 0; k < n; ++k) {
      double rki = 0.0;
      const auto& pi = paths[i];
      const auto& pk = paths[k];
      for (std::size_t d = 0; d < std::min(pi.size(), pk.size()); ++d) {
        if (pi[d] != pk[d]) break;
        rki += tree.resistance(pi[d]);
      }
      out[i] += rki * rki * tree.capacitance(k);
    }
  }
  return out;
}

}  // namespace rct::moments
