// Stiff and degenerate corpus for the tree-structured pole/residue solve in
// sim::ExactAnalysis.
//
// Every case must reproduce the path-traced transfer moments m0, m1, m2 at
// every node: m_k = (-1)^k sum_j a_ij / lambda_j^k.  On well-conditioned
// random trees the poles and delays must also match a dense
// linalg::symmetric_eigen solve of C^-1/2 G C^-1/2 built here.  Stiff trees
// skip the dense comparison: there the dense side is the inaccurate one
// (its slow poles carry absolute error ~eps * lambda_max).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "linalg/root_find.hpp"
#include "linalg/symmetric_eigen.hpp"
#include "moments/path_tracing.hpp"
#include "rctree/circuits.hpp"
#include "rctree/generators.hpp"
#include "sim/exact.hpp"
#include "sim/mna.hpp"

namespace rct::sim {
namespace {

constexpr double kMomentTol = 1e-10;
constexpr double kDenseTol = 1e-9;

/// The tree the solver actually decomposes: every capacitance raised to the
/// documented floor.
RCTree floored(const RCTree& tree) {
  double cmax = 0.0;
  for (NodeId i = 0; i < tree.size(); ++i) cmax = std::max(cmax, tree.capacitance(i));
  RCTreeBuilder b;
  for (NodeId i = 0; i < tree.size(); ++i)
    b.add_node(tree.name(i), tree.parent(i), tree.resistance(i),
               std::max(tree.capacitance(i), ExactAnalysis::kCapacitanceFloor * cmax));
  return std::move(b).build();
}

void expect_moments_consistent(const RCTree& tree, const ExactAnalysis& exact) {
  const RCTree solved = floored(tree);
  const auto m = moments::transfer_moments(solved, 2);
  const auto& poles = exact.poles();
  for (std::size_t k = 0; k <= 2; ++k) {
    const std::vector<double>& want = m[k];
    double worst = 0.0;
    for (NodeId i = 0; i < tree.size(); ++i) {
      const auto a = exact.coefficient_row(i);
      double got = 0.0;
      for (std::size_t j = 0; j < poles.size(); ++j)
        got += a[j] / std::pow(poles[j], static_cast<double>(k));
      if (k % 2 == 1) got = -got;
      worst = std::max(worst, std::abs(got - want[i]) / std::abs(want[i]));
    }
    EXPECT_LE(worst, kMomentTol) << "m" << k;
  }
}

/// Dense reference: eigendecomposition of the symmetrized MNA matrix.
struct DenseOracle {
  std::vector<double> poles;
  std::vector<double> coeff;  // row-major [node * n + mode]

  explicit DenseOracle(const RCTree& tree) {
    const std::size_t n = tree.size();
    const Mna m = assemble_mna(tree);
    std::vector<double> inv_sqrt_c(n);
    for (std::size_t i = 0; i < n; ++i) inv_sqrt_c[i] = 1.0 / std::sqrt(m.capacitance[i]);
    linalg::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j <= i; ++j)
        a(i, j) = m.conductance(i, j) * inv_sqrt_c[i] * inv_sqrt_c[j];
    const auto eig = linalg::symmetric_eigen(a);
    poles = eig.eigenvalues;
    coeff.assign(n * n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      double w = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        w += eig.eigenvectors(i, j) * inv_sqrt_c[i] * m.injection[i];
      for (std::size_t i = 0; i < n; ++i)
        coeff[i * n + j] = inv_sqrt_c[i] * eig.eigenvectors(i, j) * w / poles[j];
    }
  }

  [[nodiscard]] double delay(NodeId node, double fraction) const {
    const std::size_t n = poles.size();
    const auto f = [&](double t) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += coeff[node * n + j] * std::exp(-poles[j] * t);
      return 1.0 - acc - fraction;
    };
    const double tau = 1.0 / poles.front();
    linalg::RootOptions opt;
    opt.x_tol = 1e-16 * tau;
    opt.f_tol = 0.0;
    const auto root = linalg::bracket_and_solve(f, tau, 1e6 * tau, opt);
    EXPECT_TRUE(root.has_value());
    return root.value_or(0.0);
  }
};

void expect_matches_dense(const RCTree& tree, const ExactAnalysis& exact) {
  const DenseOracle dense(tree);
  ASSERT_EQ(exact.poles().size(), dense.poles.size());
  for (std::size_t j = 0; j < dense.poles.size(); ++j)
    EXPECT_NEAR(exact.poles()[j], dense.poles[j], kDenseTol * dense.poles[j]) << "pole " << j;
  for (NodeId i = 0; i < tree.size(); ++i) {
    const double d50 = dense.delay(i, 0.5);
    EXPECT_NEAR(exact.step_delay(i, 0.5), d50, kDenseTol * d50) << tree.name(i);
    const double rise = dense.delay(i, 0.9) - dense.delay(i, 0.1);
    EXPECT_NEAR(exact.step_rise_time_10_90(i), rise, kDenseTol * rise) << tree.name(i);
  }
}

double pole_spread(const ExactAnalysis& exact) {
  return exact.poles().back() / exact.poles().front();
}

TEST(TreeEigen, StarClustersCarryTheWholeResidue) {
  for (const std::size_t arms : {20u, 120u}) {
    const RCTree t = gen::star(arms, 100.0, 50e-15, 400.0, 20e-15);
    const ExactAnalysis e(t);
    ASSERT_EQ(e.size(), t.size());
    expect_moments_consistent(t, e);
    EXPECT_TRUE(std::is_sorted(e.poles().begin(), e.poles().end()));
  }
}

TEST(TreeEigen, NearlySymmetricBranchesSplitTheirResidue) {
  // tree25's two four-node branches give pole pairs 3e-8, 7e-12 and 3e-14
  // apart (relative): each pair's vectors must stay C-orthogonal.
  const RCTree t = circuits::tree25();
  const ExactAnalysis e(t);
  expect_moments_consistent(t, e);
}

TEST(TreeEigen, LongLineTree) {
  gen::RandomTreeOptions opt;
  opt.bushiness = 0.0;
  const RCTree t = gen::random_tree(200, 7, opt);
  const ExactAnalysis e(t);
  expect_moments_consistent(t, e);
}

TEST(TreeEigen, ZeroCapacitanceFloor) {
  RCTreeBuilder b;
  const NodeId n1 = b.add_node("n1", kSource, 100.0, 1e-12);
  const NodeId n2 = b.add_node("n2", n1, 200.0, 0.0);
  const NodeId n3 = b.add_node("n3", n2, 300.0, 2e-12);
  b.add_node("n4", n3, 50.0, 0.0);
  b.add_node("n5", n2, 80.0, 0.5e-12);
  const RCTree t = std::move(b).build();
  const ExactAnalysis e(t);
  expect_moments_consistent(t, e);
  EXPECT_DOUBLE_EQ(e.floor_added_capacitance(), 2.0 * ExactAnalysis::kCapacitanceFloor * 2e-12);
}

TEST(TreeEigen, StiffRandomTrees) {
  // Widened component ranges: pole spreads from ~1e4 to ~1e8.
  struct Stiff {
    std::uint64_t seed;
    double r_max, c_min;
  };
  double widest = 0.0;
  for (const Stiff s : {Stiff{3, 100.0, 3e-14}, Stiff{3, 1e3, 1e-15}, Stiff{19, 1e4, 1e-16}}) {
    gen::RandomTreeOptions opt;
    opt.r_min = 1.0;
    opt.r_max = s.r_max;
    opt.c_min = s.c_min;
    opt.c_max = 1e-12;
    const RCTree t = gen::random_tree(120, s.seed, opt);
    const ExactAnalysis e(t);
    const double spread = pole_spread(e);
    EXPECT_GE(spread, 1e4);
    EXPECT_LE(spread, 1e8);
    widest = std::max(widest, spread);
    expect_moments_consistent(t, e);
  }
  EXPECT_GE(widest, 5e7);
}

TEST(TreeEigen, DefaultRandomTreesMatchDenseOracle) {
  for (const std::size_t n : {16u, 96u, 250u}) {
    const RCTree t = gen::random_tree(n, 1000 + n);
    const ExactAnalysis e(t);
    expect_moments_consistent(t, e);
    expect_matches_dense(t, e);
  }
}

}  // namespace
}  // namespace rct::sim
