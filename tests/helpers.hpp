#pragma once
// Shared test fixtures: analytic reference circuits and tolerance helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "rctree/rctree.hpp"

namespace rct::testing {

/// EXPECT that two doubles agree to a relative tolerance (absolute floor
/// `abs_floor` guards comparisons near zero).
inline void ExpectRel(double got, double want, double rel, double abs_floor = 0.0) {
  const double tol = std::max(rel * std::abs(want), abs_floor);
  EXPECT_NEAR(got, want, tol);
}

/// Single-section RC: source -R- n1(C).  Everything about it is closed form:
/// step = 1 - e^{-t/RC}, T_D = sigma = RC, skewness = 2, exact 50% delay =
/// RC ln 2, PRH bounds are exact.
inline RCTree single_rc(double r = 1000.0, double c = 1e-12) {
  RCTreeBuilder b;
  b.add_node("n1", kSource, r, c);
  return std::move(b).build();
}

/// Two-section RC line with distinct values.
inline RCTree two_rc(double r1 = 1000.0, double c1 = 1e-12, double r2 = 2000.0,
                     double c2 = 0.5e-12) {
  RCTreeBuilder b;
  const NodeId n1 = b.add_node("n1", kSource, r1, c1);
  b.add_node("n2", n1, r2, c2);
  return std::move(b).build();
}

/// Small asymmetric tree used across module tests:
///   src -100- a(1p) -200- b(2p) -300- c(0.5p)
///                    \-150- d(1.5p)
inline RCTree small_tree() {
  RCTreeBuilder b;
  const NodeId a = b.add_node("a", kSource, 100.0, 1e-12);
  const NodeId bb = b.add_node("b", a, 200.0, 2e-12);
  b.add_node("c", bb, 300.0, 0.5e-12);
  b.add_node("d", a, 150.0, 1.5e-12);
  return std::move(b).build();
}

/// `t` with every node renamed `prefix` + id: a content twin (same
/// topology and R/C bits, different names).
inline RCTree renamed(const RCTree& t, const std::string& prefix) {
  RCTreeBuilder b;
  for (NodeId i = 0; i < t.size(); ++i)
    b.add_node(prefix + std::to_string(i), t.parent(i), t.resistance(i), t.capacitance(i));
  return std::move(b).build();
}

}  // namespace rct::testing
