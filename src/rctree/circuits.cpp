#include "rctree/circuits.hpp"

namespace rct::circuits {

// Component values calibrated by tools/fit_fig1 against the published
// Table I metrics (the paper omits them); see EXPERIMENTS.md for the fit
// residuals (every Table I entry is reproduced within ~1%).
RCTree fig1() {
  RCTreeBuilder b;
  const NodeId n1 = b.add_node("n1", kSource, 889.27, 18.79e-15);
  const NodeId n2 = b.add_node("n2", n1, 637.49, 67.22e-15);
  const NodeId n3 = b.add_node("n3", n2, 87.36, 195.52e-15);
  const NodeId n4 = b.add_node("n4", n3, 1863.05, 143.14e-15);
  b.add_node("n5", n4, 100.27, 33.17e-15);
  const NodeId n6 = b.add_node("n6", n1, 1203.43, 131.48e-15);
  b.add_node("n7", n6, 192.59, 30.53e-15);
  return std::move(b).build();
}

std::array<NodeId, 3> fig1_observed(const RCTree& t) {
  return {t.at("n1"), t.at("n5"), t.at("n7")};
}

// Calibrated so that the Elmore delays at A/B/C match Table II's published
// 0.02 / 1.13 / 1.56 ns; see tools/fit_fig1.
RCTree tree25() {
  RCTreeBuilder b;
  // Driver section: node A sits right behind a small driver resistance.
  NodeId prev = b.add_node("A", kSource, 10.0, 166.1e-15);
  // Main line m1..m15 (m8 named "B"), then leaf C.
  const double r_seg = 98.44;
  const double c_seg = 109.6e-15;
  std::vector<NodeId> main_line;
  for (int i = 1; i <= 15; ++i) {
    std::string name = (i == 8) ? "B" : std::string("m").append(std::to_string(i));
    prev = b.add_node(std::move(name), prev, r_seg, c_seg);
    main_line.push_back(prev);
  }
  b.add_node("C", prev, r_seg, c_seg);
  // Side branches at m3 and m11 (4 nodes each) make it a genuine tree.
  NodeId s = main_line[2];
  for (int i = 1; i <= 4; ++i)
    s = b.add_node(std::string("p").append(std::to_string(i)), s, r_seg, 10.0e-15);
  s = main_line[10];
  for (int i = 1; i <= 4; ++i)
    s = b.add_node(std::string("q").append(std::to_string(i)), s, r_seg, 10.0e-15);
  return std::move(b).build();
}

std::array<NodeId, 3> tree25_observed(const RCTree& t) {
  return {t.at("A"), t.at("B"), t.at("C")};
}

std::array<Table1Row, 3> table1_published() {
  constexpr double ns = 1e-9;
  return {{
      {"C1", 0.196 * ns, 0.55 * ns, 0.0, 0.383 * ns, 0.55 * ns, 0.0},
      {"C5", 0.919 * ns, 1.20 * ns, 0.2 * ns, 0.830 * ns, 1.32 * ns, 0.51 * ns},
      {"C7", 0.450 * ns, 0.75 * ns, 0.0, 0.524 * ns, 1.02 * ns, 0.054 * ns},
  }};
}

std::array<Table2Row, 3> table2_published() {
  constexpr double ns = 1e-9;
  constexpr double ps = 1e-12;
  return {{
      {"A", 0.02 * ns, 0.01 * ns, 1.04, 18.0 * ps, 0.119, 19.0 * ps, 0.0154},
      {"B", 1.13 * ns, 0.72 * ns, 0.547, 1.06 * ns, 0.065, 1.116 * ns, 0.0086},
      {"C", 1.56 * ns, 1.20 * ns, 0.296, 1.48 * ns, 0.048, 1.547 * ns, 0.0064},
  }};
}

}  // namespace rct::circuits
