#include "rctree/generators.hpp"

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

namespace rct::gen {
namespace {

std::string node_name(std::size_t i) { return std::string("n").append(std::to_string(i + 1)); }

}  // namespace

RCTree line(std::size_t segments, double r_driver, double c_driver, double r_segment,
            double c_segment) {
  if (segments < 1) throw std::invalid_argument("gen::line: segments must be >= 1");
  RCTreeBuilder b;
  NodeId prev = b.add_node(node_name(0), kSource, r_driver, c_driver);
  for (std::size_t i = 1; i <= segments; ++i)
    prev = b.add_node(node_name(i), prev, r_segment, c_segment);
  return std::move(b).build();
}

RCTree balanced(std::size_t depth, std::size_t fanout, double r_driver, double c_driver,
                double r_segment, double c_segment) {
  if (fanout < 1) throw std::invalid_argument("gen::balanced: fanout must be >= 1");
  RCTreeBuilder b;
  std::size_t counter = 0;
  std::vector<NodeId> level{b.add_node(node_name(counter++), kSource, r_driver, c_driver)};
  for (std::size_t d = 0; d < depth; ++d) {
    std::vector<NodeId> next;
    next.reserve(level.size() * fanout);
    for (NodeId p : level)
      for (std::size_t f = 0; f < fanout; ++f)
        next.push_back(b.add_node(node_name(counter++), p, r_segment, c_segment));
    level = std::move(next);
  }
  return std::move(b).build();
}

RCTree htree(std::size_t levels, double r_level0, double c_level0, double c_sink) {
  RCTreeBuilder b;
  std::size_t counter = 0;
  std::vector<NodeId> level{b.add_node(node_name(counter++), kSource, r_level0, c_level0)};
  double r = r_level0;
  double c = c_level0;
  for (std::size_t d = 0; d < levels; ++d) {
    r *= 0.5;
    c *= 0.5;
    const bool last = (d + 1 == levels);
    std::vector<NodeId> next;
    next.reserve(level.size() * 2);
    for (NodeId p : level)
      for (int f = 0; f < 2; ++f)
        next.push_back(b.add_node(node_name(counter++), p, r, c + (last ? c_sink : 0.0)));
    level = std::move(next);
  }
  return std::move(b).build();
}

RCTree random_tree(std::size_t nodes, std::uint64_t seed, const RandomTreeOptions& options) {
  if (nodes < 1) throw std::invalid_argument("gen::random_tree: nodes must be >= 1");
  if (options.bushiness < 0.0 || options.bushiness > 1.0)
    throw std::invalid_argument("gen::random_tree: bushiness must be in [0,1]");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  auto log_uniform = [&](double lo, double hi) {
    return lo * std::exp(uni(rng) * std::log(hi / lo));
  };

  RCTreeBuilder b;
  b.add_node(node_name(0), kSource, log_uniform(options.r_min, options.r_max),
             log_uniform(options.c_min, options.c_max));
  for (std::size_t i = 1; i < nodes; ++i) {
    NodeId parent;
    if (uni(rng) < options.bushiness) {
      parent = static_cast<NodeId>(std::min<std::size_t>(
          i - 1, static_cast<std::size_t>(uni(rng) * static_cast<double>(i))));
    } else {
      parent = i - 1;
    }
    b.add_node(node_name(i), parent, log_uniform(options.r_min, options.r_max),
               log_uniform(options.c_min, options.c_max));
  }
  return std::move(b).build();
}

RCTree star(std::size_t arms, double r_driver, double c_driver, double r_arm, double c_arm) {
  if (arms < 1) throw std::invalid_argument("gen::star: arms must be >= 1");
  RCTreeBuilder b;
  const NodeId hub = b.add_node("hub", kSource, r_driver, c_driver);
  for (std::size_t i = 0; i < arms; ++i)
    b.add_node("arm" + std::to_string(i + 1), hub, r_arm, c_arm);
  return std::move(b).build();
}

}  // namespace rct::gen
