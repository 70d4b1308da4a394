#include "rctree/graph_builder.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace rct::detail {

BuiltTree build_tree_from_elements(const std::vector<ResistorEdge>& resistors,
                                   std::map<std::string, double> cap_at,
                                   const std::string& input_node) {
  if (resistors.empty()) throw GraphBuildError("no resistors", 0, robust::Code::kEmptyTree);

  std::map<std::string, std::vector<std::size_t>> adj;
  for (std::size_t i = 0; i < resistors.size(); ++i) {
    adj[resistors[i].a].push_back(i);
    adj[resistors[i].b].push_back(i);
  }
  if (!adj.contains(input_node))
    throw GraphBuildError("input node '" + input_node + "' touches no resistor", 0,
                          robust::Code::kDisconnected);

  BuiltTree out;
  if (const auto it = cap_at.find(input_node); it != cap_at.end()) {
    out.warnings.push_back("capacitor on input node '" + input_node +
                           "' ignored (node is clamped by the ideal source)");
    cap_at.erase(it);
  }

  RCTreeBuilder builder;
  std::map<std::string, NodeId> id_of;
  std::vector<char> used(resistors.size(), 0);
  std::vector<std::string> frontier{input_node};
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& u : frontier) {
      for (std::size_t ri : adj[u]) {
        if (used[ri]) continue;
        used[ri] = 1;
        const ResistorEdge& r = resistors[ri];
        const std::string& v = (r.a == u) ? r.b : r.a;
        if (id_of.contains(v) || v == input_node)
          throw GraphBuildError("resistor closes a loop at node '" + v + "' (not a tree)",
                                r.tag, robust::Code::kCycle);
        const NodeId parent = (u == input_node) ? kSource : id_of.at(u);
        double cap = 0.0;
        if (const auto it = cap_at.find(v); it != cap_at.end()) {
          cap = it->second;
          cap_at.erase(it);
        } else {
          out.warnings.push_back("node '" + v + "' has no capacitor; using 0F");
        }
        id_of[v] = builder.add_node(v, parent, r.value, cap);
        next.push_back(v);
      }
    }
    frontier = std::move(next);
  }

  for (std::size_t i = 0; i < resistors.size(); ++i)
    if (!used[i])
      throw GraphBuildError("resistor is disconnected from the input node", resistors[i].tag,
                            robust::Code::kDisconnected);
  if (!cap_at.empty())
    throw GraphBuildError(
        "capacitor at node '" + cap_at.begin()->first + "' is not connected to the tree", 0,
        robust::Code::kDisconnected);

  out.tree = std::move(builder).build();
  return out;
}

BuiltTree build_tree_from_dense(const DenseElements& elements, std::uint32_t input,
                                std::string_view input_name, Arena& arena) {
  const std::span<const DenseResistor> resistors = elements.resistors;
  if (resistors.empty()) throw GraphBuildError("no resistors", 0, robust::Code::kEmptyTree);

  // CSR adjacency: per-node resistor indices, ascending (the fill loop runs
  // in ascending resistor order, matching the legacy push_back order).
  const std::size_t n = elements.names.size();
  using U32Vec = std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>>;
  U32Vec off{ArenaAllocator<std::uint32_t>{arena}};
  off.assign(n + 1, 0);
  for (const DenseResistor& r : resistors) {
    ++off[r.a + 1];
    ++off[r.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) off[i + 1] += off[i];
  if (input == kNoDenseNode || off[input + 1] == off[input])
    throw GraphBuildError("input node '" + std::string(input_name) + "' touches no resistor",
                          0, robust::Code::kDisconnected);
  U32Vec adj{ArenaAllocator<std::uint32_t>{arena}};
  adj.assign(2 * resistors.size(), 0);
  U32Vec cur{off.begin(), off.end() - 1, ArenaAllocator<std::uint32_t>{arena}};
  for (std::uint32_t ri = 0; ri < resistors.size(); ++ri) {
    adj[cur[resistors[ri].a]++] = ri;
    adj[cur[resistors[ri].b]++] = ri;
  }

  BuiltTree out;
  if (elements.has_cap[input])
    out.warnings.push_back("capacitor on input node '" + std::string(input_name) +
                           "' ignored (node is clamped by the ideal source)");

  using CharVec = std::vector<char, ArenaAllocator<char>>;
  CharVec visited{ArenaAllocator<char>{arena}};
  visited.assign(n, 0);
  visited[input] = 1;
  std::vector<NodeId, ArenaAllocator<NodeId>> tree_id{ArenaAllocator<NodeId>{arena}};
  tree_id.assign(n, kSource);
  CharVec used{ArenaAllocator<char>{arena}};
  used.assign(resistors.size(), 0);

  // A tree gains exactly one node per resistor; anything else throws below.
  RCTreeBuilder builder;
  builder.reserve(resistors.size());
  U32Vec frontier{ArenaAllocator<std::uint32_t>{arena}};
  U32Vec next{ArenaAllocator<std::uint32_t>{arena}};
  frontier.push_back(input);
  while (!frontier.empty()) {
    next.clear();
    for (const std::uint32_t u : frontier) {
      for (std::uint32_t k = off[u]; k < off[u + 1]; ++k) {
        const std::uint32_t ri = adj[k];
        if (used[ri]) continue;
        used[ri] = 1;
        const std::uint32_t v = (resistors[ri].a == u) ? resistors[ri].b : resistors[ri].a;
        if (visited[v])
          throw GraphBuildError("resistor closes a loop at node '" +
                                    std::string(elements.names[v]) + "' (not a tree)",
                                resistors[ri].tag, robust::Code::kCycle);
        const NodeId parent = tree_id[u];  // kSource for the input node
        double cap = 0.0;
        if (elements.has_cap[v]) {
          cap = elements.caps[v];
        } else {
          out.warnings.push_back("node '" + std::string(elements.names[v]) +
                                 "' has no capacitor; using 0F");
        }
        visited[v] = 1;
        // Unchecked: BFS discovery guarantees unique non-empty names and
        // parent-first order; the SPEF parser validated the values.
        tree_id[v] = builder.add_node_unchecked(std::string(elements.names[v]), parent,
                                                resistors[ri].value, cap);
        next.push_back(v);
      }
    }
    frontier.swap(next);
  }

  for (std::size_t i = 0; i < resistors.size(); ++i)
    if (!used[i])
      throw GraphBuildError("resistor is disconnected from the input node", resistors[i].tag,
                            robust::Code::kDisconnected);
  // Caps are consumed by discovery; an unvisited capacitor node means a
  // floating capacitor.  Report the lexicographically smallest name, which
  // is what std::map iteration order gave the legacy parser.
  std::uint32_t leftover = kNoDenseNode;
  for (std::uint32_t i = 0; i < n; ++i)
    if (elements.has_cap[i] && !visited[i] &&
        (leftover == kNoDenseNode || elements.names[i] < elements.names[leftover]))
      leftover = i;
  if (leftover != kNoDenseNode)
    throw GraphBuildError("capacitor at node '" + std::string(elements.names[leftover]) +
                              "' is not connected to the tree",
                          0, robust::Code::kDisconnected);
  out.tree = std::move(builder).build();
  out.tree_id = {tree_id.data(), tree_id.size()};
  return out;
}

}  // namespace rct::detail
