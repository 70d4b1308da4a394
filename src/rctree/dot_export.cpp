#include "rctree/dot_export.hpp"

#include <sstream>

#include "rctree/units.hpp"

namespace rct {

std::string to_dot(const RCTree& tree, const DotOptions& options) {
  std::ostringstream os;
  os << "digraph " << options.graph_name << " {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  os << "  src [label=\"source\", shape=circle];\n";
  for (NodeId i = 0; i < tree.size(); ++i) {
    os << "  n" << i << " [label=\"" << tree.name(i);
    if (options.show_values) os << "\\nC=" << format_engineering(tree.capacitance(i), "F");
    if (const auto it = options.annotations.find(i); it != options.annotations.end())
      os << "\\n" << it->second;
    os << "\"];\n";
  }
  for (NodeId i = 0; i < tree.size(); ++i) {
    const NodeId p = tree.parent(i);
    os << "  ";
    if (p == kSource)
      os << "src";
    else
      os << 'n' << p;
    os << " -> n" << i;
    if (options.show_values)
      os << " [label=\"" << format_engineering(tree.resistance(i), "") << "\"]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rct
