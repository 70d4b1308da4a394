// Seeded SPEF decks for the three workloads.  The measured program only ever
// sees the written file; the same (workload, seed) always yields the same
// bytes.  Per-class net counts are fixed, so seeds change tree shapes and
// R/C values but not the amount of work in a deck.

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rctree/generators.hpp"
#include "rctree/spef.hpp"

namespace rctbench {
namespace {

/// splitmix64: decorrelated per-net seeds from (workload seed, index).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t net_seed(std::uint64_t seed, std::uint64_t salt, std::uint64_t index) {
  return mix(mix(seed ^ (salt << 48)) + index);
}

/// A net over `tree` whose loads are its first `max_loads` leaves (0 = all).
rct::SpefNet make_net(std::string name, rct::RCTree tree, std::size_t max_loads) {
  rct::SpefNet net;
  net.name = std::move(name);
  net.driver = "drv";
  net.loads = tree.leaves();
  if (max_loads != 0 && net.loads.size() > max_loads) net.loads.resize(max_loads);
  net.tree = std::move(tree);
  return net;
}

/// The same R/C content under new node names — a stamped instance.
rct::RCTree renamed(const rct::RCTree& tree, const std::string& prefix) {
  rct::RCTreeBuilder b;
  for (rct::NodeId i = 0; i < tree.size(); ++i)
    b.add_node(prefix + tree.name(i), tree.parent(i), tree.resistance(i), tree.capacitance(i));
  return std::move(b).build();
}

/// Streams nets to a SPEF file in chunks so large decks never sit in memory
/// whole: every chunk goes through rct::write_spef, and all but the first
/// drop the repeated file header.
class DeckWriter {
 public:
  explicit DeckWriter(const std::string& path) : path_(path), out_(path) {
    if (!out_) throw std::runtime_error("cannot write deck '" + path + "'");
    chunk_.design = "rctbench";
  }
  void add(rct::SpefNet net) {
    chunk_.nets.push_back(std::move(net));
    if (chunk_.nets.size() == 1000) flush();
  }
  void close() {
    flush();
    if (!out_.flush()) throw std::runtime_error("cannot write deck '" + path_ + "'");
  }

 private:
  void flush() {
    if (chunk_.nets.empty()) return;
    const std::string text = rct::write_spef(chunk_);
    const std::string_view body = std::string_view(text).substr(first_ ? 0 : text.find("*D_NET"));
    out_ << body;
    first_ = false;
    chunk_.nets.clear();
  }
  std::string path_;
  std::ofstream out_;
  rct::SpefFile chunk_;
  bool first_ = true;
};

void write_exact(std::uint64_t seed, DeckWriter& deck) {
  // Each class is spread evenly over the deck at the same positions for
  // every seed, so the pool's schedule (and its tail) does not depend on
  // where a seed happened to put its large nets.
  std::size_t total = 0;
  for (const std::size_t count : kExactCounts) total += count;
  std::size_t placed[std::size(kExactCounts)] = {};
  for (std::size_t i = 0; i < total; ++i) {
    std::size_t c = 0;  // the class furthest behind its even share
    double best = -1.0;
    for (std::size_t k = 0; k < std::size(kExactCounts); ++k) {
      const double deficit = static_cast<double>(kExactCounts[k]) * static_cast<double>(i + 1) /
                                 static_cast<double>(total) -
                             static_cast<double>(placed[k]);
      if (placed[k] < kExactCounts[k] && deficit > best) {
        best = deficit;
        c = k;
      }
    }
    ++placed[c];
    deck.add(make_net("net" + std::to_string(i),
                      rct::gen::random_tree(kExactSizes[c], net_seed(seed, 1, i)), 0));
  }
}

void write_stamped(std::uint64_t seed, DeckWriter& deck) {
  // Distinct net k is followed by one stamped copy of a random net in
  // [0, k]: half the deck repeats earlier content under new node names.
  static_assert(kStampedCopies == kStampedDistinct, "one copy follows each distinct net");
  std::vector<std::uint64_t> seeds(kStampedDistinct);
  std::size_t name = 0;
  for (std::size_t k = 0; k < kStampedDistinct; ++k) {
    seeds[k] = net_seed(seed, 2, k);
    deck.add(make_net("net" + std::to_string(name++),
                      rct::gen::random_tree(kStampedNodes, seeds[k]), 2));
    const std::size_t src = mix(seed + 3 * k + 1) % (k + 1);
    const rct::RCTree original = rct::gen::random_tree(kStampedNodes, seeds[src]);
    const std::string stamp = "u" + std::to_string(name) + "_";
    deck.add(make_net("net" + std::to_string(name), renamed(original, stamp), 2));
    ++name;
  }
}

void write_serve(std::uint64_t seed, DeckWriter& deck) {
  for (std::size_t i = 0; i < kServeNets; ++i)
    deck.add(make_net("net" + std::to_string(i),
                      rct::gen::random_tree(kServeNodes, net_seed(seed, 4, i)), 0));
}

}  // namespace

std::string deck_path(const std::string& deck_dir) { return deck_dir + "/deck.spef"; }

void generate_deck(const std::string& workload, std::uint64_t seed, const std::string& deck_dir) {
  void (*write)(std::uint64_t, DeckWriter&) = nullptr;
  if (workload == "batch_exact") write = write_exact;
  if (workload == "batch_moments_stamped") write = write_stamped;
  if (workload == "serve_mixed") write = write_serve;
  if (write == nullptr) throw std::invalid_argument("unknown workload '" + workload + "'");
  DeckWriter deck(deck_path(deck_dir));
  write(seed, deck);
  deck.close();
}

}  // namespace rctbench
