#include "engine/net_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/instruments.hpp"

namespace rct::engine {
namespace {

// One multiply-rotate round per word (xxHash64's) and murmur3's fmix64
// finalizer, so every output bit, the low ones that pick the shard and the
// index bucket included, depends on every key bit.  In memory only: the
// DiskStore addresses entries by its own, stable hash of the words.
std::uint64_t mix_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0x27d4eb2f165667c5ULL + words.size();
  for (const std::uint64_t w : words)
    h = std::rotl(h + w * 0xc2b2ae3d27d4eb4fULL, 31) * 0x9e3779b185ebca87ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

NetKey NetKey::of(const RCTree& tree, const core::ReportOptions& options) {
  const std::size_t n = tree.size();
  NetKey key;
  key.words.reserve(3 + 3 * n);
  key.words.push_back(n);
  // Options enter as their *effective* values: with_exact only matters as
  // applied after the node-count cutoff.
  const bool exact = options.with_exact && n <= options.exact_node_limit;
  key.words.push_back((exact ? 1ULL : 0ULL) | (options.leaves_only ? 2ULL : 0ULL));
  key.words.push_back(std::bit_cast<std::uint64_t>(options.fraction));
  for (NodeId i = 0; i < n; ++i) {
    key.words.push_back(tree.parent(i));  // kSource is its own sentinel value
    key.words.push_back(std::bit_cast<std::uint64_t>(tree.resistance(i)));
    key.words.push_back(std::bit_cast<std::uint64_t>(tree.capacitance(i)));
  }
  key.hash = mix_words(key.words);
  return key;
}

NetCache::NetCache(std::size_t shards, std::size_t max_entries) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (max_entries > 0) cap_per_shard_ = (max_entries + shards - 1) / shards;
}

std::list<NetCache::Entry>::iterator NetCache::find_locked(Shard& shard, const NetKey& key) {
  const auto chain = shard.index.find(key.hash);
  if (chain != shard.index.end())
    for (const auto it : chain->second)
      if (it->key == key) return it;
  return shard.entries.end();
}

std::size_t NetCache::rendered_bytes_of(const Entry& entry) {
  std::size_t bytes = 0;
  for (const auto& rendering : entry.renderings)
    if (rendering != nullptr) bytes += rendering->bytes();
  return bytes;
}

std::optional<std::vector<core::NodeReport>> NetCache::lookup(const NetKey& key,
                                                              CacheSource* source) {
  RenderedLookup hit = lookup_impl(key, nullptr);
  if (source != nullptr) *source = hit.source;
  return std::move(hit.rows);
}

NetCache::RenderedLookup NetCache::lookup_rendered(const NetKey& key, RenderFlavor flavor) {
  return lookup_impl(key, &flavor);
}

NetCache::RenderedLookup NetCache::lookup_memory(const NetKey& key, RenderFlavor flavor) {
  return find_memory(key, &flavor);
}

NetCache::RenderedLookup NetCache::find_memory(const NetKey& key, const RenderFlavor* flavor) {
  RenderedLookup hit;
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = find_locked(shard, key);
  if (it == shard.entries.end()) return hit;
  hits_.fetch_add(1);
  obs::counter(obs::C::kEngineCacheHits).add();
  shard.entries.splice(shard.entries.begin(), shard.entries, it);  // refresh LRU
  hit.source = CacheSource::kMemory;
  if (flavor != nullptr) hit.rendering = it->renderings[static_cast<std::size_t>(*flavor)];
  if (hit.rendering == nullptr) hit.rows = it->rows;  // copy under the shard lock
  return hit;
}

NetCache::RenderedLookup NetCache::lookup_impl(const NetKey& key, const RenderFlavor* flavor) {
  RenderedLookup hit = find_memory(key, flavor);
  if (hit.source == CacheSource::kMemory) return hit;
  // Memory miss: consult the second-level store outside the shard lock and
  // promote a hit into memory so repeats stay lock-cheap.
  if (backend_ != nullptr) {
    if (auto loaded = backend_->load(key)) {
      backend_hits_.fetch_add(1);
      obs::counter(obs::C::kEngineCacheStoreHits).add();
      hit.rows = *loaded;
      insert_memory(key, std::move(*loaded));
      hit.source = CacheSource::kBackend;
      return hit;
    }
  }
  misses_.fetch_add(1);
  obs::counter(obs::C::kEngineCacheMisses).add();
  return hit;
}

bool NetCache::insert_memory(NetKey key, std::vector<core::NodeReport> rows) {
  const std::uint64_t hash = key.hash;
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (find_locked(shard, key) != shard.entries.end()) return false;  // first writer wins
  shard.entries.push_front(Entry{std::move(key), std::move(rows), {}});
  shard.index[hash].push_back(shard.entries.begin());
  obs::counter(obs::C::kEngineCacheInserts).add();
  if (cap_per_shard_ > 0 && shard.entries.size() > cap_per_shard_) {
    const auto victim = std::prev(shard.entries.end());
    rendered_bytes_.fetch_sub(rendered_bytes_of(*victim));
    const auto chain = shard.index.find(victim->key.hash);
    auto& its = chain->second;
    its.erase(std::find(its.begin(), its.end(), victim));
    if (its.empty()) shard.index.erase(chain);
    shard.entries.pop_back();
    evictions_.fetch_add(1);
    obs::counter(obs::C::kEngineCacheEvictions).add();
  }
  return true;
}

void NetCache::insert(NetKey key, std::vector<core::NodeReport> rows) {
  // Write-through before the memory insert: the rows are still at hand and
  // no shard lock is held across the (possibly real) I/O.  A duplicate
  // insert re-saves; backends treat an existing entry as a cheap no-op.
  if (backend_ != nullptr) backend_->save(key, rows);
  insert_memory(std::move(key), std::move(rows));
}

std::shared_ptr<const Rendering> NetCache::attach_rendering(
    const NetKey& key, RenderFlavor flavor, std::shared_ptr<const Rendering> rendering) {
  Shard& shard = shard_for(key.hash);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = find_locked(shard, key);
  if (it == shard.entries.end()) return rendering;
  auto& slot = it->renderings[static_cast<std::size_t>(flavor)];
  if (slot == nullptr) {
    slot = std::move(rendering);
    rendered_bytes_.fetch_add(slot->bytes());
  }
  return slot;
}

std::size_t NetCache::clear(std::size_t part, std::size_t parts) {
  std::size_t entries = 0;
  for (std::size_t i = part; i < shards_.size(); i += parts) {
    Shard& shard = *shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    entries += shard.entries.size();
    for (const Entry& entry : shard.entries) rendered_bytes_.fetch_sub(rendered_bytes_of(entry));
    shard.entries.clear();
    shard.index.clear();
  }
  return entries;
}

std::size_t NetCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->entries.size();
  }
  return n;
}

}  // namespace rct::engine
