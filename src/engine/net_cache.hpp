#pragma once
// Content-addressed cache of per-net report rows.
//
// Key: the net's topology (parent ids), the exact bit patterns of its R/C
// values, and the ReportOptions that shaped the rows, packed into words and
// hashed a word at a time for sharding and lookup.
// Node names are deliberately excluded — repeated physical nets (clock
// meshes, stamped macro pins) differ only in names.  Rows carry node ids,
// not names, and twins share topology, so a hit returns rows identical to
// a fresh build_report() on either twin; renderers look names up in their
// own tree.  The full key material is stored and compared on lookup, so a
// hit is exact, never probabilistic.
//
// Thread safety: the map is sharded by hash, one mutex per shard, so
// concurrent lookups/inserts from a thread pool contend only when they land
// on the same shard.
//
// Render slots: each row entry carries one opaque Rendering per
// RenderFlavor — bytes a consumer (the server) derived from the rows and
// attached on a later hit, so warm reads skip re-rendering.  The cache
// stores, counts and drops them with their entry and never reads them; the
// bytes must be name-free, because content twins share the entry.
//
// Bounding: an optional LRU cap (`max_entries`, 0 = unbounded) limits how
// many row entries the cache retains; the cache holds nothing else.  The
// cap is split evenly across shards, so it is approximate: a shard evicts
// its own least-recently-used entry once it exceeds
// ceil(max_entries / shards), regardless of what other shards hold.
// Evictions are counted (`engine.cache.evictions`).  The default (0)
// preserves the unbounded, byte-identical pre-cap behavior.
//
// Persistence: a CacheBackend is the hook a second-level store plugs into
// (src/server's content-addressed DiskStore is the shipping
// implementation).  Misses consult the backend before reporting a miss;
// inserts write through.  Backend I/O happens outside the shard locks.
// lookup_memory() probes the memory tier alone, for a caller that must not
// block on the backend (the server answers such hits on the connection
// thread and hands misses to its pool).

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "rctree/rctree.hpp"

namespace rct::engine {

/// Name-independent key material of a (tree, options) pair.
struct NetKey {
  std::vector<std::uint64_t> words;  ///< packed topology/R/C/options
  std::uint64_t hash = 0;            ///< word-wise mix of words (in-memory only)

  /// Builds the key for one net's report computation.
  [[nodiscard]] static NetKey of(const RCTree& tree, const core::ReportOptions& options);

  [[nodiscard]] bool operator==(const NetKey& other) const { return words == other.words; }
};

/// Which field set a Rendering carries; every row entry has one render
/// slot per flavor.
enum class RenderFlavor : std::uint8_t { kReport, kBounds };
inline constexpr std::size_t kRenderFlavors = 2;

/// Bytes a consumer derived from an entry's rows, one fragment per row,
/// stored back to back.  Opaque to the cache.  Fragments must not embed
/// node names: content twins share the entry, so names are spliced in from
/// the live tree at read time, by each row's node id.
struct Rendering {
  std::string text;                   ///< the fragments, back to back
  std::vector<std::size_t> row_ends;  ///< end offset of each row's fragment in `text`
  std::vector<NodeId> nodes;          ///< each row's node, parallel to row_ends

  /// Bytes held (text, offsets and node ids), as counted by rendered_bytes().
  [[nodiscard]] std::size_t bytes() const {
    return text.size() + row_ends.size() * sizeof(std::size_t) + nodes.size() * sizeof(NodeId);
  }
};

/// Second-level store interface the NetCache consults on a memory miss and
/// writes through to on insert.  Implementations must be safe to call from
/// many threads concurrently and must never throw: a failed load is a
/// nullopt (the caller recomputes), a failed save is dropped.  The cache
/// never holds a shard lock across a backend call, so implementations are
/// free to do real I/O.
class CacheBackend {
 public:
  virtual ~CacheBackend() = default;
  /// Rows stored under `key`, or nullopt (missing, damaged, unreadable).
  [[nodiscard]] virtual std::optional<std::vector<core::NodeReport>> load(const NetKey& key) = 0;
  /// Persists rows under `key`; best-effort.
  virtual void save(const NetKey& key, const std::vector<core::NodeReport>& rows) = 0;
};

/// Where a NetCache::lookup() hit was served from.
enum class CacheSource {
  kMiss,
  kMemory,   ///< in-memory entry
  kBackend,  ///< second-level store (entry promoted into memory)
};

class NetCache {
 public:
  /// `max_entries` == 0 leaves the cache unbounded.
  explicit NetCache(std::size_t shards = 16, std::size_t max_entries = 0);

  /// Attaches the second-level store.  Set before the cache is shared
  /// across threads (the pointer itself is not synchronized).
  void set_backend(std::shared_ptr<CacheBackend> backend) { backend_ = std::move(backend); }

  /// Returns a copy of the cached rows, or nullopt on a miss.  A hit
  /// refreshes the entry's LRU position; a memory miss consults the backend
  /// and promotes a backend hit into memory.  `source` (optional) reports
  /// which level served the hit.
  [[nodiscard]] std::optional<std::vector<core::NodeReport>> lookup(
      const NetKey& key, CacheSource* source = nullptr);

  /// lookup() for a consumer that renders.  A memory hit whose `flavor`
  /// slot is filled returns that rendering and copies no rows; any other
  /// hit returns the rows and no rendering.  Hits are counted and refresh
  /// the LRU position either way.
  struct RenderedLookup {
    CacheSource source = CacheSource::kMiss;
    std::shared_ptr<const Rendering> rendering;
    std::optional<std::vector<core::NodeReport>> rows;
  };
  [[nodiscard]] RenderedLookup lookup_rendered(const NetKey& key, RenderFlavor flavor);

  /// lookup_rendered() against the in-memory tier alone: a hit is counted
  /// and returned as there; a miss (source kMiss) counts nothing and
  /// touches no backend, so the caller can hand the key to a thread that
  /// may do I/O, whose lookup_rendered() then counts the request once.
  [[nodiscard]] RenderedLookup lookup_memory(const NetKey& key, RenderFlavor flavor);

  /// Stores rows under `key` (write-through to the backend); a concurrent
  /// duplicate insert keeps the first.  The key moves into the entry.
  void insert(NetKey key, std::vector<core::NodeReport> rows);

  /// Fills `flavor`'s render slot of the in-memory entry under `key`.  The
  /// first writer wins and the stored rendering is returned; when the entry
  /// is gone (evicted meanwhile) nothing is stored and `rendering` itself
  /// comes back, so the caller can still answer from it.
  std::shared_ptr<const Rendering> attach_rendering(const NetKey& key, RenderFlavor flavor,
                                                    std::shared_ptr<const Rendering> rendering);

  /// Drops every row entry with its renderings (the backend is untouched).
  /// Not counted as evictions.  Returns the number of entries dropped.
  /// With `parts` > 1 only shards part, part + parts, ... are dropped, so
  /// `parts` threads can free one cache together.
  std::size_t clear(std::size_t part = 0, std::size_t parts = 1);

  [[nodiscard]] std::size_t hits() const { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const { return misses_.load(); }
  /// Memory misses served by the backend store.
  [[nodiscard]] std::size_t backend_hits() const { return backend_hits_.load(); }
  /// Row entries displaced by the LRU cap (clear() excluded).
  [[nodiscard]] std::size_t evictions() const { return evictions_.load(); }
  /// Number of distinct entries stored.
  [[nodiscard]] std::size_t size() const;
  /// Bytes held in render slots (Rendering::bytes() summed over entries).
  [[nodiscard]] std::size_t rendered_bytes() const { return rendered_bytes_.load(); }

 private:
  struct Entry {
    NetKey key;
    std::vector<core::NodeReport> rows;
    std::array<std::shared_ptr<const Rendering>, kRenderFlavors> renderings;
  };
  /// Per-shard storage: an intrusive recency list (front = most recent)
  /// with hash-indexed iterator chains for O(1) lookup, splice and eviction.
  struct Shard {
    std::mutex mutex;
    std::list<Entry> entries;  // MRU at front
    std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>> index;
  };

  Shard& shard_for(std::uint64_t hash) { return *shards_[hash % shards_.size()]; }

  /// The in-memory entry under `key`, or entries.end().  Caller holds the
  /// shard lock.
  static std::list<Entry>::iterator find_locked(Shard& shard, const NetKey& key);

  /// Shared body of lookup() and lookup_rendered(); `flavor` null = rows only.
  RenderedLookup lookup_impl(const NetKey& key, const RenderFlavor* flavor);

  /// The memory tier of every lookup: a hit is counted and refreshes the
  /// LRU position; a miss (source kMiss) counts nothing.
  RenderedLookup find_memory(const NetKey& key, const RenderFlavor* flavor);

  /// Bytes `entry`'s render slots hold.
  static std::size_t rendered_bytes_of(const Entry& entry);

  /// Inserts rows into the in-memory tier only (no backend write-through).
  /// Returns false when the key was already present.
  bool insert_memory(NetKey key, std::vector<core::NodeReport> rows);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t cap_per_shard_ = 0;  ///< 0 = unbounded
  std::shared_ptr<CacheBackend> backend_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> backend_hits_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> rendered_bytes_{0};
};

}  // namespace rct::engine
