#pragma once
// server::DiskStore — a versioned, content-addressed on-disk backend for
// the engine's NetCache (the second level behind the in-memory tier).
//
// Layout: one file per NetKey under `dir`, named by the key's address and
// sharded by its first byte so no directory grows unbounded:
//
//   <dir>/ab/abcdef0123456789.rct
//
// The address is FNV-1a over the key words' little-endian bytes.  It is
// computed here, not taken from NetKey::hash: the in-memory hash is free to
// change, while store directories must keep resolving across builds.
//
// Each file is a self-validating envelope: magic "RCTS", format version,
// the full key material (address + packed words, so a hit is exact even
// across address collisions — a colliding key reads as a miss), the
// serialized report rows (core::serialize_report) and a trailing FNV-1a
// checksum over everything before it.  Any mismatch — bad magic, another
// version, truncation, bit flips, foreign key, a row node id outside the
// key's tree — makes load() return nullopt; the caller recomputes and the
// entry is simply overwritten by the next save.  An entry of another
// version (one written by an older build) is a plain miss, counted in
// `store.load.misses`; damaged entries are counted (`store.load.corrupt`)
// and logged (`store.corrupt`).
//
// Writes go to a per-process temp file followed by an atomic rename, so
// concurrent servers sharing one store directory never observe a torn
// entry: readers see the old file, the new file, or no file.  Reads mmap
// the entry and validate in place — no heap copy until the rows
// deserialize.
//
// Capacity management: a nonzero `max_bytes` arms LRU-by-atime GC.  Every
// save() tracks the store's total entry bytes; crossing the cap triggers a
// sweep that deletes least-recently-read entries (load() hits bump the
// file's atime explicitly, so relatime/noatime mounts still order
// correctly) down to 90% of the cap.  Sweeps are crash-safe: the victim
// list is journaled (`gc.journal`, written tmp+rename) before the first
// unlink, and the next constructor finishes a half-done sweep from the
// journal and clears orphaned `*.tmp.*` files left by crashed writers.
// Counted in `store.gc.sweeps` / `store.gc.evicted` / `store.gc.bytes_freed`
// / `store.gc.recovered`; the `store.bytes` gauge tracks the live total.
//
// DiskStore never throws past its interface: the constructor reports an
// unusable directory via ok()/error(), and load()/save() degrade to
// miss/no-op, matching the CacheBackend contract.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "engine/net_cache.hpp"

namespace rct::server {

/// 64-bit FNV-1a of `bytes`.  It names store entries, checksums their
/// envelopes and gives loaded designs their handles: values that outlive a
/// build, so it must never change.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

class DiskStore final : public engine::CacheBackend {
 public:
  /// Opens (creating if needed) the store rooted at `dir`.  A nonzero
  /// `max_bytes` caps total entry bytes via LRU-by-atime GC sweeps.
  explicit DiskStore(std::string dir, std::uint64_t max_bytes = 0);

  /// False when the root directory could not be created/used; load() then
  /// always misses and save() is a no-op.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  [[nodiscard]] std::optional<std::vector<core::NodeReport>> load(
      const engine::NetKey& key) override;
  void save(const engine::NetKey& key, const std::vector<core::NodeReport>& rows) override;

  /// Entry files currently present (walks the shard dirs; for stats/tests).
  [[nodiscard]] std::size_t entry_count() const;

  /// Tracked total entry bytes / configured cap (0 = unbounded).
  [[nodiscard]] std::uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_bytes() const { return max_bytes_; }

  /// On-disk envelope format version this build reads and writes.
  /// Version 2 rows carry node ids where version 1 carried names; an entry
  /// of any other version reads as a miss and is rewritten by the next save.
  static constexpr std::uint32_t kVersion = 2;

 private:
  /// Entry file for the on-disk address of a key (see the layout above).
  [[nodiscard]] std::string path_for(std::uint64_t address) const;
  /// Finishes a journaled sweep a crashed process left behind and removes
  /// orphaned writer temp files; then seeds total_bytes_ from a full walk.
  void recover_and_scan();
  /// LRU-by-atime sweep down to 90% of max_bytes_.  One sweeper at a time;
  /// concurrent callers skip.  Never throws (an injected mid-sweep fault
  /// leaves the journal behind, exactly like a crash).
  void sweep();

  std::string dir_;
  bool ok_ = false;
  std::string error_;
  std::uint64_t max_bytes_ = 0;
  std::atomic<std::uint64_t> total_bytes_{0};
  std::mutex gc_mutex_;
};

}  // namespace rct::server
