#include "server/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rctree/mapped_file.hpp"
#include "robust/fault.hpp"

namespace rct::server {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

obs::Counter& load_hit_counter() {
  static obs::Counter& c = obs::registry().counter("store.load.hits");
  return c;
}
obs::Counter& load_miss_counter() {
  static obs::Counter& c = obs::registry().counter("store.load.misses");
  return c;
}
obs::Counter& load_corrupt_counter() {
  static obs::Counter& c = obs::registry().counter("store.load.corrupt");
  return c;
}
obs::Counter& save_write_counter() {
  static obs::Counter& c = obs::registry().counter("store.save.writes");
  return c;
}
obs::Counter& save_error_counter() {
  static obs::Counter& c = obs::registry().counter("store.save.errors");
  return c;
}
obs::Counter& gc_sweep_counter() {
  static obs::Counter& c = obs::registry().counter("store.gc.sweeps");
  return c;
}
obs::Counter& gc_evicted_counter() {
  static obs::Counter& c = obs::registry().counter("store.gc.evicted");
  return c;
}
obs::Counter& gc_bytes_freed_counter() {
  static obs::Counter& c = obs::registry().counter("store.gc.bytes_freed");
  return c;
}
obs::Counter& gc_recovered_counter() {
  static obs::Counter& c = obs::registry().counter("store.gc.recovered");
  return c;
}
obs::Counter& gc_error_counter() {
  static obs::Counter& c = obs::registry().counter("store.gc.errors");
  return c;
}
obs::Gauge& store_bytes_gauge() {
  static obs::Gauge& g = obs::registry().gauge("store.bytes");
  return g;
}

constexpr char kMagic[4] = {'R', 'C', 'T', 'S'};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// An entry's on-disk address: FNV-1a over the key words' little-endian
/// bytes.  Not NetKey::hash, which is an in-memory mix free to change: this
/// value names files and sits in envelopes, so it must stay what existing
/// store directories were written with.
std::uint64_t entry_address(const engine::NetKey& key) {
  std::string bytes;
  bytes.reserve(key.words.size() * sizeof(std::uint64_t));
  for (const std::uint64_t w : key.words) put_u64(bytes, w);
  return fnv1a(bytes);
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace

DiskStore::DiskStore(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    error_ = "cannot create store directory '" + dir_ + "': " + ec.message();
    return;
  }
  if (!std::filesystem::is_directory(dir_, ec) || ec) {
    error_ = "store path '" + dir_ + "' is not a directory";
    return;
  }
  ok_ = true;
  recover_and_scan();
}

void DiskStore::recover_and_scan() {
  // 1. A leftover gc.journal means a sweep died between journaling its
  //    victim list and removing the journal: finish it.  Paths in the
  //    journal are dir-relative, one per line; victims already unlinked by
  //    the crashed sweep just miss.
  const std::string journal = dir_ + "/gc.journal";
  if (std::FILE* f = std::fopen(journal.c_str(), "rb")) {
    std::string text;
    char chunk[4096];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) text.append(chunk, n);
    std::fclose(f);
    std::size_t recovered = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t end = text.find('\n', pos);
      if (end == std::string::npos) end = text.size();
      const std::string rel = text.substr(pos, end - pos);
      pos = end + 1;
      if (rel.empty() || rel.find("..") != std::string::npos) continue;
      if (std::remove((dir_ + "/" + rel).c_str()) == 0) ++recovered;
    }
    std::remove(journal.c_str());
    gc_recovered_counter().add(recovered);
    obs::log::info("store.gc.recovered",
                   {{"dir", std::string_view(dir_)},
                    {"entries", static_cast<std::uint64_t>(recovered)}});
  }
  // 2. Orphaned writer temp files.  Live writers hold a tmp for
  //    microseconds, so anything older than a minute is a crash leftover;
  //    the age guard keeps a starting server from clobbering a concurrent
  //    writer's in-flight file.
  std::uint64_t total = 0;
  std::error_code ec;
  const auto now = std::filesystem::file_time_type::clock::now();
  for (std::filesystem::recursive_directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.find(".rct.tmp.") != std::string::npos) {
      const auto mtime = std::filesystem::last_write_time(it->path(), ec);
      if (!ec && now - mtime > std::chrono::seconds(60))
        std::filesystem::remove(it->path(), ec);
      continue;
    }
    if (it->path().extension() == ".rct")
      total += static_cast<std::uint64_t>(it->file_size(ec));
  }
  total_bytes_.store(total, std::memory_order_relaxed);
  store_bytes_gauge().set(static_cast<double>(total));
}

std::string DiskStore::path_for(std::uint64_t address) const {
  const std::string hex = hash_hex(address);
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".rct";
}

std::optional<std::vector<core::NodeReport>> DiskStore::load(const engine::NetKey& key) {
  if (!ok_) return std::nullopt;
  const std::uint64_t address = entry_address(key);
  const std::string path = path_for(address);
  MappedFile file;
  if (!file.open(path)) {
    load_miss_counter().add();
    return std::nullopt;
  }
  const auto corrupt = [&](const char* why) -> std::optional<std::vector<core::NodeReport>> {
    load_corrupt_counter().add();
    obs::log::warn("store.corrupt", {{"path", std::string_view(path)}, {"reason", why}});
    return std::nullopt;
  };
  // Fixed header: magic(4) version(4) address(8) n_words(8).
  if (file.size() < 24) return corrupt("truncated header");
  const auto* p = reinterpret_cast<const unsigned char*>(file.view().data());
  if (std::memcmp(p, kMagic, 4) != 0) return corrupt("bad magic");
  if (get_u32(p + 4) != kVersion) {
    // Another build's format, not damage: recompute and let save() replace it.
    load_miss_counter().add();
    return std::nullopt;
  }
  // Checksum covers everything before the trailing 8 bytes.
  if (file.size() < 24 + 8) return corrupt("truncated checksum");
  const std::size_t body = file.size() - 8;
  if (get_u64(p + body) != fnv1a({reinterpret_cast<const char*>(p), body}))
    return corrupt("checksum mismatch");
  const std::uint64_t stored_address = get_u64(p + 8);
  const std::uint64_t n_words = get_u64(p + 16);
  if (n_words > (body - 24) / 8) return corrupt("key overruns file");
  std::size_t off = 24;
  // Exact key comparison: a hash-colliding foreign key is a miss, not an
  // error — the slot just belongs to someone else.
  bool key_matches = stored_address == address && n_words == key.words.size();
  for (std::uint64_t i = 0; i < n_words; ++i, off += 8) {
    if (key_matches && get_u64(p + off) != key.words[i]) key_matches = false;
  }
  if (off + 8 > body) return corrupt("truncated payload length");
  const std::uint64_t payload_len = get_u64(p + off);
  off += 8;
  if (payload_len != body - off) return corrupt("payload length mismatch");
  if (!key_matches) {
    load_miss_counter().add();
    return std::nullopt;
  }
  auto rows = core::deserialize_report(
      std::string_view(reinterpret_cast<const char*>(p + off), payload_len));
  if (!rows) return corrupt("payload deserialization failed");
  // The key's first word is its tree's node count (NetKey::of); a row
  // naming a node past it would index out of the tree when rendered.
  const std::uint64_t nodes = key.words.empty() ? 0 : key.words[0];
  for (const core::NodeReport& row : *rows)
    if (row.node >= nodes) return corrupt("row node out of range");
  load_hit_counter().add();
  // Bump the entry's atime so LRU GC sees the read even on relatime /
  // noatime mounts (mmap reads rarely touch atime at all).
  timespec times[2];
  times[0].tv_sec = 0;
  times[0].tv_nsec = UTIME_NOW;
  times[1].tv_sec = 0;
  times[1].tv_nsec = UTIME_OMIT;
  (void)::utimensat(AT_FDCWD, path.c_str(), times, 0);
  return rows;
}

void DiskStore::save(const engine::NetKey& key, const std::vector<core::NodeReport>& rows) {
  if (!ok_) return;
  const std::uint64_t address = entry_address(key);
  const std::string path = path_for(address);
  const auto slash = path.rfind('/');
  std::error_code ec;
  std::filesystem::create_directories(path.substr(0, slash), ec);
  if (ec) {
    save_error_counter().add();
    return;
  }

  std::string blob;
  blob.append(kMagic, 4);
  put_u32(blob, kVersion);
  put_u64(blob, address);
  put_u64(blob, key.words.size());
  for (const std::uint64_t w : key.words) put_u64(blob, w);
  const std::string payload = core::serialize_report(rows);
  put_u64(blob, payload.size());
  blob += payload;
  put_u64(blob, fnv1a(blob));

  // Unique temp name per process + call so concurrent writers (threads or
  // separate server instances sharing the store) never clobber each
  // other's in-flight file; rename() makes publication atomic.
  static std::atomic<std::uint64_t> write_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(static_cast<std::uint64_t>(::getpid())) +
                          "." + std::to_string(write_seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    save_error_counter().add();
    return;
  }
  // Size of the entry this rename replaces (0 when new) so the running
  // total stays a delta sum, not a rescan.
  struct stat old_st{};
  const std::uint64_t old_size =
      ::stat(path.c_str(), &old_st) == 0 ? static_cast<std::uint64_t>(old_st.st_size) : 0;
  const bool wrote = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    save_error_counter().add();
    std::remove(tmp.c_str());
    return;
  }
  save_write_counter().add();
  const std::uint64_t total =
      total_bytes_.fetch_add(blob.size() - old_size, std::memory_order_relaxed) +
      blob.size() - old_size;
  store_bytes_gauge().set(static_cast<double>(total));
  if (max_bytes_ > 0 && total > max_bytes_) sweep();
}

void DiskStore::sweep() {
  // One sweeper at a time; a save that loses the race just returns — the
  // winner is already freeing space on its behalf.
  std::unique_lock<std::mutex> lock(gc_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (total_bytes_.load(std::memory_order_relaxed) <= max_bytes_) return;

  struct Victim {
    std::string rel;  ///< dir-relative path ("ab/abcd....rct")
    std::uint64_t size = 0;
    std::int64_t atime_s = 0;
    std::int64_t atime_ns = 0;
  };
  std::vector<Victim> entries;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || it->path().extension() != ".rct") continue;
    struct stat st{};
    if (::stat(it->path().c_str(), &st) != 0) continue;
    Victim v;
    v.rel = std::filesystem::relative(it->path(), dir_, ec).string();
    if (ec || v.rel.empty()) continue;
    v.size = static_cast<std::uint64_t>(st.st_size);
    v.atime_s = st.st_atim.tv_sec;
    v.atime_ns = st.st_atim.tv_nsec;
    entries.push_back(std::move(v));
  }
  // Oldest read first; path tie-break keeps the order deterministic when
  // a burst of saves lands within one clock tick.
  std::sort(entries.begin(), entries.end(), [](const Victim& a, const Victim& b) {
    if (a.atime_s != b.atime_s) return a.atime_s < b.atime_s;
    if (a.atime_ns != b.atime_ns) return a.atime_ns < b.atime_ns;
    return a.rel < b.rel;
  });
  const std::uint64_t target = max_bytes_ - max_bytes_ / 10;  // free to 90% of cap
  std::uint64_t projected = total_bytes_.load(std::memory_order_relaxed);
  std::size_t n_victims = 0;
  while (n_victims < entries.size() && projected > target)
    projected -= entries[n_victims++].size;
  if (n_victims == 0) return;

  // Crash safety: journal the victim list (tmp+rename, like entry writes)
  // BEFORE the first unlink.  A crash mid-sweep leaves the journal; the
  // next constructor finishes the deletions from it.
  const std::string journal = dir_ + "/gc.journal";
  {
    const std::string tmp = journal + ".tmp." + std::to_string(static_cast<std::uint64_t>(::getpid()));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      gc_error_counter().add();
      return;
    }
    bool wrote = true;
    for (std::size_t i = 0; i < n_victims; ++i) {
      const std::string line = entries[i].rel + "\n";
      wrote = wrote && std::fwrite(line.data(), 1, line.size(), f) == line.size();
    }
    if (std::fclose(f) != 0 || !wrote || std::rename(tmp.c_str(), journal.c_str()) != 0) {
      gc_error_counter().add();
      std::remove(tmp.c_str());
      return;
    }
  }

  std::size_t evicted = 0;
  std::uint64_t bytes_freed = 0;
  try {
    for (std::size_t i = 0; i < n_victims; ++i) {
      // Chaos site: dying here (journal written, some victims gone) is the
      // partial-sweep crash the constructor's recovery path covers.
      robust::fault::maybe_throw("store.gc.sweep");
      if (std::remove((dir_ + "/" + entries[i].rel).c_str()) == 0) {
        ++evicted;
        bytes_freed += entries[i].size;
        total_bytes_.fetch_sub(entries[i].size, std::memory_order_relaxed);
      }
    }
  } catch (const robust::Error&) {
    // Injected crash: leave the journal in place (the whole point) and
    // keep serving — save() degrades, it never throws.
    gc_error_counter().add();
    gc_evicted_counter().add(evicted);
    gc_bytes_freed_counter().add(bytes_freed);
    store_bytes_gauge().set(static_cast<double>(total_bytes_.load(std::memory_order_relaxed)));
    return;
  }
  std::remove(journal.c_str());
  gc_sweep_counter().add();
  gc_evicted_counter().add(evicted);
  gc_bytes_freed_counter().add(bytes_freed);
  const std::uint64_t total = total_bytes_.load(std::memory_order_relaxed);
  store_bytes_gauge().set(static_cast<double>(total));
  obs::log::info("store.gc",
                 {{"dir", std::string_view(dir_)},
                  {"evicted", static_cast<std::uint64_t>(evicted)},
                  {"bytes_freed", bytes_freed},
                  {"bytes_now", total}});
}

std::size_t DiskStore::entry_count() const {
  if (!ok_) return 0;
  std::size_t n = 0;
  std::error_code ec;
  std::filesystem::recursive_directory_iterator it(dir_, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".rct") ++n;
  }
  return n;
}

}  // namespace rct::server
