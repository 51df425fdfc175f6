// store/block_store.hpp — checksummed block storage behind a byte-
// budgeted cache (the out-of-core tier's I/O layer).
//
// The hier demotion path (hier/tier.hpp) serializes cold bottom-level
// segments into opaque *blocks*; this header is everything below that:
//
//   BlockBackend — the minimal durable surface (write/read/erase/ids),
//     so tests can wrap it with failpoints and the tier never knows.
//   MemBackend   — an in-memory map (tests, ephemeral tiers).
//   FileBackend  — a single append-only file of record frames (okon's
//     single-file layout): the frame epoch carries the block id, the
//     payload is the block, and reopening scans the frames to
//     rebuild the catalog — a torn tail (crash mid-append) is truncated
//     away, exactly the WAL's recovery rule. Rewrites append a
//     superseding frame; erases append a zero-length tombstone frame.
//   BlockStore   — the facade the tier talks to: allocate()/put()/get()
//     with an LRU cache budgeted in bytes (RethinkDB's serializer /
//     buffer_cache split), and an end-to-end checksum recorded at put()
//     and verified on every cache miss, so a torn write, short read, or
//     bit flip in ANY backend surfaces as a loud gbx::Error instead of
//     silently-wrong query results. FileBackend frames re-verify their
//     own checksum on read as well, which also covers blocks written
//     before a reopen (put-time sums don't survive the process).
//
// Thread-safety: BlockStore serializes every operation on one mutex —
// snapshot readers probe demoted blocks from arbitrary threads while
// the owner demotes more. Backends are only ever called under that
// mutex and need no locking of their own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/thread_annotations.hpp"
#include "store/wal.hpp"

namespace store {

using BlockId = std::uint64_t;

/// Monotone counters of one BlockStore's traffic (copyable POD view).
struct BlockStoreStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t bytes_written = 0;  ///< payload bytes through put()
  std::uint64_t bytes_read = 0;     ///< payload bytes read from the backend
  std::uint64_t checksum_failures = 0;  ///< rejected reads (each threw)
};

/// The durable surface under a BlockStore. Implementations may throw
/// gbx::Error on I/O failure; they are called under the store's mutex.
class BlockBackend {
 public:
  virtual ~BlockBackend() = default;

  /// Store (or supersede) one block.
  virtual void write(BlockId id, const void* data, std::size_t size) = 0;

  /// Read a block into `out`; false when the id is unknown.
  virtual bool read(BlockId id, std::string& out) = 0;

  /// Forget a block (idempotent).
  virtual void erase(BlockId id) = 0;

  /// Catalog of live blocks as (id, payload bytes) pairs.
  virtual std::vector<std::pair<BlockId, std::uint64_t>> entries() const = 0;
};

/// In-memory backend: the default for tests and ephemeral tiers.
class MemBackend final : public BlockBackend {
 public:
  void write(BlockId id, const void* data, std::size_t size) override {
    blocks_[id].assign(static_cast<const char*>(data), size);
  }

  bool read(BlockId id, std::string& out) override {
    auto it = blocks_.find(id);
    if (it == blocks_.end()) return false;
    out = it->second;
    return true;
  }

  void erase(BlockId id) override { blocks_.erase(id); }

  std::vector<std::pair<BlockId, std::uint64_t>> entries() const override {
    std::vector<std::pair<BlockId, std::uint64_t>> out;
    out.reserve(blocks_.size());
    for (const auto& [id, bytes] : blocks_)
      out.emplace_back(id, static_cast<std::uint64_t>(bytes.size()));
    return out;
  }

  /// Test hook: direct mutable access to a stored payload (fault
  /// injection corrupts bytes at rest through this).
  std::string* payload(BlockId id) {
    auto it = blocks_.find(id);
    return it == blocks_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<BlockId, std::string> blocks_;
};

/// Single-file append-only backend. Every mutation appends one record
/// frame (store/wal.hpp) whose epoch is the block id; a zero-size
/// payload is a tombstone. open() replays the frames into an offset
/// catalog and truncates the file at the first torn or corrupt frame —
/// the crash-recovery rule of the WAL, applied to block storage:
/// whatever a crash tore off simply reverts to "unknown block", never
/// to wrong bytes.
class FileBackend final : public BlockBackend {
 public:
  explicit FileBackend(std::string path) : path_(std::move(path)) { open(); }

  void write(BlockId id, const void* data, std::size_t size) override {
    file_.clear();
    file_.seekp(static_cast<std::streamoff>(end_));
    writer_.append(id, data, size);
    file_.flush();
    GBX_CHECK(file_.good(), "block file: append failure");
    const std::uint64_t at = end_;
    end_ += frame_bytes(size);
    if (size == 0) {
      catalog_.erase(id);  // tombstone
    } else {
      catalog_[id] = Extent{at, size};
    }
  }

  bool read(BlockId id, std::string& out) override {
    auto it = catalog_.find(id);
    if (it == catalog_.end()) return false;
    const Extent& e = it->second;
    file_.clear();
    file_.seekg(static_cast<std::streamoff>(e.offset));
    std::string frame(frame_bytes(e.size), '\0');
    file_.read(frame.data(), static_cast<std::streamsize>(frame.size()));
    const FrameView f =
        parse_frame(reinterpret_cast<const std::byte*>(frame.data()),
                    static_cast<std::size_t>(file_.gcount()), e.size);
    GBX_CHECK(f.status != FrameStatus::kNeedMore,
              "block file: short read (truncated block frame)");
    GBX_CHECK(f.status == FrameStatus::kFrame, f.error);
    GBX_CHECK(f.epoch == id && f.payload.size() == e.size,
              "block file: frame holds another block (corrupt block file)");
    out.assign(reinterpret_cast<const char*>(f.payload.data()),
               f.payload.size());
    return true;
  }

  void erase(BlockId id) override {
    if (catalog_.find(id) != catalog_.end()) write(id, nullptr, 0);
  }

  std::vector<std::pair<BlockId, std::uint64_t>> entries() const override {
    std::vector<std::pair<BlockId, std::uint64_t>> out;
    out.reserve(catalog_.size());
    for (const auto& [id, e] : catalog_) out.emplace_back(id, e.size);
    return out;
  }

  const std::string& path() const { return path_; }

  /// Bytes of the backing file (live + superseded frames; the file is
  /// append-only between vacuums).
  std::uint64_t file_bytes() const { return end_; }

  /// Rewrite the file with only the live frames (reclaims superseded
  /// and tombstoned space). O(live bytes); callers schedule it off the
  /// ingest path, like the tier's run compaction.
  void vacuum() {
    const std::string tmp = path_ + ".vacuum";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      GBX_CHECK(out.good(), "block file: cannot create vacuum file");
      RecordLogWriter w(out);
      std::string payload;
      for (const auto& [id, e] : catalog_) {
        GBX_CHECK(read(id, payload), "block file: vacuum lost a block");
        w.append(id, payload.data(), payload.size());
      }
      out.flush();
      GBX_CHECK(out.good(), "block file: vacuum write failure");
    }
    file_.close();
    std::filesystem::rename(tmp, path_);
    open();
  }

 private:
  struct Extent {
    std::uint64_t offset = 0;  ///< frame offset in the file
    std::uint64_t size = 0;    ///< payload bytes
  };

  /// Scan the file, rebuild the catalog, truncate at the first frame the
  /// decoder cannot complete (torn tail) or rejects (corruption: from
  /// that point on nothing can be trusted — the affected blocks revert
  /// to "unknown", reads of them fail loudly).
  void open() {
    {
      std::ofstream touch(path_, std::ios::binary | std::ios::app);
      GBX_CHECK(touch.good(), "block file: cannot open for append");
    }
    catalog_.clear();
    std::uint64_t good_end = 0;
    {
      std::ifstream in(path_, std::ios::binary);
      GBX_CHECK(in.good(), "block file: cannot open for scan");
      RecordLogTailer tail(in);
      try {
        while (auto rec = tail.next()) {
          const std::uint64_t at = good_end;
          good_end += frame_bytes(rec->payload.size());
          if (rec->payload.empty()) {
            catalog_.erase(rec->epoch);
          } else {
            catalog_[rec->epoch] = Extent{at, rec->payload.size()};
          }
        }
      } catch (const gbx::Error&) {
        // A corrupt frame: the scan stops, as it does at a torn tail.
      }
    }
    if (std::filesystem::file_size(path_) != good_end)
      std::filesystem::resize_file(path_, good_end);
    end_ = good_end;
    file_.open(path_, std::ios::binary | std::ios::in | std::ios::out);
    GBX_CHECK(file_.good(), "block file: cannot open for read/write");
  }

  std::string path_;
  std::fstream file_;
  RecordLogWriter writer_{file_};
  std::uint64_t end_ = 0;  ///< logical end (append point)
  std::unordered_map<BlockId, Extent> catalog_;
};

struct BlockStoreConfig {
  /// Byte budget of the read cache (payload bytes; metadata not
  /// counted). 0 disables caching entirely.
  std::size_t cache_budget_bytes = 8u << 20;
};

/// The facade the out-of-core tier reads and writes through. Blocks are
/// immutable once put (the tier never rewrites an id); get() returns a
/// shared payload that stays valid however the cache churns.
class BlockStore {
 public:
  explicit BlockStore(std::unique_ptr<BlockBackend> backend,
                      BlockStoreConfig cfg = {})
      : backend_(std::move(backend)), cfg_(cfg) {
    GBX_CHECK_VALUE(backend_ != nullptr, "block store: null backend");
    for (const auto& [id, size] : backend_->entries()) {
      sizes_[id] = static_cast<std::size_t>(size);
      next_id_ = std::max(next_id_, id + 1);
    }
  }

  /// Reserve a fresh block id (never reused within this store's life).
  BlockId allocate() {
    gbx::ScopedLock lk(mu_);
    return next_id_++;
  }

  /// Store one immutable block. The payload checksum is recorded here
  /// and verified on every backend read-back — a backend that tears the
  /// write (stores a prefix without reporting failure) is caught at the
  /// first get(). Throws whatever the backend throws (e.g. ENOSPC);
  /// nothing is recorded in that case and the id stays unknown.
  void put(BlockId id, std::string_view bytes) {
    GBX_CHECK_VALUE(!bytes.empty(), "block store: empty block payload");
    gbx::ScopedLock lk(mu_);
    backend_->write(id, bytes.data(), bytes.size());
    sums_[id] = detail::xxh64(bytes.data(), bytes.size(), 0);
    sizes_[id] = bytes.size();
    ++stats_.puts;
    stats_.bytes_written += bytes.size();
    cache_insert(id, std::make_shared<const std::string>(bytes));
  }

  bool contains(BlockId id) const {
    gbx::ScopedLock lk(mu_);
    return sizes_.find(id) != sizes_.end();
  }

  /// Fetch a block. Throws gbx::Error when the id is unknown, the
  /// backend read fails, or the payload fails its put-time checksum —
  /// never returns wrong bytes.
  std::shared_ptr<const std::string> get(BlockId id) {
    gbx::ScopedLock lk(mu_);
    ++stats_.gets;
    if (auto it = cache_.find(id); it != cache_.end()) {
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return it->second.bytes;
    }
    ++stats_.cache_misses;
    GBX_CHECK(sizes_.find(id) != sizes_.end(),
              "block store: unknown block id (lost or never committed)");
    std::string payload;
    GBX_CHECK(backend_->read(id, payload),
              "block store: block missing from backend");
    stats_.bytes_read += payload.size();
    if (auto it = sums_.find(id); it != sums_.end()) {
      if (payload.size() != sizes_[id] ||
          detail::xxh64(payload.data(), payload.size(), 0) != it->second) {
        ++stats_.checksum_failures;
        GBX_CHECK(false,
                  "block store: block checksum mismatch (torn write, short "
                  "read, or bit corruption)");
      }
    }
    auto bytes = std::make_shared<const std::string>(std::move(payload));
    cache_insert(id, bytes);
    return bytes;
  }

  /// Drop a block (idempotent). Cached bytes already handed out stay
  /// valid through their shared_ptr.
  void erase(BlockId id) {
    gbx::ScopedLock lk(mu_);
    if (sizes_.erase(id) == 0) return;
    sums_.erase(id);
    backend_->erase(id);
    ++stats_.erases;
    if (auto it = cache_.find(id); it != cache_.end()) {
      cache_bytes_ -= it->second.bytes->size();
      lru_.erase(it->second.pos);
      cache_.erase(it);
    }
  }

  std::size_t blocks() const {
    gbx::ScopedLock lk(mu_);
    return sizes_.size();
  }

  /// Payload bytes of all live blocks (the tier's on-"disk" footprint).
  std::uint64_t bytes_stored() const {
    gbx::ScopedLock lk(mu_);
    std::uint64_t n = 0;
    for (const auto& [id, size] : sizes_) n += size;
    return n;
  }

  std::size_t cache_bytes() const {
    gbx::ScopedLock lk(mu_);
    return cache_bytes_;
  }

  BlockStoreStats stats() const {
    gbx::ScopedLock lk(mu_);
    return stats_;
  }

  const BlockStoreConfig& config() const { return cfg_; }

  /// The backend, for maintenance entry points (FileBackend::vacuum) and
  /// test failpoint control. Same external-synchronization rule as any
  /// direct backend access: do not race it against store operations —
  /// which is exactly why the analysis is waived here: the caller takes
  /// over the serialization duty mu_ normally provides.
  BlockBackend& backend() GBX_NO_THREAD_SAFETY_ANALYSIS { return *backend_; }

 private:
  struct CacheEntry {
    std::shared_ptr<const std::string> bytes;
    std::list<BlockId>::iterator pos;
  };

  /// Insert under the LRU byte budget; evicts from the cold end. A block
  /// larger than the whole budget is not retained at all (the caller
  /// already holds its shared_ptr).
  void cache_insert(BlockId id, std::shared_ptr<const std::string> bytes)
      GBX_REQUIRES(mu_) {
    if (cfg_.cache_budget_bytes == 0) return;
    if (auto it = cache_.find(id); it != cache_.end()) {
      cache_bytes_ -= it->second.bytes->size();
      lru_.erase(it->second.pos);
      cache_.erase(it);
    }
    if (bytes->size() > cfg_.cache_budget_bytes) return;
    cache_bytes_ += bytes->size();
    lru_.push_front(id);
    cache_.emplace(id, CacheEntry{std::move(bytes), lru_.begin()});
    while (cache_bytes_ > cfg_.cache_budget_bytes && lru_.size() > 1) {
      const BlockId victim = lru_.back();
      auto it = cache_.find(victim);
      cache_bytes_ -= it->second.bytes->size();
      lru_.pop_back();
      cache_.erase(it);
      ++stats_.cache_evictions;
    }
  }

  mutable gbx::Mutex mu_;
  // Set once in the constructor; the backend itself is only ever called
  // with mu_ held (see backend() for the one audited exception).
  std::unique_ptr<BlockBackend> backend_ GBX_PT_GUARDED_BY(mu_);
  BlockStoreConfig cfg_;  ///< immutable after construction
  BlockId next_id_ GBX_GUARDED_BY(mu_) = 1;
  std::unordered_map<BlockId, std::uint64_t> sums_
      GBX_GUARDED_BY(mu_);  ///< put-time checksums
  std::unordered_map<BlockId, std::size_t> sizes_
      GBX_GUARDED_BY(mu_);  ///< live block sizes
  std::list<BlockId> lru_ GBX_GUARDED_BY(mu_);  ///< front = hottest
  std::unordered_map<BlockId, CacheEntry> cache_ GBX_GUARDED_BY(mu_);
  std::size_t cache_bytes_ GBX_GUARDED_BY(mu_) = 0;
  mutable BlockStoreStats stats_ GBX_GUARDED_BY(mu_);
};

/// Convenience factories for the two stock configurations.
inline std::unique_ptr<BlockStore> make_mem_block_store(
    BlockStoreConfig cfg = {}) {
  return std::make_unique<BlockStore>(std::make_unique<MemBackend>(), cfg);
}

inline std::unique_ptr<BlockStore> make_file_block_store(
    std::string path, BlockStoreConfig cfg = {}) {
  return std::make_unique<BlockStore>(
      std::make_unique<FileBackend>(std::move(path)), cfg);
}

}  // namespace store
