// gbx/scratch.hpp — reusable scratch-buffer arenas for the fold pipeline.
//
// Every cascade fold needs the same transient buffers: radix key/value
// ping-pong arrays, digit histograms, and row-merge index scratch. The
// seed implementation allocated fresh std::vectors for each of them on
// every fold, which put a malloc/free pair (and a page-fault warmup) on
// the hottest path in the repo. ScratchPool recycles those buffers: a
// buffer is leased with acquire<T>(n), used, and returned to the pool
// when the lease goes out of scope. Once capacities plateau — after a
// handful of folds at steady batch size — acquire() never touches the
// heap again, which is what makes the steady-state ingest fold
// allocation-free (see tests/test_ingest_hotpath.cpp's counting hook).
//
// Pools are intended to be thread-local (ScratchPool::local()): gbx
// matrices are single-writer and ParallelStream gives each lane its own
// worker thread, so a per-thread pool is never contended and needs no
// locking. A lane's pool dies with its worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace gbx {

class ScratchPool {
 public:
  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// RAII lease of a typed scratch buffer. Contents are uninitialized.
  /// Movable, not copyable; the slot returns to the pool on destruction.
  /// The lease must not outlive the pool.
  template <class T>
  class Buf {
   public:
    Buf() = default;
    Buf(Buf&& o) noexcept
        : pool_(o.pool_), slot_(o.slot_), data_(o.data_), size_(o.size_) {
      o.pool_ = nullptr;
    }
    Buf& operator=(Buf&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        slot_ = o.slot_;
        data_ = o.data_;
        size_ = o.size_;
        o.pool_ = nullptr;
      }
      return *this;
    }
    ~Buf() { release(); }

    T* data() const { return data_; }
    std::size_t size() const { return size_; }
    T& operator[](std::size_t i) const { return data_[i]; }
    T* begin() const { return data_; }
    T* end() const { return data_ + size_; }
    explicit operator bool() const { return pool_ != nullptr; }

    /// Return the slot to the pool early (idempotent).
    void release() {
      if (pool_ != nullptr) {
        pool_->slots_[slot_].in_use = false;
        pool_ = nullptr;
      }
    }

   private:
    friend class ScratchPool;
    Buf(ScratchPool* pool, std::size_t slot, T* data, std::size_t size)
        : pool_(pool), slot_(slot), data_(data), size_(size) {}

    ScratchPool* pool_ = nullptr;
    std::size_t slot_ = 0;
    T* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Lease a buffer of n objects of T. Reuses the best-fitting free slot;
  /// grows (geometrically) only when no free slot is large enough.
  template <class T>
  Buf<T> acquire(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "scratch buffers hold trivial objects only");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned scratch types are not supported");
    const std::size_t bytes = n * sizeof(T);
    std::size_t best = kNone, best_cap = ~std::size_t{0};
    std::size_t grow = kNone, grow_cap = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].in_use) continue;
      if (slots_[s].cap >= bytes) {
        if (slots_[s].cap < best_cap) {
          best = s;
          best_cap = slots_[s].cap;
        }
      } else if (grow == kNone || slots_[s].cap >= grow_cap) {
        grow = s;  // largest too-small free slot: cheapest to regrow
        grow_cap = slots_[s].cap;
      }
    }
    if (best == kNone) {
      ++grow_count_;
      const std::size_t cap = bytes + bytes / 2;  // headroom: plateau fast
      if (grow != kNone) {
        bytes_cached_ -= slots_[grow].cap;
        slots_[grow].mem.reset(new std::byte[cap]);
        slots_[grow].cap = cap;
        best = grow;
      } else {
        slots_.push_back(Slot{std::unique_ptr<std::byte[]>(new std::byte[cap]),
                              cap, false});
        best = slots_.size() - 1;
      }
      bytes_cached_ += cap;
    }
    slots_[best].in_use = true;
    return Buf<T>(this, best, reinterpret_cast<T*>(slots_[best].mem.get()), n);
  }

  /// Drop every free slot's storage (leased buffers are untouched).
  void release_memory() {
    for (auto& s : slots_) {
      if (s.in_use) continue;
      bytes_cached_ -= s.cap;
      s.mem.reset();
      s.cap = 0;
    }
  }

  /// Number of times acquire() had to touch the heap. Flat across folds
  /// at steady state — the allocation-freedom instrumentation hook.
  std::uint64_t grow_count() const { return grow_count_; }

  /// Bytes currently held by the pool (leased + free slots).
  std::size_t bytes_cached() const { return bytes_cached_; }

  /// The calling thread's pool. gbx kernels use this by default, so a
  /// single-writer matrix or a stream lane warms exactly one arena.
  static ScratchPool& local() {
    static thread_local ScratchPool pool;
    return pool;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Slot {
    std::unique_ptr<std::byte[]> mem;
    std::size_t cap = 0;
    bool in_use = false;
  };

  std::vector<Slot> slots_;
  std::uint64_t grow_count_ = 0;
  std::size_t bytes_cached_ = 0;
};

}  // namespace gbx
