// hier/sharded_hier.hpp — concurrent ingest into one logical matrix.
//
// The paper scales by running fully independent instances, one per
// process. ShardedHier extends that idea *within* one logical matrix (an
// extension beyond the paper, in its "tunable for a variety of
// applications" spirit): rows are hash-partitioned across S shards, each
// shard is its own HierMatrix guarded by a mutex, and concurrent writers
// contend only when they hit the same shard. The logical value is the
// monoid sum of the shards — associativity makes sharding invisible to
// queries, the same algebra that makes the cascade exact.
//
// Snapshot consistency: a batched update touches several shards, so
// per-shard locking alone would let a concurrent reader observe half a
// batch. Writers therefore hold a shared (reader) slot on `snap_mu_`
// for the whole batch, while freeze() takes it exclusively: every
// frozen image contains only whole batches — for each writer thread, a
// prefix of the batches it submitted (writers complete their batches in
// program order). freeze() is cheap (per-shard pending fold + view
// publication, no data copy), so the exclusive window is tiny.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/thread_annotations.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/partition.hpp"
#include "hier/snapshot.hpp"

namespace hier {

template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class ShardedHier {
 public:
  ShardedHier(std::size_t shards, gbx::Index nrows, gbx::Index ncols,
              const CutPolicy& cuts)
      : nrows_(nrows), ncols_(ncols) {
    GBX_CHECK_VALUE(shards > 0, "need at least one shard");
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s)
      shards_.push_back(std::make_unique<Shard>(nrows, ncols, cuts));
  }

  std::size_t num_shards() const { return shards_.size(); }
  gbx::Index nrows() const { return nrows_; }
  gbx::Index ncols() const { return ncols_; }

  /// Thread-safe single update.
  void update(gbx::Index i, gbx::Index j, T v) {
    gbx::ScopedReadLock batch_guard(writer_slot());
    Shard& sh = *shards_[shard_of(i)];
    {
      gbx::ScopedLock g(sh.mu);
      sh.matrix.update(i, j, v);
    }
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Thread-safe batched update: the batch is split by shard once, then
  /// each shard is locked exactly once. The whole batch lands inside one
  /// shared slot of `snap_mu_`, so no freeze() can observe half of it.
  /// The per-shard partition buffers are thread-local and recycled
  /// across batches (each writer thread splits into its own set), so
  /// steady-state sharded ingest allocates nothing on the split path —
  /// the same arena discipline as the fold pipeline's ScratchPool.
  void update(const gbx::Tuples<T>& batch) {
    gbx::ScopedReadLock batch_guard(writer_slot());
    // Admit the batch into the epoch up front: freeze() excludes all
    // in-flight batches via snap_mu_, so "admitted" == "applied"
    // whenever a snapshot observes the counter.
    epoch_.fetch_add(1, std::memory_order_relaxed);
    static thread_local std::vector<gbx::Tuples<T>> parts;
    if (parts.size() < shards_.size()) parts.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) parts[s].clear();
    for (const auto& e : batch)
      parts[shard_of(e.row)].push_back(e.row, e.col, e.val);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (parts[s].empty()) continue;
      Shard& sh = *shards_[s];
      {
        gbx::ScopedLock g(sh.mu);
        sh.matrix.update(parts[s]);
      }
      // Bound what an outlier batch leaves pinned on this thread: the
      // buffers outlive this (and every) ShardedHier, so anything above
      // the steady-state cap is handed back rather than retained.
      if (parts[s].entries().capacity() > kMaxRetainedPartCapacity)
        parts[s].reset();
    }
  }

  /// Epoch-consistent snapshot: freeze every shard inside one exclusive
  /// section. The result contains only whole batches — for each writer
  /// thread a prefix of its submitted batches — with per-shard epochs
  /// stitched into the part watermarks and the global batch count as the
  /// snapshot epoch. No entry data is copied; writers resume the moment
  /// the per-shard views are published.
  ///
  /// Watermark units: part p's watermark counts SHARD-p update
  /// applications (its per-shard epoch) — one logical batch lands on
  /// every shard it touches, so Σ_p watermark(p).batches ≥ epoch() and
  /// SnapshotSet::total_batches() is NOT the whole-batch count here;
  /// epoch() is. (ParallelStream lanes, by contrast, partition batches,
  /// so there the two coincide.)
  SnapshotSet<T, AddMonoid> freeze() const {
    // Announce the pending freeze first: std::shared_mutex gives no
    // fairness guarantee (glibc's rwlock prefers readers by default), so
    // under sustained ingest new writers could otherwise be admitted
    // forever while this exclusive acquire waits. Writers back off in
    // writer_slot() while any freeze is pending — a counter, so
    // concurrent freezes cannot erase each other's announcement.
    freeze_pending_.fetch_add(1, std::memory_order_relaxed);
    gbx::ScopedWriteLock freeze_guard(snap_mu_);
    freeze_pending_.fetch_sub(1, std::memory_order_relaxed);
    const std::size_t n = shards_.size();
    std::vector<HierSnapshot<T, AddMonoid>> parts(n);
    std::vector<SnapshotWatermark> marks(n);
    // Per-shard freeze folds that shard's level-1 pending buffer — the
    // only real work in the exclusive window. Folds are independent
    // (one HierMatrix each), so run them on worker threads instead of
    // walking shards serially: freeze latency stays ~flat in shard
    // count rather than growing linearly, and writers get the lock back
    // sooner. Each worker owns a disjoint stripe of shards; the shard
    // mutex is still taken per shard (same order as writers: snap_mu_
    // first, shard lock second) because enforce_residency() and the
    // accounting reads (entries_appended, memory_bytes, store_bytes,
    // has_demoted) take shard locks without snap_mu_.
    const auto freeze_shard = [&](std::size_t s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      parts[s] = sh.matrix.freeze();
      const auto& st = sh.matrix.stats();
      marks[s] = SnapshotWatermark{st.updates, st.entries_appended};
    };
    // Spawning threads costs ~0.1 ms each; only go parallel when the
    // pending fold work plausibly dwarfs that. The peek takes the shard
    // locks (enforce_residency() may be demoting concurrently).
    std::size_t pending = 0;
    for (std::size_t s = 0; s < n; ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      pending += sh.matrix.level(0).pending_count();
    }
    const std::size_t workers = std::min<std::size_t>(
        n, std::max(1u, std::thread::hardware_concurrency()));
    if (workers < 2 || pending < kParallelFreezeMinPending) {
      for (std::size_t s = 0; s < n; ++s) freeze_shard(s);
    } else {
      // Worker exceptions (fold allocation failure, invariant check) are
      // re-thrown on the calling thread, matching the serial behaviour —
      // and a failed thread spawn joins what already started instead of
      // destroying joinable threads (which would std::terminate).
      std::vector<std::exception_ptr> errors(workers);
      std::vector<std::thread> pool;
      pool.reserve(workers);
      try {
        for (std::size_t w = 0; w < workers; ++w) {
          pool.emplace_back([&, w] {
            try {
              for (std::size_t s = w; s < n; s += workers) freeze_shard(s);
            } catch (...) {
              errors[w] = std::current_exception();
            }
          });
        }
      } catch (...) {
        for (auto& t : pool) t.join();
        throw;
      }
      for (auto& t : pool) t.join();
      for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
    }
    return SnapshotSet<T, AddMonoid>(
        std::move(parts), std::move(marks),
        epoch_.load(std::memory_order_relaxed));
  }

  /// Whole batches applied so far (the freeze() epoch source).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Aggregate statistics across shards.
  std::uint64_t entries_appended() const {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      n += sh.matrix.stats().entries_appended;
    }
    return n;
  }

  std::size_t memory_bytes() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      n += sh.matrix.memory_bytes();
    }
    return n;
  }

  /// Enable out-of-core demotion on every shard, all sharing one block
  /// store (the store is internally locked; run ids stay distinct via
  /// per-shard tiers over distinct block ids). Call before writers
  /// start. The store must outlive this matrix and its snapshots.
  void enable_demotion(store::BlockStore* store, DemotionConfig cfg = {}) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      sh.matrix.enable_demotion(store, cfg);
    }
  }

  /// Bring aggregate resident bytes at or under `budget_bytes` by
  /// demoting shard bottoms (budget split evenly across shards).
  /// Thread-safe via the shard locks only, not the writer slot:
  /// demotion preserves each shard's logical value, so a concurrent
  /// freeze stitching shards mid-enforcement still reads exactly the
  /// whole batches it always did. Returns demotions done.
  std::size_t enforce_residency(std::size_t budget_bytes) {
    const std::size_t per_shard =
        std::max<std::size_t>(1, budget_bytes / shards_.size());
    std::size_t demoted = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      demoted += sh.matrix.enforce_residency(per_shard);
    }
    return demoted;
  }

  /// Serialized bytes all shards' demoted runs occupy in the store.
  std::uint64_t store_bytes() const {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      n += sh.matrix.store_bytes();
    }
    return n;
  }

  /// True when any shard currently holds demoted runs.
  bool has_demoted() const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      gbx::ScopedLock g(sh.mu);
      if (sh.matrix.has_demoted()) return true;
    }
    return false;
  }

 private:
  /// One shard: its matrix and the mutex that guards it, bound together
  /// so the analysis can tie every matrix access to the right lock (a
  /// parallel locks_[] vector indexed dynamically is opaque to it).
  /// Heap-allocated because gbx::Mutex is immovable.
  struct Shard {
    Shard(gbx::Index nrows, gbx::Index ncols, const CutPolicy& cuts)
        : matrix(nrows, ncols, cuts) {}
    mutable gbx::Mutex mu;
    HierMatrix<T, AddMonoid> matrix GBX_GUARDED_BY(mu);
  };

  /// Below this many total level-0 pending entries the per-shard folds
  /// are cheaper than spawning worker threads for them.
  static constexpr std::size_t kParallelFreezeMinPending = 4096;

  /// Per-shard partition buffers larger than this (entries) are released
  /// after the batch instead of retained by the writer thread.
  static constexpr std::size_t kMaxRetainedPartCapacity = std::size_t{1} << 16;

  /// Writers pass through here before taking their shared slot: while a
  /// freeze is waiting for exclusivity, incoming writers yield instead
  /// of piling onto the reader side of the lock. Best-effort (a writer
  /// can slip through the window between flag-check and lock), but it
  /// breaks the continuous-admission pattern that starves freeze().
  gbx::SharedMutex& writer_slot() const GBX_RETURN_CAPABILITY(snap_mu_) {
    while (freeze_pending_.load(std::memory_order_relaxed) > 0)
      std::this_thread::yield();
    return snap_mu_;
  }

  std::size_t shard_of(gbx::Index row) const {
    // The shared row-hash partition (hier/partition.hpp): the cluster
    // router places rows on worker processes with the SAME function, so
    // in-process and multi-process layouts agree coordinate-for-
    // coordinate on part ownership.
    return row_partition(row, shards_.size());
  }

  gbx::Index nrows_;
  gbx::Index ncols_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Writers shared, freeze() exclusive: whole-batch snapshot atomicity.
  mutable gbx::SharedMutex snap_mu_;
  mutable std::atomic<std::uint32_t> freeze_pending_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace hier
