// hier/memory_governor.hpp — budget-driven eviction of reader snapshots.
//
// The hierarchical design sustains its insert rate because old state is
// folded down the hierarchy instead of accumulating — but the snapshot
// engine lets a lagging reader pin arbitrary amounts of superseded
// blocks: every fold under a pin copies instead of recycling (gbx
// copy-on-fold), so one slow analytics consumer grows resident memory
// without bound while ingest streams on. The fix is a *governor*, not
// ad-hoc frees — the same discipline as a database page cache evicting
// under a configurable memory budget.
//
// MemoryGovernor wraps a snapshot source (HierMatrix, ShardedHier,
// ParallelStream — anything with freeze()) and hands out
// GovernedSnapshot *handles* instead of raw snapshots. The governor
// tracks every outstanding handle and classifies their blocks with the
// identity-deduped pinned-vs-live accounting of hier::snapshot_memory:
//
//   live    — still shared with the source's current levels: holding
//             the snapshot costs nothing extra.
//   pinned  — superseded shared blocks, retained solely for readers.
//             THIS is what the budget governs.
//   private — compact copies owned by evicted snapshots (the price of
//             the reader's bit-exactness contract; bounded by Σ Ai at
//             the reader's epoch).
//
// When pinned bytes exceed the budget, the governor *materializes and
// releases*, laggiest reader first: the snapshot's levels are folded
// into one privately-owned compact gbx::Matrix (HierSnapshot::compacted,
// or SnapshotSet::compacted's whole-set collapse for lane and shard
// sources) and the shared-block pins are dropped — so the writer's
// spare-block recycling goes back to zero allocations, and the freed
// generations return their heap. Reads through the handle stay
// bit-identical: the compact block carries to_matrix()'s own
// per-coordinate left-fold values, the order every read path already
// defines as THE value. That is the only eviction form: the newest
// acquired image is never evicted, and an evicted image stays compact
// until its last handle drops.
//
// Threading: acquire()/enforce()/memory() are as thread-safe as the
// source's freeze() (ShardedHier/ParallelStream: any thread; HierMatrix:
// the owning thread, which also makes its live-block peek safe).
// Handles are safe to read from any thread, including while the
// governor evicts them mid-query — a read pins a copy of the current
// image first and operates on that. Handles may outlive the governor.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "gbx/thread_annotations.hpp"
#include "hier/delta.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/sharded_hier.hpp"
#include "hier/snapshot.hpp"

namespace hier {

/// Budget knobs of one governor. Byte budgets act on the identity-
/// deduped *pinned* class only (superseded shared blocks); private
/// compact copies are reported separately.
struct GovernorConfig {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Pinned-bytes ceiling across all outstanding snapshots. Exceeding it
  /// triggers materialize-and-release, laggiest reader first.
  std::uint64_t budget_bytes = kNever;
  /// Write-side enforcement: attach a write observer to the source so
  /// every ingested (sub-)batch triggers an enforcement pass. Acquire-
  /// time-only enforcement lets a lagging reader's pinned class drift up
  /// to one superseded block PER SHARD between acquires (writers fold,
  /// nobody tells the governor); with write-side notification the
  /// transient slack is bounded by the blocks one sub-batch can
  /// supersede — one generation total. Requires a source with
  /// set_write_observer (ShardedHier, ParallelStream, HierMatrix; see
  /// governor_attach_write_observer); silently inert otherwise. The
  /// governor must outlive the source's write activity — it detaches on
  /// destruction, which is only safe once writers have stopped.
  bool enforce_on_write = false;
  /// Resident-byte ceiling for the LIVE matrix (the out-of-core tier,
  /// alongside the snapshot budget above): every enforcement pass also
  /// asks the source to demote cold bottom levels into its block store
  /// until resident heap fits. Requires a source exposing
  /// enforce_residency (HierMatrix / ShardedHier after enable_demotion;
  /// see governor_enforce_residency) — silently inert otherwise.
  /// Usually combined with enforce_on_write so ingest itself keeps the
  /// matrix under budget. kNever disables.
  std::uint64_t live_budget_bytes = kNever;
};

/// Monotone counters of governor activity (copyable POD view).
struct GovernorStats {
  std::uint64_t enforcements = 0;     ///< enforce() passes
  std::uint64_t evictions = 0;        ///< snapshots compacted
  std::uint64_t bytes_released = 0;   ///< pinned bytes actually freed by
                                      ///< evictions (pool delta, exact)
  std::uint64_t peak_pinned_bytes = 0;///< high-water mark of pinned class
  std::uint64_t demotions = 0;        ///< live-matrix levels demoted to the
                                      ///< block store (live_budget_bytes)
};

/// One accounting pass over the outstanding snapshots (identity-deduped
/// across snapshots AND levels; see the header comment for the classes).
struct GovernorMemory {
  std::uint64_t live_bytes = 0;
  std::uint64_t pinned_bytes = 0;
  std::uint64_t private_bytes = 0;
  /// Largest shared (live or pinned) block: the "+one block" slack unit.
  /// Private compact blocks never become pinned, so they do not count.
  std::uint64_t largest_block_bytes = 0;
  std::size_t snapshots = 0;
  std::size_t evicted_snapshots = 0;
};

namespace detail {

/// Atomically-updated backing of GovernorStats.
struct GovernorCounters {
  std::atomic<std::uint64_t> enforcements{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> bytes_released{0};
  std::atomic<std::uint64_t> peak_pinned_bytes{0};
  std::atomic<std::uint64_t> demotions{0};

  void peak_pinned(std::uint64_t v) {
    std::uint64_t seen = peak_pinned_bytes.load(std::memory_order_relaxed);
    while (seen < v && !peak_pinned_bytes.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
};

/// One registered snapshot. The slot's mutex orders reader pins against
/// governor evictions; `epoch` is immutable so handles read it lock-free.
/// Once `evicted`, every block the image holds is a compact copy the
/// slot owns outright (the private accounting class).
template <class Snap>
struct GovernedSlot {
  GovernedSlot(Snap s, std::uint64_t e) : snap(std::move(s)), epoch(e) {}

  mutable gbx::Mutex mu;
  Snap snap GBX_GUARDED_BY(mu);             ///< live image / compact image
  bool evicted GBX_GUARDED_BY(mu) = false;  ///< snap is the compact image
  const std::uint64_t epoch;
};

}  // namespace detail

/// Reader-side handle on a governed snapshot. Cheap to copy (one
/// shared_ptr); every read first *pins* a copy of the slot's current
/// image under the slot lock and then operates on immutable views, so
/// reads race eviction safely and stay bit-exact before, during, and
/// after it. Dropping the last handle releases whatever blocks the slot
/// still holds.
template <class Snap>
class GovernedSnapshot {
 public:
  using snapshot_type = Snap;
  using value_type = typename Snap::value_type;
  using matrix_type = typename Snap::matrix_type;

  GovernedSnapshot() = default;

  bool valid() const { return slot_ != nullptr; }

  /// Epoch of the frozen image (0 for an empty handle). Immutable —
  /// eviction never changes what epoch the reader holds.
  std::uint64_t epoch() const { return slot_ ? slot_->epoch : 0; }

  bool evicted() const {
    if (!slot_) return false;
    auto& s = *slot_;
    gbx::ScopedLock lk(s.mu);
    return s.evicted;
  }

  /// Copy of the current image: the original frozen levels before
  /// eviction, the compact image after it. The copy re-pins its blocks
  /// for exactly as long as the caller holds it.
  Snap pin() const {
    GBX_CHECK(slot_ != nullptr, "pin() on an empty governed snapshot");
    auto& s = *slot_;
    gbx::ScopedLock lk(s.mu);
    return s.snap;
  }

  /// Pin only if the image still has its original (diffable) level
  /// structure; nullopt once eviction compacted it. This is what
  /// try_snapshot_diff uses to decide between an incremental delta and
  /// a full-recompute fallback.
  std::optional<Snap> try_pin_live() const {
    if (!slot_) return std::nullopt;
    auto& s = *slot_;
    gbx::ScopedLock lk(s.mu);
    if (s.evicted) return std::nullopt;
    return s.snap;
  }

  /// Read-path conveniences; each pins a copy first (see pin()).
  matrix_type to_matrix() const { return pin().to_matrix(); }
  value_type reduce() const { return pin().reduce(); }
  std::optional<value_type> extract_element(gbx::Index i, gbx::Index j) const {
    return pin().extract_element(i, j);
  }
  std::size_t nvals() const { return pin().nvals(); }

  /// Drop the handle early (destructor semantics, explicit).
  void reset() { slot_.reset(); }

 private:
  template <class Source>
  friend class MemoryGovernor;

  explicit GovernedSnapshot(std::shared_ptr<detail::GovernedSlot<Snap>> s)
      : slot_(std::move(s)) {}

  std::shared_ptr<detail::GovernedSlot<Snap>> slot_;
};

/// Governed overload of try_snapshot_diff: diff the two underlying
/// images when both still have their original level structure, nullopt
/// otherwise (either was compacted — the incremental reader falls back
/// to a counted full recompute; delta semantics unchanged). The pins
/// keep both images alive for the duration of the diff even if the
/// governor evicts the slots mid-call.
template <class Snap>
std::optional<SnapshotDelta<typename Snap::value_type>> try_snapshot_diff(
    const GovernedSnapshot<Snap>& a, const GovernedSnapshot<Snap>& b) {
  auto pa = a.try_pin_live();
  auto pb = b.try_pin_live();
  if (!pa || !pb) return std::nullopt;
  return snapshot_diff(*pa, *pb);
}

/// Live-block peek customization: append the blocks currently backing
/// `source` and return true, or return false when no thread-safe peek
/// exists (the governor then classifies against the newest acquired
/// snapshot's blocks instead — a just-frozen image of the same levels).
template <class T, class M>
bool governor_live_blocks(const HierMatrix<T, M>& m,
                          std::vector<const gbx::Dcsr<T>*>& out) {
  m.collect_live_blocks(out);  // owner-thread discipline, like freeze()
  return true;
}

template <class T, class M>
bool governor_live_blocks(const ShardedHier<T, M>& s,
                          std::vector<const gbx::Dcsr<T>*>& out) {
  s.collect_live_blocks(out);  // thread-safe: per-shard locks
  return true;
}

template <class Source, class T>
bool governor_live_blocks(const Source&, std::vector<const gbx::Dcsr<T>*>&) {
  return false;  // e.g. ParallelStream: lanes owned by worker threads
}

/// Write-observer attachment customization (enforce_on_write): install
/// `observer` so the source fires it after every ingested (sub-)batch,
/// or return false when the source has no such hook. An empty function
/// detaches. Detection is structural (does the source expose
/// set_write_observer?), so any future freezable source that grows the
/// hook is covered automatically.
template <class Source, class = void>
struct source_has_write_observer : std::false_type {};
template <class Source>
struct source_has_write_observer<
    Source, std::void_t<decltype(std::declval<Source&>().set_write_observer(
                std::function<void()>{}))>> : std::true_type {};

template <class Source>
bool governor_attach_write_observer(Source& s,
                                    std::function<void()> observer) {
  if constexpr (source_has_write_observer<Source>::value) {
    s.set_write_observer(std::move(observer));
    return true;
  } else {
    (void)observer;
    return false;
  }
}

/// Live-matrix residency customization (live_budget_bytes): ask the
/// source to demote cold bottom levels into its block store until its
/// resident heap fits `budget`, returning demotions performed; 0 when
/// the source has no residency control (no enforce_residency hook, or
/// demotion not enabled — both report "nothing demoted"). Detection is
/// structural, like the write-observer hook.
template <class Source, class = void>
struct source_has_residency : std::false_type {};
template <class Source>
struct source_has_residency<
    Source, std::void_t<decltype(std::declval<Source&>().enforce_residency(
                std::size_t{}))>> : std::true_type {};

template <class Source>
std::size_t governor_enforce_residency(Source& s, std::uint64_t budget) {
  if constexpr (source_has_residency<Source>::value) {
    return s.enforce_residency(static_cast<std::size_t>(budget));
  } else {
    (void)s;
    (void)budget;
    return 0;
  }
}

/// Live write-progress customization: eviction lag is measured against
/// the newest epoch the governor can SEE. Acquire-only governors only
/// see what readers acquired — during a pure-write phase nothing
/// advances and a held snapshot never becomes "lagging", which is
/// exactly the drift enforce_on_write exists to close. Sources exposing
/// an epoch() counter (ShardedHier: atomic, any thread; HierMatrix:
/// owner thread, where its observer also runs) lend it here; otherwise
/// the newest acquired epoch stands (ParallelStream lane counters are
/// worker-owned).
template <class Source, class = void>
struct source_has_epoch : std::false_type {};
template <class Source>
struct source_has_epoch<
    Source, std::void_t<decltype(std::declval<const Source&>().epoch())>>
    : std::true_type {};

template <class Source>
std::uint64_t governor_current_epoch(const Source& s,
                                     std::uint64_t newest_acquired) {
  if constexpr (source_has_epoch<Source>::value) {
    return std::max<std::uint64_t>(s.epoch(), newest_acquired);
  } else {
    return newest_acquired;
  }
}

template <class Source>
class MemoryGovernor {
 public:
  using snapshot_type = std::decay_t<decltype(std::declval<Source&>().freeze())>;
  using handle_type = GovernedSnapshot<snapshot_type>;
  using value_type = typename snapshot_type::value_type;

  /// Hook fired after each eviction: the evicted epoch, the newest
  /// acquired epoch, and the pinned-class total before the eviction.
  /// Fired after the enforcement pass releases the registry lock, so the
  /// hook may call back into this governor freely.
  using EvictionHook = std::function<void(
      std::uint64_t evicted_epoch, std::uint64_t current_epoch,
      std::uint64_t pinned_before)>;

  explicit MemoryGovernor(Source& source, GovernorConfig cfg = {})
      : source_(&source), cfg_(cfg), engine_(source) {
    if (cfg_.enforce_on_write) {
      // Same install-before-writers discipline as set_staleness_hook:
      // the governor is constructed before ingest threads start, so the
      // plain std::function installs race-free. The fast path skips the
      // whole pass while no snapshot is outstanding — nothing can be
      // pinned, so a write-heavy phase with no readers pays one relaxed
      // load per batch.
      attached_write_ = governor_attach_write_observer(*source_, [this] {
        // A live-matrix budget must be enforced even with zero readers
        // outstanding — resident growth comes from ingest itself, not
        // from snapshot pins.
        if (registered_.load(std::memory_order_relaxed) == 0 &&
            cfg_.live_budget_bytes == GovernorConfig::kNever)
          return;
        enforce();
      });
    }
  }

  /// Detach the write observer (no-op if none was attached). Only safe
  /// once the source's writers have stopped — the same rule as
  /// destroying the governor itself.
  ~MemoryGovernor() {
    if (attached_write_)
      governor_attach_write_observer(*source_, std::function<void()>{});
  }

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Freeze a new snapshot, register it with the governor, and run an
  /// enforcement pass. Thread-safety: that of the source's freeze().
  handle_type acquire() {
    auto snap = engine_.acquire();
    const std::uint64_t e = snap.epoch();
    auto slot = std::make_shared<Slot>(std::move(snap), e);
    {
      gbx::ScopedLock lk(mu_);
      slots_.push_back(slot);
      registered_.store(slots_.size(), std::memory_order_relaxed);
    }
    enforce();
    return handle_type(std::move(slot));
  }

  /// Snapshot-source facade: a MemoryGovernor is itself freezable, so
  /// SnapshotEngine / analytics::IncrementalEngine layer on top of it
  /// unchanged (their snapshot_type becomes the governed handle).
  handle_type freeze() { return acquire(); }

  /// One enforcement pass: laggiest-first materialize-and-release until
  /// pinned bytes fit the budget, then the live-matrix residency budget.
  /// Returns snapshots compacted. Safe from any thread the source's
  /// freeze() allows; passes are serialized on the registry lock.
  std::size_t enforce() {
    // Hook invocations collected under the lock, fired after releasing
    // it — a hook may call back into memory()/enforce() (or anything
    // else on this governor) without self-deadlocking.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evicted_epochs;
    EvictionHook hook;
    {
      gbx::ScopedLock lk(mu_);
      hook = eviction_hook_;
      counters_.enforcements.fetch_add(1, std::memory_order_relaxed);
      auto slots = gather_locked();
      const std::uint64_t current =
          governor_current_epoch(*source_, engine_.last_epoch());

      std::uint64_t prev_pinned = 0;
      for (;;) {
        std::vector<Block> baseline;
        auto mem = account_locked(slots, &baseline);
        counters_.peak_pinned(mem.pinned_bytes);
        if (!evicted_epochs.empty() && prev_pinned > mem.pinned_bytes)
          counters_.bytes_released.fetch_add(prev_pinned - mem.pinned_bytes,
                                             std::memory_order_relaxed);
        if (mem.pinned_bytes <= cfg_.budget_bytes) break;
        Slot* victim = nullptr;
        for (const auto& s : slots) {  // ascending epoch = laggiest first
          if (s->epoch >= current) continue;  // the newest image stays
          if (pinned_involvement_locked(*s, baseline) == 0) continue;
          victim = s.get();
          break;
        }
        if (victim == nullptr) break;  // nothing evictable releases bytes
        evict_locked(*victim);
        evicted_epochs.emplace_back(victim->epoch, mem.pinned_bytes);
        prev_pinned = mem.pinned_bytes;
        // Loop: re-account (shared generations may need several drops).
      }

      // --- live-matrix resident budget: demote cold bottom levels into
      // the source's block store. Inside the registry lock so passes
      // stay serialized (ShardedHier's observer fires from several
      // writer threads); lock order mu_ -> shard locks matches the
      // accounting pass above.
      if (cfg_.live_budget_bytes != GovernorConfig::kNever) {
        const std::size_t demoted =
            governor_enforce_residency(*source_, cfg_.live_budget_bytes);
        if (demoted > 0)
          counters_.demotions.fetch_add(demoted, std::memory_order_relaxed);
      }
    }
    const std::uint64_t current =
        governor_current_epoch(*source_, engine_.last_epoch());
    for (const auto& [epoch, pinned_before] : evicted_epochs) {
      engine_.check_staleness(epoch);  // laggard warning, if installed
      if (hook) hook(epoch, current, pinned_before);
    }
    return evicted_epochs.size();
  }

  /// Accounting snapshot (also updates the pinned high-water mark).
  /// Same thread-safety as enforce().
  GovernorMemory memory() const {
    gbx::ScopedLock lk(mu_);
    auto mem = account_locked(gather_locked(), nullptr);
    counters_.peak_pinned(mem.pinned_bytes);
    return mem;
  }

  GovernorStats stats() const {
    GovernorStats s;
    s.enforcements = counters_.enforcements.load(std::memory_order_relaxed);
    s.evictions = counters_.evictions.load(std::memory_order_relaxed);
    s.bytes_released = counters_.bytes_released.load(std::memory_order_relaxed);
    s.peak_pinned_bytes =
        counters_.peak_pinned_bytes.load(std::memory_order_relaxed);
    s.demotions = counters_.demotions.load(std::memory_order_relaxed);
    return s;
  }

  /// The underlying snapshot engine (epoch counters, staleness hook —
  /// eviction fires check_staleness for the victim, so an installed
  /// staleness hook also learns about every evicted laggard).
  SnapshotEngine<Source>& snapshots() { return engine_; }

  void set_staleness_hook(std::uint64_t max_epoch_lag,
                          typename SnapshotEngine<Source>::StalenessHook hook) {
    engine_.set_staleness_hook(max_epoch_lag, std::move(hook));
  }

  void set_eviction_hook(EvictionHook hook) {
    gbx::ScopedLock lk(mu_);
    eviction_hook_ = std::move(hook);
  }

 private:
  using Slot = detail::GovernedSlot<snapshot_type>;
  using Block = const gbx::Dcsr<value_type>*;

  /// Prune dead registrations; return live slots sorted by epoch
  /// ascending (the eviction order).
  std::vector<std::shared_ptr<Slot>> gather_locked() const
      GBX_REQUIRES(mu_) {
    std::vector<std::shared_ptr<Slot>> out;
    out.reserve(slots_.size());
    std::size_t w = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (auto s = slots_[i].lock()) {
        out.push_back(std::move(s));
        // Guarded: a self-move-assign would empty the weak_ptr.
        if (w != i) slots_[w] = std::move(slots_[i]);
        ++w;
      }
    }
    slots_.resize(w);
    registered_.store(w, std::memory_order_relaxed);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a->epoch < b->epoch; });
    return out;
  }

  /// Classification baseline: the source's live blocks when a thread-
  /// safe peek exists; otherwise the newest un-evicted snapshot's
  /// blocks (that just-frozen image is the best available stand-in for
  /// the live structure — anything it does not share is certainly
  /// superseded). Sorted unique.
  void baseline_locked(const std::vector<std::shared_ptr<Slot>>& slots,
                       std::vector<Block>& out) const GBX_REQUIRES(mu_) {
    if (!governor_live_blocks(*source_, out)) {
      for (auto it = slots.rbegin(); it != slots.rend(); ++it) {  // newest 1st
        Slot& sl = **it;
        gbx::ScopedLock lk(sl.mu);
        if (sl.evicted) continue;
        sl.snap.collect_blocks(out);
        break;
      }
    }
    detail::dedupe_blocks(out);
  }

  /// One identity-deduped accounting pass. `baseline_out`, when given,
  /// receives the classification baseline for reuse by the caller.
  GovernorMemory account_locked(const std::vector<std::shared_ptr<Slot>>& slots,
                                std::vector<Block>* baseline_out) const
      GBX_REQUIRES(mu_) {
    std::vector<Block> baseline;
    baseline_locked(slots, baseline);

    GovernorMemory mem;
    mem.snapshots = slots.size();
    std::vector<Block> shared_pool, private_pool;
    for (const auto& s : slots) {
      Slot& sl = *s;
      gbx::ScopedLock lk(sl.mu);
      if (sl.evicted) {
        ++mem.evicted_snapshots;
        sl.snap.collect_blocks(private_pool);
      } else {
        sl.snap.collect_blocks(shared_pool);
      }
    }
    detail::dedupe_blocks(shared_pool);
    detail::dedupe_blocks(private_pool);
    for (Block b : shared_pool) {
      const auto bytes = static_cast<std::uint64_t>(b->memory_bytes());
      mem.largest_block_bytes = std::max(mem.largest_block_bytes, bytes);
      if (std::binary_search(baseline.begin(), baseline.end(), b))
        mem.live_bytes += bytes;
      else
        mem.pinned_bytes += bytes;
    }
    for (Block b : private_pool) mem.private_bytes += b->memory_bytes();
    if (baseline_out != nullptr) *baseline_out = std::move(baseline);
    return mem;
  }

  /// Bytes of this slot's shared blocks outside the baseline — what an
  /// eviction is *about* (0 means compacting frees nothing: the slot is
  /// fully live-shared or already compact).
  std::uint64_t pinned_involvement_locked(Slot& s,
                                          const std::vector<Block>& baseline)
      const GBX_REQUIRES(mu_) {
    gbx::ScopedLock lk(s.mu);
    if (s.evicted) return 0;
    std::vector<Block> blocks;
    s.snap.collect_blocks(blocks);
    detail::dedupe_blocks(blocks);
    std::uint64_t n = 0;
    for (Block b : blocks)
      if (!std::binary_search(baseline.begin(), baseline.end(), b))
        n += b->memory_bytes();
    return n;
  }

  /// Materialize-and-release one snapshot. Hooks are the caller's
  /// business (enforce() fires them after dropping the registry lock).
  void evict_locked(Slot& s) GBX_REQUIRES(mu_) {
    {
      gbx::ScopedLock lk(s.mu);
      s.snap = s.snap.compacted();
      s.evicted = true;
    }
    counters_.evictions.fetch_add(1, std::memory_order_relaxed);
  }

  Source* source_;
  const GovernorConfig cfg_;
  SnapshotEngine<Source> engine_;
  mutable detail::GovernorCounters counters_;
  mutable gbx::Mutex mu_;  ///< registry + enforcement serialization
  mutable std::vector<std::weak_ptr<Slot>> slots_ GBX_GUARDED_BY(mu_);
  /// Registration-count hint for the write observer's lock-free skip
  /// (refreshed whenever the registry changes under mu_). May briefly
  /// overcount dead handles — the observer then runs one enforcement
  /// pass that prunes them; it never undercounts a live registration.
  mutable std::atomic<std::size_t> registered_{0};
  bool attached_write_ = false;  ///< write observer installed on source_
  EvictionHook eviction_hook_ GBX_GUARDED_BY(mu_);
};

}  // namespace hier
