// hier/memory_governor.hpp — budget-driven eviction of reader snapshots.
//
// The hierarchical design sustains its insert rate because old state is
// folded down the hierarchy instead of accumulating — but a frozen
// snapshot lets a lagging reader pin arbitrary amounts of superseded
// blocks: every fold under a pin copies instead of recycling (gbx
// copy-on-fold), so one slow analytics consumer grows resident memory
// without bound while ingest streams on. The fix is a *governor*, not
// ad-hoc frees — the same discipline as a database page cache evicting
// under a configurable memory budget.
//
// MemoryGovernor wraps a snapshot source (HierMatrix, ParallelStream —
// anything with freeze()) and hands out GovernedSnapshot *handles*
// instead of raw snapshots. Its own freeze() is the same verb, so
// generic readers layer on it unchanged. At each freeze() it records
// the block identities of the image it just froze (the newest image);
// every outstanding handle's blocks are classified, identity-deduped,
// against that record:
//
//   live    — shared with the newest image: holding the snapshot costs
//             nothing extra.
//   pinned  — superseded shared blocks, retained solely for older
//             readers. THIS is what the budget governs.
//   private — compact copies owned by evicted snapshots (the price of
//             the reader's bit-exactness contract; bounded by Σ Ai at
//             the reader's epoch).
//
// The governor acts only inside freeze(), right after the source's
// freeze, and in explicit enforce() calls, so the classification needs
// nothing from the source. Between freezes, memory() reports pinned
// bytes as of the last freeze. The recorded identities do not own their
// blocks (the writer keeps recycling in place); pointer equality is
// still identity, because every block an outstanding handle holds was
// alive when the newest image was frozen.
//
// When pinned bytes exceed the budget, the governor *materializes and
// releases*, laggiest reader first: the snapshot's parts and levels are
// folded into one privately-owned compact gbx::Matrix
// (SnapshotSet::compacted — every source's freeze() returns a
// SnapshotSet) and the shared-block pins are dropped — so the writer's
// spare-block recycling goes back to zero allocations, and the freed
// generations return their heap. Reads through the handle stay
// bit-identical: the compact block carries to_matrix()'s own
// per-coordinate left-fold values, the order every read path already
// defines as THE value. That is the only eviction form: the newest
// frozen image is never evicted (its blocks are live by definition,
// so pinned is exactly what an eviction can free), and an evicted image
// stays compact until its last handle drops.
//
// Threading: freeze() is as thread-safe as the source's freeze()
// (ParallelStream: any thread; HierMatrix: the owning thread); enforce() and memory() touch only governor state and are
// safe from any thread. Handles are safe to read from any thread,
// including while the governor evicts them mid-query — a read pins a
// copy of the current image first and operates on that. Handles may
// outlive the governor.
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
#include "hier/snapshot.hpp"

namespace hier {

/// Budget of one governor. It acts on the identity-deduped *pinned*
/// class only (superseded shared blocks); private compact copies are
/// reported separately.
struct GovernorConfig {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Pinned-bytes ceiling across all outstanding snapshots. Exceeding it
  /// triggers materialize-and-release, laggiest reader first.
  std::uint64_t budget_bytes = kNever;
};

/// Monotone counters of governor activity (copyable POD view).
struct GovernorStats {
  std::uint64_t enforcements = 0;     ///< enforce() passes
  std::uint64_t evictions = 0;        ///< snapshots compacted
  std::uint64_t bytes_released = 0;   ///< pinned bytes actually freed by
                                      ///< evictions (pool delta, exact)
  std::uint64_t peak_pinned_bytes = 0;///< high-water mark of pinned class
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

template <class Source>
class MemoryGovernor {
 public:
  using snapshot_type = std::decay_t<decltype(std::declval<Source&>().freeze())>;
  using handle_type = GovernedSnapshot<snapshot_type>;
  using value_type = typename snapshot_type::value_type;

  /// Hook fired after each eviction: the evicted epoch, the newest
  /// frozen epoch, and the pinned-class total before the eviction.
  /// Fired after the enforcement pass releases the registry lock, so the
  /// hook may call back into this governor freely.
  using EvictionHook = std::function<void(
      std::uint64_t evicted_epoch, std::uint64_t current_epoch,
      std::uint64_t pinned_before)>;

  explicit MemoryGovernor(Source& source, GovernorConfig cfg = {})
      : cfg_(cfg), source_(&source) {}

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  /// Freeze a new snapshot, register it with the governor, record its
  /// blocks as the newest image, and run an enforcement pass.
  /// Thread-safety: that of the source's freeze().
  handle_type freeze() {
    auto snap = source_->freeze();
    const std::uint64_t e = snap.epoch();
    std::vector<Block> blocks;
    snap.collect_blocks(blocks);
    detail::dedupe_blocks(blocks);
    auto slot = std::make_shared<Slot>(std::move(snap), e);
    {
      gbx::ScopedLock lk(mu_);
      slots_.push_back(slot);
      // A concurrent freeze may register an older image after a newer
      // one; the record only moves forward.
      if (e >= newest_epoch_) {
        newest_epoch_ = e;
        newest_blocks_ = std::move(blocks);
      }
    }
    enforce();
    return handle_type(std::move(slot));
  }

  /// One enforcement pass: laggiest-first materialize-and-release until
  /// pinned bytes fit the budget. Returns snapshots compacted. Safe from
  /// any thread; passes are serialized on the registry lock.
  std::size_t enforce() {
    // Hook invocations collected under the lock, fired after releasing
    // it — a hook may call back into memory()/enforce() (or anything
    // else on this governor) without self-deadlocking.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evicted_epochs;
    EvictionHook hook;
    std::uint64_t newest = 0;
    {
      gbx::ScopedLock lk(mu_);
      hook = eviction_hook_;
      newest = newest_epoch_;
      counters_.enforcements.fetch_add(1, std::memory_order_relaxed);
      auto slots = gather_locked();

      std::uint64_t prev_pinned = 0;
      for (;;) {
        auto mem = account_locked(slots);
        counters_.peak_pinned(mem.pinned_bytes);
        if (!evicted_epochs.empty() && prev_pinned > mem.pinned_bytes)
          counters_.bytes_released.fetch_add(prev_pinned - mem.pinned_bytes,
                                             std::memory_order_relaxed);
        if (mem.pinned_bytes <= cfg_.budget_bytes) break;
        Slot* victim = nullptr;
        for (const auto& s : slots) {  // ascending epoch = laggiest first
          if (s->epoch >= newest) continue;  // the newest image stays
          if (pinned_involvement_locked(*s) == 0) continue;
          victim = s.get();
          break;
        }
        if (victim == nullptr) break;  // nothing evictable releases bytes
        evict_locked(*victim);
        evicted_epochs.emplace_back(victim->epoch, mem.pinned_bytes);
        prev_pinned = mem.pinned_bytes;
        // Loop: re-account (shared generations may need several drops).
      }
    }
    if (hook)
      for (const auto& [epoch, pinned_before] : evicted_epochs)
        hook(epoch, newest, pinned_before);
    return evicted_epochs.size();
  }

  /// Accounting snapshot as of the last freeze (also updates the
  /// pinned high-water mark). Safe from any thread.
  GovernorMemory memory() const {
    gbx::ScopedLock lk(mu_);
    auto mem = account_locked(gather_locked());
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
    return s;
  }

  /// Highest epoch frozen through this governor (0 before the first);
  /// never goes back, even with concurrent readers. Safe from any thread.
  std::uint64_t newest_epoch() const {
    gbx::ScopedLock lk(mu_);
    return newest_epoch_;
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
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a->epoch < b->epoch; });
    return out;
  }

  bool is_newest_locked(Block b) const GBX_REQUIRES(mu_) {
    return std::binary_search(newest_blocks_.begin(), newest_blocks_.end(), b);
  }

  /// One identity-deduped accounting pass against the newest image.
  GovernorMemory account_locked(const std::vector<std::shared_ptr<Slot>>& slots)
      const GBX_REQUIRES(mu_) {
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
      if (is_newest_locked(b))
        mem.live_bytes += bytes;
      else
        mem.pinned_bytes += bytes;
    }
    for (Block b : private_pool) mem.private_bytes += b->memory_bytes();
    return mem;
  }

  /// Bytes of this slot's shared blocks outside the newest image — what
  /// an eviction is *about* (0 means compacting frees nothing: the slot
  /// is fully live-shared or already compact).
  std::uint64_t pinned_involvement_locked(Slot& s) const GBX_REQUIRES(mu_) {
    gbx::ScopedLock lk(s.mu);
    if (s.evicted) return 0;
    std::vector<Block> blocks;
    s.snap.collect_blocks(blocks);
    detail::dedupe_blocks(blocks);
    std::uint64_t n = 0;
    for (Block b : blocks)
      if (!is_newest_locked(b)) n += b->memory_bytes();
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

  const GovernorConfig cfg_;
  Source* source_;
  mutable detail::GovernorCounters counters_;
  mutable gbx::Mutex mu_;  ///< registry + enforcement serialization
  mutable std::vector<std::weak_ptr<Slot>> slots_ GBX_GUARDED_BY(mu_);
  /// The newest frozen image: its epoch and its sorted, deduplicated
  /// block identities (non-owning — compared, never dereferenced).
  std::uint64_t newest_epoch_ GBX_GUARDED_BY(mu_) = 0;
  std::vector<Block> newest_blocks_ GBX_GUARDED_BY(mu_);
  EvictionHook eviction_hook_ GBX_GUARDED_BY(mu_);
};

}  // namespace hier
