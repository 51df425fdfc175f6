// hier/hier_matrix.hpp — hierarchical hypersparse matrices.
//
// The paper's primary contribution (Section II):
//
//   * Initialize an N-level hierarchical hypersparse matrix with cuts ci.
//   * Update by adding data A to the lowest layer: A1 = A1 + A.
//   * If nnz(A1) > c1 then A2 = A2 + A1 and reset A1 to an empty
//     hypersparse matrix; repeat up the hierarchy until nnz(Ai) <= ci or
//     i = N.
//   * To complete all pending updates for analysis, sum all layers:
//     A = Σ Ai.
//
// Because the fold operation is a commutative monoid (default: plus),
// the cascade is *exactly* equal to direct accumulation — the property
// the test suite checks as its central invariant.
//
// Fast-memory mechanics: level 1 keeps its updates in the Matrix pending
// buffer (O(1) appends into a small, cache-resident array). A fold sorts
// and deduplicates that small buffer and merges it into the next level,
// so the expensive merge work touches each stored entry only
// O(log_r(total)) times instead of once per update.
//
// Depth grows with the state: the schedule a matrix is built with is its
// starting depth, and once the bottom passes CutPolicy::next_cut() (the
// last cut times the schedule's last ratio) an empty level with that cut
// goes in above it. A grown matrix folds into its bottom with a
// resumable merge into a fresh block (gbx::BlockMerge), run in slices of
// kMergeSlice output entries by cascade(yield): while it is in flight
// both inputs stay in their levels, so stage() and freeze() work and a
// ParallelStream lane serves freezes between slices. At the starting
// depth every fold is the recycling fold of gbx::Matrix::fold_from.
#pragma once

#include <cstddef>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/matrix_ops.hpp"
#include "hier/cut_policy.hpp"
#include "hier/snapshot.hpp"
#include "hier/stats.hpp"
#include "hier/tier.hpp"

namespace hier {

template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class HierMatrix {
 public:
  using matrix_type = gbx::Matrix<T, AddMonoid>;
  using value_type = T;

  /// Output entries a grown bottom merge writes between two yield() calls.
  static constexpr std::size_t kMergeSlice = std::size_t{1} << 16;

  HierMatrix(gbx::Index nrows, gbx::Index ncols, CutPolicy cuts)
      : nrows_(nrows),
        ncols_(ncols),
        cuts_(std::move(cuts)),
        base_levels_(cuts_.levels()) {
    levels_.reserve(cuts_.levels());
    for (std::size_t i = 0; i < cuts_.levels(); ++i)
      levels_.emplace_back(nrows_, ncols_);
    stats_.level.resize(cuts_.levels());
  }

  gbx::Index nrows() const { return nrows_; }
  gbx::Index ncols() const { return ncols_; }
  std::size_t num_levels() const { return levels_.size(); }
  const CutPolicy& cut_policy() const { return cuts_; }

  /// True while a grown bottom merge is in flight (cascade(yield) paused
  /// it); the next cascade() resumes it.
  bool merging() const { return merge_.has_value(); }
  const HierStats& stats() const { return stats_; }

  /// Single-entry streaming update: A(i, j) ⊕= v.
  void update(gbx::Index i, gbx::Index j, T v) {
    levels_[0].set_element(i, j, v);
    ++stats_.updates;
    ++stats_.entries_appended;
    cascade();
  }

  /// Batched streaming update (the paper streams 100K-entry sets):
  /// stage() then cascade().
  void update(const gbx::Tuples<T>& batch) {
    stage(batch);
    cascade();
  }

  /// The first half of update(): A1 = A1 + A, the paper's update proper.
  /// Bounds-checks every entry before appending any (a throw leaves the
  /// matrix untouched), then counts the batch: epoch() includes it and
  /// every freeze() from here on contains it. Level 1 may sit over its
  /// cut until cascade() runs; the matrix's value is the same either way.
  void stage(const gbx::Tuples<T>& batch) {
    levels_[0].append(batch);
    ++stats_.updates;
    stats_.entries_appended += batch.size();
  }

  void update(std::span<const gbx::Index> rows,
              std::span<const gbx::Index> cols, std::span<const T> vals) {
    levels_[0].append(rows, cols, vals);
    ++stats_.updates;
    stats_.entries_appended += rows.size();
    cascade();
  }

  /// Entry-count upper bound per level (compressed + buffered; never
  /// forces folds). This is the quantity cut thresholds act on.
  std::size_t level_entries(std::size_t i) const {
    return levels_[i].nvals_bound();
  }

  /// Heap bytes across all levels, and the output block of a grown
  /// bottom merge in flight (resident only — demoted runs live in
  /// the block store, counted by store_bytes()). Each demoted run's row
  /// index (8 B per row) stays on the heap and is not counted: demoting
  /// cannot shrink it, so counting it would make every
  /// enforce_residency() call flush and demote once it nears the budget.
  std::size_t memory_bytes() const {
    std::size_t n = merge_ ? merge_->out->memory_bytes() : 0;
    for (const auto& l : levels_) n += l.memory_bytes();
    return n;
  }

  // ---- Out-of-core demotion (hier/tier.hpp) -------------------------

  /// Attach a block store the bottom level may demote into. The store
  /// must outlive this matrix and every snapshot taken from it (run GC
  /// erases blocks on snapshot teardown). Demotion never happens
  /// implicitly on the ingest path — only the caller's demote_now() and
  /// enforce_residency() calls move data.
  void enable_demotion(store::BlockStore* store, DemotionConfig cfg = {}) {
    tier_ = std::make_shared<DemotedTier<T, AddMonoid>>(store, cfg, nrows_,
                                                        ncols_);
  }

  bool demotion_enabled() const { return tier_ != nullptr; }

  /// True when demoted runs currently exist.
  bool has_demoted() const { return tier_ && tier_->demoted(); }

  /// The tier (valid only after enable_demotion), for stats/tests.
  const DemotedTier<T, AddMonoid>& tier() const { return *tier_; }

  /// Demote the bottom level into a new run (folding its pending buffer
  /// first), then compact if the run list exceeded its bound. Returns
  /// whether anything moved.
  bool demote_now() {
    if (!tier_) return false;
    finish_merge();
    const bool moved = tier_->demote(levels_.back());
    tier_->maybe_compact();
    return moved;
  }

  /// Bring resident heap bytes at or under `budget_bytes` by demoting:
  /// first the bottom level as-is, then — if still over — a full flush()
  /// (all levels folded down) followed by a second demotion, which moves
  /// every compressed byte out and leaves only warm-capacity buffers.
  /// Returns the number of demotions performed. No-op without a tier.
  std::size_t enforce_residency(std::size_t budget_bytes) {
    if (!tier_) return 0;
    finish_merge();
    std::size_t demoted = 0;
    if (memory_bytes() > budget_bytes && tier_->demote(levels_.back()))
      ++demoted;
    if (memory_bytes() > budget_bytes && levels_.size() > 1) {
      flush();
      if (tier_->demote(levels_.back())) ++demoted;
    }
    tier_->maybe_compact();
    return demoted;
  }

  /// Serialized bytes the demoted runs occupy in the block store.
  std::uint64_t store_bytes() const {
    return tier_ ? tier_->store_bytes() : 0;
  }

  /// Point query of the logical matrix Σ Ai across resident levels AND
  /// demoted runs (freeze() publishes views without copying a block).
  std::optional<T> extract_element(gbx::Index i, gbx::Index j) const {
    return freeze().extract_element(i, j);
  }

  /// Non-destructive query: A = Σ Ai. Levels are left untouched, so
  /// streaming can continue afterwards (the paper's analysis step).
  /// Routed through freeze(): the levels publish immutable views (no
  /// block is copied — the single-non-empty-level case aliases the block
  /// outright) and to_matrix() merges only what genuinely overlaps.
  matrix_type snapshot() const { return freeze().to_matrix(); }

  /// Epoch snapshot: swap out the level-1 pending buffer (fold it into
  /// level 1's compressed block) and publish one immutable view per
  /// level, as the one part of a SnapshotSet — the read surface every
  /// source returns. No entry data is copied — views share the
  /// compressed blocks, and copy-on-fold keeps them frozen while
  /// streaming continues. The caller may read the snapshot from any
  /// thread; further update() calls on this matrix must stay on the
  /// owning thread as always.
  SnapshotSet<T, AddMonoid> freeze() const {
    ++stats_.queries;
    std::vector<gbx::MatrixView<T>> views;
    views.reserve(levels_.size());
    for (const auto& l : levels_) views.push_back(l.view());
    std::vector<HierSnapshot<T, AddMonoid>> part;
    part.emplace_back(nrows_, ncols_, std::move(views), cuts_.cuts(), stats_,
                      stats_.updates,
                      tier_ ? tier_->view() : TierView<T, AddMonoid>());
    return SnapshotSet<T, AddMonoid>(std::move(part));
  }

  /// Epoch watermark: update() and stage() calls applied so far.
  std::uint64_t epoch() const { return stats_.updates; }

  /// Destructive query: folds every level into the top one and returns a
  /// reference to it. Cheaper than snapshot when streaming is finished.
  /// Streaming is over, so the emptied levels release their memory too.
  const matrix_type& collapse() {
    finish_merge();
    ++stats_.queries;
    // Promote the demoted runs back under the resident bottom first, so
    // the fold below sees the bottom level's full logical value (runs
    // oldest-first then resident — the tier read path's grouping).
    if (has_demoted()) {
      matrix_type bottom(nrows_, ncols_);
      tier_->view().materialize_into(bottom);
      bottom.plus_assign(levels_.back().view());
      levels_.back() = std::move(bottom);
      tier_->clear();
    }
    auto& top = levels_.back();
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      record_fold(i, levels_[i].nvals_bound());
      top.fold_from(levels_[i]);
      levels_[i].reset();
    }
    top.materialize();
    return top;
  }

  /// The second half of update(), the paper's cascade loop: fold while a
  /// level exceeds its cut, then add a level while the bottom passes
  /// next_cut(). Bookkeeping only — it never changes the matrix's value.
  /// A grown bottom merge asks yield() after each slice and pauses when
  /// it returns true: cascade() then returns false, and the next call
  /// resumes that merge before it folds anything else. The default never
  /// yields.
  template <class Yield>
  bool cascade(Yield&& yield) {
    if (merge_ && !run_merge(yield)) return false;
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
      if (levels_[i].nvals_bound() <= cuts_.cut(i)) break;
      if (!fold(i, yield)) return false;
    }
    while (cuts_.next_cut() > 0 &&
           levels_.back().nvals_bound() > cuts_.next_cut()) {
      cuts_.grow();
      levels_.emplace(levels_.end() - 1, nrows_, ncols_);
      stats_.level.emplace(stats_.level.end() - 1);
    }
    return true;
  }

  void cascade() { cascade(never_yield); }

  /// Force the full cascade regardless of thresholds (e.g. before
  /// checkpointing), preserving the level structure.
  void flush() {
    finish_merge();
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) fold(i, never_yield);
  }

  /// Direct (read-only) access to a level, for instrumentation and tests.
  const matrix_type& level(std::size_t i) const { return levels_[i]; }

  /// Exact nnz of the logical matrix. Freezes the levels (publishing
  /// views, no copy) and counts the distinct coordinates with the
  /// snapshot's merge count — Σ Ai is never materialized.
  std::size_t nvals() const { return freeze().nvals(); }

  /// Checkpoint/restore hooks (hier/checkpoint.hpp): replace one level's
  /// matrix / the statistics block wholesale. Dimensions must match.
  void restore_level(std::size_t i, matrix_type m) {
    finish_merge();
    GBX_CHECK_INDEX(i < levels_.size(), "restore_level index out of range");
    GBX_CHECK_DIM(m.nrows() == nrows_ && m.ncols() == ncols_,
                  "restore_level dimension mismatch");
    levels_[i] = std::move(m);
  }
  void restore_stats(HierStats st) {
    finish_merge();
    GBX_CHECK_DIM(st.level.size() == levels_.size(),
                  "restore_stats level count mismatch");
    stats_ = std::move(st);
  }

 private:
  using add_op = typename matrix_type::add_op;

  /// A grown bottom merge in flight: both input blocks pinned (their
  /// levels still hold them, so freeze() publishes them) and the fresh
  /// output block the kernel fills. A copy of the matrix restarts it.
  struct GrownMerge {
    GrownMerge(std::shared_ptr<const gbx::Dcsr<T>> bottom_block,
               std::shared_ptr<const gbx::Dcsr<T>> upper_block)
        : bottom(std::move(bottom_block)),
          upper(std::move(upper_block)),
          kernel(*bottom, *upper, *out) {}
    GrownMerge(const GrownMerge& o) : GrownMerge(o.bottom, o.upper) {}
    GrownMerge& operator=(const GrownMerge& o) { return *this = GrownMerge(o); }
    GrownMerge(GrownMerge&&) = default;
    GrownMerge& operator=(GrownMerge&&) = default;

    std::shared_ptr<const gbx::Dcsr<T>> bottom, upper;
    std::unique_ptr<gbx::Dcsr<T>> out = std::make_unique<gbx::Dcsr<T>>();
    gbx::BlockMerge<add_op, T> kernel;
  };

  static bool never_yield() { return false; }

  /// A_{i+1} += A_i; A_i cleared to an empty hypersparse matrix (with
  /// capacity retained — the fast level stays warm). The fused pipeline
  /// sorts, dedups, and merges A_i's pending run straight into A_{i+1}'s
  /// block without materializing an intermediate Dcsr in A_i. Once the
  /// matrix has grown, the fold into the bottom is a grown bottom merge
  /// instead: both levels drop their spares and the merge writes a fresh
  /// block. Returns false when yield() paused that merge.
  template <class Yield>
  bool fold(std::size_t i, Yield& yield) {
    auto& lo = levels_[i];
    if (lo.empty()) return true;
    record_fold(i, lo.nvals_bound());
    if (i + 2 < levels_.size() || levels_.size() == base_levels_) {
      levels_[i + 1].fold_from(lo);
      return true;
    }
    lo.drop_spare();
    levels_.back().drop_spare();
    merge_.emplace(levels_.back().shared_storage(), lo.shared_storage());
    return run_merge(yield);
  }

  /// Step the merge in flight slice by slice; install its block when it
  /// completes. Returns false when yield() paused it.
  template <class Yield>
  bool run_merge(Yield& yield) {
    while (!merge_->kernel.step(kMergeSlice))
      if (yield()) return false;
    auto out = std::move(merge_->out);
    merge_.reset();  // unpin the inputs
    levels_.back() = matrix_type::adopt(nrows_, ncols_, std::move(*out));
    levels_[levels_.size() - 2].reset();
    return true;
  }

  void finish_merge() {
    if (merge_) run_merge(never_yield);
  }

  void record_fold(std::size_t i, std::size_t entries) {
    auto& ls = stats_.level[i];
    ++ls.folds;
    ls.entries_folded += entries;
    ls.max_entries = std::max<std::uint64_t>(ls.max_entries, entries);
  }

  gbx::Index nrows_;
  gbx::Index ncols_;
  CutPolicy cuts_;
  std::size_t base_levels_;  ///< the starting depth
  std::vector<matrix_type> levels_;
  std::optional<GrownMerge> merge_;
  // shared_ptr keeps HierMatrix copyable (copies share the tier; attach
  // one tier per logically distinct matrix, as enable_demotion's
  // lifetime contract implies).
  std::shared_ptr<DemotedTier<T, AddMonoid>> tier_;
  mutable HierStats stats_;
};

}  // namespace hier
