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
// goes in above it. From then on the matrix keeps its bottom only as a
// row-ordered list of row-disjoint chunks of at most kChunkEntries
// entries (a hier::Level; the starting-depth bottom becomes its one old
// chunk). Its fold into the bottom (gbx::BlockMerge) merges the old
// chunks with the level above into full new chunks, each replacing the
// old rows it holds; an old chunk whose rows are all rewritten is
// released and its buffers hold the next new chunk, so the transient is
// a chunk or two, not a second bottom. cascade(yield) runs it in slices
// of kMergeSlice output entries; a paused merge's image is the new
// chunks, the old rows not yet rewritten and the level above from its
// cursor on, so stage() and freeze() work and a ParallelStream lane
// serves freezes between slices. At the starting depth every fold is
// the recycling fold of gbx::Matrix::fold_from.
#pragma once

#include <algorithm>
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
  using level_type = Level<T, AddMonoid>;
  using value_type = T;

  /// Output entries a grown bottom merge writes between two yield() calls.
  static constexpr std::size_t kMergeSlice = std::size_t{1} << 16;
  /// Entries a chunk of a grown bottom holds at most (unless it is one row).
  static constexpr std::size_t kChunkEntries = 4 * kMergeSlice;

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
    return i + 1 == levels_.size() && grown() ? chunks_.nvals()
                                              : levels_[i].nvals_bound();
  }

  /// Heap bytes across all levels and chunks, and the open chunk and
  /// spare of a grown bottom merge in flight (resident only — demoted
  /// runs live in the block store, counted by store_bytes()). Each
  /// demoted run's row index (8 B per row) stays on the heap and is not
  /// counted: demoting cannot shrink it, so counting it would make every
  /// enforce_residency() call flush and demote once it nears the budget.
  std::size_t memory_bytes() const {
    std::size_t n = chunks_.memory_bytes();
    for (const auto& l : levels_) n += l.memory_bytes();
    if (merge_) {
      if (merge_->out) n += merge_->out->memory_bytes();
      if (merge_->spare) n += merge_->spare->memory_bytes();
    }
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
    const bool moved = demote_bottom();
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
    if (memory_bytes() > budget_bytes && demote_bottom()) ++demoted;
    if (memory_bytes() > budget_bytes && levels_.size() > 1) {
      flush();
      if (demote_bottom()) ++demoted;
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
  /// level 1's compressed block) and publish one immutable Level per
  /// level (a chunked bottom's chunk list; the level above a paused
  /// merge from its cursor on), as the one part of a SnapshotSet — the
  /// read surface every source returns. No entry data is copied — views
  /// share the compressed blocks, and copy-on-fold keeps them frozen
  /// while streaming continues. The caller may read the snapshot from
  /// any thread; further update() calls on this matrix must stay on the
  /// owning thread as always.
  SnapshotSet<T, AddMonoid> freeze() const {
    ++stats_.queries;
    std::vector<level_type> lv;
    lv.reserve(levels_.size());
    for (const auto& l : levels_) lv.emplace_back(l.view());
    if (merge_)  // a paused merge: the level above from its cursor on
      lv[lv.size() - 2] = level_type(
          gbx::MatrixView<T>(nrows_, ncols_, merge_->upper), merge_->kb);
    if (grown()) lv.back() = chunks_;
    std::vector<HierSnapshot<T, AddMonoid>> part;
    part.emplace_back(nrows_, ncols_, std::move(lv), cuts_.cuts(), stats_,
                      stats_.updates,
                      tier_ ? tier_->view() : TierView<T, AddMonoid>(),
                      base_levels_);
    return SnapshotSet<T, AddMonoid>(std::move(part));
  }

  /// Epoch watermark: update() and stage() calls applied so far.
  std::uint64_t epoch() const { return stats_.updates; }

  /// Destructive query: folds every level into the bottom one and
  /// returns it (the returned matrix shares the bottom's block). Cheaper
  /// than snapshot when streaming is finished. Streaming is over, so the
  /// emptied levels release their memory too, and the bottom is one
  /// block with no spare (a grown matrix's one chunk).
  matrix_type collapse() {
    finish_merge();
    ++stats_.queries;
    // The tier read path's grouping: the demoted runs oldest-first, then
    // the resident bottom (a chunked one concatenated), then the levels
    // above it, shallowest first.
    matrix_type top(nrows_, ncols_);
    if (has_demoted()) tier_->view().materialize_into(top);
    if (grown()) chunks_.fold_into(top);
    else top.plus_assign(levels_.back().view());
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      record_fold(i, levels_[i].nvals_bound());
      top.fold_from(levels_[i]);
      levels_[i].reset();
    }
    top.materialize();
    top.drop_spare();
    if (has_demoted()) tier_->clear();
    if (grown()) chunks_ = level_type(top.view());
    else levels_.back() = top;
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
           level_entries(levels_.size() - 1) > cuts_.next_cut()) {
      if (!grown()) {  // the starting-depth bottom: the one old chunk
        chunks_ = level_type(levels_.back().view());
        levels_.back().reset();
      }
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
  /// Throws when the level is not one block: a grown bottom (read
  /// bottom_chunks()), or the level above a paused grown bottom merge.
  const matrix_type& level(std::size_t i) const {
    const bool bottom = i + 1 == levels_.size();
    GBX_CHECK_VALUE(bottom ? !grown() : !(merge_ && i + 2 == levels_.size()),
                    "level: not one block");
    return levels_[i];
  }

  /// A grown bottom's chunk list (none at the starting depth).
  const level_type& bottom_chunks() const { return chunks_; }

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
    // A grown bottom is cut into chunks, so its next merge frees each
    // one as it goes.
    if (i + 1 == levels_.size() && grown())
      chunks_ = level_type::chunked(m.view(), kChunkEntries);
    else
      levels_[i] = std::move(m);
  }
  /// The starting depth of a restored grown matrix (2 ≤ depth ≤ levels),
  /// set before its bottom is restored.
  void restore_base_levels(std::size_t depth) {
    GBX_CHECK_VALUE(depth >= 2 && depth <= levels_.size(),
                    "restore_base_levels: depth outside the level count");
    GBX_CHECK_VALUE(levels_.back().empty() && chunks_.slices().empty(),
                    "restore_base_levels: the bottom is already restored");
    base_levels_ = depth;
  }
  void restore_stats(HierStats st) {
    finish_merge();
    GBX_CHECK_DIM(st.level.size() == levels_.size(),
                  "restore_stats level count mismatch");
    stats_ = std::move(st);
  }

 private:
  using add_op = typename matrix_type::add_op;

  /// A grown bottom merge in flight. chunks_ holds the new chunks before
  /// `next` and the old slices from `next` on; the level above (`upper`,
  /// pinned) is merged below row position kb. The open chunk `out` holds
  /// what the merge read past that: the old slices before ci, slice ci's
  /// rows before position ka and the level above's before kp. `kernel`
  /// appends to it; `spare` is a released chunk's buffer. A copy of the
  /// matrix restarts the open chunk.
  struct GrownMerge {
    explicit GrownMerge(std::shared_ptr<const gbx::Dcsr<T>> up)
        : upper(std::move(up)) {}
    GrownMerge(const GrownMerge& o)
        : upper(o.upper), next(o.next), kb(o.kb), ci(o.next), kp(o.kb) {}
    GrownMerge& operator=(const GrownMerge& o) { return *this = GrownMerge(o); }
    GrownMerge(GrownMerge&&) = default;
    GrownMerge& operator=(GrownMerge&&) = default;

    std::shared_ptr<const gbx::Dcsr<T>> upper;
    std::size_t next = 0, kb = 0, ci = 0, ka = 0, kp = 0;
    std::shared_ptr<gbx::Dcsr<T>> out, spare;
    std::optional<gbx::BlockMerge<add_op, T>> kernel;
  };

  static bool never_yield() { return false; }

  /// A_{i+1} += A_i; A_i cleared to an empty hypersparse matrix (with
  /// capacity retained — the fast level stays warm). The fused pipeline
  /// sorts, dedups, and merges A_i's pending run straight into A_{i+1}'s
  /// block without materializing an intermediate Dcsr in A_i. Once the
  /// matrix has grown, the fold into the bottom is a grown bottom merge
  /// instead: the level above drops its spare and the merge walks the
  /// chunks (an empty bottom takes the level above's block as its one
  /// chunk). Returns false when yield() paused that merge.
  template <class Yield>
  bool fold(std::size_t i, Yield& yield) {
    auto& lo = levels_[i];
    if (lo.empty()) return true;
    record_fold(i, lo.nvals_bound());
    if (i + 2 < levels_.size() || !grown()) {
      levels_[i + 1].fold_from(lo);
      return true;
    }
    lo.drop_spare();
    if (chunks_.slices().empty()) {
      chunks_ = level_type(lo.view());
      lo.reset();
      return true;
    }
    merge_.emplace(lo.shared_storage());
    // Room up front for the slices the merge can install, so the list
    // does not regrow mid-merge and a merge's allocations do not depend
    // on the chunk count.
    chunks_.reserve(2 * chunks_.slices().size() +
                    lo.nvals_bound() / kChunkEntries + 2);
    return run_merge(yield);
  }

  /// Step the merge in flight slice by slice, installing each new chunk
  /// as it fills; reset the level above once every row is merged.
  /// Returns false when yield() paused it.
  template <class Yield>
  bool run_merge(Yield& yield) {
    auto& g = *merge_;
    if (!g.kernel) next_piece(g);
    while (g.kernel) {
      if (g.kernel->step(kMergeSlice)) {
        g.ka = g.kernel->ka();
        g.kp = g.kernel->kb();
        if (g.kernel->full()) install(g);
        g.kernel.reset();
        next_piece(g);
        if (!g.kernel) break;
      }
      if (yield()) return false;
    }
    merge_.reset();  // unpin the level above
    levels_[levels_.size() - 2].reset();
    return true;
  }

  /// Start the merge's next piece into the open chunk: old slice ci's
  /// rows from ka with the level above's from kp, up to the next old
  /// slice's first row. An old chunk no row of the level above falls in
  /// keeps its place (the open chunk is installed first). Leaves no
  /// kernel once every row is merged.
  void next_piece(GrownMerge& g) {
    static const gbx::Dcsr<T> none;  // past the last old slice
    const auto urows = g.upper->rows();
    for (;;) {
      const auto& cs = chunks_.slices();
      const bool old = g.ci < cs.size(), open = g.out && !g.out->empty();
      const gbx::Dcsr<T>& a = old ? cs[g.ci].block() : none;
      const std::size_t ka_end = old ? cs[g.ci].k1 : 0;
      if (old) g.ka = std::max(g.ka, cs[g.ci].k0);
      std::size_t kp_end = urows.size();
      if (g.ci + 1 < cs.size())
        kp_end = static_cast<std::size_t>(
            std::lower_bound(urows.begin() + static_cast<std::ptrdiff_t>(g.kp),
                             urows.end(), cs[g.ci + 1].first_row()) -
            urows.begin());
      if (g.ka == ka_end && g.kp == kp_end) {  // slice ci is read
        if (!old) {
          if (open) install(g);
          return;
        }
        ++g.ci;
        g.ka = 0;
      } else if (old && g.ka == 0 && g.kp == kp_end) {  // untouched
        if (open) install(g);
        else g.next = ++g.ci;
      } else {
        if (!g.out) g.out = std::exchange(g.spare, nullptr);
        if (!g.out) {
          g.out = std::make_shared<gbx::Dcsr<T>>();
          g.out->reserve_entries(kChunkEntries);
        }
        g.kernel.emplace(a, g.ka, ka_end, *g.upper, g.kp, kp_end, *g.out,
                         kChunkEntries);
        return;
      }
    }
  }

  /// Install the open chunk in place of the old rows it holds and move
  /// the level above's cursor past them. An old chunk whose rows are all
  /// rewritten leaves the level; its buffers become the spare when
  /// nothing else holds them (gbx::sole_owner, as copy-on-fold) and they
  /// are a chunk's (room for kChunkEntries entries).
  void install(GrownMerge& g) {
    chunks_.install(
        g.next, g.ci, g.ka,
        gbx::MatrixView<T>(nrows_, ncols_, std::exchange(g.out, nullptr)),
        [&g](std::shared_ptr<const gbx::Dcsr<T>> b) {  // else freed here
          if (!g.spare && b->capacity() == kChunkEntries &&
              gbx::sole_owner(b)) {
            g.spare = std::const_pointer_cast<gbx::Dcsr<T>>(std::move(b));
            g.spare->clear();
          }
        });
    g.ci = ++g.next;
    g.ka = 0;  // next_piece() moves it to the slice's first row
    g.kb = g.kp;
  }

  /// Once the matrix has grown, its bottom is chunks_ (levels_.back()
  /// stays empty).
  bool grown() const { return levels_.size() > base_levels_; }

  /// Demote the bottom into a new run (a chunked bottom concatenated
  /// for it); a throw leaves the bottom in place.
  bool demote_bottom() {
    if (!grown()) return tier_->demote(levels_.back());
    matrix_type bottom(nrows_, ncols_);
    chunks_.fold_into(bottom);
    if (!tier_->demote(bottom)) return false;
    chunks_ = level_type();
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
  level_type chunks_;  ///< a grown bottom's chunks (see grown())
  std::optional<GrownMerge> merge_;
  // shared_ptr keeps HierMatrix copyable (copies share the tier; attach
  // one tier per logically distinct matrix, as enable_demotion's
  // lifetime contract implies).
  std::shared_ptr<DemotedTier<T, AddMonoid>> tier_;
  mutable HierStats stats_;
};

}  // namespace hier
