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
// goes in above it.
//
// Level 0, and every level whose cut is at most kChunkEntries, is one
// block (a gbx::Matrix): a fold into it is the fused sort-merge above,
// into a recycled spare. Every other level, the bottom and a grown level
// included, is a row-ordered list of row-disjoint chunks of at most
// kChunkEntries entries (a hier::Level), from construction on. A fold
// into a chunked level is a wave merge. From its cursor the merge cuts
// pieces, each the level's rows and the level above's rows in one row
// range, sized to fill one chunk; each wave runs up to gbx::max_threads()
// pieces through gbx::parallel_for (one piece, on the calling thread,
// into a level cut under gbx's kParallelMergeCutoff), each filling chunk
// buffers with gbx::BlockMerge's range form. After a wave its chunks replace the old
// rows they hold, and the chunks of either level the cursor passed leave
// it; their buffers hold the next wave's chunks when nothing else holds
// them (gbx::sole_owner), so the transient is one wave of chunks, not a
// second copy of either level. Up to one wave of released buffers stays
// for the next merge, so a steady-state merge allocates nothing.
// cascade(yield) asks yield() between waves; a paused merge's image is
// the new chunks, the old rows not yet merged and the level above from
// its cursor on, so stage() and freeze() work and a ParallelStream lane
// serves freezes between waves. With a team of one every wave is one
// piece: the serial merge.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
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

  /// Entries a chunk of a chunked level holds at most (unless it is one
  /// row); a level below level 0 whose cut exceeds it is chunked.
  static constexpr std::size_t kChunkEntries = std::size_t{1} << 16;

  HierMatrix(gbx::Index nrows, gbx::Index ncols, CutPolicy cuts)
      : nrows_(nrows), ncols_(ncols), cuts_(std::move(cuts)) {
    for (std::size_t i = 0; i + 1 < cuts_.levels(); ++i) {
      if (i > 0 && cuts_.cut(i) > kChunkEntries)
        chunked_.emplace_back();
      else
        blocks_.emplace_back(nrows_, ncols_);
    }
    chunked_.emplace_back();  // the bottom
    stats_.level.resize(cuts_.levels());
  }

  gbx::Index nrows() const { return nrows_; }
  gbx::Index ncols() const { return ncols_; }
  std::size_t num_levels() const { return blocks_.size() + chunked_.size(); }
  const CutPolicy& cut_policy() const { return cuts_; }

  /// True while a merge into a chunked level is in flight (cascade(yield)
  /// paused it); the next cascade() resumes it.
  bool merging() const { return merge_.dst != 0; }
  const HierStats& stats() const { return stats_; }

  /// Single-entry streaming update: A(i, j) ⊕= v.
  void update(gbx::Index i, gbx::Index j, T v) {
    blocks_[0].set_element(i, j, v);
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
    blocks_[0].append(batch);
    ++stats_.updates;
    stats_.entries_appended += batch.size();
  }

  void update(std::span<const gbx::Index> rows,
              std::span<const gbx::Index> cols, std::span<const T> vals) {
    blocks_[0].append(rows, cols, vals);
    ++stats_.updates;
    stats_.entries_appended += rows.size();
    cascade();
  }

  /// Entry-count upper bound per level (compressed + buffered; never
  /// forces folds). This is the quantity cut thresholds act on. The level
  /// above a paused merge counts its rows from the cursor on.
  std::size_t level_entries(std::size_t i) const {
    if (i >= blocks_.size()) return chunks(i).nvals();
    return merging() && i + 1 == merge_.dst ? merge_.upper.nvals()
                                            : blocks_[i].nvals_bound();
  }

  /// Heap bytes across all levels and chunks, and the released chunk
  /// buffers kept for the next wave (resident only — demoted
  /// runs live in the block store, counted by store_bytes()). Each
  /// demoted run's row index (8 B per row) stays on the heap and is not
  /// counted: demoting cannot shrink it, so counting it would make every
  /// enforce_residency() call flush and demote once it nears the budget.
  std::size_t memory_bytes() const {
    std::size_t n = 0;
    for (const auto& l : blocks_) n += l.memory_bytes();
    for (std::size_t i = blocks_.size(); i < num_levels(); ++i)
      n += chunks(i).memory_bytes();
    for (const auto& b : scratch_.spares) n += b->memory_bytes();
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
  /// (all levels folded down, the kept chunk buffers released) followed
  /// by a second demotion, which moves every compressed byte out and
  /// leaves only warm-capacity buffers. Returns the number of demotions
  /// performed. No-op without a tier.
  std::size_t enforce_residency(std::size_t budget_bytes) {
    if (!tier_) return 0;
    finish_merge();
    std::size_t demoted = 0;
    if (memory_bytes() > budget_bytes && demote_bottom()) ++demoted;
    if (memory_bytes() > budget_bytes) {
      flush();
      scratch_.spares.clear();
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
  /// level (a block level's block, a chunked level's chunk list; the
  /// level above a paused merge from its cursor on), as the one part of
  /// a SnapshotSet — the read surface every source returns. No entry
  /// data is copied — views share the compressed blocks, and
  /// copy-on-fold keeps them frozen while streaming continues. The caller
  /// may read the snapshot from any thread; further update() calls on
  /// this matrix must stay on the owning thread as always.
  SnapshotSet<T, AddMonoid> freeze() const {
    ++stats_.queries;
    std::vector<level_type> lv;
    lv.reserve(num_levels());
    for (std::size_t i = 0; i < num_levels(); ++i) {
      if (merging() && i + 1 == merge_.dst)
        lv.push_back(merge_.upper);
      else if (i < blocks_.size())
        lv.emplace_back(blocks_[i].view());
      else
        lv.push_back(chunked_[i - blocks_.size()].level);
    }
    std::vector<HierSnapshot<T, AddMonoid>> part;
    part.emplace_back(nrows_, ncols_, std::move(lv), cuts_.cuts(), stats_,
                      stats_.updates,
                      tier_ ? tier_->view() : TierView<T, AddMonoid>());
    return SnapshotSet<T, AddMonoid>(std::move(part));
  }

  /// Epoch watermark: update() and stage() calls applied so far.
  std::uint64_t epoch() const { return stats_.updates; }

  /// Destructive query: folds every level into the bottom one and
  /// returns it (the returned matrix shares the bottom's block). Cheaper
  /// than snapshot when streaming is finished. Streaming is over, so the
  /// emptied levels and the kept chunk buffers release their memory too,
  /// and the bottom is slices of the one block, with no spare.
  matrix_type collapse() {
    finish_merge();
    ++stats_.queries;
    // The tier read path's grouping: the demoted runs oldest-first, then
    // the resident bottom (its chunks concatenated), then the levels
    // above it, shallowest first.
    matrix_type top(nrows_, ncols_);
    if (has_demoted()) tier_->view().materialize_into(top);
    bottom().fold_into(top);
    for (std::size_t i = 0; i + 1 < num_levels(); ++i) {
      const std::size_t entries = level_entries(i);
      if (entries == 0) continue;
      record_fold(i, entries);
      if (i < blocks_.size()) {
        top.fold_from(blocks_[i]);
        blocks_[i].reset();
      } else {
        auto& c = chunked(i);
        c.level.fold_into(top);
        c.level = level_type();
      }
    }
    top.materialize();
    top.drop_spare();
    if (has_demoted()) tier_->clear();
    scratch_.spares.clear();
    bottom() = level_type::split(top.view(), kChunkEntries);
    return top;
  }

  /// The second half of update(), the paper's cascade loop: fold while a
  /// level exceeds its cut, then add a level while the bottom passes
  /// next_cut(). Bookkeeping only — it never changes the matrix's value.
  /// A merge into a chunked level asks yield() after each wave and
  /// pauses when it returns true: cascade() then returns false, and the
  /// next call resumes that merge and the folds below it before it folds
  /// anything else. The default never yields.
  template <class Yield>
  bool cascade(Yield&& yield) {
    if (!finish_merge(yield)) return false;
    if (!fold_down(0, yield)) return false;
    while (cuts_.next_cut() > 0 && bottom().nvals() > cuts_.next_cut()) {
      cuts_.grow();
      // Cuts increase, so a block level only ever goes in above a
      // bottom with no chunked level above it.
      if (cuts_.cuts().back() > kChunkEntries)
        chunked_.emplace(chunked_.end() - 1);
      else
        blocks_.emplace_back(nrows_, ncols_);
      stats_.level.emplace(stats_.level.end() - 1);
    }
    return true;
  }

  void cascade() { cascade(never_yield); }

  /// Force the full cascade regardless of thresholds (e.g. before
  /// checkpointing), preserving the level structure.
  void flush() {
    finish_merge();
    for (std::size_t i = 0; i + 1 < num_levels(); ++i) fold(i, never_yield);
  }

  /// Direct (read-only) access to a block level, for instrumentation and
  /// tests. Throws for a chunked level (read chunks()) and for the level
  /// above a paused merge.
  const matrix_type& level(std::size_t i) const {
    GBX_CHECK_VALUE(i < blocks_.size() && !(merging() && i + 1 == merge_.dst),
                    "level: not one block");
    return blocks_[i];
  }

  /// A chunked level's chunk list (the level above a paused merge: its
  /// chunks from the cursor on). Throws for a block level.
  const level_type& chunks(std::size_t i) const {
    GBX_CHECK_VALUE(i >= blocks_.size() && i < num_levels(),
                    "chunks: not a chunked level");
    return merging() && i + 1 == merge_.dst
               ? merge_.upper
               : chunked_[i - blocks_.size()].level;
  }

  /// Exact nnz of the logical matrix. Freezes the levels (publishing
  /// views, no copy) and counts the distinct coordinates with the
  /// snapshot's merge count — Σ Ai is never materialized.
  std::size_t nvals() const { return freeze().nvals(); }

  /// Checkpoint/restore hooks (hier/checkpoint.hpp): replace one level's
  /// matrix / the statistics block wholesale. Dimensions must match.
  void restore_level(std::size_t i, matrix_type m) {
    finish_merge();
    GBX_CHECK_INDEX(i < num_levels(), "restore_level index out of range");
    GBX_CHECK_DIM(m.nrows() == nrows_ && m.ncols() == ncols_,
                  "restore_level dimension mismatch");
    // A chunked level is copied into chunks, so its next merge frees each
    // one as it goes.
    if (i < blocks_.size())
      blocks_[i] = std::move(m);
    else
      chunked(i).level = level_type::chunked(m.view(), kChunkEntries);
  }
  void restore_stats(HierStats st) {
    finish_merge();
    GBX_CHECK_DIM(st.level.size() == num_levels(),
                  "restore_stats level count mismatch");
    stats_ = std::move(st);
  }

 private:
  using add_op = typename matrix_type::add_op;
  using block_ptr = std::shared_ptr<gbx::Dcsr<T>>;
  static constexpr auto kAll = static_cast<std::size_t>(-1);

  /// A chunked level and the share of the level above's entries its last
  /// merge added as new entries (1 before the first): plan_wave's fill
  /// estimate.
  struct Chunked {
    level_type level;
    double fresh = 1.0;
  };

  /// Rows [ka, ka_end) of an old chunk's block `a` and rows [kb, kb_end)
  /// of a block `b` of the level above, all in one row range.
  struct Segment {
    const gbx::Dcsr<T>* a;
    std::size_t ka, ka_end;
    const gbx::Dcsr<T>* b;
    std::size_t kb, kb_end;
  };

  /// One piece of a wave: consecutive segments merged into out[0, used),
  /// or (no segment) old chunk `keep`, which no row of the level above
  /// falls in and which stays as it is.
  struct Piece {
    std::vector<Segment> segs;
    std::size_t keep = 0;
    std::vector<block_ptr> out;
    std::size_t used = 0;
    std::size_t rows = 0;  ///< the rows each chunk is sized for
  };

  /// A merge into chunked level `dst` (0: none). That level holds the
  /// new chunks before slice `next` and the old rows from `next` on
  /// (`inside`: slice `next` is the rest of a chunk the cursor stopped
  /// in); `upper` is the level above from the cursor on (a block level's
  /// block, pinned, or the chunks moved out of a chunked level). A wave
  /// is up to `team` pieces. The planned wave, the first `pieces` of
  /// scratch_.wave, ends at old slice `j` (its rows from `ka` left) and
  /// at the level above's slice `u` (from `kb`). Kept between merges, so
  /// its lists keep their room.
  struct Merge {
    std::size_t dst = 0;
    std::size_t team = 1;
    level_type upper;
    std::size_t before = 0;  ///< dst's entries when the merge began
    std::size_t above = 0;   ///< the level above's entries then
    std::size_t next = 0;
    bool inside = false;
    std::size_t j = 0, ka = 0, u = 0, kb = 0, pieces = 0;
  };

  /// The lists a merge works in, kept between merges: a steady-state
  /// merge allocates nothing. `spares` are released chunks' buffers; a
  /// merge ends keeping at most one wave of them (the team size, plus the
  /// chunk a wave's cut lags behind: the next merge's first wave fills
  /// its chunks before it releases any). A copy of the matrix starts with
  /// empty lists.
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch&) {}
    Scratch& operator=(const Scratch&) { return *this; }

    std::vector<block_ptr> spares;
    std::vector<Piece> wave;
    std::vector<BlockSlice<T>> staged;
  };

  static bool never_yield() { return false; }

  Chunked& chunked(std::size_t i) { return chunked_[i - blocks_.size()]; }
  level_type& bottom() { return chunked_.back().level; }

  /// A_{i+1} += A_i; A_i cleared to an empty hypersparse matrix (with
  /// capacity retained — the fast level stays warm). Into a block level
  /// the fused pipeline sorts, dedups, and merges A_i's pending run
  /// straight into A_{i+1}'s block without materializing an intermediate
  /// Dcsr in A_i. The fold into a chunked level is a wave merge instead
  /// (an empty level takes the level above as it is: a block as
  /// chunk-sized slices, chunks as they are); a merge from level 1, which
  /// stage() appends to, never pauses. Counts the entries each fold
  /// writes into A_{i+1}. Returns false when yield() paused it.
  template <class Yield>
  bool fold(std::size_t i, Yield& yield) {
    const std::size_t entries = level_entries(i);
    if (entries == 0) return true;
    record_fold(i, entries);
    const std::size_t d = i + 1;
    if (d < blocks_.size()) {
      auto& to = blocks_[d];
      // An empty level takes a compressed block as it is, writing nothing.
      const bool writes = !to.empty() || blocks_[i].pending_count() > 0;
      to.fold_from(blocks_[i]);
      if (writes) stats_.level[d].entries_written += to.nvals_bound();
      return true;
    }
    auto& to = chunked(d);
    auto& g = merge_;
    if (i < blocks_.size()) {  // the block, pinned while the merge runs
      const auto v = blocks_[i].view();
      if (to.level.slices().empty()) {
        to.level = level_type::split(v, kChunkEntries);
        blocks_[i].reset();
        return true;
      }
      scratch_.staged.push_back({v, 0, v.storage().nrows_nonempty()});
      g.upper.replace(0, 0, scratch_.staged, [](auto&&) {});
      scratch_.staged.clear();
    } else if (to.level.slices().empty()) {
      std::swap(to.level, chunked(i).level);
      return true;
    } else {
      std::swap(g.upper, chunked(i).level);
    }
    g.dst = d;
    // A level cut under kParallelMergeCutoff merges on this thread, one
    // piece a wave, as a block merge that small does: on every batch,
    // a fork's team costs the other lanes and processes more than it
    // saves. The bottom, uncut, and the levels past it merge in teams.
    g.team = d + 1 == num_levels() ||
                     cuts_.cut(d) >= gbx::detail::kParallelMergeCutoff
                 ? static_cast<std::size_t>(gbx::max_threads())
                 : 1;
    g.before = to.level.nvals();
    g.above = g.upper.nvals();
    g.next = 0;
    g.inside = false;
    // Room up front for the slices the merge can install, so the list
    // does not regrow mid-merge.
    to.level.reserve(2 * to.level.slices().size() +
                     2 * g.above / kChunkEntries + 2);
    return i == 0 ? run_merge(never_yield) : run_merge(yield);
  }

  /// Run the merge in flight wave by wave until the level above is
  /// merged (old chunks past it stay as they are); then keep the share
  /// of its entries that were new for the level's next merge, clear a
  /// block level above, and keep at most one wave of released chunk
  /// buffers. Returns false when yield() paused it.
  template <class Yield>
  bool run_merge(Yield&& yield) {
    auto& g = merge_;
    auto left = [&] { return !g.upper.slices().empty() || g.inside; };
    while (left()) {
      plan_wave(g);
      gbx::parallel_for(g.pieces, g.pieces > 1,
                        [&](std::size_t p0, std::size_t p1) {
                          for (std::size_t p = p0; p < p1; ++p)
                            run_piece(scratch_.wave[p]);
                        });
      install_wave(g);
      if (left() && yield()) return false;
    }
    auto& to = chunked(g.dst);
    to.fresh = static_cast<double>(to.level.nvals() - g.before) /
               static_cast<double>(std::max<std::size_t>(g.above, 1));
    const std::size_t src = g.dst - 1;
    g.dst = 0;
    if (src < blocks_.size()) blocks_[src].clear();  // unpinned by now
    const auto wave = static_cast<std::size_t>(gbx::max_threads()) + 1;
    if (scratch_.spares.size() > wave) scratch_.spares.resize(wave);
    return true;
  }

  /// Cut the next wave from the cursor: up to the merge's team of pieces,
  /// each expected to fill one chunk, counting an entry from above as
  /// the level's `fresh` of a new one where old rows lie and as one past
  /// them (1/32 of the chunk is left as slack unless `fresh` is 1, an
  /// exact bound). A segment ends where an old chunk or a chunk of the
  /// level above does; a piece is cut at an old row, or in the level
  /// above's rows when no old row fits, so the cursor may stop inside a
  /// chunk of either level. An old chunk no row from above falls in is a
  /// piece of its own that keeps it. Each piece takes spares for its
  /// chunks.
  void plan_wave(Merge& g) {
    static const gbx::Dcsr<T> none;
    const auto& cs = chunked(g.dst).level.slices();
    const auto& us = g.upper.slices();
    const std::size_t n = cs.size(), m = us.size();
    const double fresh = chunked(g.dst).fresh;
    // The first of rows [from, to) of block x at or past `row`.
    auto pos = [](const gbx::Dcsr<T>& x, std::size_t from, std::size_t to,
                  gbx::Index row) {
      const auto r = x.rows();
      return static_cast<std::size_t>(
          std::lower_bound(r.begin() + static_cast<std::ptrdiff_t>(from),
                           r.begin() + static_cast<std::ptrdiff_t>(to), row) -
          r.begin());
    };
    // The most rows of block x from k on, up to lim, that hold at most
    // `room` entries (at least one row).
    auto rows_within = [](const gbx::Dcsr<T>& x, std::size_t k,
                          std::size_t lim, double room) {
      const auto p = x.ptr();
      const auto e = std::upper_bound(
          p.begin() + static_cast<std::ptrdiff_t>(k),
          p.begin() + static_cast<std::ptrdiff_t>(lim) + 1,
          p[k] + static_cast<gbx::Offset>(room));
      return std::max(k + 1, static_cast<std::size_t>(e - p.begin()) - 1);
    };
    std::size_t j = g.next, ka = j < n ? cs[j].k0 : 0;
    std::size_t u = 0, kb = m > 0 ? us[0].k0 : 0;
    const std::size_t rest = g.inside ? g.next : n;
    // Step past a slice of either level whose rows are all taken.
    auto settle = [&] {
      if (j < n && ka == cs[j].k1) ka = ++j < n ? cs[j].k0 : 0;
      if (u < m && kb == us[u].k1) kb = ++u < m ? us[u].k0 : 0;
    };
    // Rows from above are left, or the cursor is inside an old chunk.
    auto more = [&] {
      return u < m || (j < n && (j == rest || ka > cs[j].k0));
    };
    auto& wave = scratch_.wave;
    if (wave.size() < g.team) wave.resize(g.team);  // kept: no regrowth
    for (g.pieces = 0; g.pieces < g.team && more(); ++g.pieces) {
      auto& pc = wave[g.pieces];
      pc.segs.clear();
      pc.used = 0;
      auto room = static_cast<double>(
          kChunkEntries - (fresh < 1 ? kChunkEntries / 32 : 0));
      while (room > 0 && more()) {
        if (j == n) {  // the level above's rows past the last old row
          const auto& b = us[u].block();
          const std::size_t kb1 = rows_within(b, kb, us[u].k1, room);
          const auto cost = static_cast<double>(b.ptr()[kb1] - b.ptr()[kb]);
          if (!pc.segs.empty() && cost > room)
            break;  // its first row starts the next piece
          pc.segs.push_back({&none, 0, 0, &b, kb, kb1});
          room -= cost;
          const bool ended = kb1 == us[u].k1;
          kb = kb1;
          settle();
          if (!ended) break;
          continue;
        }
        const auto& s = cs[j];
        const auto& a = s.block();
        const auto ap = a.ptr();
        const auto ar = a.rows();
        const auto& b = u < m ? us[u].block() : none;
        const auto bp = b.ptr();
        // The segment's rows end before the next old chunk's first row
        // (past the last: its last row + 1) or the next chunk above's,
        // whichever comes first.
        const gbx::Index lend = j + 1 < n ? cs[j + 1].first_row()
                                          : ar[s.k1 - 1] + 1;
        const gbx::Index end =
            u + 1 < m ? std::min(lend, us[u + 1].first_row()) : lend;
        const std::size_t ae = end == lend ? s.k1 : pos(a, ka, s.k1, end);
        const std::size_t be = u < m ? pos(b, kb, us[u].k1, end) : 0;
        auto cost = [&](std::size_t k, std::size_t kbk) {
          return static_cast<double>(ap[k] - ap[ka]) +
                 fresh * static_cast<double>(bp[kbk] - bp[kb]);
        };
        if (j != rest && ka == s.k0 && end == lend && be == kb) {
          if (pc.segs.empty()) {  // no row from above: keep it
            pc.keep = j;
            ka = s.k1;
            settle();
          }
          break;
        }
        if (cost(ae, be) <= room) {
          room -= cost(ae, be);
          pc.segs.push_back({&a, ka, ae, &b, kb, be});
          ka = ae;
          kb = be;
          settle();
          continue;
        }
        // The most old rows from ka on that fit, with the rows from above
        // before the first row left (a binary search: cost grows with k).
        std::size_t k = ka, hi = ae;
        while (hi - k > 1) {
          const std::size_t mid = k + (hi - k) / 2;
          (cost(mid, pos(b, kb, be, ar[mid])) <= room ? k : hi) = mid;
        }
        const std::size_t kbk = pos(b, kb, be, ar[k]);
        if (k > ka) {
          pc.segs.push_back({&a, ka, k, &b, kb, kbk});
          ka = k;
          kb = kbk;
        } else if (pc.segs.empty() && kbk > kb) {  // rows from above only
          const std::size_t kb1 = rows_within(b, kb, kbk, room);
          pc.segs.push_back({&a, ka, ka, &b, kb, kb1});
          kb = kb1;
        } else if (pc.segs.empty()) {  // one old row past the room
          const std::size_t kb1 = ka + 1 == ae ? be : pos(b, kb, be, ar[ka] + 1);
          pc.segs.push_back({&a, ka, ka + 1, &b, kb, kb1});
          ++ka;
          kb = kb1;
        }
        settle();
        break;
      }
      // The piece's chunks, from the spares first, sized here on the
      // merging thread: a piece allocates only when its output passes
      // them, so the team's threads keep no freed chunk in their own
      // allocator arenas. Each chunk gets room for a full chunk's entries
      // and for the rows a full chunk takes at the piece's rows (of both
      // inputs, an upper bound) per entry it is expected to write, so a
      // buffer refilled at that density does not regrow, and a spare that
      // held sparser rows (another level's chunk) gives that room back.
      double entries = 0;  // as the cut counts them
      std::size_t rows = 0;
      for (const auto& sg : pc.segs) {
        entries += static_cast<double>(sg.a->ptr()[sg.ka_end] -
                                       sg.a->ptr()[sg.ka]) +
                   (sg.a == &none ? 1 : fresh) *
                       static_cast<double>(sg.b->ptr()[sg.kb_end] -
                                           sg.b->ptr()[sg.kb]);
        rows += (sg.ka_end - sg.ka) + (sg.kb_end - sg.kb);
      }
      pc.rows = std::min(
          kChunkEntries,
          static_cast<std::size_t>(static_cast<double>(rows * kChunkEntries) /
                                   std::max(entries, 1.0)) +
              1);
      auto& spares = scratch_.spares;
      for (std::size_t c = 0; static_cast<double>(c * kChunkEntries) < entries;
           ++c) {
        const bool spare = !spares.empty();
        pc.out.push_back(spare ? std::move(spares.back())
                               : std::make_shared<gbx::Dcsr<T>>());
        if (spare) spares.pop_back();
        pc.out.back()->refit(pc.rows, kChunkEntries);
      }
    }
    g.j = j;
    g.ka = ka;
    g.u = u;
    g.kb = kb;
  }

  /// Merge one piece's segments into its chunks, each filled up to
  /// kChunkEntries entries (a fresh buffer only when the output passes
  /// the chunks planned for it). Runs on any thread of the team: it
  /// touches only the piece and the blocks it reads.
  static void run_piece(Piece& pc) {
    gbx::Dcsr<T>* out = nullptr;
    for (const auto& sg : pc.segs) {
      std::size_t ka = sg.ka, kb = sg.kb;
      for (;;) {
        if (!out) {
          if (pc.used == pc.out.size()) {
            pc.out.push_back(std::make_shared<gbx::Dcsr<T>>());
            pc.out.back()->reserve(pc.rows, kChunkEntries);
          }
          out = pc.out[pc.used++].get();
        }
        gbx::BlockMerge<add_op, T> m(*sg.a, ka, sg.ka_end, *sg.b, kb,
                                     sg.kb_end, *out, kChunkEntries);
        m.step(kAll);
        if (!m.full()) break;
        ka = m.ka();
        kb = m.kb();
        out = nullptr;
      }
    }
  }

  /// Put the wave's chunks in place of the old rows they hold: an old
  /// chunk the wave passed leaves the level, and the one it stopped in
  /// keeps its rows from the cursor on; so do the level above's chunks.
  /// A chunk that leaves, and an unused buffer, becomes a spare when
  /// nothing else holds it and it is a chunk's buffer (room for
  /// kChunkEntries entries).
  void install_wave(Merge& g) {
    auto& st = scratch_.staged;
    auto& spares = scratch_.spares;
    auto& level = chunked(g.dst).level;
    auto& written = stats_.level[g.dst].entries_written;
    const auto& cs = level.slices();
    for (auto& pc : std::span(scratch_.wave).first(g.pieces)) {
      if (pc.segs.empty()) st.push_back(cs[pc.keep]);
      for (std::size_t o = 0; o < pc.out.size(); ++o) {
        if (o < pc.used) {
          const std::size_t rows = pc.out[o]->nrows_nonempty();
          written += pc.out[o]->nnz();
          st.push_back(
              {gbx::MatrixView<T>(nrows_, ncols_, pc.out[o]), 0, rows});
        } else {
          spares.push_back(std::move(pc.out[o]));
        }
      }
      pc.out.clear();
    }
    auto release = [&](std::shared_ptr<const gbx::Dcsr<T>> b) {
      if (b->capacity() == kChunkEntries && gbx::sole_owner(b)) {
        auto s = std::const_pointer_cast<gbx::Dcsr<T>>(std::move(b));
        s->clear();
        spares.push_back(std::move(s));
      }
    };
    const std::size_t from = g.next;
    std::size_t to = g.j;
    g.inside = g.j < cs.size() &&
               (g.ka > cs[g.j].k0 || (g.inside && g.j == g.next));
    if (g.inside) st.push_back({cs[to++].view, g.ka, cs[g.j].k1});
    g.next = from + st.size() - (g.inside ? 1 : 0);
    level.replace(from, to, st, release);
    st.clear();
    const auto& us = g.upper.slices();
    to = g.u;
    if (g.u < us.size() && g.kb > us[g.u].k0)
      st.push_back({us[to++].view, g.kb, us[g.u].k1});
    g.upper.replace(0, to, st, release);
    st.clear();
  }

  /// Demote the bottom into a new run, written from its chunks in place;
  /// a throw leaves the bottom in place.
  bool demote_bottom() {
    if (!tier_->demote(bottom().ranges())) return false;
    bottom() = level_type();
    return true;
  }

  /// Fold from level `from` down while a level exceeds its cut.
  template <class Yield>
  bool fold_down(std::size_t from, Yield& yield) {
    for (std::size_t i = from; i + 1 < num_levels(); ++i) {
      if (level_entries(i) <= cuts_.cut(i)) break;
      if (!fold(i, yield)) return false;
    }
    return true;
  }

  /// Run the merge in flight to its end, then the folds below the level
  /// it merged into (the rest of the cascade it paused).
  template <class Yield>
  bool finish_merge(Yield&& yield) {
    if (!merging()) return true;
    const std::size_t d = merge_.dst;
    return run_merge(yield) && fold_down(d, yield);
  }
  void finish_merge() { finish_merge(never_yield); }

  void record_fold(std::size_t i, std::size_t entries) {
    auto& ls = stats_.level[i];
    ++ls.folds;
    ls.entries_folded += entries;
    ls.max_entries = std::max<std::uint64_t>(ls.max_entries, entries);
  }

  gbx::Index nrows_;
  gbx::Index ncols_;
  CutPolicy cuts_;
  std::vector<matrix_type> blocks_;  ///< the block levels, level 0 first
  std::vector<Chunked> chunked_;     ///< the chunked levels, the bottom last
  Merge merge_;
  Scratch scratch_;
  // shared_ptr keeps HierMatrix copyable (copies share the tier; attach
  // one tier per logically distinct matrix, as enable_demotion's
  // lifetime contract implies).
  std::shared_ptr<DemotedTier<T, AddMonoid>> tier_;
  mutable HierStats stats_;
};

}  // namespace hier
