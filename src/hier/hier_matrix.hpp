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
// The bottom is a row-ordered list of row-disjoint chunks of at most
// kChunkEntries entries (a hier::Level), from construction on. A fold
// into it is a wave merge. From its cursor the merge cuts pieces, each
// the bottom's rows and the level above's rows in one row range, sized
// to fill one chunk; each wave runs up to gbx::max_threads() pieces
// through gbx::parallel_for, each filling chunk buffers with
// gbx::BlockMerge's range form. After a wave its chunks replace the old
// rows they hold; an old chunk the cursor passed leaves the bottom, and
// its buffers hold the next wave's chunks when nothing else holds them
// (gbx::sole_owner), so the transient is one wave of chunks, not a
// second bottom. cascade(yield) asks yield() between waves; a paused
// merge's image is the new chunks, the old rows not yet merged and the
// level above from its cursor on, so stage() and freeze() work and a
// ParallelStream lane serves freezes between waves. With a team of one
// every wave is one piece: the serial merge.
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

  /// Entries a chunk of the bottom holds at most (unless it is one row).
  static constexpr std::size_t kChunkEntries = std::size_t{1} << 16;

  HierMatrix(gbx::Index nrows, gbx::Index ncols, CutPolicy cuts)
      : nrows_(nrows), ncols_(ncols), cuts_(std::move(cuts)) {
    levels_.reserve(cuts_.levels() - 1);
    for (std::size_t i = 0; i + 1 < cuts_.levels(); ++i)
      levels_.emplace_back(nrows_, ncols_);
    stats_.level.resize(cuts_.levels());
  }

  gbx::Index nrows() const { return nrows_; }
  gbx::Index ncols() const { return ncols_; }
  std::size_t num_levels() const { return levels_.size() + 1; }
  const CutPolicy& cut_policy() const { return cuts_; }

  /// True while a bottom merge is in flight (cascade(yield) paused it);
  /// the next cascade() resumes it.
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
    return i == levels_.size() ? bottom_.nvals() : levels_[i].nvals_bound();
  }

  /// Heap bytes across all levels and chunks, and the released chunk
  /// buffers of a bottom merge in flight (resident only — demoted
  /// runs live in the block store, counted by store_bytes()). Each
  /// demoted run's row index (8 B per row) stays on the heap and is not
  /// counted: demoting cannot shrink it, so counting it would make every
  /// enforce_residency() call flush and demote once it nears the budget.
  std::size_t memory_bytes() const {
    std::size_t n = bottom_.memory_bytes();
    for (const auto& l : levels_) n += l.memory_bytes();
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
  /// (all levels folded down) followed by a second demotion, which moves
  /// every compressed byte out and leaves only warm-capacity buffers.
  /// Returns the number of demotions performed. No-op without a tier.
  std::size_t enforce_residency(std::size_t budget_bytes) {
    if (!tier_) return 0;
    finish_merge();
    std::size_t demoted = 0;
    if (memory_bytes() > budget_bytes && demote_bottom()) ++demoted;
    if (memory_bytes() > budget_bytes) {
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
  /// level (the bottom's chunk list; the level above a paused merge from
  /// its cursor on), as the one part of a SnapshotSet — the
  /// read surface every source returns. No entry data is copied — views
  /// share the compressed blocks, and copy-on-fold keeps them frozen
  /// while streaming continues. The caller may read the snapshot from
  /// any thread; further update() calls on this matrix must stay on the
  /// owning thread as always.
  SnapshotSet<T, AddMonoid> freeze() const {
    ++stats_.queries;
    std::vector<level_type> lv;
    lv.reserve(num_levels());
    for (const auto& l : levels_) lv.emplace_back(l.view());
    if (merge_)  // a paused merge: the level above from its cursor on
      lv.back() = level_type(gbx::MatrixView<T>(nrows_, ncols_, merge_->upper),
                             merge_->kb);
    lv.push_back(bottom_);
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
  /// emptied levels release their memory too, and the bottom is slices
  /// of the one block, with no spare.
  matrix_type collapse() {
    finish_merge();
    ++stats_.queries;
    // The tier read path's grouping: the demoted runs oldest-first, then
    // the resident bottom (its chunks concatenated), then the levels
    // above it, shallowest first.
    matrix_type top(nrows_, ncols_);
    if (has_demoted()) tier_->view().materialize_into(top);
    bottom_.fold_into(top);
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].empty()) continue;
      record_fold(i, levels_[i].nvals_bound());
      top.fold_from(levels_[i]);
      levels_[i].reset();
    }
    top.materialize();
    top.drop_spare();
    if (has_demoted()) tier_->clear();
    bottom_ = level_type::split(top.view(), kChunkEntries);
    return top;
  }

  /// The second half of update(), the paper's cascade loop: fold while a
  /// level exceeds its cut, then add a level while the bottom passes
  /// next_cut(). Bookkeeping only — it never changes the matrix's value.
  /// A bottom merge asks yield() after each wave and pauses when it
  /// returns true: cascade() then returns false, and the next call
  /// resumes that merge before it folds anything else. The default never
  /// yields.
  template <class Yield>
  bool cascade(Yield&& yield) {
    if (merge_ && !run_merge(yield)) return false;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (levels_[i].nvals_bound() <= cuts_.cut(i)) break;
      if (!fold(i, yield)) return false;
    }
    while (cuts_.next_cut() > 0 && bottom_.nvals() > cuts_.next_cut()) {
      cuts_.grow();
      levels_.emplace_back(nrows_, ncols_);
      stats_.level.emplace(stats_.level.end() - 1);
    }
    return true;
  }

  void cascade() { cascade(never_yield); }

  /// Force the full cascade regardless of thresholds (e.g. before
  /// checkpointing), preserving the level structure.
  void flush() {
    finish_merge();
    for (std::size_t i = 0; i < levels_.size(); ++i) fold(i, never_yield);
  }

  /// Direct (read-only) access to a level above the bottom, for
  /// instrumentation and tests. Throws for the bottom (read
  /// bottom_chunks()) and for the level above a paused bottom merge.
  const matrix_type& level(std::size_t i) const {
    GBX_CHECK_VALUE(i < levels_.size() && !(merge_ && i + 1 == levels_.size()),
                    "level: not one block");
    return levels_[i];
  }

  /// The bottom's chunk list.
  const level_type& bottom_chunks() const { return bottom_; }

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
    // The bottom is copied into chunks, so its next merge frees each one
    // as it goes.
    if (i == levels_.size())
      bottom_ = level_type::chunked(m.view(), kChunkEntries);
    else
      levels_[i] = std::move(m);
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

  /// Rows of one old chunk, [ka, ka_end) of block `a`, and the level
  /// above's rows [kb, kb_end) that fall in their row range.
  struct Segment {
    const gbx::Dcsr<T>* a;
    std::size_t ka, ka_end, kb, kb_end;
  };

  /// One piece of a wave: consecutive segments merged into out[0, used),
  /// or (no segment) old chunk `keep`, which no row of the level above
  /// falls in and which stays as it is.
  struct Piece {
    std::vector<Segment> segs;
    std::size_t keep = 0;
    std::vector<block_ptr> out;
    std::size_t used = 0;
  };

  /// A bottom merge in flight. bottom_ holds the new chunks before slice
  /// `next` and the old rows from `next` on; the level above (`upper`,
  /// pinned) is merged below row position kb. The planned wave, the
  /// first `pieces` of scratch_.wave, ends at old chunk `j` (its rows
  /// from `ka` left) and the level above's row position `jb`.
  struct Merge {
    std::shared_ptr<const gbx::Dcsr<T>> upper;
    std::size_t before;  ///< the bottom's entries when the merge began
    std::size_t next = 0, kb = 0, j = 0, ka = 0, jb = 0, pieces = 0;
  };

  /// The lists a merge works in, kept (empty) between merges: a merge
  /// allocates chunk buffers only. `spares` are released chunks'
  /// buffers, freed when the merge ends (between merges a lane holds its
  /// levels alone). A copy of the matrix starts with empty lists.
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch&) {}
    Scratch& operator=(const Scratch&) { return *this; }

    std::vector<block_ptr> spares;
    std::vector<Piece> wave;
    std::vector<BlockSlice<T>> staged;
  };

  static bool never_yield() { return false; }

  /// A_{i+1} += A_i; A_i cleared to an empty hypersparse matrix (with
  /// capacity retained — the fast level stays warm). The fused pipeline
  /// sorts, dedups, and merges A_i's pending run straight into A_{i+1}'s
  /// block without materializing an intermediate Dcsr in A_i. The fold
  /// into the bottom is a wave merge instead: the level above drops its
  /// spare and is pinned until the merge ends (an empty bottom takes its
  /// block as chunk-sized slices). A merge from level 1, which stage()
  /// appends to, never pauses. Returns false when yield() paused it.
  template <class Yield>
  bool fold(std::size_t i, Yield& yield) {
    auto& lo = levels_[i];
    if (lo.empty()) return true;
    record_fold(i, lo.nvals_bound());
    if (i + 1 < levels_.size()) {
      levels_[i + 1].fold_from(lo);
      return true;
    }
    lo.drop_spare();
    if (bottom_.slices().empty()) {
      bottom_ = level_type::split(lo.view(), kChunkEntries);
      lo.reset();
      return true;
    }
    merge_.emplace(Merge{lo.shared_storage(), bottom_.nvals()});
    // Room up front for the slices the merge can install, so the list
    // does not regrow mid-merge.
    bottom_.reserve(2 * bottom_.slices().size() +
                    2 * lo.nvals_bound() / kChunkEntries + 2);
    return i == 0 ? run_merge(never_yield) : run_merge(yield);
  }

  /// Run the merge in flight wave by wave; reset the level above once
  /// every row is merged, and keep the share of its entries that were
  /// new to the bottom for the next merge's cuts. Returns false when
  /// yield() paused it.
  template <class Yield>
  bool run_merge(Yield&& yield) {
    auto& g = *merge_;
    auto left = [&] {
      return g.next < bottom_.slices().size() ||
             g.kb < g.upper->nrows_nonempty();
    };
    while (left()) {
      plan_wave(g);
      gbx::parallel_for(g.pieces, g.pieces > 1,
                        [&](std::size_t p0, std::size_t p1) {
                          for (std::size_t p = p0; p < p1; ++p)
                            run_piece(*g.upper, scratch_.wave[p]);
                        });
      install_wave(g);
      if (left() && yield()) return false;
    }
    fresh_ = static_cast<double>(bottom_.nvals() - g.before) /
             static_cast<double>(std::max<std::size_t>(g.upper->nnz(), 1));
    scratch_.spares.clear();
    merge_.reset();  // unpin the level above
    levels_.back().reset();
    return true;
  }

  /// Cut the next wave from the cursor: up to the team size of pieces,
  /// each expected to fill one chunk, counting an entry from above as
  /// fresh_ of a new one where old rows lie and as one past them (1/32
  /// of the chunk is left as slack unless fresh_ is 1, an exact bound).
  /// A piece is cut at an old row, or in the level above's rows when no
  /// old row fits; the cursor may stop inside an old chunk. An old chunk
  /// no row from above falls in is a piece of its own that keeps it.
  /// Each piece takes spares for its chunks.
  void plan_wave(Merge& g) {
    static const gbx::Dcsr<T> none;
    const auto& cs = bottom_.slices();
    const std::size_t n = cs.size();
    const auto urows = g.upper->rows();
    const auto uptr = g.upper->ptr();
    const std::size_t nu = urows.size();
    auto upos = [&](std::size_t from, std::size_t to, gbx::Index row) {
      return static_cast<std::size_t>(
          std::lower_bound(urows.begin() + static_cast<std::ptrdiff_t>(from),
                           urows.begin() + static_cast<std::ptrdiff_t>(to),
                           row) -
          urows.begin());
    };
    // The most rows of the level above from kb on, up to lim, that hold
    // at most `room` entries (at least one row).
    auto ucut = [&](std::size_t kb, std::size_t lim, double room) {
      const auto e = std::upper_bound(
          uptr.begin() + static_cast<std::ptrdiff_t>(kb),
          uptr.begin() + static_cast<std::ptrdiff_t>(lim) + 1,
          uptr[kb] + static_cast<gbx::Offset>(room));
      return std::max(kb + 1, static_cast<std::size_t>(e - uptr.begin()) - 1);
    };
    std::size_t j = g.next, ka = j < n ? cs[j].k0 : 0, kb = g.kb;
    auto& wave = scratch_.wave;
    const auto team = static_cast<std::size_t>(gbx::max_threads());
    if (wave.size() < team) wave.resize(team);  // kept: no regrowth
    for (g.pieces = 0; g.pieces < team && (j < n || kb < nu); ++g.pieces) {
      auto& pc = wave[g.pieces];
      pc.segs.clear();
      pc.used = 0;
      auto room = static_cast<double>(
          kChunkEntries - (fresh_ < 1 ? kChunkEntries / 32 : 0));
      while (room > 0 && (j < n || kb < nu)) {
        if (j == n) {  // the level above's rows past the last old row
          const std::size_t kb1 = ucut(kb, nu, room);
          if (!pc.segs.empty() &&
              static_cast<double>(uptr[kb1] - uptr[kb]) > room)
            break;  // its first row starts the next piece
          pc.segs.push_back({&none, 0, 0, kb, kb1});
          kb = kb1;
          break;
        }
        const auto& s = cs[j];
        const auto ap = s.block().ptr();
        const auto ar = s.block().rows();
        // The level above's rows before the next old chunk (or its end).
        const std::size_t ub = upos(
            kb, nu, j + 1 < n ? cs[j + 1].first_row() : ar[s.k1 - 1] + 1);
        auto cost = [&](std::size_t k, std::size_t kbk) {
          return static_cast<double>(ap[k] - ap[ka]) +
                 fresh_ * static_cast<double>(uptr[kbk] - uptr[kb]);
        };
        auto advance = [&] {
          kb = ub;
          ka = ++j < n ? cs[j].k0 : 0;
        };
        if (ka == s.k0 && kb == ub) {  // no row from above: keep it
          if (pc.segs.empty()) {
            pc.keep = j;
            advance();
          }
          break;
        }
        if (cost(s.k1, ub) <= room) {
          room -= cost(s.k1, ub);
          pc.segs.push_back({&s.block(), ka, s.k1, kb, ub});
          advance();
          continue;
        }
        // The most old rows from ka on that fit, with the rows from above
        // before the first row left (a binary search: cost grows with k).
        std::size_t k = ka, hi = s.k1;
        while (hi - k > 1) {
          const std::size_t mid = k + (hi - k) / 2;
          (cost(mid, upos(kb, ub, ar[mid])) <= room ? k : hi) = mid;
        }
        const std::size_t kbk = upos(kb, ub, ar[k]);
        if (k > ka) {
          pc.segs.push_back({&s.block(), ka, k, kb, kbk});
          ka = k;
          kb = kbk;
        } else if (pc.segs.empty() && kbk > kb) {  // rows from above only
          const std::size_t kb1 = ucut(kb, kbk, room);
          pc.segs.push_back({&s.block(), ka, ka, kb, kb1});
          kb = kb1;
        } else if (pc.segs.empty()) {  // one old row past the room
          const std::size_t kb1 =
              ka + 1 == s.k1 ? ub : upos(kb, ub, ar[ka] + 1);
          pc.segs.push_back({&s.block(), ka, ka + 1, kb, kb1});
          if (ka + 1 == s.k1) {
            advance();
          } else {
            ++ka;
            kb = kb1;
          }
        }
        break;
      }
      // The piece's chunks, from the spares first, sized here on the
      // merging thread for the rows and entries the piece can write: a
      // piece allocates only when its output passes them, so the team's
      // threads keep no freed chunk in their own allocator arenas.
      double entries = 0;  // as the cut counts them
      std::size_t rows = 0;
      for (const auto& sg : pc.segs) {
        entries += static_cast<double>(sg.a->ptr()[sg.ka_end] -
                                       sg.a->ptr()[sg.ka]) +
                   (sg.a == &none ? 1 : fresh_) *
                       static_cast<double>(uptr[sg.kb_end] - uptr[sg.kb]);
        rows += (sg.ka_end - sg.ka) + (sg.kb_end - sg.kb);
      }
      auto& spares = scratch_.spares;
      for (std::size_t c = 0; static_cast<double>(c * kChunkEntries) < entries;
           ++c) {
        const bool spare = !spares.empty();
        pc.out.push_back(spare ? std::move(spares.back())
                               : std::make_shared<gbx::Dcsr<T>>());
        if (spare) spares.pop_back();
        pc.out.back()->reserve(std::min(rows, kChunkEntries), kChunkEntries);
      }
    }
    g.j = j;
    g.ka = ka;
    g.jb = kb;
  }

  /// Merge one piece's segments into its chunks, each filled up to
  /// kChunkEntries entries (a fresh buffer only when the output passes
  /// the chunks planned for it). Runs on any thread of the team: it
  /// touches only the piece and the blocks it reads.
  static void run_piece(const gbx::Dcsr<T>& upper, Piece& pc) {
    gbx::Dcsr<T>* out = nullptr;
    for (const auto& sg : pc.segs) {
      std::size_t ka = sg.ka, kb = sg.kb;
      for (;;) {
        if (!out) {
          if (pc.used == pc.out.size()) {
            pc.out.push_back(std::make_shared<gbx::Dcsr<T>>());
            pc.out.back()->reserve(0, kChunkEntries);
          }
          out = pc.out[pc.used++].get();
        }
        gbx::BlockMerge<add_op, T> m(*sg.a, ka, sg.ka_end, upper, kb,
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
  /// chunk the wave passed leaves the bottom, and the one it stopped in
  /// keeps its rows from the cursor on. A chunk that leaves, and an
  /// unused buffer, becomes a spare when nothing else holds it and it is
  /// a chunk's buffer (room for kChunkEntries entries).
  void install_wave(Merge& g) {
    auto& st = scratch_.staged;
    auto& spares = scratch_.spares;
    const auto& cs = bottom_.slices();
    for (auto& pc : std::span(scratch_.wave).first(g.pieces)) {
      if (pc.segs.empty()) st.push_back(cs[pc.keep]);
      for (std::size_t o = 0; o < pc.out.size(); ++o) {
        if (o < pc.used) {
          const std::size_t rows = pc.out[o]->nrows_nonempty();
          st.push_back(
              {gbx::MatrixView<T>(nrows_, ncols_, pc.out[o]), 0, rows});
        } else {
          spares.push_back(std::move(pc.out[o]));
        }
      }
      pc.out.clear();
    }
    const std::size_t from = g.next;
    std::size_t to = g.j;
    const bool inside = g.j < cs.size() && g.ka > cs[g.j].k0;
    if (inside) st.push_back({cs[to++].view, g.ka, cs[g.j].k1});
    g.next = from + st.size() - (inside ? 1 : 0);
    g.kb = g.jb;
    bottom_.replace(from, to, st, [&](std::shared_ptr<const gbx::Dcsr<T>> b) {
      if (b->capacity() == kChunkEntries && gbx::sole_owner(b)) {
        auto s = std::const_pointer_cast<gbx::Dcsr<T>>(std::move(b));
        s->clear();
        spares.push_back(std::move(s));
      }
    });
    st.clear();
  }

  /// Demote the bottom into a new run, written from its chunks in place;
  /// a throw leaves the bottom in place.
  bool demote_bottom() {
    if (!tier_->demote(bottom_.ranges())) return false;
    bottom_ = level_type();
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
  std::vector<matrix_type> levels_;  ///< the levels above the bottom
  level_type bottom_;
  std::optional<Merge> merge_;
  Scratch scratch_;
  /// The share of the level above's entries the last bottom merge added
  /// as new entries (1 before the first): plan_wave's fill estimate.
  double fresh_ = 1.0;
  // shared_ptr keeps HierMatrix copyable (copies share the tier; attach
  // one tier per logically distinct matrix, as enable_demotion's
  // lifetime contract implies).
  std::shared_ptr<DemotedTier<T, AddMonoid>> tier_;
  mutable HierStats stats_;
};

}  // namespace hier
