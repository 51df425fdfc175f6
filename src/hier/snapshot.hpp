// hier/snapshot.hpp — epoch-based consistent read snapshots.
//
// The paper completes "all pending updates for analysis" by summing the
// layers: A = Σ Ai. The seed implementation could only do that on a
// quiesced matrix — every reader had to drain the stream first. This
// header is the concurrent answer: a snapshot is a set of *immutable
// per-level views* (gbx::MatrixView) published at a batch boundary,
// stamped with the epoch (number of updates applied) it represents.
// Copy-on-fold in gbx::Matrix guarantees the views never change after
// publication, so analytics run on them while ingest keeps streaming —
// the same immutable-version discipline as an MVCC storage engine.
//
// A level is a hier::Level: row-disjoint slices of shared blocks (a
// block and a range of positions in its row index), in row order. The
// levels above the bottom are one whole block each; the bottom is a list
// of chunks (slices of at most HierMatrix::kChunkEntries entries, one
// block each or several slices of one block), and the level above a
// paused bottom merge is its rows from the merge's cursor on. Every read
// of a level goes through Level.
//
// Every source spells the acquisition freeze() and returns a SnapshotSet:
//   * HierMatrix::freeze()     — a one-part set, caller's thread.
//   * ParallelStream::freeze() — one part per lane, each frozen at that
//     lane's next batch boundary, workers never stop (a part's epoch()
//     and entries_appended are the exact submitted-batch prefix the
//     lane contributed). Over an unstarted stream it freezes the
//     quiescent parts directly.
// A single matrix is the one-part case of A = Σ Ai, so SnapshotSet is
// the one read surface; HierSnapshot is the per-matrix image it
// composes. Generic readers (hier::MemoryGovernor,
// analytics::IncrementalEngine) hold a Source* and call freeze() on it;
// the governor's own freeze() returns a handle with the same read
// surface, so they stack.
#pragma once

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gbx/ewise.hpp"
#include "gbx/fold.hpp"
#include "gbx/matrix.hpp"
#include "gbx/monoid.hpp"
#include "gbx/parallel.hpp"
#include "gbx/reduce.hpp"
#include "gbx/serialize.hpp"
#include "gbx/view.hpp"
#include "hier/stats.hpp"
#include "hier/tier.hpp"

namespace hier {

namespace detail {

/// Deduplicate a block-pointer list in place (drop nulls and repeats).
template <class T>
void dedupe_blocks(std::vector<const gbx::Dcsr<T>*>& blocks) {
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  blocks.erase(std::remove(blocks.begin(), blocks.end(), nullptr),
               blocks.end());
}

/// Below this many stored entries (summed over the blocks) the distinct
/// count runs as one chunk on the calling thread: forking a team costs
/// more than the scan it would split.
inline constexpr std::size_t kParallelCountCutoff = std::size_t{1} << 16;

/// Splitter rows the distinct count samples from each range.
inline constexpr std::size_t kSplitsPerRange = 64;

/// One block's row-index range [k, end) inside a count chunk.
template <class T>
struct RowCursor {
  const gbx::Dcsr<T>* blk;
  std::size_t k;
  std::size_t end;
  auto operator<=>(const RowCursor&) const = default;
};

template <class T>
std::span<const gbx::Index> row_segment(const gbx::Dcsr<T>& b,
                                        std::size_t k) {
  return b.cols().subspan(b.ptr()[k], b.ptr()[k + 1] - b.ptr()[k]);
}

/// Write the sorted union of a and b to out (room for |a| + |b|) with
/// the same branch-free walk as gbx::detail::union_count; returns its
/// size.
inline std::size_t union_into(std::span<const gbx::Index> a,
                              std::span<const gbx::Index> b,
                              gbx::Index* out) {
  std::size_t i = 0, j = 0, k = 0;
  while (i < a.size() && j < b.size()) {
    const gbx::Index x = a[i], y = b[j];
    out[k++] = x <= y ? x : y;
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  for (; i < a.size(); ++i) out[k++] = a[i];
  for (; j < b.size(); ++j) out[k++] = b[j];
  return k;
}

/// Distinct coordinates of row ranges open over one stretch of rows.
/// Rows held by one block add their segment length, rows held by two add
/// their two-pointer union count, and rows held by three or more fold
/// their segments pairwise into a reused scratch union.
template <class T>
std::size_t count_open(std::vector<RowCursor<T>>& cs,
                       std::vector<std::size_t>& active,
                       std::vector<gbx::Index>& acc,
                       std::vector<gbx::Index>& tmp) {
  if (cs.empty()) return 0;
  if (cs.size() == 1) {
    const auto& c = cs.front();
    return static_cast<std::size_t>(c.blk->ptr()[c.end] - c.blk->ptr()[c.k]);
  }
  std::size_t n = 0;
  if (cs.size() == 2) {
    // Two-block merge: the quiesced two-lane shape, and two levels.
    auto& [a, ka, ea] = cs[0];
    auto& [b, kb, eb] = cs[1];
    while (ka < ea && kb < eb) {
      const gbx::Index ra = a->rows()[ka], rb = b->rows()[kb];
      if (ra < rb) {
        n += row_segment(*a, ka++).size();
      } else if (rb < ra) {
        n += row_segment(*b, kb++).size();
      } else {
        n += gbx::detail::union_count(row_segment(*a, ka++),
                                      row_segment(*b, kb++));
      }
    }
    return n + static_cast<std::size_t>(a->ptr()[ea] - a->ptr()[ka]) +
           static_cast<std::size_t>(b->ptr()[eb] - b->ptr()[kb]);
  }
  auto first = [&](std::size_t i) { return cs[i].blk->rows()[cs[i].k]; };
  for (;;) {
    bool any = false;
    gbx::Index row = 0;
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (cs[i].k < cs[i].end && (!any || first(i) < row)) {
        row = first(i);
        any = true;
      }
    if (!any) return n;
    active.clear();  // the ranges positioned on the row
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (cs[i].k < cs[i].end && first(i) == row) active.push_back(i);
    auto seg = [&](std::size_t a) {
      return row_segment(*cs[active[a]].blk, cs[active[a]].k);
    };
    const std::size_t na = active.size();
    if (na == 1) {
      n += seg(0).size();
    } else if (na == 2) {
      n += gbx::detail::union_count(seg(0), seg(1));
    } else {
      // Smallest first: the largest segment is only counted, never copied.
      std::sort(active.begin(), active.end(),
                [&](std::size_t x, std::size_t y) {
                  return row_segment(*cs[x].blk, cs[x].k).size() <
                         row_segment(*cs[y].blk, cs[y].k).size();
                });
      acc.assign(seg(0).begin(), seg(0).end());
      for (std::size_t a = 1; a + 1 < na; ++a) {
        tmp.resize(acc.size() + seg(a).size());
        tmp.resize(union_into(acc, seg(a), tmp.data()));
        acc.swap(tmp);
      }
      n += gbx::detail::union_count(acc, seg(na - 1));
    }
    for (const std::size_t i : active) ++cs[i].k;
  }
}

/// Distinct coordinates inside one chunk's row ranges. The chunk is cut
/// at every range's first row, so each stretch between two cuts counts
/// only the ranges open in it (about one slice per level, not every
/// slice), and a stretch two levels share runs the two-block merge.
template <class T>
std::size_t count_chunk(std::vector<RowCursor<T>> cs) {
  std::erase_if(cs, [](const RowCursor<T>& c) { return c.k == c.end; });
  std::vector<std::size_t> active;
  std::vector<gbx::Index> acc, tmp;
  if (cs.size() <= 2) return count_open(cs, active, acc, tmp);
  auto first = [](const RowCursor<T>& c) { return c.blk->rows()[c.k]; };
  std::sort(cs.begin(), cs.end(),
            [&](const auto& x, const auto& y) { return first(x) < first(y); });
  std::size_t next = 0, n = 0;
  std::vector<RowCursor<T>> live, open;  // live: started, not yet done
  while (next < cs.size() || !live.empty()) {
    const gbx::Index from = next < cs.size() ? first(cs[next]) : 0;
    while (next < cs.size() && first(cs[next]) == from)
      live.push_back(cs[next++]);
    // The stretch ends before the next range's first row.
    open.clear();
    for (auto& c : live) {
      std::size_t e = c.end;
      if (next < cs.size()) {
        const auto rows = c.blk->rows();
        e = static_cast<std::size_t>(
            std::lower_bound(rows.begin() + static_cast<std::ptrdiff_t>(c.k),
                             rows.begin() + static_cast<std::ptrdiff_t>(c.end),
                             first(cs[next])) -
            rows.begin());
      }
      if (e > c.k) open.push_back({c.blk, c.k, e});
      c.k = e;
    }
    std::erase_if(live, [](const RowCursor<T>& c) { return c.k == c.end; });
    n += count_open(open, active, acc, tmp);
  }
  return n;
}

/// Exact number of distinct coordinates across a set of frozen row
/// ranges — nothing is materialized. Identical ranges (an aliased block)
/// contribute one copy. The row space is cut into chunks at the
/// gbx::parallel_for ranges over splitter rows sampled from every range
/// (kSplitsPerRange each, so a level held as many row-disjoint slices
/// is cut as evenly as one block); each chunk locates its row range in
/// every range by binary search and counts independently, and the
/// integer per-chunk counts are summed, so the result is exact and
/// independent of the team size. The definition behind
/// SnapshotSet::nvals.
template <class T>
std::size_t count_distinct_coords(std::vector<RowCursor<T>> cs) {
  std::erase_if(cs, [](const RowCursor<T>& c) { return c.k == c.end; });
  std::sort(cs.begin(), cs.end());
  cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
  std::size_t total = 0;
  for (const auto& c : cs)
    total += static_cast<std::size_t>(c.blk->ptr()[c.end] - c.blk->ptr()[c.k]);
  if (cs.size() <= 1) return total;
  if (total < kParallelCountCutoff) return count_chunk(std::move(cs));
  std::vector<gbx::Index> split;
  for (const auto& c : cs) {
    const std::size_t step =
        std::max<std::size_t>(1, (c.end - c.k) / kSplitsPerRange);
    for (std::size_t k = c.k; k < c.end; k += step)
      split.push_back(c.blk->rows()[k]);
  }
  std::sort(split.begin(), split.end());
  split.erase(std::unique(split.begin(), split.end()), split.end());
  // The chunk over splitter range [q0, q1) owns rows [split[q0],
  // split[q1]), with the first and last chunks open-ended; a row equal
  // to a splitter lands at the start of the same chunk in every range.
  auto bound = [&](const RowCursor<T>& c, std::size_t q) {
    if (q == 0) return c.k;
    if (q == split.size()) return c.end;
    const auto rows = c.blk->rows();
    return static_cast<std::size_t>(
        std::lower_bound(rows.begin() + static_cast<std::ptrdiff_t>(c.k),
                         rows.begin() + static_cast<std::ptrdiff_t>(c.end),
                         split[q]) -
        rows.begin());
  };
  std::atomic<std::size_t> n{0};
  gbx::parallel_for(
      split.size(), true,
      [&](std::size_t q0, std::size_t q1) {
        std::vector<RowCursor<T>> chunk;
        chunk.reserve(cs.size());
        for (const auto& c : cs)
          chunk.push_back({c.blk, bound(c, q0), bound(c, q1)});
        n.fetch_add(count_chunk(std::move(chunk)), std::memory_order_relaxed);
      });
  return n;
}

}  // namespace detail

/// The rows at positions [k0, k1) of a shared block.
template <class T>
struct BlockSlice {
  gbx::MatrixView<T> view;
  std::size_t k0 = 0;
  std::size_t k1 = 0;

  const gbx::Dcsr<T>& block() const { return view.storage(); }
  gbx::Index first_row() const { return block().rows()[k0]; }
  std::size_t nvals() const {
    return static_cast<std::size_t>(block().ptr()[k1] - block().ptr()[k0]);
  }
  bool whole() const { return k0 == 0 && k1 == block().nrows_nonempty(); }
  bool operator==(const BlockSlice& o) const {
    return view.shared_storage() == o.view.shared_storage() && k0 == o.k0 &&
           k1 == o.k1;
  }
};

template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class Level {
 public:
  using matrix_type = gbx::Matrix<T, AddMonoid>;
  using block_ptr = std::shared_ptr<const gbx::Dcsr<T>>;

  Level() = default;

  /// The rows [k0, k1) of v's block, by default all of them (a view is
  /// a one-block level). A whole empty block is kept (its capacity is
  /// heap the level holds); an empty range of other rows is no slice.
  Level(gbx::MatrixView<T> v, std::size_t k0 = 0,  // NOLINT(*-explicit-*)
        std::size_t k1 = static_cast<std::size_t>(-1)) {
    k1 = std::min(k1, v.storage().nrows_nonempty());
    if (k0 < k1 || v.empty()) slices_.push_back({std::move(v), k0, k1});
  }

  const std::vector<BlockSlice<T>>& slices() const { return slices_; }

  std::size_t nvals() const {
    std::size_t n = 0;
    for (const auto& s : slices_) n += s.nvals();
    return n;
  }

  /// The level as one block; throws for a chunk list, a partial slice or
  /// no slice at all.
  const gbx::MatrixView<T>& block() const {
    GBX_CHECK_VALUE(slices_.size() == 1 && slices_[0].whole(),
                    "level: not one whole block (read it through Level)");
    return slices_[0].view;
  }

  std::optional<T> get(gbx::Index i, gbx::Index j) const {
    auto it = slices_.begin();
    if (slices_.size() > 1) {  // the last slice starting at or below row i
      it = std::upper_bound(slices_.begin(), slices_.end(), i,
                            [](gbx::Index r, const BlockSlice<T>& s) {
                              return r < s.first_row();
                            });
      if (it == slices_.begin()) return std::nullopt;
      --it;
    }
    if (it == slices_.end() || it->k0 == it->k1 || i < it->first_row() ||
        i > it->block().rows()[it->k1 - 1])
      return std::nullopt;  // a row outside the slice's range
    return it->block().get(i, j);
  }

  T reduce() const {
    auto acc = AddMonoid::identity();
    for (const auto& s : slices_)
      acc = AddMonoid::apply(acc, gbx::detail::reduce_scalar_dcsr<AddMonoid>(
                                      s.block(), s.k0, s.k1));
    return acc;
  }

  /// The level as one block: a whole block as is, slices concatenated in
  /// O(entries) (they are row-disjoint and in row order: nothing merges).
  block_ptr joined() const {
    if (slices_.size() == 1 && slices_[0].whole())
      return slices_[0].view.shared_storage();
    std::size_t rows = 0;
    for (const auto& s : slices_) rows += s.k1 - s.k0;
    auto out = std::make_shared<gbx::Dcsr<T>>();
    out->prepare(rows, nvals());
    out->clear();  // capacity kept: the appends below never reallocate
    for (const auto& s : slices_)
      gbx::BlockMerge<typename AddMonoid::op_type, T>(s.block(), s.k0, s.k1,
                                                      none(), 0, 0, *out, kAll)
          .step(kAll);
    return out;
  }

  /// The slices as row ranges of their blocks (what the serializer and
  /// the demoted tier write from in place).
  std::vector<gbx::detail::RowRange<T>> ranges() const {
    std::vector<gbx::detail::RowRange<T>> rs;
    rs.reserve(slices_.size());
    for (const auto& s : slices_) rs.push_back({&s.block(), s.k0, s.k1});
    return rs;
  }

  /// Write the level as one gbx::serialize matrix of the given dims,
  /// from its blocks in place (the bytes of serializing joined()).
  void serialize(std::ostream& os, gbx::Index nrows, gbx::Index ncols) const {
    gbx::detail::serialize_ranges<T>(os, nrows, ncols, ranges());
  }

  /// v's rows as slices of its block of at most `cap` entries each (a
  /// longer row is a slice of its own); nothing is copied.
  static Level split(const gbx::MatrixView<T>& v, std::size_t cap) {
    Level out;
    const auto ptr = v.storage().ptr();
    const std::size_t rows = v.storage().nrows_nonempty();
    for (std::size_t k0 = 0; k0 < rows;) {
      // The most rows from k0 on that hold at most cap entries (one or more).
      const auto end = std::upper_bound(
          ptr.begin() + static_cast<std::ptrdiff_t>(k0), ptr.end(),
          ptr[k0] + cap);
      const auto k1 = std::max<std::size_t>(
          k0 + 1, static_cast<std::size_t>(end - ptr.begin()) - 1);
      out.slices_.push_back({v, k0, k1});
      k0 = k1;
    }
    return out;
  }

  /// split(v, cap) with each slice copied into a block of its own with
  /// room for `cap` entries: a restored bottom's chunks.
  static Level chunked(const gbx::MatrixView<T>& v, std::size_t cap) {
    Level out = split(v, cap);
    for (auto& s : out.slices_) {
      auto c = std::make_shared<gbx::Dcsr<T>>();
      c->reserve(s.k1 - s.k0, cap);
      gbx::BlockMerge<typename AddMonoid::op_type, T>(s.block(), s.k0, s.k1,
                                                      none(), 0, 0, *c, kAll)
          .step(kAll);
      const std::size_t rows = c->nrows_nonempty();
      s = {gbx::MatrixView<T>(v.nrows(), v.ncols(), std::move(c)), 0, rows};
    }
    return out;
  }

  /// acc ⊕= this level: a whole block through plus_assign (an empty acc
  /// aliases it), slices in one pass over acc's block, never joined.
  void fold_into(matrix_type& acc) const {
    if (slices_.size() == 1 && slices_[0].whole())
      acc.plus_assign(slices_[0].view);
    else if (!slices_.empty())
      acc.plus_assign(std::span<const gbx::detail::RowRange<T>>(ranges()));
  }

  /// Replace the slices [from, to) with `with` (moved from). release(
  /// block_ptr) takes the block of each slice that leaves, the level's
  /// reference already dropped (`with` may still hold it).
  template <class Release>
  void replace(std::size_t from, std::size_t to,
               std::vector<BlockSlice<T>>& with, Release&& release) {
    for (std::size_t i = from; i < to; ++i) {
      block_ptr gone = std::exchange(slices_[i], {}).view.shared_storage();
      release(std::move(gone));  // the slice's reference is gone by now
    }
    const auto first = slices_.begin() + static_cast<std::ptrdiff_t>(from);
    slices_.insert(
        slices_.erase(first, first + static_cast<std::ptrdiff_t>(to - from)),
        std::make_move_iterator(with.begin()),
        std::make_move_iterator(with.end()));
  }

  /// Room for `n` slices: replace() never reallocates the list below it.
  void reserve(std::size_t n) { slices_.reserve(n); }

  /// The slices of `a` that `b` does not hold (snapshot_diff compares
  /// only these).
  static Level unshared(const Level& a, const Level& b) {
    Level out;
    for (const auto& s : a.slices_)
      if (std::find(b.slices_.begin(), b.slices_.end(), s) == b.slices_.end())
        out.slices_.push_back(s);
    return out;
  }

  /// Heap bytes of the level's blocks, a block that several slices in a
  /// row share counted once.
  std::size_t memory_bytes() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < slices_.size(); ++i)
      if (i == 0 || &slices_[i].block() != &slices_[i - 1].block())
        n += slices_[i].view.memory_bytes();
    return n;
  }

  void collect_blocks(std::vector<const gbx::Dcsr<T>*>& out) const {
    for (const auto& s : slices_)
      if (s.view.shared_storage()) out.push_back(s.view.shared_storage().get());
  }

 private:
  static constexpr auto kAll = static_cast<std::size_t>(-1);
  static const gbx::Dcsr<T>& none() {
    static const gbx::Dcsr<T> b;
    return b;
  }

  std::vector<BlockSlice<T>> slices_;
};

/// A consistent frozen image of one hierarchical matrix: one immutable
/// hier::Level per level (a list of row-disjoint block slices: one whole
/// block, the bottom's chunks, or the rows a paused merge has not
/// reached) plus the cut schedule, statistics and epoch at the freeze
/// point — one part of a SnapshotSet, which owns the reads of
/// Σ Ai. All of it is safe to read concurrently with further streaming
/// into the source matrix.
template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class HierSnapshot {
 public:
  using value_type = T;
  using matrix_type = gbx::Matrix<T, AddMonoid>;

  using level_type = Level<T, AddMonoid>;

  HierSnapshot() = default;

  /// `tier` (default: none) is the frozen image of the source's demoted
  /// runs; all read paths fold it between the upper levels and the
  /// resident bottom — see the canonical-order note on fold_element_into.
  HierSnapshot(gbx::Index nrows, gbx::Index ncols,
               std::vector<level_type> levels, std::vector<std::size_t> cuts,
               HierStats stats, std::uint64_t epoch,
               TierView<T, AddMonoid> tier = {})
      : nrows_(nrows),
        ncols_(ncols),
        levels_(std::move(levels)),
        cuts_(std::move(cuts)),
        stats_(std::move(stats)),
        epoch_(epoch),
        tier_(std::move(tier)) {}

  gbx::Index nrows() const { return nrows_; }
  gbx::Index ncols() const { return ncols_; }
  std::size_t num_levels() const { return levels_.size(); }

  /// Level i as one block; throws unless it is one whole block (a bottom
  /// of several chunks, or the level above a paused merge).
  const gbx::MatrixView<T>& level(std::size_t i) const {
    return levels_[i].block();
  }
  /// Level i as the list of slices it is.
  const level_type& level_slices(std::size_t i) const { return levels_[i]; }

  /// Number of update() calls the frozen image contains — the snapshot's
  /// position in the source's update sequence.
  std::uint64_t epoch() const { return epoch_; }

  const std::vector<std::size_t>& cuts() const { return cuts_; }
  const HierStats& stats() const { return stats_; }

  /// True when this image carries demoted (out-of-core) runs.
  bool has_demoted() const { return tier_.demoted(); }

  /// The frozen demoted-run image (absent unless the source demoted).
  const TierView<T, AddMonoid>& tier_view() const { return tier_; }

  /// Sum of per-level entry counts (coordinates living in several levels
  /// counted once per level) — the bound cut thresholds act on. Demoted
  /// runs count like levels: once per run.
  std::size_t nvals_bound() const {
    std::size_t n = static_cast<std::size_t>(tier_.entries_bound());
    for (const auto& l : levels_) n += l.nvals();
    return n;
  }

  /// Continue a flat left fold of acc across THIS image's contributions
  /// in canonical order: upper levels shallowest-first, then the demoted
  /// runs oldest-first, then the resident bottom. The set's
  /// extract_element keeps one flat chain across parts with it, to stay
  /// bit-identical with to_matrix's plus_assign order.
  void fold_element_into(std::optional<T>& acc, gbx::Index i,
                         gbx::Index j) const {
    auto fold = [&acc](std::optional<T> x) {
      if (!x) return;
      acc = acc ? std::optional<T>(AddMonoid::apply(*acc, *x)) : x;
    };
    const std::size_t nl = levels_.size();
    for (std::size_t l = 0; l + 1 < nl; ++l) fold(levels_[l].get(i, j));
    if (tier_.demoted()) fold(tier_.extract(i, j));
    if (nl > 0) fold(levels_[nl - 1].get(i, j));
  }

  /// Fold every value of Σ Ai into one scalar with the snapshot's own
  /// monoid, without ever materializing the sum: reduce each frozen
  /// level, then combine the per-level results. This is only valid for
  /// the fold monoid itself — a coordinate split across levels holds
  /// partial values that AddMonoid recombines transparently here; any
  /// other reduction monoid would see the partials, so for those
  /// materialize first (reduce_scalar over SnapshotSet::to_matrix()).
  T reduce() const {
    auto acc = AddMonoid::identity();
    const std::size_t nl = levels_.size();
    for (std::size_t l = 0; l + 1 < nl; ++l)
      acc = AddMonoid::apply(acc, levels_[l].reduce());
    tier_.for_each_block([&acc](const matrix_type& m) {
      acc = AddMonoid::apply(acc, gbx::reduce_scalar<AddMonoid>(m.view()));
    });
    if (nl > 0) acc = AddMonoid::apply(acc, levels_[nl - 1].reduce());
    return acc;
  }

  /// acc ⊕= this image in canonical order (the plus_assign twin of
  /// fold_element_into; SnapshotSet::to_matrix folds every part with it).
  void fold_into(matrix_type& acc) const {
    const std::size_t nl = levels_.size();
    for (std::size_t l = 0; l + 1 < nl; ++l) levels_[l].fold_into(acc);
    tier_.materialize_into(acc);
    if (nl > 0) levels_[nl - 1].fold_into(acc);
  }

  /// Append this snapshot's raw block pointers (for identity-based
  /// accounting across snapshots/parts; nulls from empty views skipped).
  /// Resident blocks only — identity accounting is about heap sharing,
  /// which demoted runs do not participate in.
  void collect_blocks(std::vector<const gbx::Dcsr<T>*>& out) const {
    for (const auto& l : levels_) l.collect_blocks(out);
  }

  /// Every level's row ranges PLUS transiently decoded demoted segments,
  /// for the distinct-coordinate merge count (SnapshotSet::nvals).
  /// `keepalive` owns the decoded blocks for as long as the cursors in
  /// `out` are used.
  void collect_count_ranges(
      std::vector<detail::RowCursor<T>>& out,
      std::vector<std::shared_ptr<const gbx::Dcsr<T>>>& keepalive) const {
    for (const auto& l : levels_)
      for (const auto& s : l.slices()) out.push_back({&s.block(), s.k0, s.k1});
    tier_.for_each_block([&](const matrix_type& m) {
      keepalive.push_back(m.shared_storage());
      out.push_back({keepalive.back().get(), 0, m.storage().nrows_nonempty()});
    });
  }

 private:
  gbx::Index nrows_ = 0;
  gbx::Index ncols_ = 0;
  std::vector<level_type> levels_;
  std::vector<std::size_t> cuts_;
  HierStats stats_;
  std::uint64_t epoch_ = 0;
  TierView<T, AddMonoid> tier_;
};

/// The read surface of A = Σ Ai over one or more independent
/// hierarchical matrices: one HierSnapshot per part. HierMatrix::freeze()
/// returns one part; ParallelStream::freeze() one per lane (or per
/// row-split InstanceArray part, frozen through an unstarted stream).
/// A part's epoch() and stats().entries_appended say which prefix of
/// its submitted batches it holds.
template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class SnapshotSet {
 public:
  using value_type = T;
  using part_type = HierSnapshot<T, AddMonoid>;
  using matrix_type = gbx::Matrix<T, AddMonoid>;

  SnapshotSet() = default;

  explicit SnapshotSet(std::vector<part_type> parts)
      : parts_(std::move(parts)) {}

  std::size_t size() const { return parts_.size(); }
  const part_type& part(std::size_t p) const { return parts_[p]; }

  /// Source-wide epoch: the sum of the parts' epochs, i.e. every update
  /// batch any part applied before the freeze. A batch split across k
  /// parts counts k times.
  std::uint64_t epoch() const {
    std::uint64_t n = 0;
    for (const auto& p : parts_) n += p.epoch();
    return n;
  }
  std::uint64_t total_entries() const {
    std::uint64_t n = 0;
    for (const auto& p : parts_) n += p.stats().entries_appended;
    return n;
  }

  /// Entry lookup across every part and level, duplicates combined with
  /// the fold monoid in part-major order — the exact per-coordinate
  /// combination order of to_matrix(), so the two read paths agree
  /// bit-for-bit (delta extraction relies on this).
  std::optional<T> extract_element(gbx::Index i, gbx::Index j) const {
    std::optional<T> acc;
    // One flat fold chain across all parts (each part continues it in
    // its own canonical level/tier order) — pre-folding per part would
    // re-associate the chain and break bit-identity with to_matrix().
    for (const auto& p : parts_) p.fold_element_into(acc, i, j);
    return acc;
  }

  /// Exact number of distinct coordinates of the whole union
  /// Σ_p Σ_i A_{p,i}, counted by the row-chunked merge count
  /// (detail::count_distinct_coords) over every part's frozen blocks at
  /// once: coordinates shared between levels or parts (overlapping
  /// ParallelStream lanes) are counted once, and nothing is materialized.
  /// Demoted segments are decoded transiently into the count.
  std::size_t nvals() const {
    std::vector<detail::RowCursor<T>> ranges;
    std::vector<std::shared_ptr<const gbx::Dcsr<T>>> keepalive;
    for (const auto& p : parts_) p.collect_count_ranges(ranges, keepalive);
    return detail::count_distinct_coords(std::move(ranges));
  }

  /// Fold all parts' values into one scalar with the fold monoid (no
  /// materialization; same partial-value caveat as HierSnapshot::reduce).
  /// Each part's reduce starts from the identity, so one part's value
  /// passes through unchanged.
  T reduce() const {
    auto acc = AddMonoid::identity();
    for (const auto& p : parts_) acc = AddMonoid::apply(acc, p.reduce());
    return acc;
  }

  /// Materialize the union Σ_p Σ_i A_{p,i} as one matrix. This is the
  /// bridge to every algo/ and analytics/ kernel: the result is an
  /// ordinary gbx::Matrix, detached from the streaming source (demoted
  /// runs are read back through the checksummed store).
  matrix_type to_matrix() const {
    GBX_CHECK_VALUE(!parts_.empty(), "to_matrix on an empty snapshot set");
    matrix_type acc(parts_.front().nrows(), parts_.front().ncols());
    for (const auto& p : parts_) p.fold_into(acc);
    return acc;
  }

  /// Materialize-and-release (the hier::MemoryGovernor eviction step):
  /// the exact Σ_p Σ_i image is folded ONCE into a privately-owned block
  /// held by part 0, and every other part becomes an empty shell that
  /// keeps its cuts/stats/epoch, so dropping the original releases every
  /// shared-block pin (and every demoted-run store pin) it held. Reads
  /// stay bit-identical by construction — to_matrix() IS the definition
  /// of the logical value, and the part-major extract_element over
  /// [compact, empty, ...] reads that block verbatim — whether the parts
  /// overlap (round-robin lanes) or are coordinate-disjoint (row-split
  /// parts). reduce() afterwards folds the compact block in coordinate
  /// order, which for float folds may differ in final ulps from the
  /// levelwise reduce(), as the two read paths always could. Each
  /// part's epoch and stats, and with them the set epoch, survive.
  SnapshotSet compacted() const {
    if (parts_.empty()) return *this;
    matrix_type m = to_matrix();
    // Single-non-empty-level sets alias the block through plus_assign;
    // the compact image must OWN its block for the pins to really drop.
    if (auto h = m.storage_handle()) {
      std::vector<const gbx::Dcsr<T>*> blocks;
      collect_blocks(blocks);
      for (const auto* b : blocks) {
        if (b == h.get()) {
          m = matrix_type::adopt(m.nrows(), m.ncols(), gbx::Dcsr<T>(*h));
          break;
        }
      }
    }
    std::vector<part_type> parts;
    parts.reserve(parts_.size());
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      std::vector<typename part_type::level_type> lv;
      if (p == 0) lv.emplace_back(m.view());
      parts.push_back(part_type(parts_[p].nrows(), parts_[p].ncols(),
                                std::move(lv), parts_[p].cuts(),
                                parts_[p].stats(), parts_[p].epoch()));
    }
    return SnapshotSet(std::move(parts));
  }

  /// Heap bytes held by the whole set, deduplicated by block identity
  /// across parts AND levels (blocks shared between parts — e.g. after
  /// merge surgery — are counted once). Resident only: demoted runs are
  /// store bytes, not heap. Whether those bytes are an *extra* cost
  /// depends on what newer images still share — see hier::MemoryGovernor
  /// for the pinned-vs-live split.
  std::size_t memory_bytes() const {
    std::vector<const gbx::Dcsr<T>*> blocks;
    collect_blocks(blocks);
    detail::dedupe_blocks(blocks);
    std::size_t n = 0;
    for (const auto* b : blocks) n += b->memory_bytes();
    return n;
  }

  /// Append every part's raw block pointers (identity accounting).
  void collect_blocks(std::vector<const gbx::Dcsr<T>*>& out) const {
    for (const auto& p : parts_) p.collect_blocks(out);
  }

 private:
  std::vector<part_type> parts_;
};

}  // namespace hier
