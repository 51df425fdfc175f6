// hier/tier.hpp — out-of-core demotion of the cold bottom level.
//
// The paper's hierarchy exists so the oldest, largest, coldest level
// can live on slower storage while the small hot levels absorb the
// insert stream. This header is that slow tier: demote() writes the
// resident bottom level's chunks, from their blocks in place, into an
// immutable *run* of serialized row-range segments inside a
// store::BlockStore, and the matrix then releases them — an LSM shape (runs accumulate per demotion,
// compaction merges them) layered over the existing checksummed
// gbx::serialize container, so every demoted byte is end-to-end
// verified on the way back in.
//
// Read model (the bit-exactness contract): the logical bottom level is
// the left fold, in arrival order, of the demoted runs (oldest first)
// followed by the resident bottom. extract/materialize and every
// SnapshotSet read (through its HierSnapshot parts) use that grouping,
// so every read path of a demoted matrix agrees with every other
// bit-for-bit, unconditionally. Against a never-demoted twin, demotion
// splits the per-coordinate fold chain at demote boundaries —
// bit-identical whenever the fold is associative in bits (integer
// plus/min/max, or float over exactly-representable values, the suite's
// discipline): pre-folding a prefix of a fold chain re-associates it.
//
// Concurrency: demote()/compact() follow HierMatrix's owning-thread
// discipline. Readers (snapshots on any thread) hold an immutable
// TierImage published through TierView — runs are refcounted, and a
// run's blocks are erased from the store only when the last image
// referencing it dies (RAII GC), so compaction never pulls blocks out
// from under a concurrent reader. A run indexes its own rows: the
// level's sorted row array, copied once at demote(), plus each
// segment's end position in it — two binary searches resolve a row to
// its block, and a row the run does not hold reads no block. Runs are
// immutable once published, so the index needs no lock; the BlockStore
// is internally locked.
//
// The ingest hot path is untouched: cascade folds never consult the
// tier, and demotion runs only from the caller's explicit demote_now
// and enforce_residency calls.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/serialize.hpp"
#include "gbx/thread_annotations.hpp"
#include "store/block_store.hpp"

namespace hier {

struct DemotionConfig {
  /// Serialized target size of one segment block (a run splits the
  /// level's rows greedily at this granularity, so point probes decode
  /// one segment, not the whole level).
  std::size_t segment_bytes = 256u << 10;

  /// Runs accumulated before compact() merges them into one (the LSM
  /// read-amplification bound).
  std::size_t max_runs = 8;
};

struct TierStats {
  std::uint64_t demotions = 0;
  std::uint64_t compactions = 0;
  std::uint64_t entries_demoted = 0;  ///< entries moved out across demotions
  std::uint64_t bytes_demoted = 0;    ///< serialized bytes written
};

/// One immutable demoted run: the serialized image of the bottom level
/// at one demote(), split into row-range segment blocks. Destroying the
/// last reference erases the blocks from the store (best-effort — a
/// failing store must not turn reader teardown into a crash; leaked
/// blocks are reclaimed by FileBackend::vacuum or store teardown).
struct TierRun {
  explicit TierRun(store::BlockStore* s) : store(s) {}
  TierRun(const TierRun&) = delete;
  TierRun& operator=(const TierRun&) = delete;
  ~TierRun() {
    for (const auto b : blocks) {
      try {
        store->erase(b);
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }
  }

  /// The block of the segment holding `row`, or nullopt when the run
  /// holds no entry in that row (exact: no false positives).
  std::optional<store::BlockId> find(gbx::Index row) const {
    const auto it = std::lower_bound(rows.begin(), rows.end(), row);
    if (it == rows.end() || *it != row) return std::nullopt;
    const auto pos = static_cast<std::size_t>(it - rows.begin());
    const auto seg = std::upper_bound(seg_end.begin(), seg_end.end(), pos);
    return blocks[static_cast<std::size_t>(seg - seg_end.begin())];
  }

  store::BlockStore* store;
  std::vector<store::BlockId> blocks;  ///< segments in ascending row order
  std::vector<gbx::Index> rows;        ///< every row the run holds, ascending
  std::vector<std::size_t> seg_end;    ///< blocks[k] holds rows[.., seg_end[k])
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  ///< serialized payload bytes
};

/// Immutable published state of the tier: the run list, oldest first.
/// Snapshots hold one by shared_ptr; demote/compact swap in a successor
/// without touching it.
struct TierImage {
  std::vector<std::shared_ptr<const TierRun>> runs;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

/// Read-only handle on a tier image — what freeze() embeds in a
/// HierSnapshot. Default-constructed means "no demoted data". All reads
/// decode through the BlockStore's checksummed get(), so torn or
/// corrupted storage throws instead of returning wrong values.
template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class TierView {
 public:
  using matrix_type = gbx::Matrix<T, AddMonoid>;

  TierView() = default;
  TierView(std::shared_ptr<const TierImage> image, store::BlockStore* st,
           gbx::Index nrows, gbx::Index ncols)
      : image_(std::move(image)), store_(st), nrows_(nrows), ncols_(ncols) {}

  /// True when demoted data exists (an empty run list reads as absent).
  bool demoted() const { return image_ && !image_->runs.empty(); }

  /// Entry-count bound across runs (coordinates in several runs counted
  /// once per run, like the resident levels' nvals_bound).
  std::uint64_t entries_bound() const { return image_ ? image_->entries : 0; }

  /// Serialized bytes the demoted runs occupy in the store.
  std::uint64_t store_bytes() const { return image_ ? image_->bytes : 0; }

  std::size_t num_runs() const { return image_ ? image_->runs.size() : 0; }

  /// Demoted contribution at (i, j): the left fold, oldest run first, of
  /// every run's value there. A run that does not hold row i reads no
  /// block.
  std::optional<T> extract(gbx::Index i, gbx::Index j) const {
    if (!demoted()) return std::nullopt;
    std::optional<T> acc;
    for (const auto& run : image_->runs) {
      const auto blk = run->find(i);
      if (!blk) continue;
      const matrix_type seg = decode_block(*blk);
      if (auto x = seg.storage().get(i, j)) {
        acc = acc ? std::optional<T>(AddMonoid::apply(*acc, *x)) : x;
      }
    }
    return acc;
  }

  /// acc ⊕= (every run, oldest first) — the materialization side of the
  /// same grouping extract() uses, so the two read paths agree
  /// bit-for-bit. Segments within a run are row-disjoint.
  void materialize_into(matrix_type& acc) const {
    if (!demoted()) return;
    GBX_CHECK_DIM(acc.nrows() == nrows_ && acc.ncols() == ncols_,
                  "tier materialize dimension mismatch");
    for (const auto& run : image_->runs)
      for (const auto b : run->blocks) acc.plus_assign(decode_block(b).view());
  }

  /// Decode every segment block in fold order: f(const matrix_type&).
  /// (SnapshotSet::nvals feeds the decoded blocks to its merge count,
  /// through HierSnapshot::collect_count_ranges.)
  template <class F>
  void for_each_block(F&& f) const {
    if (!demoted()) return;
    for (const auto& run : image_->runs)
      for (const auto b : run->blocks) f(decode_block(b));
  }

 private:
  matrix_type decode_block(store::BlockId id) const {
    const auto bytes = store_->get(id);  // checksummed; throws on damage
    std::istringstream is(*bytes);
    matrix_type m = gbx::deserialize<T, AddMonoid>(is);
    GBX_CHECK(m.nrows() == nrows_ && m.ncols() == ncols_,
              "tier: demoted segment dimension mismatch");
    return m;
  }

  std::shared_ptr<const TierImage> image_;
  store::BlockStore* store_ = nullptr;
  gbx::Index nrows_ = 0;
  gbx::Index ncols_ = 0;
};

/// The tier itself — owned by a HierMatrix once enable_demotion() runs.
/// demote() and compact() follow the matrix's owning-thread discipline;
/// view() may be called from that thread at any time to publish the
/// current image into a snapshot.
template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class DemotedTier {
 public:
  using matrix_type = gbx::Matrix<T, AddMonoid>;

  DemotedTier(store::BlockStore* st, DemotionConfig cfg, gbx::Index nrows,
              gbx::Index ncols)
      : store_(st), cfg_(cfg), nrows_(nrows), ncols_(ncols) {
    GBX_CHECK_VALUE(store_ != nullptr, "tier: null block store");
    GBX_CHECK_VALUE(cfg_.segment_bytes > 0, "tier: zero segment size");
    GBX_CHECK_VALUE(cfg_.max_runs > 0, "tier: zero run bound");
    publish(std::make_shared<TierImage>());
  }

  /// Write the rows of `ranges` (a level's slices) into a new demoted
  /// run from their blocks in place; false when they hold no entry. A
  /// failure while writing (ENOSPC, a torn write the store surfaces)
  /// leaves the image unchanged: the half-written run's RAII erases the
  /// blocks it put. The caller releases the resident rows on true.
  bool demote(std::span<const gbx::detail::RowRange<T>> ranges) {
    auto cur = image();
    auto run = build_run(ranges);
    if (run->entries == 0) return false;
    auto img = std::make_shared<TierImage>();
    img->runs = cur->runs;
    img->runs.push_back(run);
    img->entries = cur->entries + run->entries;
    img->bytes = cur->bytes + run->bytes;
    publish(std::move(img));
    stats_.demotions += 1;
    stats_.entries_demoted += run->entries;
    stats_.bytes_demoted += run->bytes;
    return true;
  }

  /// Merge all runs into one when the run list exceeds max_runs (read
  /// amplification bound). Merging folds the runs oldest-first — a
  /// prefix regrouping of the per-coordinate chain, so reads through the
  /// compacted image are bit-identical to reads through the old one.
  /// Old images (held by live snapshots) keep the old runs and their
  /// blocks until they die.
  bool maybe_compact() {
    if (image()->runs.size() <= cfg_.max_runs) return false;
    compact();
    return true;
  }

  void compact() {
    auto cur = image();
    if (cur->runs.size() <= 1) return;
    matrix_type merged(nrows_, ncols_);
    TierView<T, AddMonoid> v(cur, store_, nrows_, ncols_);
    v.materialize_into(merged);
    merged.materialize();
    auto img = std::make_shared<TierImage>();
    if (!merged.empty()) {
      const gbx::Dcsr<T>& m = merged.storage();
      const gbx::detail::RowRange<T> all{&m, 0, m.nrows_nonempty()};
      auto run = build_run({&all, 1});
      img->entries = run->entries;
      img->bytes = run->bytes;
      img->runs.push_back(std::move(run));
    }
    publish(std::move(img));
    ++stats_.compactions;
  }

  /// Drop every demoted run (collapse() promotes the tier back into the
  /// resident bottom first, then clears it here).
  void clear() { publish(std::make_shared<TierImage>()); }

  /// Publish the current image for a snapshot (cheap: two shared_ptr
  /// copies under the image lock).
  TierView<T, AddMonoid> view() const {
    return TierView<T, AddMonoid>(image(), store_, nrows_, ncols_);
  }

  bool demoted() const { return view().demoted(); }
  std::uint64_t store_bytes() const { return view().store_bytes(); }
  std::uint64_t entries_bound() const { return view().entries_bound(); }
  std::size_t num_runs() const { return view().num_runs(); }
  const TierStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const TierImage> image() const {
    gbx::ScopedLock lk(img_mu_);
    return image_;
  }

  void publish(std::shared_ptr<const TierImage> img) {
    gbx::ScopedLock lk(img_mu_);
    image_ = std::move(img);
  }

  /// Estimated serialized bytes row position r contributes to a segment.
  std::size_t row_bytes(const gbx::Dcsr<T>& s, std::size_t r) const {
    const auto n = static_cast<std::size_t>(s.ptr()[r + 1] - s.ptr()[r]);
    return n * (sizeof(gbx::Index) + sizeof(T)) + sizeof(gbx::Index) +
           sizeof(gbx::Offset);
  }

  /// Serialize the rows of `ranges` into segment blocks of
  /// ~segment_bytes (a segment may span ranges) and index the run's
  /// rows. A block id is recorded before its put, and the run is
  /// committed to an image only by the caller — so any throw along the
  /// way unwinds into the run's RAII erase with nothing published.
  std::shared_ptr<TierRun> build_run(
      std::span<const gbx::detail::RowRange<T>> ranges) {
    auto run = std::make_shared<TierRun>(store_);
    std::size_t rows = 0;
    for (const auto& r : ranges) rows += r.k1 - r.k0;
    run->rows.reserve(rows);
    std::vector<gbx::detail::RowRange<T>> seg;  // the open segment's rows
    std::size_t est = 0;
    auto put = [&] {
      std::ostringstream os;
      gbx::detail::serialize_ranges<T>(os, nrows_, ncols_, seg);
      const std::string payload = std::move(os).str();
      const store::BlockId id = store_->allocate();
      run->blocks.push_back(id);  // before put: erase of an unwritten
      store_->put(id, payload);   // id is an idempotent no-op
      run->bytes += payload.size();
      run->seg_end.push_back(run->rows.size());
      seg.clear();
      est = 0;
    };
    for (const auto& r : ranges) {
      for (std::size_t k = r.k0; k < r.k1; ++k) {
        if (est >= cfg_.segment_bytes) put();
        if (seg.empty() || seg.back().blk != r.blk || seg.back().k1 != k)
          seg.push_back({r.blk, k, k});
        ++seg.back().k1;
        est += row_bytes(*r.blk, k);
        run->rows.push_back(r.blk->rows()[k]);
      }
      run->entries += r.blk->ptr()[r.k1] - r.blk->ptr()[r.k0];
    }
    if (!seg.empty()) put();
    return run;
  }

  store::BlockStore* store_;
  DemotionConfig cfg_;
  gbx::Index nrows_;
  gbx::Index ncols_;
  mutable gbx::Mutex img_mu_;  ///< orders image swaps against view()
  std::shared_ptr<const TierImage> image_ GBX_GUARDED_BY(img_mu_);
  TierStats stats_;
};

}  // namespace hier
