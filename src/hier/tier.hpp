// hier/tier.hpp — out-of-core demotion of the cold bottom level.
//
// The paper's hierarchy exists so the oldest, largest, coldest level
// can live on slower storage while the small hot levels absorb the
// insert stream. This header is that slow tier: demote() moves the
// resident bottom level's compressed block into an immutable *run* of
// serialized row-range segments inside a store::BlockStore, then resets
// the resident level — an LSM shape (runs accumulate per demotion,
// compaction merges them) layered over the existing checksummed
// gbx::serialize container, so every demoted byte is end-to-end
// verified on the way back in.
//
// Read model (the bit-exactness contract): the logical bottom level is
// the left fold, in arrival order, of the demoted runs (oldest first)
// followed by the resident bottom. extract/materialize/HierSnapshot all
// use exactly that grouping, so every read path of a demoted matrix
// agrees with every other bit-for-bit, unconditionally. Against a
// never-demoted twin, demotion splits the per-coordinate fold chain at
// demote boundaries — bit-identical whenever the fold is associative in
// bits (integer plus/min/max, or float over exactly-representable
// values, the suite's discipline): pre-folding a prefix of a fold chain
// re-associates it.
//
// Concurrency: demote()/compact() follow HierMatrix's owning-thread
// discipline. Readers (snapshots on any thread) hold an immutable
// TierImage published through TierView — runs are refcounted, and a
// run's blocks are erased from the store only when the last image
// referencing it dies (RAII GC), so compaction never pulls blocks out
// from under a concurrent reader. The TierDirectory (bloom-guarded
// (run, row) → block map over the PR-seed B-tree/LSM stores) and the
// BlockStore are internally locked.
//
// The ingest hot path is untouched: cascade folds never consult the
// tier, and demotion runs only from explicit calls (demote_now,
// enforce_residency — the MemoryGovernor's batch-granularity hook).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/serialize.hpp"
#include "gbx/thread_annotations.hpp"
#include "store/block_store.hpp"
#include "store/bloom.hpp"
#include "store/btree_store.hpp"
#include "store/lsm_store.hpp"

namespace hier {

struct DemotionConfig {
  /// Serialized target size of one segment block (a run splits the
  /// level's rows greedily at this granularity, so point probes decode
  /// one segment, not the whole level).
  std::size_t segment_bytes = 256u << 10;

  /// Runs accumulated before compact() merges them into one (the LSM
  /// read-amplification bound).
  std::size_t max_runs = 8;

  /// Which seed store indexes (run, row) → block id.
  enum class Directory { kBtree, kLsm };
  Directory directory = Directory::kBtree;

  /// False-positive rate of the row bloom filter guarding point reads.
  double bloom_fp_rate = 0.01;
};

struct TierStats {
  std::uint64_t demotions = 0;
  std::uint64_t compactions = 0;
  std::uint64_t entries_demoted = 0;  ///< entries moved out across demotions
  std::uint64_t bytes_demoted = 0;    ///< serialized bytes written
};

namespace detail {

/// Block ids travel through the directory stores' double values; doubles
/// hold integers exactly up to 2^53 — far beyond any real block count,
/// but checked rather than assumed.
inline constexpr std::uint64_t kMaxOrdinalInDouble = 1ull << 53;

}  // namespace detail

/// Bloom-guarded (run, row) → block-id index over the seed key/value
/// stores (Key{row, run} keeps one row's entries adjacent in the B-tree
/// order). Both stores accumulate duplicate keys with +=, so every
/// (run, row) key is inserted exactly once — each row lives in exactly
/// one segment of a run. Internally locked: snapshot readers probe from
/// arbitrary threads (LSM gets mutate bloom-skip stats even when const).
class TierDirectory {
 public:
  explicit TierDirectory(DemotionConfig::Directory kind,
                         double bloom_fp_rate = 0.01)
      : kind_(kind),
        bloom_fp_rate_(bloom_fp_rate),
        bloom_capacity_(1u << 10),
        bloom_(bloom_capacity_, bloom_fp_rate) {
    if (kind_ == DemotionConfig::Directory::kBtree) {
      btree_ = std::make_unique<store::BTreeStore>(/*enable_wal=*/false);
    } else {
      store::LsmOptions opt;
      opt.enable_wal = false;  // durability lives in the BlockStore
      opt.bloom_fp_rate = bloom_fp_rate;
      lsm_ = std::make_unique<store::LsmStore>(opt);
    }
  }

  void insert(std::uint64_t run, gbx::Index row, store::BlockId block) {
    GBX_CHECK_VALUE(block < detail::kMaxOrdinalInDouble &&
                        run < detail::kMaxOrdinalInDouble,
                    "tier directory: ordinal exceeds exact double range");
    gbx::ScopedLock lk(mu_);
    const store::Key k{row, run};
    if (btree_) btree_->insert(k, static_cast<store::Value>(block));
    else lsm_->insert(k, static_cast<store::Value>(block));
    ++entries_;
    if (entries_ > 2 * bloom_capacity_) rebuild_bloom_locked();
    bloom_.add(store::Key{row, 0});
  }

  /// False means NO run holds the row — the probe skips the store
  /// entirely (the read path's fast negative).
  bool may_contain(gbx::Index row) const {
    gbx::ScopedLock lk(mu_);
    ++probes_;
    if (bloom_.may_contain(store::Key{row, 0})) return true;
    ++bloom_negatives_;
    return false;
  }

  std::optional<store::BlockId> lookup(std::uint64_t run,
                                       gbx::Index row) const {
    gbx::ScopedLock lk(mu_);
    const store::Key k{row, run};
    const auto v = btree_ ? btree_->get(k) : lsm_->get(k);
    if (!v) return std::nullopt;
    return static_cast<store::BlockId>(*v);
  }

  std::uint64_t entries() const {
    gbx::ScopedLock lk(mu_);
    return entries_;
  }
  std::uint64_t probes() const {
    gbx::ScopedLock lk(mu_);
    return probes_;
  }
  std::uint64_t bloom_negatives() const {
    gbx::ScopedLock lk(mu_);
    return bloom_negatives_;
  }
  DemotionConfig::Directory kind() const { return kind_; }

 private:
  /// Grow the bloom filter by rescanning the store's keys (the filter
  /// has no remove/resize; saturation would erode the negative-probe
  /// fast path to useless).
  void rebuild_bloom_locked() GBX_REQUIRES(mu_) {
    while (entries_ > bloom_capacity_) bloom_capacity_ *= 2;
    bloom_ = store::BloomFilter(bloom_capacity_, bloom_fp_rate_);
    auto add = [this](const store::Key& k, store::Value) {
      bloom_.add(store::Key{k.row, 0});
    };
    if (btree_) btree_->scan(add);
    else lsm_->scan(add);
  }

  mutable gbx::Mutex mu_;
  DemotionConfig::Directory kind_;  ///< immutable after construction
  double bloom_fp_rate_;            ///< immutable after construction
  std::size_t bloom_capacity_ GBX_GUARDED_BY(mu_);
  store::BloomFilter bloom_ GBX_GUARDED_BY(mu_);
  // The pointers are set once in the constructor; the stores they point
  // at are only ever touched with mu_ held (LSM mutates bloom-skip stats
  // even on const probes).
  std::unique_ptr<store::BTreeStore> btree_ GBX_PT_GUARDED_BY(mu_);
  std::unique_ptr<store::LsmStore> lsm_ GBX_PT_GUARDED_BY(mu_);
  std::uint64_t entries_ GBX_GUARDED_BY(mu_) = 0;
  mutable std::uint64_t probes_ GBX_GUARDED_BY(mu_) = 0;
  mutable std::uint64_t bloom_negatives_ GBX_GUARDED_BY(mu_) = 0;
};

/// One immutable demoted run: the serialized image of the bottom level
/// at one demote(), split into row-range segment blocks. Destroying the
/// last reference erases the blocks from the store (best-effort — a
/// failing store must not turn reader teardown into a crash; leaked
/// blocks are reclaimed by FileBackend::vacuum or store teardown).
struct TierRun {
  TierRun(store::BlockStore* s, std::uint64_t run_id)
      : store(s), id(run_id) {}
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

  store::BlockStore* store;
  std::uint64_t id;
  std::vector<store::BlockId> blocks;  ///< segments in ascending row order
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  ///< serialized payload bytes
};

/// Immutable published state of the tier: the run list (oldest first)
/// plus the directory resolving their rows. Snapshots hold one by
/// shared_ptr; demote/compact swap in a successor without touching it.
struct TierImage {
  std::vector<std::shared_ptr<const TierRun>> runs;
  std::shared_ptr<const TierDirectory> dir;
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
  /// every run's value there. Bloom-guarded — a negative row probe skips
  /// the directory and store entirely.
  std::optional<T> extract(gbx::Index i, gbx::Index j) const {
    if (!demoted()) return std::nullopt;
    if (!image_->dir->may_contain(i)) return std::nullopt;
    std::optional<T> acc;
    for (const auto& run : image_->runs) {
      const auto blk = image_->dir->lookup(run->id, i);
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
  /// (HierSnapshot::nvals feeds the decoded blocks to its merge count.)
  template <class F>
  void for_each_block(F&& f) const {
    if (!demoted()) return;
    for (const auto& run : image_->runs)
      for (const auto b : run->blocks) f(decode_block(b));
  }

  const std::shared_ptr<const TierImage>& image() const { return image_; }

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
    auto img = std::make_shared<TierImage>();
    img->dir = dir_ = make_directory();
    publish(std::move(img));
  }

  /// Move `bottom`'s current value into a new demoted run and reset the
  /// resident level (releasing its heap). Returns false when the level
  /// is empty. Exception-safe: a failure while writing (ENOSPC, torn
  /// write surfaced by the store) leaves the image unchanged and the
  /// resident level intact — the half-written run's RAII erases
  /// whatever blocks it managed to put.
  bool demote(matrix_type& bottom) {
    GBX_CHECK_DIM(bottom.nrows() == nrows_ && bottom.ncols() == ncols_,
                  "tier demote dimension mismatch");
    bottom.materialize();
    if (bottom.empty()) return false;
    const gbx::Dcsr<T>& s = bottom.storage();
    auto cur = image();
    // The directory is shared append-only between compactions; entries
    // of a run that failed mid-demote are unreachable garbage (the run
    // id is never reused), swept out at the next compaction.
    auto run = build_run(s, *dir_);
    auto img = std::make_shared<TierImage>();
    img->runs = cur->runs;
    img->runs.push_back(run);
    img->dir = cur->dir;
    img->entries = cur->entries + run->entries;
    img->bytes = cur->bytes + run->bytes;
    publish(std::move(img));
    stats_.demotions += 1;
    stats_.entries_demoted += run->entries;
    stats_.bytes_demoted += run->bytes;
    bottom.reset();
    return true;
  }

  /// Merge all runs into one when the run list exceeds max_runs (read
  /// amplification bound). Merging folds the runs oldest-first — a
  /// prefix regrouping of the per-coordinate chain, so reads through the
  /// compacted image are bit-identical to reads through the old one.
  /// The merged run gets a fresh directory; old images (held by live
  /// snapshots) keep the old directory and blocks until they die.
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
    auto dir = make_directory();
    auto img = std::make_shared<TierImage>();
    if (!merged.empty()) {
      auto run = build_run(merged.storage(), *dir);
      img->entries = run->entries;
      img->bytes = run->bytes;
      img->runs.push_back(std::move(run));
    }
    img->dir = dir;
    publish(std::move(img));
    dir_ = std::move(dir);
    ++stats_.compactions;
  }

  /// Drop every demoted run (collapse() promotes the tier back into the
  /// resident bottom first, then clears it here).
  void clear() {
    auto img = std::make_shared<TierImage>();
    img->dir = dir_ = make_directory();
    publish(std::move(img));
  }

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
  const DemotionConfig& config() const { return cfg_; }
  store::BlockStore& store() { return *store_; }
  const TierDirectory& directory() const { return *dir_; }

 private:
  std::shared_ptr<TierDirectory> make_directory() const {
    return std::make_shared<TierDirectory>(cfg_.directory,
                                           cfg_.bloom_fp_rate);
  }

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

  /// Serialize s into segment blocks of ~segment_bytes and index every
  /// row. Blocks are put before their directory entries, and the run is
  /// committed to an image only by the caller — so any throw along the
  /// way unwinds into the run's RAII erase with nothing published.
  std::shared_ptr<TierRun> build_run(const gbx::Dcsr<T>& s,
                                     TierDirectory& dir) {
    auto run = std::make_shared<TierRun>(store_, next_run_id_++);
    const auto& rows = s.rows();
    std::size_t b = 0;
    while (b < rows.size()) {
      std::size_t e = b;
      std::size_t est = 0;
      while (e < rows.size() && (e == b || est < cfg_.segment_bytes)) {
        est += row_bytes(s, e);
        ++e;
      }
      std::ostringstream os;
      gbx::serialize_rows(os, nrows_, ncols_, s, b, e);
      const std::string payload = std::move(os).str();
      const store::BlockId id = store_->allocate();
      run->blocks.push_back(id);  // before put: erase of an unwritten
      store_->put(id, payload);   // id is an idempotent no-op
      run->bytes += payload.size();
      for (std::size_t r = b; r < e; ++r) dir.insert(run->id, rows[r], id);
      b = e;
    }
    run->entries = s.nnz();
    return run;
  }

  store::BlockStore* store_;
  DemotionConfig cfg_;
  gbx::Index nrows_;
  gbx::Index ncols_;
  mutable gbx::Mutex img_mu_;  ///< orders image swaps against view()
  std::shared_ptr<const TierImage> image_ GBX_GUARDED_BY(img_mu_);
  std::shared_ptr<TierDirectory> dir_;  ///< directory of the CURRENT image
  std::uint64_t next_run_id_ = 1;
  TierStats stats_;
};

}  // namespace hier
