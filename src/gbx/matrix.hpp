// gbx/matrix.hpp — the hypersparse matrix façade.
//
// Matrix pairs immutable DCSR storage with an unsorted *pending tuple*
// buffer, mirroring SuiteSparse:GraphBLAS's non-blocking mode: streaming
// updates append to the pending buffer in O(1) and are folded into the
// compressed structure only when a result is demanded (or the owner
// forces a fold). The hierarchical cascade of the paper stacks these
// matrices in levels; level 1's pending buffer is the "fast memory" of
// the paper's Fig. 1.
//
// The fold monoid is a class-level policy (default: plus). All pending
// folds combine duplicate coordinates with this monoid, so a Matrix is
// semantically "the monoid-sum of everything ever appended".
//
// Storage is held by shared pointer with copy-on-fold semantics: folds
// and clears *replace* the compressed block rather than mutating it
// whenever anyone else holds a reference (a published MatrixView, an
// aliased copy). Publishing an immutable view of the current value is
// therefore O(1) and the view stays valid — and untouched — while the
// matrix keeps streaming. In-place mutation happens only when this
// matrix holds the sole reference.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "gbx/coo.hpp"
#include "gbx/dcsr.hpp"
#include "gbx/error.hpp"
#include "gbx/ewise.hpp"
#include "gbx/fold.hpp"
#include "gbx/monoid.hpp"
#include "gbx/parallel.hpp"
#include "gbx/scratch.hpp"
#include "gbx/types.hpp"
#include "gbx/view.hpp"

namespace gbx {

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GBX_HAS_FEATURE_TSAN 1
#endif
#endif
#ifndef GBX_HAS_FEATURE_TSAN
#define GBX_HAS_FEATURE_TSAN 0
#endif

/// True when `p` holds the only reference to its block, so the block may
/// be mutated in place or recycled (Matrix's copy-on-fold, a bottom
/// merge's chunks). New references are only ever created on the owning
/// thread, so an observed count of 1 is stable — but the last external
/// release may have happened on a reader thread, whose final loads must
/// be ordered before our stores. The relaxed use_count() load observing
/// the release-decrement, followed by the acquire fence, establishes
/// exactly that ([atomics.fences]) — the classic COW publication edge.
///
/// TSan's fence modeling cannot pair the relaxed load with the
/// decrement, so with the fused pipeline exercising in-place reuse on
/// every fold it reports the (correct) edge as a race. Under TSan the
/// reuse is disabled — every fold copies, like the pinned-block path —
/// which keeps all modelable publication edges checked; allocation
/// reuse itself is asserted by the plain-build zero-alloc test. Same
/// spirit as the preset's OpenMP opt-out for uninstrumented libgomp.
template <class B>
bool sole_owner(const std::shared_ptr<B>& p) {
#if defined(__SANITIZE_THREAD__) || GBX_HAS_FEATURE_TSAN
  (void)p;
  return false;
#else
  if (p.use_count() != 1) return false;
  std::atomic_thread_fence(std::memory_order_acquire);
  return true;
#endif
}

template <class T, class AddMonoid = PlusMonoid<T>>
class Matrix {
 public:
  using value_type = T;
  using add_monoid = AddMonoid;
  using add_op = typename AddMonoid::op_type;

  /// An empty nrows x ncols hypersparse matrix. Dimensions up to 2^64-1;
  /// no memory is allocated for the index space.
  Matrix(Index nrows, Index ncols) : nrows_(nrows), ncols_(ncols) {
    GBX_CHECK_VALUE(nrows > 0 && ncols > 0, "matrix dimensions must be > 0");
  }

  /// Convenience: square matrix.
  explicit Matrix(Index n) : Matrix(n, n) {}

  Index nrows() const { return nrows_; }
  Index ncols() const { return ncols_; }

  /// Exact number of stored entries. Forces a pending fold (GraphBLAS
  /// GrB_Matrix_nvals semantics).
  std::size_t nvals() const {
    materialize();
    return stor_->nnz();
  }

  /// Cheap upper bound on nvals: compressed entries + buffered updates
  /// (duplicates still counted). This is what hierarchical cut checks
  /// compare against — it never forces a fold.
  std::size_t nvals_bound() const { return stor_->nnz() + pending_.size(); }

  /// Number of un-folded buffered updates.
  std::size_t pending_count() const { return pending_.size(); }

  bool empty() const { return stor_->empty() && pending_.empty(); }

  /// Remove all entries, keeping capacity when no view shares the block.
  void clear() {
    if (sole_owner()) stor_->clear();
    else stor_ = std::make_shared<Dcsr<T>>();
    pending_.clear();
  }

  /// Remove all entries and release memory (cascade level reset). Shared
  /// blocks are detached, not destroyed: live views keep their data.
  /// The recycled spare block is released too — reset means the level
  /// really returns its heap, unlike clear()'s keep-warm semantics.
  void reset() {
    if (sole_owner()) stor_->reset();
    else stor_ = std::make_shared<Dcsr<T>>();
    pending_.reset();
    spare_.reset();
  }

  /// Release the recycled spare block only; the value is untouched.
  void drop_spare() { spare_.reset(); }

  /// Single-element update: A(i,j) ⊕= v. O(1) append.
  void set_element(Index i, Index j, T v) {
    check_bounds(i, j);
    pending_.push_back(i, j, v);
  }

  /// Batched update from parallel arrays: A(i_k, j_k) ⊕= v_k.
  void append(std::span<const Index> rows, std::span<const Index> cols,
              std::span<const T> vals) {
    for (std::size_t k = 0; k < rows.size(); ++k) check_bounds(rows[k], cols[k]);
    pending_.append(rows, cols, vals);
  }

  /// Batched update from a tuple buffer.
  void append(const Tuples<T>& t) {
    for (const auto& e : t) check_bounds(e.row, e.col);
    pending_.append(t);
  }

  /// GrB_Matrix_build analogue: matrix must be empty; duplicates are
  /// combined with the fold monoid.
  void build(std::span<const Index> rows, std::span<const Index> cols,
             std::span<const T> vals) {
    GBX_CHECK(empty(), "build requires an empty matrix");
    append(rows, cols, vals);
    materialize();
  }

  /// Element read; folds pending first. nullopt if no entry stored.
  std::optional<T> extract_element(Index i, Index j) const {
    check_bounds(i, j);
    materialize();
    return stor_->get(i, j);
  }

  /// Emit all entries in (row, col) order (folds pending first).
  Tuples<T> extract_tuples() const {
    materialize();
    Tuples<T> out;
    stor_->extract(out);
    return out;
  }

  /// Fold the pending buffer into DCSR storage. Idempotent. Logically
  /// const: a fold never changes the matrix's mathematical value.
  /// Copy-on-fold: when anyone else holds the block (a published view),
  /// the merged result lands in a *new* block, so views published before
  /// the fold are never disturbed; a sole owner merges into the recycled
  /// spare block and swaps — zero heap traffic at steady state, and
  /// amortized regrowth (Dcsr::prepare) while the matrix grows.
  void materialize() const {
    if (pending_.empty()) return;
    with_fold_run<AddMonoid>(pending_.entries(), ScratchPool::local(),
                             [&](const auto& run) { fold_run_in(run); });
    pending_.clear();  // capacity retained: the fast level stays warm
  }

  /// A ⊕= other, over the fold monoid. Folding into an empty matrix
  /// aliases the source block (O(1)) instead of copying it; copy-on-fold
  /// keeps the alias safe.
  void plus_assign(const Matrix& other) {
    GBX_CHECK_DIM(nrows_ == other.nrows_ && ncols_ == other.ncols_,
                  "plus_assign dimension mismatch");
    materialize();
    other.materialize();
    if (other.stor_->empty()) return;
    if (stor_->empty()) {
      stor_ = other.stor_;
    } else {
      merge_block_in(*other.stor_);
    }
  }

  /// A ⊕= view: folds a frozen immutable block into this matrix (the
  /// snapshot materialization path — Σ Ai over published level views).
  /// Folding into an empty matrix aliases the view's block in O(1), like
  /// the Matrix overload. The const cast is sound: every published block
  /// originates as a non-const Dcsr inside a Matrix, and copy-on-fold
  /// means this matrix will only mutate it in place once it is again the
  /// block's sole owner.
  void plus_assign(const MatrixView<T>& other) {
    GBX_CHECK_DIM(nrows_ == other.nrows() && ncols_ == other.ncols(),
                  "plus_assign dimension mismatch");
    materialize();
    const Dcsr<T>& d = other.storage();
    if (d.empty()) return;
    if (stor_->empty()) {
      stor_ = std::const_pointer_cast<Dcsr<T>>(other.shared_storage());
    } else {
      merge_block_in(d);
    }
  }

  /// A ⊕= the rows of `ranges` (row-disjoint, in row order: a level held
  /// as chunks) into the recycled spare, never joining the ranges into
  /// one block first: one streaming pass over this matrix's block, each
  /// range merged with its rows up to the next range's first row, or the
  /// parallel counts-then-fill over the same row lists where
  /// merge_block_in would fork.
  void plus_assign(std::span<const detail::RowRange<T>> ranges) {
    materialize();
    const Dcsr<T>& a = *stor_;
    std::size_t rows = a.nrows_nonempty(), nnz = a.nnz();
    for (const auto& r : ranges) {
      rows += r.k1 - r.k0;
      nnz += r.blk->ptr()[r.k1] - r.blk->ptr()[r.k0];
    }
    if (nnz == a.nnz()) return;
    if (max_threads() > 1 && !a.empty() &&
        nnz >= detail::kParallelMergeCutoff) {
      ewise_add_into<add_op>(a, ranges, spare_, ScratchPool::local());
      publish_spare();
      return;
    }
    spare_.clear();
    spare_.reserve(rows, nnz);  // the merges below never reallocate
    constexpr auto kAll = static_cast<std::size_t>(-1);
    std::size_t ka = 0;
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      const auto& r = ranges[i];
      if (r.k0 == r.k1) continue;
      const std::size_t ka_end = detail::rows_with_range(a, ka, ranges, i);
      BlockMerge<add_op, T>(a, ka, ka_end, *r.blk, r.k0, r.k1, spare_, kAll)
          .step(kAll);
      ka = ka_end;
    }
    publish_spare();
  }

  /// The cascade's fold step, fused: A ⊕= src (compressed AND pending
  /// sides), then src is emptied with capacity retained. src's pending
  /// run is sorted, deduped, and merged straight into this matrix's
  /// block — no intermediate Dcsr is materialized in src, unlike
  /// plus_assign(src) which first folds src's pending into src's own
  /// storage. The hierarchical cascade calls this once per level fold,
  /// so at steady state (capacities plateaued, no snapshot pinning the
  /// blocks) it performs zero heap allocations; while this level grows,
  /// its blocks regrow by 1.5x, O(log growth) times in all.
  void fold_from(Matrix& src) {
    GBX_CHECK_DIM(nrows_ == src.nrows_ && ncols_ == src.ncols_,
                  "fold_from dimension mismatch");
    // Folding a matrix into itself would merge and then clear the same
    // storage — silent data loss. Self-application needs plus_assign.
    GBX_CHECK_VALUE(&src != this, "fold_from requires a distinct source");
    materialize();
    // Compressed side first (present when a query materialized src, or
    // for levels above the first, which accumulate folded blocks).
    if (!src.stor_->empty()) {
      if (stor_->empty()) {
        stor_ = src.stor_;  // alias; copy-on-fold keeps it safe
      } else {
        merge_block_in(*src.stor_);
      }
    }
    // Pending side: fused sort → dedup → merge, no intermediate block.
    if (!src.pending_.empty()) {
      with_fold_run<AddMonoid>(src.pending_.entries(), ScratchPool::local(),
                               [&](const auto& run) { fold_run_in(run); });
    }
    src.clear();
  }

  /// Materialized DCSR view (folds pending first).
  const Dcsr<T>& storage() const {
    materialize();
    return *stor_;
  }

  /// Refcounted immutable handle on the materialized storage. The handle
  /// stays valid — and frozen at today's value — while this matrix keeps
  /// streaming (copy-on-fold). This is the epoch-snapshot publish step.
  std::shared_ptr<const Dcsr<T>> shared_storage() const {
    materialize();
    return stor_;
  }

  /// Immutable zero-copy view of the current value (folds pending first).
  MatrixView<T> view() const {
    return MatrixView<T>(nrows_, ncols_, shared_storage());
  }

  /// The current compressed block WITHOUT folding the pending buffer —
  /// a side-effect-free peek for identity tests and snapshot
  /// compaction. Unlike shared_storage(), the returned block does not
  /// necessarily cover pending updates.
  std::shared_ptr<const Dcsr<T>> storage_handle() const { return stor_; }

  /// Adopt existing DCSR storage (kernel output assembly).
  static Matrix adopt(Index nrows, Index ncols, Dcsr<T> stor) {
    Matrix m(nrows, ncols);
    m.stor_ = std::make_shared<Dcsr<T>>(std::move(stor));
    return m;
  }

  /// Row-major traversal f(row, col, value) over the materialized matrix.
  template <class F>
  void for_each(F&& f) const {
    materialize();
    stor_->for_each(std::forward<F>(f));
  }

  /// Heap bytes currently held (compressed + pending + recycled spare).
  std::size_t memory_bytes() const {
    return stor_->memory_bytes() + pending_.memory_bytes() +
           spare_.memory_bytes();
  }

  /// Structural invariants of the compressed part.
  bool validate() const { return stor_->validate(); }

 private:
  void check_bounds(Index i, Index j) const {
    GBX_CHECK_INDEX(i < nrows_, "row index out of bounds");
    GBX_CHECK_INDEX(j < ncols_, "column index out of bounds");
  }

  /// Merge a sorted unique run into the compressed block (fused path).
  template <class Run>
  void fold_run_in(const Run& run) const {
    if (run.size() == 0) return;
    if (stor_->empty()) {
      if (sole_owner()) {
        build_from_run(run, *stor_);
      } else {
        auto fresh = std::make_shared<Dcsr<T>>();
        build_from_run(run, *fresh);
        stor_ = std::move(fresh);
      }
      return;
    }
    merge_run_into<add_op>(*stor_, run, spare_);
    publish_spare();
  }

  /// Merge another compressed block into ours via the recycled spare.
  /// One streaming pass when the parallel fill cannot pay for its
  /// counting pass (serial engine or small blocks), parallel
  /// counts-then-fill otherwise. Precondition: neither block is empty,
  /// `other` is not `*stor_`.
  void merge_block_in(const Dcsr<T>& other) const {
    if (max_threads() == 1 ||
        stor_->nnz() + other.nnz() < detail::kParallelMergeCutoff) {
      merge_blocks_into<add_op>(*stor_, other, spare_);
    } else {
      ewise_add_into<add_op>(*stor_, other, spare_, ScratchPool::local());
    }
    publish_spare();
  }

  /// Install the spare block as the new storage. Sole owner: swap the
  /// vectors, so the old block's capacity becomes the next fold's output
  /// buffer (this is what makes steady-state folds allocation-free; on a
  /// growing level that buffer is two folds old and short, and
  /// Dcsr::prepare regrows it by 1.5x, so a fold only occasionally
  /// reallocates).
  /// Shared (a view pins the old block): move the spare into a fresh
  /// refcounted block — copy-on-fold, the pinned views stay frozen.
  void publish_spare() const {
    if (sole_owner()) {
      std::swap(*stor_, spare_);
      spare_.clear();
    } else {
      stor_ = std::make_shared<Dcsr<T>>(std::move(spare_));
      spare_ = Dcsr<T>();
    }
  }

  /// True when no view/alias shares the block, i.e. in-place mutation is
  /// allowed (gbx::sole_owner).
  bool sole_owner() const { return gbx::sole_owner(stor_); }

  Index nrows_;
  Index ncols_;
  // Mutable: folding pending updates is value-preserving, so demand-driven
  // materialization from const accessors is logically const. A Matrix is
  // NOT safe for concurrent access from multiple threads (kernels use
  // OpenMP internally; instance-level parallelism uses one matrix per
  // thread, as the paper does with one matrix per process). Views handed
  // out by shared_storage()/view() ARE safe to read from other threads:
  // every mutation path re-points stor_ when the block is shared, and
  // mutates in place only when use_count()==1 — which, with views created
  // solely on the owner's thread, proves no concurrent reader exists.
  // Invariant: stor_ is never null.
  mutable std::shared_ptr<Dcsr<T>> stor_ = std::make_shared<Dcsr<T>>();
  mutable Tuples<T> pending_;
  // Recycled fold output block: merges build here, then swap with the
  // current block (sole owner) so both capacity pools ping-pong across
  // folds. Logically empty between folds; holds capacity only (counted
  // by memory_bytes(), growth headroom included).
  mutable Dcsr<T> spare_;
};

/// Value equality: same dimensions and same stored entries (both sides
/// fold pending buffers first).
template <class T, class M>
bool equal(const Matrix<T, M>& a, const Matrix<T, M>& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols()) return false;
  return a.storage() == b.storage();
}

}  // namespace gbx
