// gbx/dcsr.hpp — doubly-compressed sparse row (hypersparse) storage.
//
// DCSR stores only the non-empty rows: `rows[k]` is the k-th non-empty
// row id, entries of that row live in cols/vals[ptr[k] .. ptr[k+1]).
// Memory is O(nnz + #non-empty rows) regardless of the matrix dimension,
// which is what makes a 2^64 x 2^64 IPv6 traffic matrix practical. This
// is the same structural idea as SuiteSparse:GraphBLAS's hypersparse
// format (Davis, ACM TOMS 2019).
//
// The four arrays use a default-initialising allocator, and every kernel
// that writes a block sizes it through Dcsr::prepare(): recycled
// capacity is reused, a short array grows by 1.5x, and new slots are
// left unwritten, so a block's pages are first touched by the kernel's
// own fill rather than by a zero-fill it would overwrite.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/types.hpp"

namespace gbx {

/// std::allocator whose value-less construct() default-initialises: for
/// the trivially constructible index and value types, resize() then
/// leaves the new slots unwritten instead of zero-filling them.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// One of a Dcsr's four arrays.
template <class T>
using BlockVec = std::vector<T, DefaultInitAllocator<T>>;

template <class T>
class Dcsr {
 public:
  using value_type = T;

  Dcsr() { ptr_.push_back(0); }

  /// Build from entries sorted by (row, col) with no duplicate keys.
  /// Precondition checked in debug paths via validate(). (The fused fold
  /// pipeline builds through gbx::build_from_run into recycled blocks
  /// instead; this remains the one-shot constructor and the legacy fold
  /// path's delta assembly.)
  static Dcsr from_sorted_unique(std::span<const Entry<T>> entries) {
    // One pre-scan for the exact row count, so a fresh block is sized
    // exactly.
    std::size_t nrows = 0;
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (i == 0 || entries[i].row != entries[i - 1].row) ++nrows;
    Dcsr d;
    d.prepare(nrows, entries.size());
    std::size_t k = 0;
    for (std::size_t p = 0; p < entries.size(); ++p) {
      const auto& e = entries[p];
      if (k == 0 || d.rows_[k - 1] != e.row) {
        d.rows_[k] = e.row;
        d.ptr_[k++] = p;
      }
      d.cols_[p] = e.col;
      d.vals_[p] = e.val;
    }
    d.ptr_[k] = entries.size();  // ptr_ == {0} for empty input
    return d;
  }

  std::size_t nnz() const { return cols_.size(); }
  bool empty() const { return cols_.empty(); }
  /// Number of non-empty rows (the "hyper" dimension).
  std::size_t nrows_nonempty() const { return rows_.size(); }

  void clear() {
    rows_.clear();
    ptr_.assign(1, 0);
    cols_.clear();
    vals_.clear();
  }

  /// Release all heap memory.
  void reset() {
    BlockVec<Index>().swap(rows_);
    BlockVec<Offset> p(1, 0);
    ptr_.swap(p);
    BlockVec<Index>().swap(cols_);
    BlockVec<T>().swap(vals_);
  }

  /// The one output-sizing step of every kernel that writes a block:
  /// size it to `nrows` non-empty rows and `nnz` entries, to be filled
  /// by index (a kernel that sized an upper bound then calls trim()).
  /// Recycled capacity is reused when it fits. An array that is short
  /// is released and regrown to max(need, 1.5 x its capacity), so a
  /// level that keeps growing reallocates O(log growth) times, not once
  /// per fold. New slots are not initialised and the old contents are
  /// unspecified: the kernel's own fill is the first touch.
  void prepare(std::size_t nrows, std::size_t nnz) {
    fit(rows_, nrows);
    fit(ptr_, nrows + 1);
    fit(cols_, nnz);
    fit(vals_, nnz);
  }

  /// prepare() for a kernel appending to the block: room for `nrows`
  /// more rows and `nnz` more entries, the contents kept.
  void extend(std::size_t nrows, std::size_t nnz) {
    grow(rows_, rows_.size() + nrows);
    grow(ptr_, ptr_.size() + nrows);
    grow(cols_, cols_.size() + nnz);
    grow(vals_, vals_.size() + nnz);
  }

  /// Room for `nrows` non-empty rows and `nnz` entries, the contents
  /// kept (an array that is short is regrown to exactly that).
  void reserve(std::size_t nrows, std::size_t nnz) {
    rows_.reserve(nrows);
    ptr_.reserve(nrows + 1);
    cols_.reserve(nnz);
    vals_.reserve(nnz);
  }

  /// reserve() for an empty recycled block: row arrays holding room for
  /// more than three times `nrows` rows are given back first, so a buffer
  /// that held sparser rows does not carry that room into a denser block,
  /// and one refilled at about the same density keeps its arrays.
  void refit(std::size_t nrows, std::size_t nnz) {
    if (rows_.capacity() > 3 * (nrows + 1)) {
      BlockVec<Index>().swap(rows_);
      BlockVec<Offset> p;
      p.reserve(nrows + 1);
      p.push_back(0);
      ptr_.swap(p);
    }
    reserve(nrows, nnz);
  }

  /// Entries the block holds room for without reallocating.
  std::size_t capacity() const { return cols_.capacity(); }

  /// Cut a prepare()d block down to the `nrows` rows and `nnz` entries
  /// the kernel wrote (at most what prepare() sized; never reallocates).
  void trim(std::size_t nrows, std::size_t nnz) {
    rows_.resize(nrows);
    ptr_.resize(nrows + 1);
    cols_.resize(nnz);
    vals_.resize(nnz);
  }

  /// Value lookup; nullopt when the coordinate holds no entry.
  std::optional<T> get(Index row, Index col) const {
    auto rit = std::lower_bound(rows_.begin(), rows_.end(), row);
    if (rit == rows_.end() || *rit != row) return std::nullopt;
    const std::size_t k = static_cast<std::size_t>(rit - rows_.begin());
    const auto lo = cols_.begin() + static_cast<std::ptrdiff_t>(ptr_[k]);
    const auto hi = cols_.begin() + static_cast<std::ptrdiff_t>(ptr_[k + 1]);
    auto cit = std::lower_bound(lo, hi, col);
    if (cit == hi || *cit != col) return std::nullopt;
    return vals_[static_cast<std::size_t>(cit - cols_.begin())];
  }

  /// Emit all entries, in (row, col) order, appended to `out`.
  void extract(Tuples<T>& out) const {
    out.reserve(out.size() + nnz());
    for (std::size_t k = 0; k < rows_.size(); ++k)
      for (Offset p = ptr_[k]; p < ptr_[k + 1]; ++p)
        out.push_back(rows_[k], cols_[p], vals_[p]);
  }

  /// Row-major traversal: f(row, col, value) for every entry.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t k = 0; k < rows_.size(); ++k)
      for (Offset p = ptr_[k]; p < ptr_[k + 1]; ++p)
        f(rows_[k], cols_[p], vals_[p]);
  }

  /// Structural invariant check (used heavily in tests):
  /// rows strictly increasing, ptr monotone, cols strictly increasing
  /// within each row, no empty stored row.
  bool validate() const {
    if (ptr_.size() != rows_.size() + 1) return false;
    if (ptr_.front() != 0 || ptr_.back() != cols_.size()) return false;
    if (cols_.size() != vals_.size()) return false;
    for (std::size_t k = 0; k + 1 < rows_.size(); ++k)
      if (rows_[k] >= rows_[k + 1]) return false;
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      if (ptr_[k] >= ptr_[k + 1]) return false;  // empty rows are dropped
      for (Offset p = ptr_[k] + 1; p < ptr_[k + 1]; ++p)
        if (cols_[p - 1] >= cols_[p]) return false;
    }
    return true;
  }

  /// Heap bytes the block holds: capacity, not size. After a prepare()
  /// growth step that includes up to the 1.5x headroom, which is address
  /// space that typically is not resident until a later fill touches it.
  std::size_t memory_bytes() const {
    return rows_.capacity() * sizeof(Index) + ptr_.capacity() * sizeof(Offset) +
           cols_.capacity() * sizeof(Index) + vals_.capacity() * sizeof(T);
  }

  // Raw views for kernels (ewise, mxm, ...).
  std::span<const Index> rows() const { return rows_; }
  std::span<const Offset> ptr() const { return ptr_; }
  std::span<const Index> cols() const { return cols_; }
  std::span<const T> vals() const { return vals_; }

  /// Direct (mutating) access for kernel output assembly.
  BlockVec<Index>& mutable_rows() { return rows_; }
  BlockVec<Offset>& mutable_ptr() { return ptr_; }
  BlockVec<Index>& mutable_cols() { return cols_; }
  BlockVec<T>& mutable_vals() { return vals_; }

  friend bool operator==(const Dcsr& a, const Dcsr& b) {
    return a.rows_ == b.rows_ && a.ptr_ == b.ptr_ && a.cols_ == b.cols_ &&
           a.vals_ == b.vals_;
  }

 private:
  template <class V>
  static void fit(V& v, std::size_t n) {
    if (v.capacity() < n) {
      const std::size_t grown = v.capacity() + v.capacity() / 2;
      V().swap(v);  // the old contents are dead: free before regrowing
      v.reserve(std::max(n, grown));
    }
    v.resize(n);
  }

  template <class V>
  static void grow(V& v, std::size_t n) {
    if (v.capacity() < n)
      v.reserve(std::max(n, v.capacity() + v.capacity() / 2));
    v.resize(n);
  }

  BlockVec<Index> rows_;   // non-empty row ids, strictly increasing
  BlockVec<Offset> ptr_;   // size rows_.size()+1, offsets into cols_/vals_
  BlockVec<Index> cols_;   // column ids, strictly increasing per row
  BlockVec<T> vals_;
};

namespace detail {

/// The rows at positions [k0, k1) of a block.
template <class T>
struct RowRange {
  const Dcsr<T>* blk;
  std::size_t k0, k1;
};

/// Merging block `a` with row-disjoint `ranges` in row order, range by
/// range: the end of a's rows from `from` on that go with ranges[i],
/// those before the next range with a row (all the rest past the last).
template <class T>
std::size_t rows_with_range(const Dcsr<T>& a, std::size_t from,
                            std::span<const RowRange<T>> ranges,
                            std::size_t i) {
  std::size_t next = i + 1;
  while (next < ranges.size() && ranges[next].k0 == ranges[next].k1) ++next;
  const auto ar = a.rows();
  if (next == ranges.size()) return ar.size();
  return static_cast<std::size_t>(
      std::lower_bound(ar.begin() + static_cast<std::ptrdiff_t>(from),
                       ar.end(), ranges[next].blk->rows()[ranges[next].k0]) -
      ar.begin());
}

}  // namespace detail
}  // namespace gbx
