// gbx/delta.hpp — structural/value deltas between immutable blocks.
//
// The snapshot engine (hier/snapshot.hpp) publishes immutable DCSR
// blocks; successive snapshots of the same source share every block the
// writer has not folded past, by shared_ptr identity, and hier's
// snapshot_diff skips those (hier::Level::unshared). This header supplies
// the merge it runs over the rest: delta(A, B), extracting the entries
// of B not in A (added), of A not in B (removed), and the coordinates
// stored in both with unequal values (changed, old & new value).
//
// delta() is symmetric in structure with ewise_add: a two-pointer union
// merge over the non-empty row lists, O(nnz(A) + nnz(B)), with a pass-1
// count / pass-2 fill shape kept simple (single allocation per stream,
// no locks).
#pragma once

#include <cstddef>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/dcsr.hpp"
#include "gbx/ewise.hpp"
#include "gbx/types.hpp"

namespace gbx {

/// A coordinate whose stored value changed between two blocks.
template <class T>
struct ChangedEntry {
  Index row = 0;
  Index col = 0;
  T old_val{};
  T new_val{};
};

/// Difference of block B relative to block A.
template <class T>
struct BlockDelta {
  Tuples<T> added;                        ///< in B, not in A (B's value)
  Tuples<T> removed;                      ///< in A, not in B (A's value)
  std::vector<ChangedEntry<T>> changed;   ///< in both, values unequal
  std::size_t entries_scanned = 0;        ///< nnz(A) + nnz(B) examined

  bool empty() const {
    return added.empty() && removed.empty() && changed.empty();
  }
  /// Coordinates at which A and B differ in any way.
  std::size_t touched() const {
    return added.size() + removed.size() + changed.size();
  }
};

/// Extract the difference of B relative to A as entry streams. The merge
/// walks both blocks once; rows present in only one side are bulk-copied
/// into added/removed without column comparisons.
template <class T>
BlockDelta<T> delta(const Dcsr<T>& A, const Dcsr<T>& B) {
  BlockDelta<T> d;
  d.entries_scanned = A.nnz() + B.nnz();
  if (A.nnz() == 0 && B.nnz() == 0) return d;

  std::vector<Index> rows;
  std::vector<std::size_t> ia, ib;
  detail::merge_row_lists(A.rows(), B.rows(), rows, ia, ib);

  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Index r = rows[k];
    const std::size_t a = ia[k], b = ib[k];
    if (a == detail::kNoRow) {  // row only in B: every entry added
      for (Offset p = B.ptr()[b]; p < B.ptr()[b + 1]; ++p)
        d.added.push_back(r, B.cols()[p], B.vals()[p]);
      continue;
    }
    if (b == detail::kNoRow) {  // row only in A: every entry removed
      for (Offset p = A.ptr()[a]; p < A.ptr()[a + 1]; ++p)
        d.removed.push_back(r, A.cols()[p], A.vals()[p]);
      continue;
    }
    Offset pa = A.ptr()[a], ea = A.ptr()[a + 1];
    Offset pb = B.ptr()[b], eb = B.ptr()[b + 1];
    while (pa < ea && pb < eb) {
      const Index ca = A.cols()[pa], cb = B.cols()[pb];
      if (ca < cb) {
        d.removed.push_back(r, ca, A.vals()[pa++]);
      } else if (cb < ca) {
        d.added.push_back(r, cb, B.vals()[pb++]);
      } else {
        if (!(A.vals()[pa] == B.vals()[pb]))
          d.changed.push_back({r, ca, A.vals()[pa], B.vals()[pb]});
        ++pa;
        ++pb;
      }
    }
    for (; pa < ea; ++pa) d.removed.push_back(r, A.cols()[pa], A.vals()[pa]);
    for (; pb < eb; ++pb) d.added.push_back(r, B.cols()[pb], B.vals()[pb]);
  }
  return d;
}

}  // namespace gbx
