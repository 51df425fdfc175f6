// gbx/ewise.hpp — element-wise union (add) merges.
//
// eWiseAdd over a commutative monoid is *the* operation of the paper:
// every cascade fold (A_{i+1} += A_i) and every query (A = Σ A_i) is one
// of these merges. The union kernel is a two-pass rowwise merge: pass 1
// counts the union size per output row (parallel), pass 2 fills
// (parallel), so the output DCSR is assembled without locks or
// reallocation. ewise_add_into is the arena variant the fold pipeline uses:
// row-merge scratch comes from a ScratchPool and the output lands in a
// caller-recycled Dcsr sized by Dcsr::prepare(), so cascade folds touch
// the heap only when a growing level outgrows its capacity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "gbx/dcsr.hpp"
#include "gbx/parallel.hpp"
#include "gbx/scratch.hpp"

namespace gbx {

namespace detail {

inline constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// Union-merge the non-empty row lists of A and B into caller-provided
/// arrays of capacity ra.size() + rb.size(). For each output row
/// produces the indices of that row in A and in B (kNoRow if absent).
/// Returns the number of output rows.
inline std::size_t merge_row_lists_into(std::span<const Index> ra,
                                        std::span<const Index> rb,
                                        Index* out_rows, std::size_t* ia,
                                        std::size_t* ib) {
  std::size_t a = 0, b = 0, k = 0;
  while (a < ra.size() && b < rb.size()) {
    if (ra[a] < rb[b]) {
      out_rows[k] = ra[a];
      ia[k] = a++;
      ib[k] = kNoRow;
    } else if (rb[b] < ra[a]) {
      out_rows[k] = rb[b];
      ia[k] = kNoRow;
      ib[k] = b++;
    } else {
      out_rows[k] = ra[a];
      ia[k] = a++;
      ib[k] = b++;
    }
    ++k;
  }
  for (; a < ra.size(); ++a, ++k) {
    out_rows[k] = ra[a];
    ia[k] = a;
    ib[k] = kNoRow;
  }
  for (; b < rb.size(); ++b, ++k) {
    out_rows[k] = rb[b];
    ia[k] = kNoRow;
    ib[k] = b;
  }
  return k;
}

/// Vector-output variant (delta.hpp uses it).
/// reserve + push_back: resize() would zero-fill three O(rows) arrays
/// that the merge immediately overwrites — real bandwidth on
/// hypersparse blocks where rows ≈ nnz.
inline void merge_row_lists(std::span<const Index> ra, std::span<const Index> rb,
                            std::vector<Index>& out_rows,
                            std::vector<std::size_t>& ia,
                            std::vector<std::size_t>& ib) {
  out_rows.clear();
  ia.clear();
  ib.clear();
  out_rows.reserve(ra.size() + rb.size());
  ia.reserve(ra.size() + rb.size());
  ib.reserve(ra.size() + rb.size());
  std::size_t a = 0, b = 0;
  while (a < ra.size() && b < rb.size()) {
    if (ra[a] < rb[b]) {
      out_rows.push_back(ra[a]);
      ia.push_back(a++);
      ib.push_back(kNoRow);
    } else if (rb[b] < ra[a]) {
      out_rows.push_back(rb[b]);
      ia.push_back(kNoRow);
      ib.push_back(b++);
    } else {
      out_rows.push_back(ra[a]);
      ia.push_back(a++);
      ib.push_back(b++);
    }
  }
  for (; a < ra.size(); ++a) {
    out_rows.push_back(ra[a]);
    ia.push_back(a);
    ib.push_back(kNoRow);
  }
  for (; b < rb.size(); ++b) {
    out_rows.push_back(rb[b]);
    ia.push_back(kNoRow);
    ib.push_back(b);
  }
}

/// |a ∪ b| of two sorted column segments, as |a| + |b| − |a∩b| from a
/// branch-free two-pointer walk: the interleaving of two blocks' columns
/// does not predict. Both the merge's count pass and a snapshot's
/// nvals() are mostly this walk.
inline std::size_t union_count(std::span<const Index> a,
                               std::span<const Index> b) {
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    const Index x = a[i], y = b[j];
    common += static_cast<std::size_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  return a.size() + b.size() - common;
}

}  // namespace detail

/// C = A ⊕ B (set union; both-present entries combined with Op), built
/// into a caller-recycled output block: C is sized once by
/// Dcsr::prepare() (capacity reused, no zero-fill; pass 2 is the first
/// touch) and the row-merge scratch leases from `pool`. B is the rows of
/// `ranges`, row-disjoint ranges of blocks in row order (a level held as
/// chunks; a whole block is one range), merged without being joined
/// first. This is gbx::Matrix's parallel merge, so it must not allocate
/// at steady state. Preconditions: A and B non-empty, C aliases neither.
/// Op must be commutative when used from order-agnostic callers.
template <class Op, class T>
void ewise_add_into(const Dcsr<T>& A,
                    std::span<const detail::RowRange<T>> ranges, Dcsr<T>& C,
                    ScratchPool& pool) {
  static const Dcsr<T> none;
  std::size_t nb = 0;
  for (const auto& r : ranges) nb += r.k1 - r.k0;
  const std::size_t maxr = A.rows().size() + nb;
  auto rows = pool.acquire<Index>(maxr);
  auto ia = pool.acquire<std::size_t>(maxr);
  auto ib = pool.acquire<std::size_t>(maxr);
  auto bb = pool.acquire<const Dcsr<T>*>(maxr);  // the block row k's ib is in
  auto off = pool.acquire<Offset>(maxr + 1);
  // The row lists, range by range, each with A's rows before the next.
  const auto ar = A.rows();
  std::size_t nr = 0, ka = 0;
  auto merge_rows = [&](std::size_t ka_end, const Dcsr<T>& blk,
                        std::size_t k0, std::size_t k1) {
    const std::size_t n = detail::merge_row_lists_into(
        ar.subspan(ka, ka_end - ka), blk.rows().subspan(k0, k1 - k0),
        rows.data() + nr, ia.data() + nr, ib.data() + nr);
    for (std::size_t k = nr; k < nr + n; ++k) {
      if (ia[k] != detail::kNoRow) ia[k] += ka;
      if (ib[k] != detail::kNoRow) ib[k] += k0;
      bb[k] = &blk;
    }
    nr += n;
    ka = ka_end;
  };
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto& r = ranges[i];
    if (r.k0 != r.k1)
      merge_rows(detail::rows_with_range(A, ka, ranges, i), *r.blk, r.k0, r.k1);
  }
  merge_rows(ar.size(), none, 0, 0);  // A's rows past every range

  // Pass 1: exact per-row output counts, then their prefix sum.
  off[0] = 0;
  parallel_for(nr, true, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t a = ia[k], b = ib[k];
      const Dcsr<T>& B = *bb[k];
      std::size_t cnt;
      if (a == detail::kNoRow) {
        cnt = static_cast<std::size_t>(B.ptr()[b + 1] - B.ptr()[b]);
      } else if (b == detail::kNoRow) {
        cnt = static_cast<std::size_t>(A.ptr()[a + 1] - A.ptr()[a]);
      } else {
        cnt = detail::union_count(
            A.cols().subspan(A.ptr()[a], A.ptr()[a + 1] - A.ptr()[a]),
            B.cols().subspan(B.ptr()[b], B.ptr()[b + 1] - B.ptr()[b]));
      }
      off[k + 1] = cnt;
    }
  });
  for (std::size_t k = 0; k < nr; ++k) off[k + 1] += off[k];

  C.prepare(nr, off[nr]);
  std::copy_n(rows.data(), nr, C.mutable_rows().data());
  std::copy_n(off.data(), nr + 1, C.mutable_ptr().data());

  // Pass 2: fill.
  auto& cc = C.mutable_cols();
  auto& cv = C.mutable_vals();
  parallel_for(nr, true, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      Offset w = off[k];
      const std::size_t a = ia[k], b = ib[k];
      const Dcsr<T>& B = *bb[k];
      if (a == detail::kNoRow) {
        for (Offset p = B.ptr()[b]; p < B.ptr()[b + 1]; ++p, ++w) {
          cc[w] = B.cols()[p];
          cv[w] = B.vals()[p];
        }
        continue;
      }
      if (b == detail::kNoRow) {
        for (Offset p = A.ptr()[a]; p < A.ptr()[a + 1]; ++p, ++w) {
          cc[w] = A.cols()[p];
          cv[w] = A.vals()[p];
        }
        continue;
      }
      Offset pa = A.ptr()[a], ea = A.ptr()[a + 1];
      Offset pb = B.ptr()[b], eb = B.ptr()[b + 1];
      while (pa < ea && pb < eb) {
        const Index caI = A.cols()[pa], cbI = B.cols()[pb];
        if (caI < cbI) {
          cc[w] = caI;
          cv[w++] = A.vals()[pa++];
        } else if (cbI < caI) {
          cc[w] = cbI;
          cv[w++] = B.vals()[pb++];
        } else {
          cc[w] = caI;
          cv[w++] = Op::apply(A.vals()[pa++], B.vals()[pb++]);
        }
      }
      for (; pa < ea; ++pa, ++w) {
        cc[w] = A.cols()[pa];
        cv[w] = A.vals()[pa];
      }
      for (; pb < eb; ++pb, ++w) {
        cc[w] = B.cols()[pb];
        cv[w] = B.vals()[pb];
      }
    }
  });
}

/// ewise_add_into over one whole block B.
template <class Op, class T>
void ewise_add_into(const Dcsr<T>& A, const Dcsr<T>& B, Dcsr<T>& C,
                    ScratchPool& pool) {
  const detail::RowRange<T> all{&B, 0, B.nrows_nonempty()};
  ewise_add_into<Op>(A, std::span<const detail::RowRange<T>>(&all, 1), C,
                     pool);
}

/// C = A ⊕ B returning a fresh block. Delegates to ewise_add_into with
/// the calling thread's scratch pool (row-merge scratch recycled).
template <class Op, class T>
Dcsr<T> ewise_add(const Dcsr<T>& A, const Dcsr<T>& B) {
  if (A.empty()) return B;
  if (B.empty()) return A;
  Dcsr<T> C;
  ewise_add_into<Op>(A, B, C, ScratchPool::local());
  return C;
}

}  // namespace gbx
