// gbx/reduce.hpp — monoid reductions of matrices to scalars and vectors.
#pragma once

#include <algorithm>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/parallel.hpp"
#include "gbx/vector.hpp"
#include "gbx/view.hpp"

namespace gbx {

namespace detail {

/// Below this many stored entries a scalar reduction runs on the
/// calling thread: forking a team costs more than the scan it would
/// split (a query over a near-empty snapshot otherwise spins every
/// core). The per-row partials make the result independent of the team
/// size.
inline constexpr std::size_t kParallelReduceCutoff = std::size_t{1} << 16;

/// Sum of one stored row, in column order.
template <class MonoidT, class T>
T reduce_row(const Dcsr<T>& s, std::size_t k) {
  T acc = MonoidT::identity();
  for (Offset p = s.ptr()[k]; p < s.ptr()[k + 1]; ++p)
    acc = MonoidT::apply(acc, s.vals()[p]);
  return acc;
}

/// Shared reduction core over raw DCSR storage: the rows at positions
/// [k0, k1), by default every row.
template <class MonoidT, class T>
T reduce_scalar_dcsr(const Dcsr<T>& s, std::size_t k0 = 0,
                     std::size_t k1 = static_cast<std::size_t>(-1)) {
  k1 = std::min(k1, s.nrows_nonempty());
  std::vector<T> partial(k1 - k0, MonoidT::identity());
  parallel_for(k1 - k0, s.ptr()[k1] - s.ptr()[k0] >= kParallelReduceCutoff,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t k = begin; k < end; ++k)
                   partial[k] = reduce_row<MonoidT>(s, k0 + k);
               });
  T acc = MonoidT::identity();
  for (const T& v : partial) acc = MonoidT::apply(acc, v);
  return acc;
}

}  // namespace detail

/// Fold every stored value into one scalar. Identity for an empty matrix.
template <class MonoidT, class T, class M>
T reduce_scalar(const Matrix<T, M>& A) {
  return detail::reduce_scalar_dcsr<MonoidT>(A.storage());
}

/// Scalar reduction of an immutable view — the query-while-ingest read
/// path: no fold, no copy, safe concurrently with the owner's streaming.
template <class MonoidT, class T>
T reduce_scalar(const MatrixView<T>& A) {
  return detail::reduce_scalar_dcsr<MonoidT>(A.storage());
}

namespace detail {

template <class MonoidT, class T>
SparseVector<T> reduce_rows_dcsr(const Dcsr<T>& s, Index nrows) {
  const auto nr = s.nrows_nonempty();
  std::vector<Index> idx(s.rows().begin(), s.rows().end());
  std::vector<T> val(nr);
  for (std::size_t k = 0; k < nr; ++k) val[k] = reduce_row<MonoidT>(s, k);
  SparseVector<T> out(nrows);
  out.adopt(std::move(idx), std::move(val));
  return out;
}

}  // namespace detail

/// Row reduction: out(i) = ⊕_j A(i,j). Result is hypersparse — only rows
/// with entries appear. (GrB_Matrix_reduce to a vector.)
template <class MonoidT, class T, class M>
SparseVector<T> reduce_rows(const Matrix<T, M>& A) {
  return detail::reduce_rows_dcsr<MonoidT>(A.storage(), A.nrows());
}

/// Row reduction of an immutable view (zero-copy read path).
template <class MonoidT, class T>
SparseVector<T> reduce_rows(const MatrixView<T>& A) {
  return detail::reduce_rows_dcsr<MonoidT>(A.storage(), A.nrows());
}

namespace detail {

template <class MonoidT, class T>
SparseVector<T> reduce_cols_dcsr(const Dcsr<T>& s, Index ncols) {
  std::vector<std::pair<Index, T>> acc;
  acc.reserve(s.nnz());
  s.for_each([&](Index, Index j, T v) { acc.emplace_back(j, v); });
  std::sort(acc.begin(), acc.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Index> idx;
  std::vector<T> val;
  for (const auto& [j, v] : acc) {
    if (!idx.empty() && idx.back() == j) {
      val.back() = MonoidT::apply(val.back(), v);
    } else {
      idx.push_back(j);
      val.push_back(v);
    }
  }
  SparseVector<T> out(ncols);
  out.adopt(std::move(idx), std::move(val));
  return out;
}

}  // namespace detail

/// Column reduction: out(j) = ⊕_i A(i,j). Sort-based gather by column.
template <class MonoidT, class T, class M>
SparseVector<T> reduce_cols(const Matrix<T, M>& A) {
  return detail::reduce_cols_dcsr<MonoidT>(A.storage(), A.ncols());
}

/// Column reduction of an immutable view (zero-copy read path).
template <class MonoidT, class T>
SparseVector<T> reduce_cols(const MatrixView<T>& A) {
  return detail::reduce_cols_dcsr<MonoidT>(A.storage(), A.ncols());
}

}  // namespace gbx
