// gbx/select.hpp — entry selection (GxB_select analogue).
//
// Keeps the subset of entries satisfying a predicate over (row, col,
// value). The structural selectors triangle counting uses (tril, triu,
// offdiag) are provided as helpers.
#pragma once

#include <vector>

#include "gbx/matrix.hpp"

namespace gbx {

/// C = A where pred(i, j, v). The predicate must be pure.
template <class T, class M, class Pred>
Matrix<T, M> select(const Matrix<T, M>& A, Pred&& pred) {
  const Dcsr<T>& s = A.storage();
  std::vector<Entry<T>> keep;
  keep.reserve(s.nnz() / 4 + 16);
  s.for_each([&](Index i, Index j, T v) {
    if (pred(i, j, v)) keep.push_back({i, j, v});
  });
  keep.shrink_to_fit();
  return Matrix<T, M>::adopt(A.nrows(), A.ncols(),
                             Dcsr<T>::from_sorted_unique(keep));
}

/// Lower triangle at or below diagonal k (j <= i + k, signed offset).
template <class T, class M>
Matrix<T, M> tril(const Matrix<T, M>& A, std::int64_t k = 0) {
  return select(A, [k](Index i, Index j, T) {
    // Compare in signed 128-bit space to dodge wraparound at huge indices.
    return static_cast<__int128>(j) <= static_cast<__int128>(i) + k;
  });
}

/// Upper triangle at or above diagonal k.
template <class T, class M>
Matrix<T, M> triu(const Matrix<T, M>& A, std::int64_t k = 0) {
  return select(A, [k](Index i, Index j, T) {
    return static_cast<__int128>(j) >= static_cast<__int128>(i) + k;
  });
}

/// Off-diagonal entries only (GraphBLAS offdiag; removes self-loops).
template <class T, class M>
Matrix<T, M> offdiag(const Matrix<T, M>& A) {
  return select(A, [](Index i, Index j, T) { return i != j; });
}

}  // namespace gbx
