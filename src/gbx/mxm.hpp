// gbx/mxm.hpp — sparse matrix-matrix multiply over a semiring.
//
// Gustavson's algorithm with a per-row hash accumulator, row by row over
// the non-empty rows of A. Rows of B are located through a one-time hash
// index of B's hyper row list, so the inner loop costs O(1) per term —
// this is the hypersparse analogue of SuiteSparse's hash SpGEMM.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/semiring.hpp"

namespace gbx {

/// C = A ⊕.⊗ B over semiring S.
template <class S, class T, class M>
Matrix<T, M> mxm(const Matrix<T, M>& A, const Matrix<T, M>& B) {
  GBX_CHECK_DIM(A.ncols() == B.nrows(), "mxm inner dimension mismatch");
  const Dcsr<T>& sa = A.storage();
  const Dcsr<T>& sb = B.storage();

  // Hash index over B's stored rows: row id -> position in sb.rows().
  std::unordered_map<Index, std::size_t> brow;
  brow.reserve(sb.nrows_nonempty() * 2);
  for (std::size_t k = 0; k < sb.nrows_nonempty(); ++k)
    brow.emplace(sb.rows()[k], k);

  Dcsr<T> c;
  auto& rows = c.mutable_rows();
  auto& ptr = c.mutable_ptr();
  auto& cols = c.mutable_cols();
  auto& vals = c.mutable_vals();
  ptr.assign(1, 0);
  std::unordered_map<Index, T> acc;
  std::vector<std::pair<Index, T>> out;
  for (std::size_t k = 0; k < sa.nrows_nonempty(); ++k) {
    acc.clear();
    for (Offset p = sa.ptr()[k]; p < sa.ptr()[k + 1]; ++p) {
      auto it = brow.find(sa.cols()[p]);
      if (it == brow.end()) continue;
      const T va = sa.vals()[p];
      const std::size_t kb = it->second;
      for (Offset q = sb.ptr()[kb]; q < sb.ptr()[kb + 1]; ++q) {
        const T prod = S::mul(va, sb.vals()[q]);
        auto [slot, fresh] = acc.try_emplace(sb.cols()[q], prod);
        if (!fresh) slot->second = S::add(slot->second, prod);
      }
    }
    if (acc.empty()) continue;
    out.assign(acc.begin(), acc.end());
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    rows.push_back(sa.rows()[k]);
    for (const auto& [j, v] : out) {
      cols.push_back(j);
      vals.push_back(v);
    }
    ptr.push_back(cols.size());
  }
  return Matrix<T, M>::adopt(A.nrows(), B.ncols(), std::move(c));
}

}  // namespace gbx
