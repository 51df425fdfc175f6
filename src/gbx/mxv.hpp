// gbx/mxv.hpp — sparse matrix-vector products over a semiring.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/semiring.hpp"
#include "gbx/vector.hpp"

namespace gbx {

/// y = A ⊕.⊗ x. Sparse-dot per stored row of A (two-pointer intersection
/// of the row pattern with x's index list).
template <class S, class T, class M>
SparseVector<T> mxv(const Matrix<T, M>& A, const SparseVector<T>& x) {
  GBX_CHECK_DIM(A.ncols() == x.size(), "mxv dimension mismatch");
  const Dcsr<T>& s = A.storage();
  const auto xi = x.indices();
  const auto xv = x.values();

  std::vector<Index> oi;
  std::vector<T> ov;
  for (std::size_t k = 0; k < s.nrows_nonempty(); ++k) {
    Offset p = s.ptr()[k];
    const Offset e = s.ptr()[k + 1];
    std::size_t q = 0;
    T a = S::zero();
    bool any = false;
    while (p < e && q < xi.size()) {
      const Index cj = s.cols()[p];
      if (cj < xi[q]) ++p;
      else if (xi[q] < cj) ++q;
      else {
        a = S::add(a, S::mul(s.vals()[p], xv[q]));
        any = true;
        ++p;
        ++q;
      }
    }
    if (any) {
      oi.push_back(s.rows()[k]);
      ov.push_back(a);
    }
  }
  SparseVector<T> y(A.nrows());
  y.adopt(std::move(oi), std::move(ov));
  return y;
}

/// y = x ⊕.⊗ A (row vector times matrix). Scatter-accumulate per column
/// into one hash map, in x's index order: each column sums its terms in
/// the same order as mxv over Aᵀ.
template <class S, class T, class M>
SparseVector<T> vxm(const SparseVector<T>& x, const Matrix<T, M>& A) {
  GBX_CHECK_DIM(x.size() == A.nrows(), "vxm dimension mismatch");
  const Dcsr<T>& s = A.storage();
  const auto xi = x.indices();
  const auto xv = x.values();
  const auto rows = s.rows();

  std::unordered_map<Index, T> acc;
  for (std::size_t q = 0; q < xi.size(); ++q) {
    auto rit = std::lower_bound(rows.begin(), rows.end(), xi[q]);
    if (rit == rows.end() || *rit != xi[q]) continue;
    const std::size_t k = static_cast<std::size_t>(rit - rows.begin());
    for (Offset p = s.ptr()[k]; p < s.ptr()[k + 1]; ++p) {
      const T prod = S::mul(xv[q], s.vals()[p]);
      auto [slot, fresh] = acc.try_emplace(s.cols()[p], prod);
      if (!fresh) slot->second = S::add(slot->second, prod);
    }
  }

  std::vector<std::pair<Index, T>> out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Index> oi(out.size());
  std::vector<T> ov(out.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    oi[k] = out[k].first;
    ov[k] = out[k].second;
  }
  SparseVector<T> y(A.ncols());
  y.adopt(std::move(oi), std::move(ov));
  return y;
}

}  // namespace gbx
