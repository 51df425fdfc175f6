// gbx/mxm_masked.hpp — masked SpGEMM: C<M> = A ⊕.⊗ B.
//
// The structural mask restricts computation to coordinates present in M,
// the key optimization of SuiteSparse's triangle counting (only wedge
// counts over existing edges are ever computed, turning an O(nnz^2/n)
// product into O(nnz * avg_deg)). The kernel iterates M's pattern and
// evaluates sparse dot products A(i,:) . B(:,j) directly.
#pragma once

#include <unordered_map>

#include "gbx/matrix.hpp"
#include "gbx/semiring.hpp"
#include "gbx/transpose.hpp"

namespace gbx {

/// C<M> = A ⊕.⊗ B, structural mask (only M's stored coordinates may hold
/// output entries; dot products with empty intersections produce none).
template <class S, class T, class M, class TM, class MM>
Matrix<T, M> mxm_masked(const Matrix<TM, MM>& mask, const Matrix<T, M>& A,
                        const Matrix<T, M>& B) {
  GBX_CHECK_DIM(A.ncols() == B.nrows(), "mxm inner dimension mismatch");
  GBX_CHECK_DIM(mask.nrows() == A.nrows() && mask.ncols() == B.ncols(),
                "mask dimension mismatch");

  // Dot-product formulation needs B by column: use B^T rows.
  auto bt = transpose(B);
  const Dcsr<T>& sa = A.storage();
  const Dcsr<T>& sbt = bt.storage();
  const Dcsr<TM>& sm = mask.storage();

  // Row-id -> hyper position indexes for A and B^T.
  std::unordered_map<Index, std::size_t> arow, btrow;
  arow.reserve(sa.nrows_nonempty() * 2);
  for (std::size_t k = 0; k < sa.nrows_nonempty(); ++k)
    arow.emplace(sa.rows()[k], k);
  btrow.reserve(sbt.nrows_nonempty() * 2);
  for (std::size_t k = 0; k < sbt.nrows_nonempty(); ++k)
    btrow.emplace(sbt.rows()[k], k);

  std::vector<Entry<T>> ent;
  for (std::size_t mk = 0; mk < sm.nrows_nonempty(); ++mk) {
    const Index i = sm.rows()[mk];
    auto ait = arow.find(i);
    if (ait == arow.end()) continue;
    const std::size_t ka = ait->second;
    const Offset abeg = sa.ptr()[ka], aend = sa.ptr()[ka + 1];

    for (Offset mp = sm.ptr()[mk]; mp < sm.ptr()[mk + 1]; ++mp) {
      const Index j = sm.cols()[mp];
      auto bit = btrow.find(j);
      if (bit == btrow.end()) continue;
      const std::size_t kb = bit->second;
      // Sparse dot of A(i,:) with B(:,j) == B^T(j,:).
      Offset pa = abeg, pb = sbt.ptr()[kb];
      const Offset eb = sbt.ptr()[kb + 1];
      T acc = S::zero();
      bool any = false;
      while (pa < aend && pb < eb) {
        const Index ca = sa.cols()[pa], cb = sbt.cols()[pb];
        if (ca < cb) ++pa;
        else if (cb < ca) ++pb;
        else {
          acc = S::add(acc, S::mul(sa.vals()[pa++], sbt.vals()[pb++]));
          any = true;
        }
      }
      if (any) ent.push_back({i, j, acc});
    }
  }
  // Mask rows were walked in order and columns within a mask row are
  // sorted, so ent is already (row, col) sorted.
  return Matrix<T, M>::adopt(A.nrows(), B.ncols(),
                             Dcsr<T>::from_sorted_unique(ent));
}

}  // namespace gbx
