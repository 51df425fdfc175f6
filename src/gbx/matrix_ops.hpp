// gbx/matrix_ops.hpp — Matrix-level element-wise operations.
#pragma once

#include "gbx/ewise.hpp"
#include "gbx/matrix.hpp"

namespace gbx {

/// C = A ⊕ B (union) over binary op Op.
template <class Op, class T, class M>
Matrix<T, M> ewise_add(const Matrix<T, M>& A, const Matrix<T, M>& B) {
  GBX_CHECK_DIM(A.nrows() == B.nrows() && A.ncols() == B.ncols(),
                "eWiseAdd dimension mismatch");
  return Matrix<T, M>::adopt(A.nrows(), A.ncols(),
                             ewise_add<Op>(A.storage(), B.storage()));
}

/// Default-monoid sum: C = A + B over the matrices' fold monoid.
template <class T, class M>
Matrix<T, M> operator+(const Matrix<T, M>& A, const Matrix<T, M>& B) {
  return ewise_add<typename M::op_type>(A, B);
}

}  // namespace gbx
