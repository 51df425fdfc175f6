// gbx/apply.hpp — unary transforms over stored values (GrB_apply).
//
// Structure is preserved exactly: apply never drops entries even when the
// op maps a value to zero (explicit zeros are legal entries in GraphBLAS;
// use select.hpp to prune).
#pragma once

#include "gbx/matrix.hpp"
#include "gbx/ops.hpp"

namespace gbx {

/// C = op(A) for a stateless unary op type (apply<One<T>>, ...).
template <class UnaryOpT, class T, class M>
Matrix<T, M> apply(const Matrix<T, M>& A) {
  Dcsr<T> c = A.storage();
  for (auto&& v : c.mutable_vals()) v = UnaryOpT::apply(v);
  return Matrix<T, M>::adopt(A.nrows(), A.ncols(), std::move(c));
}

/// C = f(A) for a stateful functor with T operator-style `apply(T)`
/// (Bind1st/Bind2nd instances, lambdas wrapped in a struct, ...).
template <class T, class M, class F>
Matrix<T, M> apply_fn(const Matrix<T, M>& A, const F& f) {
  Dcsr<T> c = A.storage();
  for (auto&& v : c.mutable_vals()) v = f.apply(v);
  return Matrix<T, M>::adopt(A.nrows(), A.ncols(), std::move(c));
}

}  // namespace gbx
