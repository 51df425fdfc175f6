// algo/triangle_count.hpp — triangle counting via masked SpGEMM.
//
// The Davis / GraphChallenge formulation the paper's authors benchmark
// SuiteSparse with (Davis, HPEC 2018): for an undirected simple graph
// with adjacency A, ntri = sum(L .* (L x U)) where L/U are the strict
// triangles of A. Here expressed with gbx kernels: tril/triu selection,
// plus-times mxm, eWiseMult mask, plus-reduce.
#pragma once

#include <cstdint>

#include "gbx/apply.hpp"
#include "gbx/matrix_ops.hpp"
#include "gbx/mxm_masked.hpp"
#include "gbx/ops.hpp"
#include "gbx/reduce.hpp"
#include "gbx/select.hpp"
#include "gbx/semiring.hpp"
#include "gbx/transpose.hpp"

namespace algo {

/// Number of triangles in the undirected simple graph whose adjacency
/// pattern is A (values ignored; A is symmetrized internally so directed
/// traffic matrices can be passed straight in; self-loops dropped).
template <class T, class M>
std::uint64_t triangle_count(const gbx::Matrix<T, M>& A) {
  GBX_CHECK_DIM(A.nrows() == A.ncols(),
                "triangle_count requires a square matrix");
  // Symmetrize the pattern: S = one(A) ⊕ one(A)^T, self-loops removed.
  auto p = gbx::apply<gbx::One<T>>(gbx::offdiag(A));
  auto s = gbx::ewise_add<gbx::LogicalOr<T>>(p, gbx::transpose(p));

  auto l = gbx::tril(s, -1);
  auto u = gbx::triu(s, 1);
  // C<L> = L x U: wedge counts computed only at existing edges — the
  // masked-SpGEMM formulation (SuiteSparse's tricount), which never
  // materializes wedge counts for non-edges.
  auto closed = gbx::mxm_masked<gbx::PlusTimes<T>>(l, l, u);
  const T total = gbx::reduce_scalar<gbx::PlusMonoid<T>>(closed);
  return static_cast<std::uint64_t>(total);
}

}  // namespace algo
