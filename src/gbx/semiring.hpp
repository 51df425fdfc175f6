// gbx/semiring.hpp — semirings for matrix multiplication.
//
// A semiring pairs an additive monoid with a multiplicative binary op,
// exactly as in the GraphBLAS math spec (Kepner et al., HPEC 2016). mxm
// and mxm_masked are parameterized over these.
#pragma once

#include "gbx/monoid.hpp"

namespace gbx {

/// Semiring = (additive monoid ⊕, multiplicative op ⊗).
template <class AddMonoid, class MulOp>
struct Semiring {
  using add_monoid = AddMonoid;
  using mul_op = MulOp;
  using value_type = typename AddMonoid::value_type;

  static constexpr value_type add(value_type a, value_type b) {
    return AddMonoid::apply(a, b);
  }
  static constexpr value_type mul(value_type a, value_type b) {
    return MulOp::apply(a, b);
  }
  static constexpr value_type zero() { return AddMonoid::identity(); }
};

/// Conventional arithmetic semiring (+, *): linear algebra.
template <class T>
using PlusTimes = Semiring<PlusMonoid<T>, Times<T>>;

/// Tropical semiring (min, +): shortest paths.
template <class T>
using MinPlus = Semiring<MinMonoid<T>, Plus<T>>;

/// (max, +): critical paths / longest chains.
template <class T>
using MaxPlus = Semiring<MaxMonoid<T>, Plus<T>>;

/// (min, times).
template <class T>
using MinTimes = Semiring<MinMonoid<T>, Times<T>>;

/// Boolean semiring (or, and): reachability.
template <class T>
using LorLand = Semiring<LorMonoid<T>, LogicalAnd<T>>;

/// (plus, first)/(plus, second): degree-style counting products.
template <class T>
using PlusFirst = Semiring<PlusMonoid<T>, First<T>>;
template <class T>
using PlusSecond = Semiring<PlusMonoid<T>, Second<T>>;

/// (plus, one-like via LAnd on 0/1 patterns) — triangle counting style.
template <class T>
using PlusLand = Semiring<PlusMonoid<T>, LogicalAnd<T>>;

}  // namespace gbx
