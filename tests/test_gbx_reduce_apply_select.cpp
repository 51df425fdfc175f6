// Tests for reductions, apply, select and transpose.
#include <gtest/gtest.h>

#include <array>
#include <random>

#include "gbx/apply.hpp"
#include "gbx/matrix.hpp"
#include "gbx/ops.hpp"
#include "gbx/reduce.hpp"
#include "gbx/select.hpp"
#include "gbx/transpose.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;

Matrix<double> fixture() {
  //     0    1    2
  // 0 [ 1         2 ]
  // 5 [      3      ]
  // 9 [ 4    5    6 ]   (rows 0,5,9 of a 10x3 matrix)
  Matrix<double> m(10, 3);
  m.set_element(0, 0, 1);
  m.set_element(0, 2, 2);
  m.set_element(5, 1, 3);
  m.set_element(9, 0, 4);
  m.set_element(9, 1, 5);
  m.set_element(9, 2, 6);
  m.materialize();
  return m;
}

TEST(Reduce, ScalarPlus) {
  auto m = fixture();
  EXPECT_DOUBLE_EQ((gbx::reduce_scalar<gbx::PlusMonoid<double>>(m)), 21.0);
}

TEST(Reduce, ScalarMinMax) {
  auto m = fixture();
  EXPECT_DOUBLE_EQ((gbx::reduce_scalar<gbx::MinMonoid<double>>(m)), 1.0);
  EXPECT_DOUBLE_EQ((gbx::reduce_scalar<gbx::MaxMonoid<double>>(m)), 6.0);
}

TEST(Reduce, ScalarEmptyIsIdentity) {
  Matrix<double> m(4, 4);
  EXPECT_DOUBLE_EQ((gbx::reduce_scalar<gbx::PlusMonoid<double>>(m)), 0.0);
}

TEST(Reduce, ScalarIsBitIdenticalAtEveryTeamSize) {
  // Above the fork cutoff, with values whose sum depends on its order:
  // 1e16 + 1 rounds back to 1e16, so each middle row sums to 0 or 1 by
  // where its 1 sits, and the lone 1e16 and -1e16 of the first and last
  // rows absorb those row sums only when they are folded in row order.
  constexpr double kBig = 1e16;
  constexpr std::array<double, 3> kTriple{kBig, 1.0, -kBig};
  constexpr Index kRows = 40000;
  Matrix<double> m(kRows + 2, 3);
  m.set_element(0, 0, kBig);
  for (Index i = 1; i <= kRows; ++i)
    for (Index j = 0; j < 3; ++j) m.set_element(i, j, kTriple[(i + j) % 3]);
  m.set_element(kRows + 1, 0, -kBig);
  m.materialize();
  ASSERT_GE(m.nvals(), gbx::detail::kParallelReduceCutoff);

  // Each row folded in column order, then the row sums in row order.
  double want = 0, row_sum = 0;
  Index row = 0;
  m.for_each([&](Index i, Index, double v) {
    if (i != row) {
      want += row_sum;
      row_sum = 0;
      row = i;
    }
    row_sum += v;
  });
  want += row_sum;

  proptest::for_team_sizes([&] {
    EXPECT_EQ((gbx::reduce_scalar<gbx::PlusMonoid<double>>(m)), want);
  });
}

TEST(Reduce, Rows) {
  auto m = fixture();
  auto r = gbx::reduce_rows<gbx::PlusMonoid<double>>(m);
  EXPECT_EQ(r.nvals(), 3u);  // hypersparse: only non-empty rows
  EXPECT_DOUBLE_EQ(r.get(0).value(), 3.0);
  EXPECT_DOUBLE_EQ(r.get(5).value(), 3.0);
  EXPECT_DOUBLE_EQ(r.get(9).value(), 15.0);
  EXPECT_FALSE(r.get(1).has_value());
}

TEST(Reduce, Cols) {
  auto m = fixture();
  auto c = gbx::reduce_cols<gbx::PlusMonoid<double>>(m);
  EXPECT_EQ(c.nvals(), 3u);
  EXPECT_DOUBLE_EQ(c.get(0).value(), 5.0);
  EXPECT_DOUBLE_EQ(c.get(1).value(), 8.0);
  EXPECT_DOUBLE_EQ(c.get(2).value(), 8.0);
}

TEST(Reduce, RowColConsistentWithScalar) {
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<Index> coord(0, (Index{1} << 24) - 1);
  Matrix<double> m(Index{1} << 24, Index{1} << 24);
  for (int k = 0; k < 5000; ++k)
    m.set_element(coord(rng), coord(rng), 1.0);
  m.materialize();
  const double total = gbx::reduce_scalar<gbx::PlusMonoid<double>>(m);
  auto r = gbx::reduce_rows<gbx::PlusMonoid<double>>(m);
  auto c = gbx::reduce_cols<gbx::PlusMonoid<double>>(m);
  EXPECT_NEAR(r.reduce<gbx::PlusMonoid<double>>(), total, 1e-6);
  EXPECT_NEAR(c.reduce<gbx::PlusMonoid<double>>(), total, 1e-6);
}

TEST(Apply, OnePatternizes) {
  auto m = fixture();
  auto p = gbx::apply<gbx::One<double>>(m);
  EXPECT_EQ(p.nvals(), m.nvals());
  p.for_each([](Index, Index, double v) { EXPECT_DOUBLE_EQ(v, 1.0); });
}

TEST(Apply, AInvNegates) {
  auto m = fixture();
  auto n = gbx::apply<gbx::AInv<double>>(m);
  EXPECT_DOUBLE_EQ(n.extract_element(9, 2).value(), -6.0);
}

TEST(Apply, BindScales) {
  auto m = fixture();
  gbx::Bind2nd<gbx::Times<double>> scale{10.0};
  auto s = gbx::apply_fn(m, scale);
  EXPECT_DOUBLE_EQ(s.extract_element(0, 2).value(), 20.0);
  EXPECT_DOUBLE_EQ(s.extract_element(9, 0).value(), 40.0);
}

TEST(Select, TrilTriuPartition) {
  Matrix<double> m(5, 5);
  for (Index i = 0; i < 5; ++i)
    for (Index j = 0; j < 5; ++j) m.set_element(i, j, 1.0);
  m.materialize();
  auto lo = gbx::tril(m, -1);  // strictly below
  auto di = gbx::select(m, [](Index i, Index j, double) { return i == j; });
  auto hi = gbx::triu(m, 1);  // strictly above
  EXPECT_EQ(lo.nvals() + di.nvals() + hi.nvals(), 25u);
  EXPECT_EQ(di.nvals(), 5u);
  EXPECT_EQ(lo.nvals(), 10u);
  EXPECT_EQ(hi.nvals(), 10u);
}

TEST(Select, OffdiagRemovesSelfLoops) {
  Matrix<double> m(4, 4);
  m.set_element(1, 1, 1.0);
  m.set_element(1, 2, 1.0);
  auto o = gbx::offdiag(m);
  EXPECT_EQ(o.nvals(), 1u);
  EXPECT_FALSE(o.extract_element(1, 1).has_value());
}

TEST(Select, ExplicitZeroIsAnEntry) {
  Matrix<double> m(4, 4);
  m.set_element(0, 0, 0.0);
  m.set_element(0, 1, 2.0);
  m.set_element(0, 2, 5.0);
  EXPECT_EQ(m.nvals(), 3u);  // explicit zero is an entry
}

TEST(Select, HugeIndexTriangles) {
  // tril/triu comparisons must not wrap at 2^63.
  Matrix<double> m(gbx::kIPv6Dim, gbx::kIPv6Dim);
  const Index big = Index{1} << 63;
  m.set_element(big, big - 1, 1.0);  // below diagonal
  m.set_element(big, big + 1, 1.0);  // above diagonal
  EXPECT_EQ(gbx::tril(m).nvals(), 1u);
  EXPECT_EQ(gbx::triu(m).nvals(), 1u);
}

TEST(Transpose, InvolutionAndShape) {
  auto m = fixture();
  auto t = gbx::transpose(m);
  EXPECT_EQ(t.nrows(), 3u);
  EXPECT_EQ(t.ncols(), 10u);
  EXPECT_DOUBLE_EQ(t.extract_element(2, 9).value(), 6.0);
  auto tt = gbx::transpose(t);
  EXPECT_TRUE(gbx::equal(tt, m));
}

TEST(Transpose, RandomLarge) {
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<Index> coord(0, (Index{1} << 28) - 1);
  Matrix<double> m(Index{1} << 28, Index{1} << 28);
  for (int k = 0; k < 40000; ++k)
    m.set_element(coord(rng), coord(rng), static_cast<double>(k % 17));
  m.materialize();
  auto t = gbx::transpose(m);
  EXPECT_EQ(t.nvals(), m.nvals());
  EXPECT_TRUE(gbx::equal(gbx::transpose(t), m));
}

}  // namespace
