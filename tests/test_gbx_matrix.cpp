// Tests for the Matrix façade: pending tuples, materialization, build,
// bounds checking, plus_assign.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <span>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/matrix_ops.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;
using gbx::Tuples;

TEST(Matrix, ConstructionAndDims) {
  Matrix<double> a(10, 20);
  EXPECT_EQ(a.nrows(), 10u);
  EXPECT_EQ(a.ncols(), 20u);
  EXPECT_EQ(a.nvals(), 0u);
  EXPECT_TRUE(a.empty());
  Matrix<double> sq(7);
  EXPECT_EQ(sq.nrows(), 7u);
  EXPECT_EQ(sq.ncols(), 7u);
}

TEST(Matrix, ZeroDimensionThrows) {
  EXPECT_THROW(Matrix<double>(0, 5), gbx::InvalidValue);
  EXPECT_THROW(Matrix<double>(5, 0), gbx::InvalidValue);
}

TEST(Matrix, IPv6ScaleDimensions) {
  Matrix<double> a(gbx::kIPv6Dim, gbx::kIPv6Dim);
  a.set_element(gbx::kIPv6Dim - 1, 0, 1.0);
  a.set_element(0, gbx::kIPv6Dim - 1, 2.0);
  EXPECT_EQ(a.nvals(), 2u);
  EXPECT_LT(a.memory_bytes(), 4096u);
}

TEST(Matrix, SetElementAccumulates) {
  Matrix<double> a(100, 100);
  a.set_element(3, 4, 1.5);
  a.set_element(3, 4, 2.5);
  EXPECT_DOUBLE_EQ(a.extract_element(3, 4).value(), 4.0);
  EXPECT_FALSE(a.extract_element(4, 3).has_value());
}

TEST(Matrix, MaxMonoidPolicy) {
  Matrix<double, gbx::MaxMonoid<double>> a(10, 10);
  a.set_element(1, 1, 3.0);
  a.set_element(1, 1, 7.0);
  a.set_element(1, 1, 5.0);
  EXPECT_DOUBLE_EQ(a.extract_element(1, 1).value(), 7.0);
}

TEST(Matrix, PendingSemantics) {
  Matrix<double> a(100, 100);
  a.set_element(1, 1, 1.0);
  a.set_element(1, 1, 1.0);
  EXPECT_EQ(a.pending_count(), 2u);      // two buffered updates
  EXPECT_EQ(a.nvals_bound(), 2u);        // bound counts duplicates
  EXPECT_EQ(a.nvals(), 1u);              // exact count folds them
  EXPECT_EQ(a.pending_count(), 0u);      // fold consumed the buffer
  EXPECT_EQ(a.nvals_bound(), 1u);
}

TEST(Matrix, OutOfBoundsThrows) {
  Matrix<double> a(10, 10);
  EXPECT_THROW(a.set_element(10, 0, 1.0), gbx::IndexOutOfBounds);
  EXPECT_THROW(a.set_element(0, 10, 1.0), gbx::IndexOutOfBounds);
  EXPECT_THROW(a.extract_element(10, 0), gbx::IndexOutOfBounds);
  Tuples<double> t;
  t.push_back(0, 99, 1.0);
  EXPECT_THROW(a.append(t), gbx::IndexOutOfBounds);
}

TEST(Matrix, BuildRequiresEmpty) {
  Matrix<double> a(10, 10);
  std::vector<Index> r{1}, c{2};
  std::vector<double> v{3.0};
  a.build(r, c, v);
  EXPECT_DOUBLE_EQ(a.extract_element(1, 2).value(), 3.0);
  EXPECT_THROW(a.build(r, c, v), gbx::Error);
}

TEST(Matrix, BuildCombinesDuplicates) {
  Matrix<double> a(10, 10);
  std::vector<Index> r{1, 1, 1}, c{2, 2, 3};
  std::vector<double> v{1.0, 2.0, 5.0};
  a.build(r, c, v);
  EXPECT_EQ(a.nvals(), 2u);
  EXPECT_DOUBLE_EQ(a.extract_element(1, 2).value(), 3.0);
}

TEST(Matrix, ClearAndReset) {
  Matrix<double> a(10, 10);
  a.set_element(1, 1, 1.0);
  a.materialize();
  a.set_element(2, 2, 2.0);
  a.clear();
  EXPECT_TRUE(a.empty());
  a.set_element(3, 3, 3.0);
  a.reset();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.nvals(), 0u);
}

TEST(Matrix, PlusAssign) {
  Matrix<double> a(10, 10), b(10, 10);
  a.set_element(1, 1, 1.0);
  a.set_element(2, 2, 2.0);
  b.set_element(2, 2, 10.0);
  b.set_element(3, 3, 30.0);
  a.plus_assign(b);
  EXPECT_EQ(a.nvals(), 3u);
  EXPECT_DOUBLE_EQ(a.extract_element(1, 1).value(), 1.0);
  EXPECT_DOUBLE_EQ(a.extract_element(2, 2).value(), 12.0);
  EXPECT_DOUBLE_EQ(a.extract_element(3, 3).value(), 30.0);
  // b unchanged
  EXPECT_EQ(b.nvals(), 2u);
}

TEST(Matrix, PlusAssignDimMismatchThrows) {
  Matrix<double> a(10, 10), b(10, 11);
  EXPECT_THROW(a.plus_assign(b), gbx::DimensionMismatch);
}

TEST(Matrix, PlusAssignIntoEmpty) {
  Matrix<double> a(10, 10), b(10, 10);
  b.set_element(5, 5, 5.0);
  a.plus_assign(b);
  EXPECT_DOUBLE_EQ(a.extract_element(5, 5).value(), 5.0);
}

// plus_assign over row-disjoint ranges (a chunked level) equals
// plus_assign of the block they cut, bit for bit: the matrix's rows
// before, between and past the ranges, an empty range, an empty matrix.
TEST(Matrix, PlusAssignRowRangesEqualsTheBlock) {
  std::mt19937_64 rng(4801);
  const gbx::Dcsr<double> none;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    Matrix<double> a(200, 200), b(200, 200);
    const int na = trial % 5 == 0 ? 0 : 300;
    for (int e = 0; e < na; ++e)
      a.set_element(rng() % 200, rng() % 200,
                    static_cast<double>(rng() % 97) / 7);
    for (int e = 0; e < 300; ++e)
      b.set_element(20 + rng() % 160, rng() % 200,
                    static_cast<double>(rng() % 89) / 3);
    const auto& blk = b.storage();
    std::vector<gbx::detail::RowRange<double>> ranges;
    std::size_t k0 = 0;
    while (k0 < blk.nrows_nonempty()) {
      const std::size_t k1 =
          std::min(blk.nrows_nonempty(), k0 + 1 + rng() % 40);
      ranges.push_back({&blk, k0, k1});
      if (rng() % 3 == 0) ranges.push_back({&none, 0, 0});
      k0 = k1;
    }
    Matrix<double> want = a;
    want.plus_assign(b);
    a.plus_assign(std::span<const gbx::detail::RowRange<double>>(ranges));
    EXPECT_TRUE(a.validate());
    EXPECT_TRUE(a.storage() == want.storage());
  }
}

TEST(Matrix, OperatorPlus) {
  Matrix<double> a(4, 4), b(4, 4);
  a.set_element(0, 0, 1.0);
  b.set_element(0, 0, 2.0);
  b.set_element(1, 1, 3.0);
  auto c = a + b;
  EXPECT_DOUBLE_EQ(c.extract_element(0, 0).value(), 3.0);
  EXPECT_DOUBLE_EQ(c.extract_element(1, 1).value(), 3.0);
}

TEST(Matrix, EqualIgnoresPendingState) {
  Matrix<double> a(5, 5), b(5, 5);
  a.set_element(1, 1, 2.0);
  b.set_element(1, 1, 1.0);
  b.set_element(1, 1, 1.0);
  b.materialize();
  EXPECT_TRUE(gbx::equal(a, b));  // same value, different histories
}

TEST(Matrix, ExtractTuplesSortedDeduped) {
  Matrix<double> a(100, 100);
  a.set_element(9, 9, 1.0);
  a.set_element(1, 1, 1.0);
  a.set_element(9, 9, 1.0);
  auto t = a.extract_tuples();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].row, 1u);
  EXPECT_DOUBLE_EQ(t[1].val, 2.0);
}

// Property: arbitrary interleavings of set_element / append / materialize
// match a std::map accumulator model.
class MatrixFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixFuzz, MatchesMapModel) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<Index> coord(0, 63);
  std::uniform_int_distribution<int> act(0, 9);
  std::uniform_real_distribution<double> val(-4, 4);

  Matrix<double> a(64, 64);
  std::map<std::pair<Index, Index>, double> model;

  for (int step = 0; step < 3000; ++step) {
    const int what = act(rng);
    if (what < 7) {
      const Index i = coord(rng), j = coord(rng);
      const double v = val(rng);
      a.set_element(i, j, v);
      model[{i, j}] += v;
    } else if (what < 9) {
      Tuples<double> t;
      for (int k = 0; k < 5; ++k) {
        const Index i = coord(rng), j = coord(rng);
        const double v = val(rng);
        t.push_back(i, j, v);
        model[{i, j}] += v;
      }
      a.append(t);
    } else {
      a.materialize();
    }
  }

  ASSERT_EQ(a.nvals(), model.size());
  for (const auto& [key, v] : model) {
    auto got = a.extract_element(key.first, key.second);
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(*got, v, 1e-9);
  }
  EXPECT_TRUE(a.validate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
