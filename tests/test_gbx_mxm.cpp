// Tests for mxm over semirings, against dense reference multiplication
// on small matrices and structural identities on large; and SparseVector.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/mxm.hpp"
#include "gbx/vector.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;
using gbx::SparseVector;

Matrix<double> random_matrix(Index rows, Index cols, std::size_t n,
                             std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> ri(0, rows - 1), ci(0, cols - 1);
  std::uniform_real_distribution<double> val(1, 5);
  Matrix<double> m(rows, cols);
  for (std::size_t k = 0; k < n; ++k)
    m.set_element(ri(rng), ci(rng), val(rng));
  m.materialize();
  return m;
}

std::vector<std::vector<double>> to_dense(const Matrix<double>& m) {
  std::vector<std::vector<double>> d(m.nrows(),
                                     std::vector<double>(m.ncols(), 0.0));
  m.for_each([&](Index i, Index j, double v) {
    d[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = v;
  });
  return d;
}

TEST(Mxm, TinyKnownProduct) {
  // [1 2; 0 3] * [4 0; 5 6] = [14 12; 15 18]
  Matrix<double> a(2, 2), b(2, 2);
  a.set_element(0, 0, 1);
  a.set_element(0, 1, 2);
  a.set_element(1, 1, 3);
  b.set_element(0, 0, 4);
  b.set_element(1, 0, 5);
  b.set_element(1, 1, 6);
  auto c = gbx::mxm<gbx::PlusTimes<double>>(a, b);
  EXPECT_DOUBLE_EQ(c.extract_element(0, 0).value(), 14);
  EXPECT_DOUBLE_EQ(c.extract_element(0, 1).value(), 12);
  EXPECT_DOUBLE_EQ(c.extract_element(1, 0).value(), 15);
  EXPECT_DOUBLE_EQ(c.extract_element(1, 1).value(), 18);
}

TEST(Mxm, DimMismatchThrows) {
  Matrix<double> a(2, 3), b(4, 2);
  EXPECT_THROW((gbx::mxm<gbx::PlusTimes<double>>(a, b)),
               gbx::DimensionMismatch);
}

TEST(Mxm, EmptyProduct) {
  Matrix<double> a(5, 5), b(5, 5);
  a.set_element(0, 1, 1.0);
  auto c = gbx::mxm<gbx::PlusTimes<double>>(a, b);
  EXPECT_EQ(c.nvals(), 0u);
}

TEST(Mxm, IdentityMatrix) {
  auto a = random_matrix(32, 32, 100, 7);
  Matrix<double> eye(32, 32);
  for (Index i = 0; i < 32; ++i) eye.set_element(i, i, 1.0);
  eye.materialize();
  auto c = gbx::mxm<gbx::PlusTimes<double>>(a, eye);
  EXPECT_TRUE(gbx::equal(c, a));
  auto c2 = gbx::mxm<gbx::PlusTimes<double>>(eye, a);
  EXPECT_TRUE(gbx::equal(c2, a));
}

TEST(Mxm, HypersparseCoordinates) {
  // Product correctness with coordinates scattered over 2^41.
  const Index big = Index{1} << 41;
  Matrix<double> a(big, big), b(big, big);
  a.set_element(1234567890123ULL, 42, 2.0);
  b.set_element(42, 9876543210ULL, 3.0);
  auto c = gbx::mxm<gbx::PlusTimes<double>>(a, b);
  EXPECT_EQ(c.nvals(), 1u);
  EXPECT_DOUBLE_EQ(c.extract_element(1234567890123ULL, 9876543210ULL).value(),
                   6.0);
}

TEST(Mxm, MinPlusShortestHop) {
  // Tropical semiring: path lengths through one intermediate hop.
  constexpr double kInf = std::numeric_limits<double>::max();
  Matrix<double> g(3, 3);
  g.set_element(0, 1, 5.0);
  g.set_element(1, 2, 7.0);
  g.set_element(0, 2, 20.0);
  auto two_hop = gbx::mxm<gbx::MinPlus<double>>(g, g);
  // 0 -> 1 -> 2 costs 12 < direct 20, but mxm alone gives the 2-hop matrix.
  EXPECT_DOUBLE_EQ(two_hop.extract_element(0, 2).value(), 12.0);
  (void)kInf;
}

class MxmVsDense
    : public ::testing::TestWithParam<std::tuple<Index, std::size_t, std::uint64_t>> {};

TEST_P(MxmVsDense, MatchesDenseReference) {
  const auto [dim, n, seed] = GetParam();
  auto a = random_matrix(dim, dim, n, seed);
  auto b = random_matrix(dim, dim, n, seed + 1);
  auto c = gbx::mxm<gbx::PlusTimes<double>>(a, b);

  auto da = to_dense(a), db = to_dense(b);
  std::vector<std::vector<double>> ref(dim, std::vector<double>(dim, 0.0));
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t k = 0; k < dim; ++k)
      if (da[i][k] != 0)
        for (std::size_t j = 0; j < dim; ++j)
          ref[i][j] += da[i][k] * db[k][j];

  auto dc = to_dense(c);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j)
      EXPECT_NEAR(dc[i][j], ref[i][j], 1e-9) << "at (" << i << "," << j << ")";
  EXPECT_TRUE(c.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MxmVsDense,
    ::testing::Values(std::make_tuple(Index{4}, std::size_t{6}, std::uint64_t{1}),
                      std::make_tuple(Index{16}, std::size_t{40}, std::uint64_t{2}),
                      std::make_tuple(Index{48}, std::size_t{300}, std::uint64_t{3}),
                      std::make_tuple(Index{64}, std::size_t{2000}, std::uint64_t{4})));

TEST(Vector, BuildDedupAndReduce) {
  SparseVector<double> v(100);
  std::vector<Index> idx{5, 5, 1, 99};
  std::vector<double> val{1.0, 2.0, 3.0, 4.0};
  v.build(idx, val);
  EXPECT_EQ(v.nvals(), 3u);
  EXPECT_DOUBLE_EQ(v.get(5).value(), 3.0);
  EXPECT_DOUBLE_EQ(v.reduce<gbx::PlusMonoid<double>>(), 10.0);
  EXPECT_DOUBLE_EQ(v.reduce<gbx::MaxMonoid<double>>(), 4.0);
}

TEST(Vector, BoundsChecks) {
  SparseVector<double> v(10);
  std::vector<Index> idx{10};
  std::vector<double> val{1.0};
  EXPECT_THROW(v.build(idx, val), gbx::IndexOutOfBounds);
  EXPECT_THROW(v.get(10), gbx::IndexOutOfBounds);
  EXPECT_THROW(SparseVector<double>(0), gbx::InvalidValue);
}

}  // namespace
