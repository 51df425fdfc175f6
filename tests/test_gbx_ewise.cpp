// Tests for the eWiseAdd union merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <span>
#include <vector>

#include "gbx/ewise.hpp"
#include "gbx/fold.hpp"
#include "gbx/matrix.hpp"
#include "gbx/matrix_ops.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;

Matrix<double> random_matrix(Index dim, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> coord(0, dim - 1);
  std::uniform_real_distribution<double> val(1, 9);
  Matrix<double> m(dim, dim);
  for (std::size_t k = 0; k < n; ++k)
    m.set_element(coord(rng), coord(rng), val(rng));
  m.materialize();
  return m;
}

std::map<std::pair<Index, Index>, double> to_map(const Matrix<double>& m) {
  std::map<std::pair<Index, Index>, double> out;
  m.for_each([&](Index i, Index j, double v) { out[{i, j}] = v; });
  return out;
}

TEST(EwiseAdd, DisjointUnion) {
  Matrix<double> a(10, 10), b(10, 10);
  a.set_element(1, 1, 1.0);
  b.set_element(2, 2, 2.0);
  auto c = gbx::ewise_add<gbx::Plus<double>>(a, b);
  EXPECT_EQ(c.nvals(), 2u);
  EXPECT_DOUBLE_EQ(c.extract_element(1, 1).value(), 1.0);
  EXPECT_DOUBLE_EQ(c.extract_element(2, 2).value(), 2.0);
}

TEST(EwiseAdd, OverlapCombines) {
  Matrix<double> a(10, 10), b(10, 10);
  a.set_element(1, 1, 1.0);
  a.set_element(1, 2, 5.0);
  b.set_element(1, 1, 10.0);
  auto c = gbx::ewise_add<gbx::Plus<double>>(a, b);
  EXPECT_EQ(c.nvals(), 2u);
  EXPECT_DOUBLE_EQ(c.extract_element(1, 1).value(), 11.0);
  EXPECT_DOUBLE_EQ(c.extract_element(1, 2).value(), 5.0);
}

TEST(EwiseAdd, EmptyOperands) {
  Matrix<double> a(10, 10), b(10, 10);
  b.set_element(3, 3, 3.0);
  auto c1 = gbx::ewise_add<gbx::Plus<double>>(a, b);
  EXPECT_TRUE(gbx::equal(c1, b));
  auto c2 = gbx::ewise_add<gbx::Plus<double>>(b, a);
  EXPECT_TRUE(gbx::equal(c2, b));
  auto c3 = gbx::ewise_add<gbx::Plus<double>>(a, a);
  EXPECT_EQ(c3.nvals(), 0u);
}

TEST(EwiseAdd, DimMismatchThrows) {
  Matrix<double> a(10, 10), b(11, 10);
  EXPECT_THROW(gbx::ewise_add<gbx::Plus<double>>(a, b),
               gbx::DimensionMismatch);
}

TEST(EwiseAdd, MinOpSelectsSmaller) {
  Matrix<double> a(4, 4), b(4, 4);
  a.set_element(0, 0, 5.0);
  b.set_element(0, 0, 3.0);
  auto c = gbx::ewise_add<gbx::Min<double>>(a, b);
  EXPECT_DOUBLE_EQ(c.extract_element(0, 0).value(), 3.0);
}

TEST(EwiseAddInto, MatchesSerialMergeAtEveryTeamSize) {
  // Thousands of rows, so a 4-thread team splits both passes into
  // several ranges; rows held by one block and by both, and few columns,
  // so many coordinates combine. The output must equal the one-pass
  // serial merge bit for bit, with B whole and with B cut into
  // row-disjoint ranges (a chunked level; one of them empty).
  std::mt19937_64 rng(11);
  auto block = [&](Index first_row) {
    std::uniform_int_distribution<Index> row(first_row, first_row + 4999);
    std::uniform_int_distribution<Index> col(0, 31);
    std::uniform_real_distribution<double> val(-1, 1);
    std::map<std::pair<Index, Index>, double> cells;
    while (cells.size() < 20000) cells[{row(rng), col(rng)}] = val(rng);
    std::vector<gbx::Entry<double>> es;
    for (const auto& [k, v] : cells) es.push_back({k.first, k.second, v});
    return gbx::Dcsr<double>::from_sorted_unique(es);
  };
  const auto a = block(0), b = block(2500);
  gbx::Dcsr<double> want;
  gbx::merge_blocks_into<gbx::Plus<double>>(a, b, want);

  const gbx::Dcsr<double> none;
  std::vector<gbx::detail::RowRange<double>> ranges;
  for (std::size_t k0 = 0; k0 < b.nrows_nonempty(); k0 += 700) {
    ranges.push_back({&b, k0, std::min(b.nrows_nonempty(), k0 + 700)});
    if (ranges.size() == 3) ranges.push_back({&none, 0, 0});
  }

  proptest::for_team_sizes([&] {
    gbx::Dcsr<double> got;
    gbx::ewise_add_into<gbx::Plus<double>>(a, b, got,
                                           gbx::ScratchPool::local());
    EXPECT_EQ(got, want);
    gbx::Dcsr<double> cut;
    gbx::ewise_add_into<gbx::Plus<double>>(
        a, std::span<const gbx::detail::RowRange<double>>(ranges), cut,
        gbx::ScratchPool::local());
    EXPECT_EQ(cut, want);
  });
}

// Properties of the union merge against map models, over a
// sweep of densities and dimension scales (including the parallel paths).
class EwiseProperty
    : public ::testing::TestWithParam<std::tuple<Index, std::size_t, std::uint64_t>> {};

TEST_P(EwiseProperty, AddMatchesModel) {
  const auto [dim, n, seed] = GetParam();
  auto a = random_matrix(dim, n, seed);
  auto b = random_matrix(dim, n, seed + 1000);
  auto c = gbx::ewise_add<gbx::Plus<double>>(a, b);

  auto ma = to_map(a), mb = to_map(b);
  for (const auto& [k, v] : mb) ma[k] += v;
  auto mc = to_map(c);
  ASSERT_EQ(mc.size(), ma.size());
  for (const auto& [k, v] : ma) EXPECT_NEAR(mc.at(k), v, 1e-9);
  EXPECT_TRUE(c.validate());
}

TEST_P(EwiseProperty, AddCommutes) {
  const auto [dim, n, seed] = GetParam();
  auto a = random_matrix(dim, n, seed);
  auto b = random_matrix(dim, n, seed + 2000);
  auto ab = gbx::ewise_add<gbx::Plus<double>>(a, b);
  auto ba = gbx::ewise_add<gbx::Plus<double>>(b, a);
  EXPECT_TRUE(gbx::equal(ab, ba));
}

TEST_P(EwiseProperty, AddAssociates) {
  const auto [dim, n, seed] = GetParam();
  auto a = random_matrix(dim, n, seed);
  auto b = random_matrix(dim, n, seed + 3000);
  auto c = random_matrix(dim, n, seed + 4000);
  auto left = gbx::ewise_add<gbx::Plus<double>>(
      gbx::ewise_add<gbx::Plus<double>>(a, b), c);
  auto right = gbx::ewise_add<gbx::Plus<double>>(
      a, gbx::ewise_add<gbx::Plus<double>>(b, c));
  // float addition is not exactly associative; compare with tolerance.
  auto ml = to_map(left), mr = to_map(right);
  ASSERT_EQ(ml.size(), mr.size());
  for (const auto& [k, v] : ml) EXPECT_NEAR(mr.at(k), v, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EwiseProperty,
    ::testing::Values(
        std::make_tuple(Index{8}, std::size_t{30}, std::uint64_t{1}),
        std::make_tuple(Index{64}, std::size_t{500}, std::uint64_t{2}),
        std::make_tuple(Index{1} << 20, std::size_t{2000}, std::uint64_t{3}),
        std::make_tuple(Index{1} << 30, std::size_t{20000}, std::uint64_t{4}),
        std::make_tuple(Index{32}, std::size_t{2000}, std::uint64_t{5})));

}  // namespace
