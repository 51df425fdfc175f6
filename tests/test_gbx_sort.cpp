// Tests for the entry sort engines and duplicate folding.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "gbx/monoid.hpp"
#include "gbx/sort.hpp"

namespace {

using gbx::Entry;
using gbx::Index;

/// 2^18 entries: a one-shot sort several times a served batch (~50K).
constexpr std::size_t kLarge = std::size_t{1} << 18;

std::vector<Entry<double>> random_entries(std::size_t n, Index max_coord,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> coord(0, max_coord);
  std::uniform_real_distribution<double> val(-10, 10);
  std::vector<Entry<double>> v(n);
  for (auto& e : v) e = {coord(rng), coord(rng), val(rng)};
  return v;
}

bool is_sorted_by_key(const std::vector<Entry<double>>& v) {
  return std::is_sorted(v.begin(), v.end(), gbx::entry_less<double>);
}

TEST(Sort, Empty) {
  std::vector<Entry<double>> v;
  gbx::sort_entries(v);
  EXPECT_TRUE(v.empty());
}

TEST(Sort, Single) {
  std::vector<Entry<double>> v{{5, 7, 1.0}};
  gbx::sort_entries(v);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].row, 5u);
}

TEST(Sort, SmallSerialPath) {
  auto v = random_entries(1000, 100, 1);
  auto ref = v;
  gbx::sort_entries(v);
  std::sort(ref.begin(), ref.end(), gbx::entry_less<double>);
  ASSERT_TRUE(is_sorted_by_key(v));
  // Same multiset of keys and same total value mass.
  double sv = 0, sr = 0;
  for (auto& e : v) sv += e.val;
  for (auto& e : ref) sr += e.val;
  EXPECT_DOUBLE_EQ(sv, sr);
}

TEST(Sort, LargeRadixPath) {
  auto v = random_entries(kLarge, 1u << 20, 2);
  const std::size_t n = v.size();
  gbx::sort_entries(v);
  EXPECT_EQ(v.size(), n);
  EXPECT_TRUE(is_sorted_by_key(v));
}

TEST(Sort, LargeSkewedRows) {
  // Heavy skew: 90% of entries in one row exercises bucket imbalance.
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Index> coord(0, 1u << 20);
  std::vector<Entry<double>> v(kLarge + 123);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Index r = (i % 10 == 0) ? coord(rng) : Index{42};
    v[i] = {r, coord(rng), 1.0};
  }
  gbx::sort_entries(v);
  EXPECT_TRUE(is_sorted_by_key(v));
}

TEST(Sort, HugeCoordinates) {
  // Coordinates near 2^64 must sort correctly (IPv6 space).
  std::vector<Entry<double>> v{
      {gbx::kIndexMax - 1, 0, 1.0},
      {0, gbx::kIndexMax - 1, 2.0},
      {gbx::kIndexMax - 2, gbx::kIndexMax - 2, 3.0},
  };
  gbx::sort_entries(v);
  EXPECT_TRUE(is_sorted_by_key(v));
  EXPECT_EQ(v[0].row, 0u);
}

TEST(Dedup, FoldsDuplicatesWithPlus) {
  std::vector<Entry<double>> v{
      {1, 1, 1.0}, {1, 1, 2.0}, {1, 2, 5.0}, {2, 1, 3.0}, {2, 1, 4.0}};
  gbx::dedup_sorted_entries<gbx::PlusMonoid<double>>(v);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0].val, 3.0);
  EXPECT_DOUBLE_EQ(v[1].val, 5.0);
  EXPECT_DOUBLE_EQ(v[2].val, 7.0);
}

TEST(Dedup, FoldsWithMax) {
  std::vector<Entry<double>> v{{1, 1, 1.0}, {1, 1, 9.0}, {1, 1, 4.0}};
  gbx::dedup_sorted_entries<gbx::MaxMonoid<double>>(v);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0].val, 9.0);
}

TEST(Dedup, EmptyAndSingleton) {
  std::vector<Entry<double>> v;
  EXPECT_EQ(gbx::dedup_sorted_entries<gbx::PlusMonoid<double>>(v), 0u);
  v = {{3, 4, 1.5}};
  EXPECT_EQ(gbx::dedup_sorted_entries<gbx::PlusMonoid<double>>(v), 1u);
  EXPECT_DOUBLE_EQ(v[0].val, 1.5);
}

// Property: sort_entries + dedup_sorted_entries == std::map reference.
class SortDedupProperty : public ::testing::TestWithParam<
                              std::tuple<std::size_t, Index, std::uint64_t>> {};

TEST_P(SortDedupProperty, MatchesMapModel) {
  const auto [n, max_coord, seed] = GetParam();
  auto v = random_entries(n, max_coord, seed);

  std::map<std::pair<Index, Index>, double> model;
  for (const auto& e : v) model[{e.row, e.col}] += e.val;

  gbx::sort_entries(v);
  gbx::dedup_sorted_entries<gbx::PlusMonoid<double>>(v);

  ASSERT_EQ(v.size(), model.size());
  std::size_t k = 0;
  for (const auto& [key, val] : model) {
    EXPECT_EQ(v[k].row, key.first);
    EXPECT_EQ(v[k].col, key.second);
    EXPECT_NEAR(v[k].val, val, 1e-9);
    ++k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortDedupProperty,
    ::testing::Values(
        std::make_tuple(std::size_t{100}, Index{8}, std::uint64_t{1}),
        std::make_tuple(std::size_t{5000}, Index{50}, std::uint64_t{2}),
        std::make_tuple(std::size_t{5000}, Index{1} << 30, std::uint64_t{3}),
        std::make_tuple(std::size_t{1} << 16, Index{200}, std::uint64_t{4}),
        std::make_tuple(std::size_t{1} << 17, Index{1} << 16, std::uint64_t{5}),
        std::make_tuple(std::size_t{1} << 17, Index{15}, std::uint64_t{6})));

}  // namespace
