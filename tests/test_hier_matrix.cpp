// Unit tests for HierMatrix: cascade mechanics, cut policies, stats,
// queries. (Property sweeps live in test_hier_properties.cpp.)
#include <gtest/gtest.h>

#include <random>

#include "hier/hier.hpp"

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;
using hier::HierMatrix;

TEST(CutPolicy, ExplicitValidation) {
  EXPECT_NO_THROW(CutPolicy({10, 100, 1000}));
  EXPECT_THROW(CutPolicy({}), gbx::InvalidValue);
  EXPECT_THROW(CutPolicy({0, 10}), gbx::InvalidValue);
  EXPECT_THROW(CutPolicy({10, 10}), gbx::InvalidValue);       // not increasing
  EXPECT_THROW(CutPolicy({100, 10}), gbx::InvalidValue);
}

TEST(CutPolicy, Geometric) {
  auto p = CutPolicy::geometric(4, 100, 10);
  EXPECT_EQ(p.levels(), 4u);
  EXPECT_EQ(p.cut(0), 100u);
  EXPECT_EQ(p.cut(1), 1000u);
  EXPECT_EQ(p.cut(2), 10000u);
  EXPECT_THROW(p.cut(3), gbx::IndexOutOfBounds);  // top level unbounded
  EXPECT_THROW(CutPolicy::geometric(1, 100, 10), gbx::InvalidValue);
  EXPECT_THROW(CutPolicy::geometric(3, 100, 1), gbx::InvalidValue);
}

TEST(HierMatrix, SingleUpdateLandsInLevel0) {
  HierMatrix<double> h(100, 100, CutPolicy({10, 100}));
  h.update(3, 4, 1.0);
  EXPECT_EQ(h.level_entries(0), 1u);
  EXPECT_EQ(h.level_entries(1), 0u);
  EXPECT_EQ(h.level_entries(2), 0u);
  EXPECT_EQ(h.stats().updates, 1u);
}

TEST(HierMatrix, CascadeTriggersOnCut) {
  HierMatrix<double> h(1000, 1000, CutPolicy({5, 100}));
  // 6 distinct entries exceed c1 = 5 -> level 0 folds into level 1.
  for (Index k = 0; k < 6; ++k) h.update(k, k, 1.0);
  EXPECT_EQ(h.level_entries(0), 0u);
  EXPECT_EQ(h.level_entries(1), 6u);
  EXPECT_EQ(h.stats().level[0].folds, 1u);
  EXPECT_EQ(h.stats().level[0].entries_folded, 6u);
}

TEST(HierMatrix, CascadePropagatesMultipleLevels) {
  HierMatrix<double> h(100000, 100000, CutPolicy({4, 8}));
  // Stream distinct entries; level1 must eventually overflow into level2.
  for (Index k = 0; k < 100; ++k) h.update(k, k + 1, 1.0);
  EXPECT_GT(h.stats().level[0].folds, 0u);
  EXPECT_GT(h.stats().level[1].folds, 0u);
  EXPECT_LE(h.level_entries(0), 4u + 1u);
  // Everything still sums correctly.
  auto snap = h.snapshot();
  EXPECT_EQ(snap.nvals(), 100u);
}

TEST(HierMatrix, SnapshotIsNonDestructive) {
  HierMatrix<double> h(100, 100, CutPolicy({3}));
  for (Index k = 0; k < 10; ++k) h.update(k % 4, k % 3, 1.0);
  const auto before0 = h.level_entries(0);
  const auto before1 = h.level_entries(1);
  auto snap = h.snapshot();
  EXPECT_EQ(h.level_entries(0), before0);
  EXPECT_EQ(h.level_entries(1), before1);
  // Streaming continues fine after a query.
  h.update(50, 50, 1.0);
  EXPECT_DOUBLE_EQ(h.snapshot().extract_element(50, 50).value(), 1.0);
}

TEST(HierMatrix, CollapseFoldsEverythingToTop) {
  HierMatrix<double> h(100, 100, CutPolicy({3, 10}));
  for (Index k = 0; k < 20; ++k) h.update(k, k, 2.0);
  const auto& top = h.collapse();
  EXPECT_EQ(top.nvals(), 20u);
  EXPECT_EQ(h.level_entries(0), 0u);
  EXPECT_EQ(h.level_entries(1), 0u);
  EXPECT_DOUBLE_EQ(top.extract_element(7, 7).value(), 2.0);
}

TEST(HierMatrix, FlushPreservesValueAndEmptiesLowLevels) {
  HierMatrix<double> h(100, 100, CutPolicy({3, 10}));
  for (Index k = 0; k < 7; ++k) h.update(k, 0, 1.0);
  auto before = h.snapshot();
  h.flush();
  EXPECT_EQ(h.level_entries(0), 0u);
  EXPECT_EQ(h.level_entries(1), 0u);
  EXPECT_TRUE(gbx::equal(h.snapshot(), before));
}

TEST(HierMatrix, DuplicateCoordinatesCombine) {
  HierMatrix<double> h(10, 10, CutPolicy({2}));
  // Same coordinate repeatedly: folds must plus-combine across levels.
  for (int k = 0; k < 9; ++k) h.update(1, 1, 1.0);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.nvals(), 1u);
  EXPECT_DOUBLE_EQ(snap.extract_element(1, 1).value(), 9.0);
}

TEST(HierMatrix, BatchUpdate) {
  HierMatrix<double> h(1000, 1000, CutPolicy({100, 1000}));
  Tuples<double> batch;
  for (Index k = 0; k < 250; ++k) batch.push_back(k, k, 1.0);
  h.update(batch);
  EXPECT_EQ(h.stats().updates, 1u);
  EXPECT_EQ(h.stats().entries_appended, 250u);
  EXPECT_EQ(h.snapshot().nvals(), 250u);
}

TEST(HierMatrix, SpanUpdate) {
  HierMatrix<double> h(100, 100, CutPolicy({10}));
  std::vector<Index> r{1, 2}, c{3, 4};
  std::vector<double> v{1.0, 2.0};
  h.update(r, c, v);
  EXPECT_DOUBLE_EQ(h.snapshot().extract_element(2, 4).value(), 2.0);
}

TEST(HierMatrix, MaxMonoidHierarchy) {
  hier::HierMatrix<double, gbx::MaxMonoid<double>> h(
      100, 100, CutPolicy({2, 8}));
  h.update(1, 1, 3.0);
  h.update(1, 1, 9.0);
  h.update(1, 1, 4.0);  // forces a fold along the way
  h.update(2, 2, 1.0);
  auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.extract_element(1, 1).value(), 9.0);
}

TEST(HierMatrix, StatsTrackHighWaterMarks) {
  HierMatrix<double> h(1000, 1000, CutPolicy({5}));
  Tuples<double> big;
  for (Index k = 0; k < 50; ++k) big.push_back(k, k, 1.0);
  h.update(big);  // one huge batch blows straight through c1
  EXPECT_GE(h.stats().level[0].max_entries, 50u);
  EXPECT_EQ(h.stats().level[0].folds, 1u);
}

TEST(HierMatrix, FoldRatioDropsWithDepth) {
  HierMatrix<double> h(gbx::kIPv4Dim, gbx::kIPv4Dim,
                       CutPolicy::geometric(4, 256, 8));
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Index> coord(0, gbx::kIPv4Dim - 1);
  for (int k = 0; k < 20000; ++k) h.update(coord(rng), coord(rng), 1.0);
  // Every level deeper sees no more folded entries than the one above:
  const auto& st = h.stats();
  EXPECT_GT(st.level[0].entries_folded, 0u);
  EXPECT_GE(st.level[0].folds, st.level[1].folds);
  EXPECT_GE(st.level[1].folds, st.level[2].folds);
  // fold_ratio is the slow-memory pressure measure of Fig. 1.
  EXPECT_GT(st.fold_ratio(0), 0.0);
  EXPECT_GE(st.fold_ratio(1), st.fold_ratio(2));
}

TEST(HierMatrix, UpdateBoundsChecked) {
  HierMatrix<double> h(10, 10, CutPolicy({5}));
  EXPECT_THROW(h.update(10, 0, 1.0), gbx::IndexOutOfBounds);
}

// update_rows splits each batch by row: the parts' Σ equals one
// HierMatrix fed the same batches (integer values keep the sum exact in
// any fold order), and every part holds only the rows it owns.
TEST(InstanceArray, UpdateRowsPartsSumToOneMatrix) {
  constexpr std::size_t kParts = 4;
  constexpr Index kDim = Index{1} << 12;
  hier::InstanceArray<double> arr(kParts, kDim, kDim, CutPolicy({64, 512}));
  HierMatrix<double> single(kDim, kDim, CutPolicy({64, 512}));
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<Index> coord(0, kDim - 1);
  std::uniform_int_distribution<int> val(1, 9);
  for (int s = 0; s < 10; ++s) {
    Tuples<double> batch;
    for (int k = 0; k < 2000; ++k)
      batch.push_back(coord(rng), coord(rng), static_cast<double>(val(rng)));
    arr.update_rows(batch);
    single.update(batch);
  }
  EXPECT_EQ(arr.total_entries_appended(), single.stats().entries_appended);
  for (std::size_t p = 0; p < kParts; ++p) {
    EXPECT_EQ(arr.instance(p).stats().updates, 10u) << "part " << p;
    arr.instance(p).snapshot().for_each([&](Index i, Index, double) {
      EXPECT_EQ(hier::row_partition(i, kParts), p);
    });
  }
  auto parts = hier::ParallelStream<double>(arr).freeze();
  EXPECT_TRUE(gbx::equal(parts.to_matrix(), single.snapshot()));
}

// One instance is the degenerate split: update_rows is a plain update.
TEST(InstanceArray, UpdateRowsOnOneInstanceIsPlainUpdate) {
  hier::InstanceArray<double> one(1, 100, 100, CutPolicy({10}));
  Tuples<double> batch;
  batch.push_back(3, 4, 1.5);
  batch.push_back(3, 4, 2.5);
  one.update_rows(batch);
  EXPECT_EQ(one.instance(0).stats().updates, 1u);
  EXPECT_DOUBLE_EQ(one.instance(0).snapshot().extract_element(3, 4).value(),
                   4.0);
  Tuples<double> out_of_range;
  out_of_range.push_back(100, 0, 1.0);
  EXPECT_THROW(one.update_rows(out_of_range), gbx::IndexOutOfBounds);
  EXPECT_THROW(hier::InstanceArray<double>(0, 100, 100, CutPolicy({10})),
               gbx::InvalidValue);
}

}  // namespace
