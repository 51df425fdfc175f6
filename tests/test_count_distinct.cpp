// Property suite for the exact distinct-coordinate count behind every
// snapshot nvals() (hier::detail::count_distinct_coords). Randomized
// block sets are wrapped as frozen levels of a HierSnapshot, and
// nvals() is checked against the materialized oracle to_matrix().nvals()
// under team sizes 1 and 4. Sets are drawn both below and above the
// serial cutoff, so the single-chunk and the row-chunked paths both run:
//
//   * 1..12 blocks, rows held by one, two, and three or more blocks;
//   * aliased (identical) blocks, empty blocks, null levels;
//   * single-row blocks;
//   * every splitter row present in every block;
//   * coordinates next to the top of a 2^60-dimension index space;
//   * demoted-tier segments decoded into the count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "gbx/dcsr.hpp"
#include "gbx/view.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"
#include "store/block_store.hpp"

namespace {

using gbx::Index;
using Block = std::shared_ptr<const gbx::Dcsr<double>>;
using Cells = std::map<std::pair<Index, Index>, double>;
using proptest::for_team_sizes;

constexpr std::uint64_t kSeedBlockSets = 0xC0DE0001;
constexpr std::uint64_t kSeedSplitters = 0xC0DE0002;
constexpr std::uint64_t kSeedDemoted = 0xC0DE0003;

Block make_block(const Cells& cells) {
  std::vector<gbx::Entry<double>> es;
  es.reserve(cells.size());
  for (const auto& [k, v] : cells) es.push_back({k.first, k.second, v});
  return std::make_shared<const gbx::Dcsr<double>>(
      gbx::Dcsr<double>::from_sorted_unique(es));
}

hier::SnapshotSet<double> as_snapshot(Index dim,
                                      const std::vector<Block>& blocks) {
  std::vector<hier::Level<double>> levels;
  for (const auto& b : blocks)
    levels.push_back(gbx::MatrixView<double>(dim, dim, b));
  return hier::SnapshotSet<double>({{dim, dim, std::move(levels), {}, {}, 0}});
}

/// The oracle check; returns the snapshot's stored-entry bound so the
/// caller can tell which side of the serial cutoff the case fell on.
std::size_t expect_exact(const hier::SnapshotSet<double>& snap) {
  EXPECT_EQ(snap.nvals(), snap.to_matrix().nvals());
  return snap.part(0).nvals_bound();
}

/// One random block set. Rows come from a shared pool; each row is
/// given to one block, two blocks, or three or more, and each holder
/// draws columns from a narrow range so segments overlap. Some blocks
/// are single-row, some levels alias an earlier block, some are empty.
std::vector<Block> random_block_set(std::mt19937_64& rng, Index dim,
                                    bool near_max, bool large) {
  std::uniform_int_distribution<std::size_t> nblocks(1, 12);
  const std::size_t L = nblocks(rng);
  const std::size_t pool = large ? 2500 : 1 + rng() % 40;
  const Index col_span = large ? 192 : 48;
  const std::size_t max_cols = large ? 48 : 8;
  const Index stride = 1 + rng() % 3;
  auto coord = [&](Index i) { return near_max ? dim - 1 - i : i; };

  std::vector<Cells> cells(L);
  std::vector<bool> single_row(L);
  for (auto&& s : single_row) s = L > 1 && rng() % 6 == 0;
  std::vector<std::size_t> order(L);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t r = 0; r < pool; ++r) {
    const Index row = coord(static_cast<Index>(r) * stride);
    const int u = static_cast<int>(rng() % 10);
    std::size_t holders = u < 4 ? 1 : u < 7 ? 2 : 3 + rng() % L;
    holders = std::min(holders, L);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t h = 0; h < holders; ++h) {
      const std::size_t b = order[h];
      if (single_row[b] && !cells[b].empty() &&
          cells[b].begin()->first.first != row)
        continue;
      const std::size_t n = 1 + rng() % max_cols;
      for (std::size_t c = 0; c < n; ++c)
        cells[b][{row, coord(rng() % col_span)}] = 1.0;
    }
  }

  std::vector<Block> blocks;
  for (std::size_t b = 0; b < L; ++b) {
    const int u = static_cast<int>(rng() % 12);
    if (b > 0 && u == 0)
      blocks.push_back(blocks[rng() % b]);  // aliased level
    else if (u == 1)
      blocks.push_back(std::make_shared<const gbx::Dcsr<double>>());
    else if (u == 2)
      blocks.push_back(nullptr);  // level never published
    else
      blocks.push_back(make_block(cells[b]));
  }
  return blocks;
}

TEST(CountDistinct, RandomBlockSetsMatchMaterializedCount) {
  HHGBX_PROP_SEED(seed, kSeedBlockSets);
  std::mt19937_64 rng(seed);
  std::size_t above_cutoff = 0;
  for_team_sizes([&] {
    for (int trial = 0; trial < 60; ++trial) {
      const bool near_max = trial % 3 == 2;
      const bool large = trial % 4 == 0;
      const Index dim = near_max ? Index{1} << 60 : Index{1} << 20;
      SCOPED_TRACE(::testing::Message() << "trial " << trial);
      const auto snap =
          as_snapshot(dim, random_block_set(rng, dim, near_max, large));
      if (expect_exact(snap) >= hier::detail::kParallelCountCutoff)
        ++above_cutoff;
    }
  });
  EXPECT_GT(above_cutoff, 0u) << "no case exercised the chunked count";
}

// Every block holds every row, so each chunk splitter (a row of the
// widest block) is a row of every block, and rows straddle no chunk.
TEST(CountDistinct, SplitterRowsSharedByEveryBlock) {
  HHGBX_PROP_SEED(seed, kSeedSplitters);
  std::mt19937_64 rng(seed);
  for_team_sizes([&] {
    for (const std::size_t L : {2u, 3u, 7u}) {
      for (const bool near_max : {false, true}) {
        const Index dim = Index{1} << 60;
        std::vector<Block> blocks;
        for (std::size_t b = 0; b < L; ++b) {
          Cells cells;
          for (Index r = 0; r < 4096; ++r) {
            const Index row = near_max ? dim - 1 - r : r;
            for (int c = 0; c < 12; ++c)
              cells[{row, near_max ? dim - 1 - rng() % 64 : rng() % 64}] = 1;
          }
          blocks.push_back(make_block(cells));
        }
        const auto snap = as_snapshot(dim, blocks);
        EXPECT_GE(expect_exact(snap), hier::detail::kParallelCountCutoff);
      }
    }
  });
}

// Long single-row blocks beside one wide block that sets the chunks:
// each single-row block is non-empty in one chunk only, and some share
// their row with each other and with the wide block.
TEST(CountDistinct, SingleRowBlocks) {
  for_team_sizes([] {
    const Index dim = Index{1} << 60;
    Cells wide;
    for (Index r = 0; r < 4096; ++r)
      for (Index c = 0; c < 8; ++c) wide[{dim - 1 - r, c * 97}] = 1;
    std::vector<Block> blocks{make_block(wide)};
    for (Index b = 0; b < 6; ++b) {
      Cells cells;
      const Index row = dim - 1 - (b % 3) * 1500;
      for (Index c = 0; c < 20000; ++c) cells[{row, c * (b + 1)}] = 1;
      blocks.push_back(make_block(cells));
    }
    blocks.push_back(blocks.back());
    EXPECT_GE(expect_exact(as_snapshot(dim, blocks)),
              hier::detail::kParallelCountCutoff);
  });
}

// Demoted runs are decoded transiently into the count: a matrix whose
// bottom level went to the block store in several runs, with fresh
// resident levels above it, counts exactly what it materializes.
TEST(CountDistinct, DemotedSegmentsCountWithResidentLevels) {
  HHGBX_PROP_SEED(seed, kSeedDemoted);
  std::mt19937_64 rng(seed);
  auto store = store::make_mem_block_store();
  hier::HierMatrix<double> h(1u << 14, 1u << 14, hier::CutPolicy({256, 4096}));
  hier::DemotionConfig cfg;
  cfg.segment_bytes = 1u << 14;
  cfg.max_runs = 4;
  h.enable_demotion(store.get(), cfg);
  proptest::DenseRef<double> ref;
  for (int step = 0; step < 30; ++step) {
    const auto b = proptest::random_batch<double>(rng, 1u << 14, 4000);
    h.update(b);
    ref.apply(b);
    if (step % 7 == 6) {
      h.flush();
      h.demote_now();
    }
  }
  const auto last = proptest::random_batch<double>(rng, 1u << 14, 300);
  h.update(last);
  ref.apply(last);
  const auto snap = h.freeze();
  ASSERT_TRUE(snap.part(0).has_demoted());
  for_team_sizes([&] {
    EXPECT_GE(expect_exact(snap), hier::detail::kParallelCountCutoff);
    EXPECT_EQ(snap.nvals(), ref.nvals());
  });
}

}  // namespace
