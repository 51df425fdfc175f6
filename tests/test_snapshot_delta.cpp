// Snapshot-delta subsystem coverage (ISSUE 3 tentpole):
//
//   * gbx::delta kernel basics and the identical-pointer fast path.
//   * Property: randomized snapshot pairs diffed against a dense-replay
//     oracle (prop_util.hpp) — the delta's added/changed/removed streams
//     must equal the coordinate-wise difference of the two reference
//     maps, and patching the old Σ Ai with the delta must reproduce the
//     new Σ Ai bit-for-bit. Runs under 3 seeds via HHGBX_SEED (see
//     tests/CMakeLists.txt).
//   * Incremental-vs-full equivalence: IncrementalEngine's Σ Ai /
//     summarize / triangles / PageRank against from-scratch recomputes,
//     in both exact (bit-identical) and warm-start (tolerance) modes.
//   * SnapshotSet diffs over row-split InstanceArray parts.
//   * Snapshot memory accounting: identity-deduped snapshot bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "algo/algo.hpp"
#include "analytics/analytics.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;
using hier::HierMatrix;
using proptest::DenseRef;

constexpr std::uint64_t kSeedOracle = 0xDE17A001;
constexpr std::uint64_t kSeedIncr = 0xDE17A002;
constexpr std::uint64_t kSeedSharded = 0xDE17A003;

using Key = std::pair<Index, Index>;

/// Patch `base` (the old Σ Ai) with a delta's new values: right-biased
/// union merge, exactly what IncrementalEngine does internally.
template <class T, class M>
gbx::Matrix<T, M> apply_patch(const gbx::Matrix<T, M>& base,
                              const hier::SnapshotDelta<T>& d) {
  Tuples<T> patch;
  patch.append(d.added);
  for (const auto& c : d.changed) patch.push_back(c.row, c.col, c.new_val);
  if (patch.empty()) return base;
  patch.template sort_dedup<M>();
  auto block = gbx::Dcsr<T>::from_sorted_unique(patch.entries());
  return gbx::Matrix<T, M>::adopt(
      base.nrows(), base.ncols(),
      gbx::ewise_add<gbx::Second<T>>(base.storage(), block));
}

/// Compare a delta against the coordinate-wise difference of two dense
/// reference maps (the oracle's definition of "what changed").
template <class T>
void expect_delta_matches_oracle(const std::map<Key, T>& ma,
                                 const std::map<Key, T>& mb,
                                 const hier::SnapshotDelta<T>& d) {
  std::map<Key, T> want_added;
  std::map<Key, std::pair<T, T>> want_changed;
  std::size_t want_removed = 0;
  for (const auto& [k, vb] : mb) {
    auto it = ma.find(k);
    if (it == ma.end()) want_added.emplace(k, vb);
    else if (!(it->second == vb)) want_changed.emplace(k, std::make_pair(it->second, vb));
  }
  for (const auto& [k, va] : ma) {
    (void)va;
    if (mb.find(k) == mb.end()) ++want_removed;
  }

  EXPECT_EQ(d.removed.size(), want_removed);
  ASSERT_EQ(d.added.size(), want_added.size());
  for (const auto& e : d.added) {
    auto it = want_added.find({e.row, e.col});
    ASSERT_NE(it, want_added.end())
        << "unexpected added entry (" << e.row << ", " << e.col << ")";
    EXPECT_EQ(e.val, it->second);
  }
  ASSERT_EQ(d.changed.size(), want_changed.size());
  for (const auto& c : d.changed) {
    auto it = want_changed.find({c.row, c.col});
    ASSERT_NE(it, want_changed.end())
        << "unexpected changed entry (" << c.row << ", " << c.col << ")";
    EXPECT_EQ(c.old_val, it->second.first);
    EXPECT_EQ(c.new_val, it->second.second);
  }
}

// ---------------------------------------------------------------------------
// gbx::delta kernel
// ---------------------------------------------------------------------------

TEST(Delta, KernelExtractsAddedRemovedChanged) {
  gbx::Matrix<int> a(16, 16), b(16, 16);
  a.set_element(1, 1, 10);
  a.set_element(1, 3, 11);
  a.set_element(4, 2, 12);
  b.set_element(1, 1, 10);   // unchanged
  b.set_element(1, 3, 99);   // changed
  b.set_element(7, 7, 13);   // added (new row)
  b.set_element(1, 5, 14);   // added (existing row)
  // (4, 2) removed (row vanishes entirely)

  auto d = gbx::delta(a.storage(), b.storage());
  ASSERT_EQ(d.added.size(), 2u);
  ASSERT_EQ(d.removed.size(), 1u);
  ASSERT_EQ(d.changed.size(), 1u);
  EXPECT_EQ(d.removed[0].row, 4u);
  EXPECT_EQ(d.removed[0].col, 2u);
  EXPECT_EQ(d.changed[0].old_val, 11);
  EXPECT_EQ(d.changed[0].new_val, 99);
  EXPECT_EQ(d.entries_scanned, a.nvals() + b.nvals());
}

TEST(Delta, IdenticalBlockFastPathSkipsEverything) {
  gbx::Matrix<double> m(64, 64);
  for (int k = 0; k < 20; ++k) m.set_element(k, 2 * k % 64, 1.0 + k);
  // Two levels over the same block (refcount bumped) share every slice,
  // so a diff has nothing left to scan.
  const hier::Level<double> l1(m.view()), l2(m.view());
  EXPECT_TRUE(hier::Level<double>::unshared(l1, l2).slices().empty());
  EXPECT_TRUE(hier::Level<double>::unshared(l2, l1).slices().empty());
  HierMatrix<double> h(64, 64, CutPolicy({4, 16}));
  h.update(m.extract_tuples());
  const auto d = hier::snapshot_diff(h.freeze(), h.freeze());
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.stats.entries_scanned, 0u) << "fast path must not scan entries";
  EXPECT_EQ(d.stats.levels_reused, d.stats.levels_total);
}

TEST(Delta, SnapshotDiffReusesUnchangedLevels) {
  HierMatrix<double> h(1 << 10, 1 << 10, CutPolicy::geometric(4, 64, 4));
  std::mt19937_64 rng(7);
  for (int k = 0; k < 40; ++k) h.update(proptest::random_batch<double>(rng, 256, 50));
  auto a = h.freeze();

  // No updates: every level block is pointer-identical.
  auto b = h.freeze();
  auto d0 = hier::snapshot_diff(a, b);
  EXPECT_TRUE(d0.empty());
  EXPECT_EQ(d0.stats.levels_total, h.num_levels());
  EXPECT_EQ(d0.stats.levels_reused, h.num_levels());
  EXPECT_EQ(d0.stats.entries_scanned, 0u);
  EXPECT_DOUBLE_EQ(d0.stats.reuse_ratio(), 1.0);

  // A sub-cut update touches only level 0: deeper levels still reused.
  h.update(3, 5, 1.0);
  auto c = h.freeze();
  auto d1 = hier::snapshot_diff(a, c);
  EXPECT_GE(d1.stats.levels_reused, h.num_levels() - 1);
  EXPECT_EQ(d1.added.size() + d1.changed.size(), 1u);
  EXPECT_TRUE(d1.removed.empty());
}

// Images of different shapes are refused, one part or many.
TEST(Delta, SnapshotDiffRejectsDimensionMismatch) {
  hier::InstanceArray<double> a(2, 64, 64, CutPolicy({4, 16}));
  hier::InstanceArray<double> b(2, 128, 128, CutPolicy({4, 16}));
  hier::ParallelStream<double> sa(a), sb(b);
  EXPECT_THROW(hier::snapshot_diff(a.instance(1).freeze(),
                                   b.instance(1).freeze()),
               gbx::DimensionMismatch);
  EXPECT_THROW(hier::snapshot_diff(sa.freeze(), sb.freeze()),
               gbx::DimensionMismatch);
}

// Snapshots of different depths diff: a growth event adds a level above
// the bottom, and a compacted() image has one level. Each pair, in both
// directions, must give the oracle's difference, and patching the older
// Σ Ai with it (removals dropped) must give the newer Σ Ai bit for bit.
TEST(Delta, SnapshotDiffAcrossDepths) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x44);
  std::mt19937_64 rng(seed);
  HierMatrix<double> h(64, 64, CutPolicy({4, 16}));
  DenseRef<double> ref;
  auto step = [&] {
    const auto batch = proptest::random_batch<double>(rng, 64, 12);
    h.update(batch);
    ref.apply(batch);
  };
  for (int k = 0; k < 20; ++k) step();
  const auto before = h.freeze();
  const auto map_before = ref.cells();
  for (int k = 0; h.num_levels() == before.part(0).num_levels(); ++k) {
    ASSERT_LT(k, 10000) << "the matrix never grew";
    step();
  }
  const auto after = h.freeze();
  const auto map_after = ref.cells();
  ASSERT_GT(after.part(0).num_levels(), before.part(0).num_levels());

  auto check = [](const hier::SnapshotSet<double>& a,
                  const std::map<Key, double>& ma,
                  const hier::SnapshotSet<double>& b,
                  const std::map<Key, double>& mb) {
    const auto d = hier::snapshot_diff(a, b);
    expect_delta_matches_oracle(ma, mb, d);
    std::map<Key, double> patched;
    for (const auto& e : a.to_matrix().extract_tuples())
      patched[{e.row, e.col}] = e.val;
    for (const auto& e : d.added) patched[{e.row, e.col}] = e.val;
    for (const auto& c : d.changed) patched[{c.row, c.col}] = c.new_val;
    for (const auto& e : d.removed) patched.erase({e.row, e.col});
    std::map<Key, double> want;
    for (const auto& e : b.to_matrix().extract_tuples())
      want[{e.row, e.col}] = e.val;
    EXPECT_EQ(patched, want);
  };
  struct Image {
    const char* name;
    hier::SnapshotSet<double> snap;
    const std::map<Key, double>* cells;
  };
  const Image b0{"before", before, &map_before};
  const Image b1{"before, compacted", before.compacted(), &map_before};
  const Image a0{"after", after, &map_after};
  const Image a1{"after, compacted", after.compacted(), &map_after};
  for (const auto& [x, y] : {std::pair{&b0, &a0}, std::pair{&b0, &b1},
                             std::pair{&a0, &a1}, std::pair{&b1, &a0}}) {
    SCOPED_TRACE(::testing::Message() << x->name << " vs " << y->name);
    check(x->snap, *x->cells, y->snap, *y->cells);
    check(y->snap, *y->cells, x->snap, *x->cells);
  }
}

// ---------------------------------------------------------------------------
// Property: randomized snapshot pairs vs dense-replay oracle
// ---------------------------------------------------------------------------

template <class T, class M>
void run_delta_oracle_property(std::uint64_t seed, std::size_t steps,
                               std::size_t max_batch) {
  std::mt19937_64 rng(seed);
  const Index dim = 512;
  std::uniform_int_distribution<int> levels(2, 5);
  std::uniform_int_distribution<int> base(8, 200);
  HierMatrix<T, M> h(dim, dim, CutPolicy::geometric(
                                   static_cast<std::size_t>(levels(rng)),
                                   static_cast<std::size_t>(base(rng)), 4));
  DenseRef<T, M> ref;

  std::vector<hier::SnapshotSet<T, M>> snaps;
  std::vector<std::map<Key, T>> maps;
  std::uniform_int_distribution<std::size_t> bsize(1, max_batch);
  std::uniform_int_distribution<int> action(0, 9);
  for (std::size_t s = 0; s < steps; ++s) {
    auto batch = proptest::random_batch<T>(rng, 200, bsize(rng));
    h.update(batch);
    ref.apply(batch);
    const int a = action(rng);
    if (a == 0) h.flush();  // exercise deep-level block replacement
    if (a <= 3 || s + 1 == steps) {
      snaps.push_back(h.freeze());
      maps.push_back(ref.cells());
    }
  }
  ASSERT_GE(snaps.size(), 2u);

  auto check_pair = [&](std::size_t i, std::size_t j) {
    auto d = hier::snapshot_diff(snaps[i], snaps[j]);
    expect_delta_matches_oracle(maps[i], maps[j], d);
    EXPECT_TRUE(d.removed.empty())
        << "epoch-ordered pairs from one source never remove entries";
    EXPECT_EQ(d.epoch_from, snaps[i].epoch());
    EXPECT_EQ(d.epoch_to, snaps[j].epoch());
    // Bit-exact patch property: old Σ Ai + delta == new Σ Ai.
    auto patched = apply_patch(snaps[i].to_matrix(), d);
    EXPECT_TRUE(gbx::equal(patched, snaps[j].to_matrix()));
  };

  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) check_pair(i, i + 1);
  check_pair(0, snaps.size() - 1);          // long-range pair
  std::uniform_int_distribution<std::size_t> pick(0, snaps.size() - 1);
  for (int k = 0; k < 4; ++k) {             // random ordered pair
    auto i = pick(rng), j = pick(rng);
    if (i > j) std::swap(i, j);
    check_pair(i, j);
  }
}

TEST(DeltaProperties, OracleDiffPlusDouble) {
  HHGBX_PROP_SEED(seed, kSeedOracle);
  run_delta_oracle_property<double, gbx::PlusMonoid<double>>(seed, 60, 300);
}

TEST(DeltaProperties, OracleDiffPlusInt64) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x11);
  run_delta_oracle_property<std::int64_t, gbx::PlusMonoid<std::int64_t>>(
      seed, 50, 250);
}

TEST(DeltaProperties, OracleDiffMinInt64) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x22);
  run_delta_oracle_property<std::int64_t, gbx::MinMonoid<std::int64_t>>(
      seed, 50, 250);
}

TEST(DeltaProperties, OracleDiffMaxInt64) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x33);
  run_delta_oracle_property<std::int64_t, gbx::MaxMonoid<std::int64_t>>(
      seed, 50, 250);
}

// ---------------------------------------------------------------------------
// Incremental-vs-full equivalence (Σ Ai / summarize / PageRank / triangles)
// ---------------------------------------------------------------------------

void run_incremental_equivalence(std::uint64_t seed, bool warm_start) {
  std::mt19937_64 rng(seed);
  const Index dim = 1 << 12;
  HierMatrix<double> h(dim, dim, CutPolicy::geometric(4, 512, 8));

  analytics::IncrementalOptions opt;
  opt.pagerank.tol = 1e-12;
  opt.pagerank.max_iters = 300;
  opt.pagerank_warm_start = warm_start;
  analytics::IncrementalEngine<HierMatrix<double>> eng(h, opt);

  // Warmup bulk, then small churn windows refreshed incrementally.
  for (int k = 0; k < 40; ++k) h.update(proptest::random_batch<double>(rng, 300, 400));
  eng.refresh();
  EXPECT_TRUE(eng.last_report().full_recompute);

  for (int window = 0; window < 6; ++window) {
    h.update(proptest::random_batch<double>(rng, 300, 25));
    const auto& rep = eng.refresh();
    EXPECT_FALSE(rep.full_recompute) << "window " << window;

    // Full recompute from the same snapshot the engine analyzed.
    auto full = eng.snapshot().to_matrix();
    EXPECT_TRUE(gbx::equal(eng.sum(), full)) << "Σ Ai must be bit-identical";
    EXPECT_EQ(eng.triangles(), algo::triangle_count(full));

    auto fs = analytics::summarize(full);
    EXPECT_EQ(eng.summary().links, fs.links);
    EXPECT_EQ(eng.summary().sources, fs.sources);
    EXPECT_EQ(eng.summary().destinations, fs.destinations);
    EXPECT_EQ(eng.summary().max_link, fs.max_link);
    EXPECT_NEAR(eng.summary().packets, fs.packets,
                1e-9 * (1.0 + std::abs(fs.packets)));

    auto pr_opt = opt.pagerank;
    pr_opt.warm_start = nullptr;
    auto full_pr = algo::pagerank(full, pr_opt);
    ASSERT_EQ(eng.pagerank().ranks.size(), full_pr.ranks.size());
    if (warm_start) {
      // Warm-started iteration converges to the same fixed point within
      // the tolerance, not bit-identically.
      std::map<Index, double> got;
      for (const auto& [v, r] : eng.pagerank().ranks) got[v] = r;
      for (const auto& [v, r] : full_pr.ranks) {
        ASSERT_TRUE(got.count(v));
        EXPECT_NEAR(got[v], r, 1e-8);
      }
    } else {
      // Exact mode: cold rerun on a bit-identical matrix — the whole
      // result (ordering included) must match bit-for-bit.
      for (std::size_t k = 0; k < full_pr.ranks.size(); ++k) {
        EXPECT_EQ(eng.pagerank().ranks[k].first, full_pr.ranks[k].first);
        EXPECT_EQ(eng.pagerank().ranks[k].second, full_pr.ranks[k].second);
      }
    }
  }
  EXPECT_EQ(eng.full_recomputes(), 1u);
  EXPECT_EQ(eng.refreshes(), 7u);
}

TEST(IncrementalAnalytics, MatchesFullRecomputeExactMode) {
  HHGBX_PROP_SEED(seed, kSeedIncr);
  run_incremental_equivalence(seed, /*warm_start=*/false);
}

TEST(IncrementalAnalytics, MatchesFullRecomputeWarmStart) {
  HHGBX_PROP_SEED(seed, kSeedIncr ^ 0x44);
  run_incremental_equivalence(seed, /*warm_start=*/true);
}

TEST(IncrementalAnalytics, ReverseEdgesAndSelfLoopsStillUpdatePageRank) {
  // PageRank's pattern is the DIRECTED stored structure with self-loops;
  // the triangle adjacency is undirected without them. A delta that adds
  // only a reverse direction or a self-loop creates no new undirected
  // edge but must still rerun PageRank (regression: the update was once
  // gated on the triangle counter).
  HierMatrix<double> h(64, 64, CutPolicy::geometric(2, 32, 4));
  analytics::IncrementalOptions opt;
  opt.pagerank_warm_start = false;  // bit-identical mode
  opt.pagerank.tol = 1e-12;
  analytics::IncrementalEngine<HierMatrix<double>> eng(h, opt);

  h.update(1, 2, 1.0);
  h.update(2, 3, 1.0);
  h.update(3, 1, 1.0);
  eng.refresh();

  auto check_exact = [&] {
    auto full = eng.snapshot().to_matrix();
    auto pr_opt = opt.pagerank;
    auto full_pr = algo::pagerank(full, pr_opt);
    ASSERT_EQ(eng.pagerank().ranks.size(), full_pr.ranks.size());
    for (std::size_t k = 0; k < full_pr.ranks.size(); ++k) {
      EXPECT_EQ(eng.pagerank().ranks[k].first, full_pr.ranks[k].first);
      EXPECT_EQ(eng.pagerank().ranks[k].second, full_pr.ranks[k].second);
    }
    EXPECT_EQ(eng.triangles(), algo::triangle_count(full));
  };

  h.update(2, 1, 1.0);  // reverse of an existing edge: no new undirected edge
  auto rep = eng.refresh();
  EXPECT_EQ(rep.new_edges, 0u);
  check_exact();

  h.update(3, 3, 1.0);  // self-loop: invisible to triangles, not to pagerank
  rep = eng.refresh();
  EXPECT_EQ(rep.new_edges, 0u);
  check_exact();
}

TEST(IncrementalAnalytics, IdleRefreshReusesEverything) {
  HierMatrix<double> h(1 << 10, 1 << 10, CutPolicy::geometric(3, 128, 8));
  std::mt19937_64 rng(11);
  for (int k = 0; k < 20; ++k) h.update(proptest::random_batch<double>(rng, 200, 100));
  analytics::IncrementalEngine<HierMatrix<double>> eng(h);
  eng.refresh();
  const auto before = eng.pagerank().ranks;
  const auto& rep = eng.refresh();  // no updates in between
  EXPECT_FALSE(rep.full_recompute);
  EXPECT_EQ(rep.added + rep.changed, 0u);
  EXPECT_EQ(rep.delta.levels_reused, rep.delta.levels_total);
  EXPECT_EQ(rep.pagerank_iterations, 0) << "unchanged pattern reuses ranks";
  ASSERT_EQ(eng.pagerank().ranks.size(), before.size());
  for (std::size_t k = 0; k < before.size(); ++k)
    EXPECT_EQ(eng.pagerank().ranks[k].second, before[k].second);
}

// ---------------------------------------------------------------------------
// SnapshotSet diffs (row-split InstanceArray parts, frozen through an
// unstarted ParallelStream) + incremental engine over such parts
// ---------------------------------------------------------------------------

TEST(DeltaProperties, ShardedSetDiffPatchesExactly) {
  HHGBX_PROP_SEED(seed, kSeedSharded);
  std::mt19937_64 rng(seed);
  hier::InstanceArray<double> parts(4, 1 << 10, 1 << 10,
                                    CutPolicy::geometric(3, 128, 8));
  hier::ParallelStream<double> sh(parts);
  std::vector<hier::SnapshotSet<double>> snaps;
  for (int k = 0; k < 30; ++k) {
    parts.update_rows(proptest::random_batch<double>(rng, 300, 120));
    if (k % 6 == 0 || k == 29) snaps.push_back(sh.freeze());
  }
  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
    auto d = hier::snapshot_diff(snaps[i], snaps[i + 1]);
    EXPECT_TRUE(d.removed.empty());
    auto patched = apply_patch(snaps[i].to_matrix(), d);
    EXPECT_TRUE(gbx::equal(patched, snaps[i + 1].to_matrix()));
  }
  // Quiescent back-to-back freezes reuse every part's blocks.
  auto a = sh.freeze();
  auto b = sh.freeze();
  auto d = hier::snapshot_diff(a, b);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.stats.levels_reused, d.stats.levels_total);
}

TEST(IncrementalAnalytics, WorksOverShardedSource) {
  std::mt19937_64 rng(23);
  hier::InstanceArray<double> parts(3, 1 << 10, 1 << 10,
                                    CutPolicy::geometric(3, 128, 8));
  hier::ParallelStream<double> sh(parts);
  analytics::IncrementalOptions opt;
  opt.pagerank_warm_start = false;  // assert the bit-identical mode
  opt.pagerank.tol = 1e-12;
  analytics::IncrementalEngine<hier::ParallelStream<double>> eng(sh, opt);
  for (int k = 0; k < 15; ++k)
    parts.update_rows(proptest::random_batch<double>(rng, 200, 150));
  eng.refresh();
  for (int w = 0; w < 3; ++w) {
    parts.update_rows(proptest::random_batch<double>(rng, 200, 20));
    eng.refresh();
    auto full = eng.snapshot().to_matrix();
    EXPECT_TRUE(gbx::equal(eng.sum(), full));
    EXPECT_EQ(eng.triangles(), algo::triangle_count(full));
  }
  EXPECT_EQ(eng.full_recomputes(), 1u);
}

// ---------------------------------------------------------------------------
// Snapshot memory accounting
// ---------------------------------------------------------------------------

TEST(SnapshotMemory, DedupesAliasedBlocks) {
  gbx::Matrix<double> m(64, 64);
  for (int k = 0; k < 32; ++k) m.set_element(k, k, 1.0);
  auto v = m.view();
  // Two levels aliasing one block must count it once.
  hier::SnapshotSet<double> snap({{64, 64, {v, v}, {8, 16}, {}, 1}});
  EXPECT_EQ(snap.memory_bytes(), v.memory_bytes());
  EXPECT_GT(snap.memory_bytes(), 0u);
}

}  // namespace
