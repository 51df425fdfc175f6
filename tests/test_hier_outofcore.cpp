// Out-of-core tiering property tests (ISSUE 7): demoting the cold
// bottom level into a store::BlockStore must be invisible to every
// query path. The differential oracle is the same DenseRef replay the
// other property suites use, plus a never-demoting twin matrix fed the
// identical operation stream — randomized interleavings of update /
// flush / collapse / demote / enforce_residency / freeze must leave
// snapshot, extract_element, reduce, and to_matrix agreeing with both.
//
// Bit-exactness discipline: randomized values are small integers (exact
// in every tested type), so fold regrouping at demote boundaries cannot
// round — twin equality is exact. A separate test feeds arbitrary
// doubles and checks the SELF-consistency contract instead: all read
// paths of the demoted matrix agree bit-for-bit with each other.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/reduce.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;
using gbx::Tuples;
using hier::CutPolicy;
using hier::DemotionConfig;
using hier::HierMatrix;

// Visit every stored entry of a materialized matrix as f(i, j, v).
template <class T, class M, class F>
void for_each_entry(const Matrix<T, M>& m, F&& f) {
  const auto& s = m.storage();
  for (std::size_t r = 0; r < s.rows().size(); ++r)
    for (auto p = s.ptr()[r]; p < s.ptr()[r + 1]; ++p)
      f(s.rows()[r], s.cols()[p], s.vals()[p]);
}

// Small segments + few runs so modest streams exercise segmentation,
// run accumulation, AND compaction.
DemotionConfig small_segments() {
  DemotionConfig cfg;
  cfg.segment_bytes = 2048;
  cfg.max_runs = 3;
  return cfg;
}

TEST(OutOfCore, DemoteMovesBottomLevelIntoStore) {
  auto store = store::make_mem_block_store();
  HierMatrix<std::int64_t> h(1u << 16, 1u << 16, CutPolicy({32, 256}));
  h.enable_demotion(store.get(), small_segments());

  proptest::DenseRef<std::int64_t> ref;
  std::mt19937_64 rng(7);
  for (int s = 0; s < 6; ++s) {
    auto b = proptest::random_batch<std::int64_t>(rng, 4096, 800);
    h.update(b);
    ref.apply(b);
  }
  h.flush();  // everything now lives in the bottom level
  const std::size_t resident_before = h.memory_bytes();

  ASSERT_TRUE(h.demote_now());
  EXPECT_TRUE(h.has_demoted());
  EXPECT_GT(h.store_bytes(), 0u);
  EXPECT_GT(store->blocks(), 0u);
  EXPECT_LT(h.memory_bytes(), resident_before);
  EXPECT_EQ(h.level_entries(h.num_levels() - 1), 0u);

  // Every read path still sees the full value.
  EXPECT_TRUE(ref.matches(h.freeze()));
  EXPECT_EQ(h.nvals(), ref.nvals());
  for (const auto& [k, v] : ref.cells())
    EXPECT_EQ(h.extract_element(k.first, k.second).value(), v);
}

TEST(OutOfCore, EmptyBottomDemotesToNothing) {
  auto store = store::make_mem_block_store();
  HierMatrix<double> h(100, 100, CutPolicy({8}));
  h.enable_demotion(store.get());
  EXPECT_FALSE(h.demote_now());  // nothing to move
  EXPECT_FALSE(h.has_demoted());
  h.update(1, 2, 3.0);  // still in the hot level
  h.flush();
  EXPECT_TRUE(h.demote_now());
  EXPECT_FALSE(h.demote_now());  // bottom emptied by the first demote
  EXPECT_DOUBLE_EQ(h.extract_element(1, 2).value(), 3.0);
}

// ---------------------------------------------------------------------------
// Randomized interleaving property, parameterized over fold monoid. A
// never-demoting twin receives the identical stream;
// values are small integers so the fold is bit-associative and twin
// equality is exact.
// ---------------------------------------------------------------------------

template <class M>
void interleaving_property(std::uint64_t pinned) {
  HHGBX_PROP_SEED(seed, pinned);
  using T = typename M::value_type;
  const Index dim = 1024;
  std::mt19937_64 rng(seed);

  auto store = store::make_mem_block_store();
  HierMatrix<T, M> h(dim, dim, CutPolicy({24, 192}));
  h.enable_demotion(store.get(), small_segments());
  HierMatrix<T, M> twin(dim, dim, CutPolicy({24, 192}));
  proptest::DenseRef<T, M> ref;

  std::uniform_int_distribution<int> op(0, 99);
  std::uniform_int_distribution<std::size_t> nbatch(1, 400);
  for (int step = 0; step < 250; ++step) {
    const int o = op(rng);
    if (o < 60) {
      auto b = proptest::random_batch<T>(rng, dim, nbatch(rng));
      h.update(b);
      twin.update(b);
      ref.apply(b);
    } else if (o < 70) {
      ASSERT_TRUE(h.demotion_enabled());
      h.demote_now();
    } else if (o < 78) {
      // Byte budgets below the current footprint force flush+demote.
      h.enforce_residency(h.memory_bytes() / 2);
    } else if (o < 84) {
      h.flush();
      twin.flush();
    } else if (o < 88) {
      (void)h.collapse();
      (void)twin.collapse();
    } else {
      // Interleaved queries must not perturb anything.
      auto snap = h.freeze();
      const Index i = static_cast<Index>(rng() % dim);
      const Index j = static_cast<Index>(rng() % dim);
      auto got = snap.extract_element(i, j);
      auto it = ref.cells().find({i, j});
      if (it == ref.cells().end()) {
        EXPECT_FALSE(got.has_value()) << "(" << i << "," << j << ")";
      } else {
        ASSERT_TRUE(got.has_value()) << "(" << i << "," << j << ")";
        EXPECT_EQ(*got, it->second) << "(" << i << "," << j << ")";
      }
    }
  }

  ASSERT_TRUE(ref.matches(h.freeze()));
  EXPECT_EQ(h.nvals(), ref.nvals());
  EXPECT_TRUE(gbx::equal(h.snapshot(), twin.snapshot()))
      << "demotion changed the accumulated value";
}

TEST(OutOfCoreInterleaving, PlusInt64Seed101) {
  interleaving_property<gbx::PlusMonoid<std::int64_t>>(101);
}
TEST(OutOfCoreInterleaving, PlusInt64Seed102) {
  interleaving_property<gbx::PlusMonoid<std::int64_t>>(102);
}
TEST(OutOfCoreInterleaving, MinInt64) {
  interleaving_property<gbx::MinMonoid<std::int64_t>>(103);
}
TEST(OutOfCoreInterleaving, MaxInt64) {
  interleaving_property<gbx::MaxMonoid<std::int64_t>>(104);
}
TEST(OutOfCoreInterleaving, PlusDouble) {
  // Small-integer-valued doubles: exactly representable, so plus stays
  // bit-associative and the twin comparison is still exact.
  interleaving_property<gbx::PlusMonoid<double>>(105);
}

// ---------------------------------------------------------------------------
// Self-consistency with arbitrary float values: whatever demotion did
// to the fold grouping, every read path of THIS matrix must agree with
// every other bit-for-bit (the unconditional half of the contract).
// ---------------------------------------------------------------------------

TEST(OutOfCore, ReadPathsAgreeBitExactlyOnArbitraryDoubles) {
  HHGBX_PROP_SEED(seed, 77);
  const Index dim = 512;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::uniform_int_distribution<Index> coord(0, dim - 1);

  auto store = store::make_mem_block_store();
  HierMatrix<double> h(dim, dim, CutPolicy({16, 128}));
  auto cfg = small_segments();
  cfg.max_runs = 100;  // keep the runs un-merged: distinct fold chains
  h.enable_demotion(store.get(), cfg);
  for (int s = 0; s < 12; ++s) {
    Tuples<double> b;
    for (int k = 0; k < 600; ++k) b.push_back(coord(rng), coord(rng), val(rng));
    h.update(b);
    if (s % 3 == 2) h.demote_now();  // several runs, un-merged chains
  }
  ASSERT_TRUE(h.has_demoted());
  ASSERT_GT(h.tier().num_runs(), 1u);

  auto snap = h.freeze();
  auto m = snap.to_matrix();
  EXPECT_EQ(snap.nvals(), m.nvals());
  std::size_t checked = 0;
  for_each_entry(m, [&](Index i, Index j, double v) {
    const auto a = snap.extract_element(i, j);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, v) << "extract vs to_matrix differ at (" << i << "," << j
                     << ")";
    const auto b = h.extract_element(i, j);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, v);
    ++checked;
  });
  EXPECT_EQ(checked, m.nvals());
  // reduce() folds per-block partial sums (documented partial-value
  // caveat) — numerically equivalent, not bit-identical, for floats.
  EXPECT_NEAR(snap.reduce(),
              gbx::reduce_scalar<gbx::PlusMonoid<double>>(m.view()), 1e-9);
}

// ---------------------------------------------------------------------------
// Compaction: run-count bound, value preservation, and RAII block GC —
// a live snapshot pins the pre-compaction image; blocks are reclaimed
// only when it dies.
// ---------------------------------------------------------------------------

TEST(OutOfCore, CompactionBoundsRunsAndReclaimsBlocksAfterReaders) {
  auto store = store::make_mem_block_store();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  auto cfg = small_segments();
  h.enable_demotion(store.get(), cfg);

  proptest::DenseRef<std::int64_t> ref;
  std::mt19937_64 rng(13);

  // Pin a snapshot mid-stream, then keep demoting past max_runs so a
  // compaction happens underneath it.
  hier::SnapshotSet<std::int64_t> pinned;
  proptest::DenseRef<std::int64_t> pinned_ref;
  for (int s = 0; s < 10; ++s) {
    auto b = proptest::random_batch<std::int64_t>(rng, 2048, 500);
    h.update(b);
    ref.apply(b);
    h.flush();
    ASSERT_TRUE(h.demote_now());
    if (s == 4) {
      pinned = h.freeze();
      pinned_ref = ref;
    }
  }
  EXPECT_LE(h.tier().num_runs(), cfg.max_runs);
  EXPECT_GE(h.tier().stats().compactions, 1u);
  EXPECT_EQ(h.tier().stats().demotions, 10u);

  // The pinned reader still sees its epoch exactly, through blocks that
  // compaction superseded.
  ASSERT_TRUE(pinned_ref.matches(pinned));
  const std::size_t blocks_while_pinned = store->blocks();

  // Dropping the last reference to the old image erases its blocks.
  pinned = hier::SnapshotSet<std::int64_t>();
  EXPECT_LT(store->blocks(), blocks_while_pinned);
  ASSERT_TRUE(ref.matches(h.freeze()));
}

TEST(OutOfCore, CollapsePromotesTierBackAndReleasesStore) {
  auto store = store::make_mem_block_store();
  HierMatrix<std::int64_t> h(1024, 1024, CutPolicy({16, 64}));
  h.enable_demotion(store.get(),
                    small_segments());
  proptest::DenseRef<std::int64_t> ref;
  std::mt19937_64 rng(21);
  for (int s = 0; s < 6; ++s) {
    auto b = proptest::random_batch<std::int64_t>(rng, 1024, 700);
    h.update(b);
    ref.apply(b);
    if (s % 2 == 1) h.demote_now();
  }
  ASSERT_TRUE(h.has_demoted());

  const auto& collapsed = h.collapse();
  EXPECT_FALSE(h.has_demoted());
  EXPECT_EQ(store->blocks(), 0u);  // no snapshots outstanding: all GC'd
  EXPECT_EQ(h.store_bytes(), 0u);
  ASSERT_TRUE(ref.matches(collapsed));
  ASSERT_TRUE(ref.matches(h.freeze()));
}

// Several row-split parts demote into ONE shared block store (distinct
// tiers over distinct block ids), each held to an even share of the
// budget; the stitched image still equals a single matrix.
TEST(OutOfCore, RowSplitPartsDemotionMatchesSingleMatrix) {
  HHGBX_PROP_SEED(seed, 302);
  const Index dim = 1u << 16;
  constexpr std::size_t kParts = 8;
  std::mt19937_64 rng(seed);

  auto store = store::make_mem_block_store();
  hier::InstanceArray<std::int64_t> parts(kParts, dim, dim,
                                          CutPolicy({64, 512}));
  for (std::size_t p = 0; p < kParts; ++p)
    parts.instance(p).enable_demotion(store.get(), small_segments());
  hier::ParallelStream<std::int64_t> stream(parts);
  HierMatrix<std::int64_t> single(dim, dim, CutPolicy({64, 512}));

  for (int s = 0; s < 20; ++s) {
    auto b = proptest::random_batch<std::int64_t>(rng, 8192, 1200);
    parts.update_rows(b);
    single.update(b);
    if (s % 4 == 3) {
      std::size_t budget = 0;
      for (std::size_t p = 0; p < kParts; ++p)
        budget += parts.instance(p).memory_bytes();
      budget /= 2;
      for (std::size_t p = 0; p < kParts; ++p)
        parts.instance(p).enforce_residency(budget / kParts);
    }
  }
  bool demoted = false;
  std::uint64_t store_bytes = 0;
  for (std::size_t p = 0; p < kParts; ++p) {
    demoted = demoted || parts.instance(p).has_demoted();
    store_bytes += parts.instance(p).store_bytes();
  }
  EXPECT_TRUE(demoted);
  EXPECT_GT(store_bytes, 0u);
  EXPECT_TRUE(gbx::equal(stream.freeze().to_matrix(), single.snapshot()));

  // SnapshotSet point reads continue one flat fold chain across parts
  // and the demoted runs inside each part.
  auto set = stream.freeze();
  auto m = single.snapshot();
  std::size_t n = 0;
  for_each_entry(m, [&](Index i, Index j, std::int64_t v) {
    if (++n > 2000) return;  // sample; full equality checked above
    EXPECT_EQ(set.extract_element(i, j).value(), v);
  });
}

// ---------------------------------------------------------------------------
// FileBackend end-to-end: the tier over a real file, with a cache small
// enough that reads actually hit the disk path, plus vacuum reclaim.
// ---------------------------------------------------------------------------

TEST(OutOfCore, FileBackedTierSurvivesCacheChurnAndVacuum) {
  // pid-unique: the 3-seed reruns of this suite may run concurrently.
  const std::string path = testing::TempDir() + "hhgbx_outofcore_blocks_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  {
    store::BlockStoreConfig scfg;
    scfg.cache_budget_bytes = 4096;  // force backend reads
    auto store = store::make_file_block_store(path, scfg);

    HierMatrix<std::int64_t> h(4096, 4096, CutPolicy({32}));
    auto cfg = small_segments();
    h.enable_demotion(store.get(), cfg);
    proptest::DenseRef<std::int64_t> ref;
    std::mt19937_64 rng(31);
    for (int s = 0; s < 8; ++s) {
      auto b = proptest::random_batch<std::int64_t>(rng, 4096, 900);
      h.update(b);
      ref.apply(b);
      h.flush();
      ASSERT_TRUE(h.demote_now());
    }
    ASSERT_TRUE(ref.matches(h.freeze()));
    const auto st = store->stats();
    EXPECT_GT(st.cache_misses, 0u) << "cache too big to exercise the file";

    // Compactions superseded blocks; vacuum rewrites only live frames.
    auto& fb = static_cast<store::FileBackend&>(store->backend());
    const auto before = fb.file_bytes();
    fb.vacuum();
    EXPECT_LT(fb.file_bytes(), before);
    ASSERT_TRUE(ref.matches(h.freeze()));  // reads fine after the rewrite
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoints of a demoted matrix are self-contained: restore() needs
// no block store and reproduces the full logical value.
// ---------------------------------------------------------------------------

TEST(OutOfCore, CheckpointOfDemotedMatrixIsSelfContained) {
  auto store = store::make_mem_block_store();
  HierMatrix<std::int64_t> h(1u << 14, 1u << 14, CutPolicy({32, 256}));
  h.enable_demotion(store.get(),
                    small_segments());
  proptest::DenseRef<std::int64_t> ref;
  std::mt19937_64 rng(41);
  for (int s = 0; s < 8; ++s) {
    auto b = proptest::random_batch<std::int64_t>(rng, 4096, 800);
    h.update(b);
    ref.apply(b);
    if (s % 2 == 1) h.enforce_residency(0);
  }
  ASSERT_TRUE(h.has_demoted());

  // Through the HierMatrix overload...
  std::stringstream ss;
  hier::checkpoint(ss, h);
  auto restored = hier::restore<std::int64_t>(ss);
  EXPECT_FALSE(restored.demotion_enabled());
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
  ASSERT_TRUE(ref.matches(restored.freeze()));
  EXPECT_EQ(restored.epoch(), h.epoch());

  // ...and through the snapshot overload (reader-thread checkpoints).
  std::stringstream ss2;
  hier::checkpoint(ss2, h.freeze());
  auto restored2 = hier::restore<std::int64_t>(ss2);
  EXPECT_TRUE(gbx::equal(restored2.snapshot(), h.snapshot()));

  // The restored matrix keeps streaming like any other.
  auto b = proptest::random_batch<std::int64_t>(rng, 4096, 500);
  restored.update(b);
  h.update(b);
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
}

// A run indexes its rows exactly: a probe for a row no run holds reads
// no block, whether the row lies far from the demoted set or inside a
// segment's row span.
TEST(OutOfCore, AbsentRowsReadNoBlock) {
  auto store = store::make_mem_block_store();
  HierMatrix<std::int64_t> h(1u << 20, 1u << 20, CutPolicy({16}));
  h.enable_demotion(store.get(), small_segments());
  // Demoted rows are the even rows of [0, 1024): several segments.
  for (Index i = 0; i < 1024; i += 2) h.update(i, i, 1);
  h.flush();
  ASSERT_TRUE(h.demote_now());
  ASSERT_GT(store->blocks(), 1u);

  auto snap = h.freeze();
  const auto gets = store->stats().gets;
  for (Index i = 0; i < 4096; ++i)  // far from the demoted rows
    EXPECT_FALSE(snap.extract_element((1u << 19) + i, 0).has_value());
  for (Index i = 1; i < 1024; i += 2)  // between demoted rows
    EXPECT_FALSE(snap.extract_element(i, i).has_value());
  EXPECT_EQ(store->stats().gets, gets);

  // A present row still reads back its value.
  EXPECT_EQ(snap.extract_element(512, 512).value(), 1);
  EXPECT_GT(store->stats().gets, gets);
}

}  // namespace
