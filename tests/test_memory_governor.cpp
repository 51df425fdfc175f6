// Coverage for the memory-governed snapshot eviction subsystem
// (hier/memory_governor.hpp):
//
//   * Compaction primitives: a one-part SnapshotSet::compacted()
//     preserves every read path bit-for-bit, owns its block (no
//     surviving alias pins), and carries epoch/cuts/stats along; it
//     collapses overlapping-part sets into one exact Σ image.
//   * Governor policy: a lagging reader's pinned bytes are released
//     under a budget (materialize-and-release), reads through the
//     governed handle stay bit-identical before/after eviction, and
//     block use counts actually drop (the memory really frees).
//   * Accounting: the newest frozen image is never evicted, and over
//     HierMatrix, row-split parts read through an unstarted
//     ParallelStream and a running ParallelStream the held image splits
//     exactly into live + pinned against the newest image.
//   * Property (stress label, 3-seed rerun): random update/freeze/
//     evict interleavings re-queried against the dense-replay oracle
//     across the four fold monoids, over HierMatrix and over row-split
//     parts (whose evictions collapse the whole set; every part's epoch
//     and entry count preserved).
//   * analytics::IncrementalEngine over a governed source: eviction of
//     the cached previous snapshot falls back to a counted full
//     recompute; a generous budget keeps the incremental path intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/algo.hpp"
#include "analytics/analytics.hpp"
#include "analytics/incremental.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;
using hier::GovernorConfig;
using hier::HierMatrix;
using hier::MemoryGovernor;
using proptest::DenseRef;

constexpr std::uint64_t kSeedCompact = 0x60C0001;
constexpr std::uint64_t kSeedEvict = 0x60C0002;
constexpr std::uint64_t kSeedOracle = 0x60C0003;
constexpr std::uint64_t kSeedSharded = 0x60C0005;
constexpr std::uint64_t kSeedIncr = 0x60C0006;
constexpr std::uint64_t kSeedNewest = 0x60C0008;
constexpr std::uint64_t kSeedAccounting = 0x60C0009;

/// Entry-for-entry bitwise comparison of two materialized images.
template <class T, class M>
::testing::AssertionResult same_matrix(const gbx::Matrix<T, M>& a,
                                       const gbx::Matrix<T, M>& b) {
  if (!gbx::equal(a, b))
    return ::testing::AssertionFailure() << "materialized images differ";
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Compaction preserves every read path and really owns its block.
// ---------------------------------------------------------------------------
TEST(MemoryGovernor, CompactedSnapshotPreservesReadsAndMetadata) {
  HHGBX_PROP_SEED(seed, kSeedCompact);
  std::mt19937_64 rng(seed);
  const Index dim = 1u << 12;
  HierMatrix<double> h(dim, dim, CutPolicy({32, 512, 8192}));
  DenseRef<double> ref;
  for (int k = 0; k < 25; ++k) {
    auto b = proptest::random_batch<double>(rng, dim, 200);
    h.update(b);
    ref.apply(b);
  }

  auto snap = h.freeze();
  auto compact = snap.compacted();

  EXPECT_EQ(compact.part(0).num_levels(), 1u);
  EXPECT_EQ(compact.epoch(), snap.epoch());
  EXPECT_EQ(compact.part(0).cuts(), snap.part(0).cuts());
  EXPECT_EQ(compact.part(0).stats().updates, snap.part(0).stats().updates);
  EXPECT_EQ(compact.nvals(), snap.nvals());
  EXPECT_TRUE(same_matrix(compact.to_matrix(), snap.to_matrix()));
  EXPECT_TRUE(ref.matches(compact));

  // The compact block is privately owned: the only reference is the
  // compacted snapshot's own level view.
  EXPECT_EQ(compact.part(0).level(0).block_use_count(), 1);
}

TEST(MemoryGovernor, CompactedSingleLevelDeepCopiesTheAliasedBlock) {
  const Index dim = 64;
  // Level-0 cut never trips, so only level 0 is ever non-empty and
  // to_matrix() takes its aliasing fast path.
  HierMatrix<double> h(dim, dim, CutPolicy({1u << 20}));
  h.update(1, 2, 3.0);
  h.update(4, 5, 6.0);
  auto snap = h.freeze();
  ASSERT_GT(snap.part(0).level(0).nvals(), 0u);
  auto compact = snap.compacted();
  // to_matrix() aliases a single non-empty level; compacted() must not.
  EXPECT_NE(compact.part(0).level(0).shared_storage().get(),
            snap.part(0).level(0).shared_storage().get());
  EXPECT_TRUE(same_matrix(compact.to_matrix(), snap.to_matrix()));
}

// Whole-set collapse folds the exact part-major Σ once — bit-identical
// even with overlapping parts and adversarial float cancellation, where
// per-part pre-folding would re-associate the chain.
TEST(MemoryGovernor, SetCollapseIsBitExactForOverlappingParts) {
  const Index dim = 4;
  gbx::Matrix<double> a(dim, dim), b(dim, dim), c(dim, dim);
  a.set_element(0, 0, 1e16);
  b.set_element(0, 0, 1.0);
  c.set_element(0, 0, -1e16);
  std::vector<hier::Level<double>> lv0{a.view(), b.view()};
  std::vector<hier::Level<double>> lv1{c.view()};
  hier::HierSnapshot<double> p0(dim, dim, std::move(lv0), {}, {}, 1);
  hier::HierSnapshot<double> p1(dim, dim, std::move(lv1), {}, {}, 1);
  hier::SnapshotSet<double> set({p0, p1});

  auto collapsed = set.compacted();
  ASSERT_EQ(collapsed.size(), set.size());
  EXPECT_EQ(collapsed.epoch(), set.epoch());
  EXPECT_EQ(collapsed.part(0).stats().entries_appended,
            set.part(0).stats().entries_appended);
  // ((1e16 ⊕ 1) ⊕ -1e16): the left-fold both read paths define.
  ASSERT_TRUE(set.extract_element(0, 0).has_value());
  EXPECT_EQ(*collapsed.extract_element(0, 0), *set.extract_element(0, 0));
  EXPECT_TRUE(same_matrix(collapsed.to_matrix(), set.to_matrix()));
}

// ---------------------------------------------------------------------------
// Budget enforcement: materialize-and-release of a lagging reader.
// ---------------------------------------------------------------------------
TEST(MemoryGovernor, BudgetEvictsLaggingReaderExactly) {
  HHGBX_PROP_SEED(seed, kSeedEvict);
  std::mt19937_64 rng(seed);
  const Index dim = 1u << 13;
  HierMatrix<double> h(dim, dim, CutPolicy({64, 1024, 16384}));

  GovernorConfig cfg;
  cfg.budget_bytes = 0;  // any pinned byte is over budget
  MemoryGovernor<HierMatrix<double>> gov(h, cfg);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> evictions;
  gov.set_eviction_hook([&](std::uint64_t evicted, std::uint64_t current,
                            std::uint64_t pinned_before) {
    evictions.emplace_back(evicted, current);
    EXPECT_GT(pinned_before, 0u);
    // Hooks fire outside the registry lock: re-entering the governor
    // from a hook must not deadlock (regression guard).
    EXPECT_GE(gov.memory().snapshots, 1u);
  });

  MemoryGovernor<HierMatrix<double>>::handle_type held;
  gbx::Matrix<double> ref(1, 1);
  hier::SnapshotSet<double> old_image;
  for (int k = 0; k < 30; ++k) {
    auto b = proptest::random_batch<double>(rng, dim, 300);
    h.update(b);
    if (k == 6) {
      held = gov.freeze();
      ref = held.pin().to_matrix();  // the unevicted baseline
      old_image = held.pin();        // keeps the original blocks alive
    } else {
      gov.freeze();  // fresh handle, dropped immediately
    }
  }

  ASSERT_TRUE(held.valid());
  EXPECT_TRUE(held.evicted());
  EXPECT_FALSE(evictions.empty());
  EXPECT_EQ(evictions.front().first, held.epoch());

  // Pinned class back to zero: the only outstanding snapshot is compact.
  const auto mem = gov.memory();
  EXPECT_EQ(mem.pinned_bytes, 0u);
  EXPECT_GT(mem.private_bytes, 0u);
  EXPECT_EQ(mem.evicted_snapshots, 1u);
  const auto st = gov.stats();
  EXPECT_GE(st.evictions, 1u);
  EXPECT_GT(st.bytes_released, 0u);
  EXPECT_GT(st.peak_pinned_bytes, 0u);

  // Reads through the evicted handle are bit-identical to the baseline.
  EXPECT_TRUE(same_matrix(held.to_matrix(), ref));
  EXPECT_EQ(held.nvals(), ref.nvals());
  ref.for_each([&](Index i, Index j, double v) {
    auto got = held.extract_element(i, j);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  });

  // The superseded blocks really free: our pinned copy is now the sole
  // owner of the old level-0 block (slot dropped it, writer folded past).
  EXPECT_EQ(old_image.part(0).level(0).block_use_count(), 1);
}

// ---------------------------------------------------------------------------
// The sources under test, each with how to feed it: HierMatrix takes
// batches directly; the sharded source splits them by row over four
// instances read through an unstarted ParallelStream; StreamSource runs
// its lanes and is drained before each freeze, so every image is
// deterministic.
// ---------------------------------------------------------------------------
constexpr Index kSourceDim = 1u << 12;

struct HierSource {
  using Source = HierMatrix<double>;
  Source src{kSourceDim, kSourceDim, CutPolicy({64, 1024, 16384})};
  void ingest(const Tuples<double>& b) { src.update(b); }
  void settle() {}
};

struct ShardedSource {
  using Source = hier::ParallelStream<double>;
  hier::InstanceArray<double> parts{4, kSourceDim, kSourceDim,
                                    CutPolicy({64, 1024, 16384})};
  Source src{parts};
  void ingest(const Tuples<double>& b) { parts.update_rows(b); }
  void settle() {}
};

struct StreamSource {
  using Source = hier::ParallelStream<double>;
  hier::InstanceArray<double> array{2, kSourceDim, kSourceDim,
                                    CutPolicy({64, 1024, 16384})};
  Source src{array};
  StreamSource() { src.start(); }
  ~StreamSource() { (void)src.stop(); }
  void ingest(const Tuples<double>& b) { src.submit(b); }
  void settle() { src.drain(); }
};

template <class Fixture>
void churn(Fixture& f, std::mt19937_64& rng, int batches) {
  for (int k = 0; k < batches; ++k)
    f.ingest(proptest::random_batch<double>(rng, kSourceDim, 300));
  f.settle();
}

// ---------------------------------------------------------------------------
// The newest frozen image stays, however far the writer has moved on:
// its blocks are live by definition, and an explicit enforce() at
// budget 0 leaves it alone.
// ---------------------------------------------------------------------------
template <class Fixture>
void expect_newest_image_survives(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Fixture f;
  GovernorConfig cfg;
  cfg.budget_bytes = 0;
  MemoryGovernor<typename Fixture::Source> gov(f.src, cfg);
  churn(f, rng, 8);
  auto held = gov.freeze();
  churn(f, rng, 8);
  EXPECT_EQ(gov.enforce(), 0u);
  EXPECT_FALSE(held.evicted());
  EXPECT_EQ(gov.stats().evictions, 0u);
}

TEST(MemoryGovernor, NewestImageIsNeverEvicted) {
  HHGBX_PROP_SEED(seed, kSeedNewest);
  {
    SCOPED_TRACE("HierMatrix");
    expect_newest_image_survives<HierSource>(seed);
  }
  {
    SCOPED_TRACE("row-split parts");
    expect_newest_image_survives<ShardedSource>(seed);
  }
}

// ---------------------------------------------------------------------------
// One accounting property over every source: right after freeze() the
// held image is all live; once churn and a newer freeze supersede some
// of its blocks, live + pinned still add up to the image; and at budget
// 0 that newer freeze compacts it, so pinned returns to 0.
// ---------------------------------------------------------------------------
template <class Fixture>
class GovernorAccounting : public ::testing::Test {};
using AccountingSources =
    ::testing::Types<HierSource, ShardedSource, StreamSource>;
TYPED_TEST_SUITE(GovernorAccounting, AccountingSources);

TYPED_TEST(GovernorAccounting, LivePlusPinnedIsTheHeldImage) {
  HHGBX_PROP_SEED(seed, kSeedAccounting);
  for (const std::uint64_t budget :
       {GovernorConfig::kNever, std::uint64_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget);
    std::mt19937_64 rng(seed);
    TypeParam f;
    GovernorConfig cfg;
    cfg.budget_bytes = budget;
    MemoryGovernor<typename TypeParam::Source> gov(f.src, cfg);

    churn(f, rng, 8);
    auto held = gov.freeze();
    const std::uint64_t held_bytes = held.pin().memory_bytes();
    ASSERT_GT(held_bytes, 0u);
    auto mem = gov.memory();
    EXPECT_EQ(mem.pinned_bytes, 0u);
    EXPECT_EQ(mem.live_bytes, held_bytes);

    churn(f, rng, 24);
    gov.freeze();  // dropped at once: only its block identities stay
    mem = gov.memory();
    if (budget == GovernorConfig::kNever) {
      EXPECT_FALSE(held.evicted());
      EXPECT_GT(mem.pinned_bytes, 0u);
      EXPECT_EQ(mem.live_bytes + mem.pinned_bytes, held_bytes);
    } else {
      EXPECT_TRUE(held.evicted());
      EXPECT_EQ(gov.stats().evictions, 1u);
      EXPECT_GT(gov.stats().peak_pinned_bytes, 0u);
      EXPECT_EQ(mem.pinned_bytes, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Property: evict → re-query equals the dense-replay oracle (4 monoids,
// HierMatrix and row-split parts as sources). `feed` applies one batch.
// ---------------------------------------------------------------------------
template <class T, class M, class Source, class Feed>
void run_evict_requery_oracle(Source& src, Feed feed, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Index dim = src.nrows();

  GovernorConfig cfg;
  cfg.budget_bytes = 0;
  MemoryGovernor<Source> gov(src, cfg);

  struct Held {
    typename MemoryGovernor<Source>::handle_type handle;
    DenseRef<T, M> ref;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> marks;
  };
  auto marks_of = [](const auto& img) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> marks;
    for (std::size_t p = 0; p < img.size(); ++p)
      marks.emplace_back(img.part(p).epoch(),
                         img.part(p).stats().entries_appended);
    return marks;
  };
  DenseRef<T, M> ref;
  std::vector<Held> held;
  for (int step = 0; step < 40; ++step) {
    auto b = proptest::random_batch<T>(rng, dim, 120);
    feed(b);
    ref.apply(b);
    if (step % 5 == 2) {
      auto handle = gov.freeze();
      auto marks = marks_of(handle.pin());
      held.push_back({std::move(handle), ref, std::move(marks)});
    }
  }
  gov.enforce();

  EXPECT_GE(gov.stats().evictions, 1u);
  EXPECT_EQ(gov.memory().pinned_bytes, 0u);

  for (std::size_t k = 0; k < held.size(); ++k) {
    const auto& h = held[k];
    SCOPED_TRACE(::testing::Message()
                 << "held snapshot " << k << ", epoch " << h.handle.epoch()
                 << (h.handle.evicted() ? " (evicted)" : " (live)"));
    EXPECT_TRUE(h.ref.matches(h.handle.to_matrix()));
    EXPECT_EQ(h.handle.nvals(), h.ref.nvals());
    auto img = h.handle.pin();
    EXPECT_EQ(img.epoch(), h.handle.epoch());
    // Eviction keeps every part's epoch and entries, compacted or not.
    const auto marks = marks_of(img);
    ASSERT_EQ(marks.size(), h.marks.size());
    for (std::size_t p = 0; p < marks.size(); ++p) {
      EXPECT_EQ(marks[p].first, h.marks[p].first);
      EXPECT_EQ(marks[p].second, h.marks[p].second);
    }
  }
}

template <class T, class M>
void run_evict_requery_oracle_hier(std::uint64_t seed) {
  HierMatrix<T, M> h(1u << 11, 1u << 11, CutPolicy({32, 512, 4096}));
  run_evict_requery_oracle<T, M>(
      h, [&](const Tuples<T>& b) { h.update(b); }, seed);
}

template <class T, class M>
void run_evict_requery_oracle_sharded(std::uint64_t seed) {
  hier::InstanceArray<T, M> parts(4, 1u << 11, 1u << 11,
                                  CutPolicy({32, 512, 4096}));
  hier::ParallelStream<T, M> stream(parts);
  run_evict_requery_oracle<T, M>(
      stream, [&](const Tuples<T>& b) { parts.update_rows(b); }, seed);
}

TEST(MemoryGovernorProperty, EvictRequeryOracle_PlusDouble) {
  HHGBX_PROP_SEED(seed, kSeedOracle);
  run_evict_requery_oracle_hier<double, gbx::PlusMonoid<double>>(seed);
}
TEST(MemoryGovernorProperty, EvictRequeryOracle_PlusInt64) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x11);
  run_evict_requery_oracle_hier<std::int64_t, gbx::PlusMonoid<std::int64_t>>(
      seed);
}
TEST(MemoryGovernorProperty, EvictRequeryOracle_MinInt64) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x22);
  run_evict_requery_oracle_hier<std::int64_t, gbx::MinMonoid<std::int64_t>>(
      seed);
}
TEST(MemoryGovernorProperty, EvictRequeryOracle_MaxInt64) {
  HHGBX_PROP_SEED(seed, kSeedOracle ^ 0x33);
  run_evict_requery_oracle_hier<std::int64_t, gbx::MaxMonoid<std::int64_t>>(
      seed);
}
TEST(MemoryGovernorProperty, ShardedEvictRequeryOracle_PlusDouble) {
  HHGBX_PROP_SEED(seed, kSeedSharded);
  run_evict_requery_oracle_sharded<double, gbx::PlusMonoid<double>>(seed);
}
TEST(MemoryGovernorProperty, ShardedEvictRequeryOracle_PlusInt64) {
  HHGBX_PROP_SEED(seed, kSeedSharded ^ 0x11);
  run_evict_requery_oracle_sharded<std::int64_t,
                                   gbx::PlusMonoid<std::int64_t>>(seed);
}
TEST(MemoryGovernorProperty, ShardedEvictRequeryOracle_MinInt64) {
  HHGBX_PROP_SEED(seed, kSeedSharded ^ 0x22);
  run_evict_requery_oracle_sharded<std::int64_t,
                                   gbx::MinMonoid<std::int64_t>>(seed);
}
TEST(MemoryGovernorProperty, ShardedEvictRequeryOracle_MaxInt64) {
  HHGBX_PROP_SEED(seed, kSeedSharded ^ 0x33);
  run_evict_requery_oracle_sharded<std::int64_t,
                                   gbx::MaxMonoid<std::int64_t>>(seed);
}

// ---------------------------------------------------------------------------
// IncrementalEngine over a governed source.
// ---------------------------------------------------------------------------
TEST(MemoryGovernor, IncrementalEngineSurvivesEvictionOfItsPrevSnapshot) {
  HHGBX_PROP_SEED(seed, kSeedIncr);
  std::mt19937_64 rng(seed);
  const Index dim = 1u << 10;
  HierMatrix<double> h(dim, dim, CutPolicy({64, 1024}));

  GovernorConfig cfg;
  cfg.budget_bytes = 0;  // evict the engine's cached prev every round
  MemoryGovernor<HierMatrix<double>> gov(h, cfg);
  analytics::IncrementalEngine<MemoryGovernor<HierMatrix<double>>> eng(gov);

  bool saw_eviction_fallback = false;
  for (int round = 0; round < 6; ++round) {
    for (int b = 0; b < 3; ++b) h.update(proptest::random_batch<double>(rng, dim, 150));
    const auto& rep = eng.refresh();
    if (rep.prev_unavailable) {
      saw_eviction_fallback = true;
      EXPECT_TRUE(rep.full_recompute);
    }
    // Every pass — incremental or fallback — matches the from-scratch
    // truth at the same epoch exactly.
    auto truth = h.freeze().to_matrix();
    EXPECT_TRUE(same_matrix(eng.sum(), truth));
    EXPECT_EQ(eng.triangles(), algo::triangle_count(truth));
    auto full = analytics::summarize(truth);
    EXPECT_EQ(eng.summary().links, full.links);
    EXPECT_EQ(eng.summary().sources, full.sources);
    EXPECT_EQ(eng.summary().destinations, full.destinations);
    EXPECT_DOUBLE_EQ(eng.summary().max_link, full.max_link);
  }
  EXPECT_TRUE(saw_eviction_fallback);
  EXPECT_GE(eng.full_recomputes(), 2u);
}

TEST(MemoryGovernor, IncrementalEngineStaysIncrementalUnderGenerousBudget) {
  HHGBX_PROP_SEED(seed, kSeedIncr ^ 0x77);
  std::mt19937_64 rng(seed);
  const Index dim = 1u << 10;
  HierMatrix<double> h(dim, dim, CutPolicy({64, 1024}));

  MemoryGovernor<HierMatrix<double>> gov(h);  // default: unlimited budget
  analytics::IncrementalEngine<MemoryGovernor<HierMatrix<double>>> eng(gov);

  for (int round = 0; round < 5; ++round) {
    for (int b = 0; b < 2; ++b) h.update(proptest::random_batch<double>(rng, dim, 100));
    const auto& rep = eng.refresh();
    EXPECT_FALSE(rep.prev_unavailable);
    if (round > 0) {
      EXPECT_FALSE(rep.full_recompute);
      EXPECT_GT(rep.added + rep.changed, 0u);
    }
    auto truth = h.freeze().to_matrix();
    EXPECT_TRUE(same_matrix(eng.sum(), truth));
  }
  EXPECT_EQ(eng.full_recomputes(), 1u);  // only the first pass
  EXPECT_EQ(gov.stats().evictions, 0u);
}

}  // namespace
