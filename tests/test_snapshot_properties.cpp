// Property-based differential tests for the snapshot engine: randomized
// interleavings of update / flush / collapse / freeze across monoids and
// cut policies, with every frozen snapshot checked entry-for-entry
// against a dense reference replay of the exact operation prefix it
// claims to represent — including AFTER the source matrix has moved on
// (immutability is the property that makes query-while-ingest sound).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "analytics/analytics.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using hier::CutPolicy;
using hier::HierMatrix;
using hier::SnapshotSet;
using proptest::DenseRef;

// Pinned base seeds (perturbed by HHGBX_SEED, see prop_util.hpp).
constexpr std::uint64_t kSeedInterleave = 0xA11CE001;
constexpr std::uint64_t kSeedMonoid = 0xA11CE002;
constexpr std::uint64_t kSeedEngine = 0xA11CE003;
constexpr std::uint64_t kSeedSharded = 0xA11CE004;

std::vector<CutPolicy> cut_policies() {
  return {
      CutPolicy({1, 2, 4}),                  // pathological: fold on ~every op
      CutPolicy({7, 31}),                    // small primes, frequent folds
      CutPolicy::geometric(4, 64, 8),        // typical
      CutPolicy({1000000}),                  // cuts never hit (no folds)
  };
}

/// One randomized episode: a stream of random single/batched updates
/// with flushes and destructive collapses mixed in; freezes taken at
/// random points, each paired with a copy of the reference at that
/// prefix. All snapshots are verified at the END of the episode, after
/// the matrix has kept mutating — so a snapshot that is disturbed by
/// later folds fails loudly.
template <class M>
void random_interleaving_episode(std::uint64_t seed, const CutPolicy& cuts,
                                 int ops) {
  using T = typename M::value_type;
  constexpr Index dim = 128;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> op_pick(0, 99);

  HierMatrix<T, M> h(dim, dim, cuts);
  DenseRef<T, M> ref;
  std::vector<SnapshotSet<T, M>> snaps;
  std::vector<DenseRef<T, M>> prefixes;
  std::vector<std::uint64_t> epochs;

  for (int k = 0; k < ops; ++k) {
    const int op = op_pick(rng);
    if (op < 55) {  // single-entry update
      auto b = proptest::random_batch<T>(rng, dim, 1);
      h.update(b[0].row, b[0].col, b[0].val);
      ref.apply(b[0].row, b[0].col, b[0].val);
    } else if (op < 80) {  // batched update
      std::uniform_int_distribution<std::size_t> len(1, 64);
      auto b = proptest::random_batch<T>(rng, dim, len(rng));
      h.update(b);
      ref.apply(b);
    } else if (op < 88) {  // force the full cascade
      h.flush();
    } else if (op < 92) {  // destructive (but value-preserving) fold-to-top
      (void)h.collapse();
    } else {  // freeze: record the snapshot and the prefix it represents
      snaps.push_back(h.freeze());
      prefixes.push_back(ref);
      epochs.push_back(h.epoch());
    }
  }
  snaps.push_back(h.freeze());
  prefixes.push_back(ref);
  epochs.push_back(h.epoch());

  for (std::size_t s = 0; s < snaps.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "snapshot " << s << " of "
                                      << snaps.size() << ", epoch "
                                      << snaps[s].epoch());
    EXPECT_EQ(snaps[s].epoch(), epochs[s]);
    EXPECT_TRUE(prefixes[s].matches(snaps[s]));
    // The no-materialization scalar reduce agrees with the dense replay.
    EXPECT_EQ(snaps[s].reduce(), prefixes[s].reduce());
    for (std::size_t l = 0; l < snaps[s].part(0).num_levels(); ++l)
      for (const auto& c : snaps[s].part(0).level_slices(l).slices())
        EXPECT_TRUE(c.block().validate());
  }
}

TEST(SnapshotProperties, RandomInterleavingsPlusDouble) {
  HHGBX_PROP_SEED(seed, kSeedInterleave);
  int which = 0;
  for (const auto& cuts : cut_policies()) {
    SCOPED_TRACE(::testing::Message() << "cut policy #" << which++);
    random_interleaving_episode<gbx::PlusMonoid<double>>(
        proptest::mix(seed + static_cast<std::uint64_t>(which)), cuts, 400);
  }
}

TEST(SnapshotProperties, RandomInterleavingsPlusInt64) {
  HHGBX_PROP_SEED(seed, kSeedMonoid);
  for (const auto& cuts : cut_policies())
    random_interleaving_episode<gbx::PlusMonoid<std::int64_t>>(
        proptest::mix(seed ^ 0x1), cuts, 300);
}

TEST(SnapshotProperties, RandomInterleavingsMinInt64) {
  HHGBX_PROP_SEED(seed, kSeedMonoid);
  for (const auto& cuts : cut_policies())
    random_interleaving_episode<gbx::MinMonoid<std::int64_t>>(
        proptest::mix(seed ^ 0x2), cuts, 300);
}

TEST(SnapshotProperties, RandomInterleavingsMaxInt64) {
  HHGBX_PROP_SEED(seed, kSeedMonoid);
  for (const auto& cuts : cut_policies())
    random_interleaving_episode<gbx::MaxMonoid<std::int64_t>>(
        proptest::mix(seed ^ 0x3), cuts, 300);
}

// freeze() and the legacy materializing snapshot() must agree at every
// point of a random stream (they are two readings of the same value).
TEST(SnapshotProperties, FreezeMatchesLegacySnapshot) {
  HHGBX_PROP_SEED(seed, kSeedInterleave);
  std::mt19937_64 rng(seed);
  HierMatrix<double> h(256, 256, CutPolicy({5, 50}));
  for (int k = 0; k < 40; ++k) {
    h.update(proptest::random_batch<double>(rng, 256, 32));
    auto frozen = h.freeze().to_matrix();
    auto legacy = h.snapshot();
    EXPECT_TRUE(gbx::equal(frozen, legacy)) << "diverged at step " << k;
  }
}

// A snapshot pinned before heavy churn (updates, flushes, collapse) must
// be bit-stable: the COW discipline forbids any disturbance.
TEST(SnapshotProperties, SnapshotImmutableUnderLaterChurn) {
  HHGBX_PROP_SEED(seed, kSeedInterleave);
  std::mt19937_64 rng(proptest::mix(seed));
  HierMatrix<double> h(128, 128, CutPolicy({3, 9, 27}));
  DenseRef<double> ref;
  for (int k = 0; k < 100; ++k) {
    auto b = proptest::random_batch<double>(rng, 128, 16);
    h.update(b);
    ref.apply(b);
  }
  auto snap = h.freeze();
  const DenseRef<double> pinned = ref;

  for (int k = 0; k < 100; ++k) h.update(proptest::random_batch<double>(rng, 128, 64));
  h.flush();
  (void)h.collapse();
  h.update(proptest::random_batch<double>(rng, 128, 64));

  EXPECT_TRUE(pinned.matches(snap));
  EXPECT_EQ(snap.reduce(), pinned.reduce());
}

// Checkpointing a snapshot and checkpointing the (quiesced) matrix at
// the same epoch produce byte-identical files, and restore() accepts
// the snapshot-sourced container.
TEST(SnapshotProperties, SnapshotCheckpointMatchesMatrixCheckpoint) {
  HHGBX_PROP_SEED(seed, kSeedEngine);
  std::mt19937_64 rng(seed);
  HierMatrix<double> h(512, 512, CutPolicy::geometric(3, 32, 8));
  for (int k = 0; k < 50; ++k) h.update(proptest::random_batch<double>(rng, 512, 40));

  auto snap = h.freeze();
  std::ostringstream from_snap, from_matrix;
  hier::checkpoint(from_snap, snap);
  hier::checkpoint(from_matrix, h);
  EXPECT_EQ(from_snap.str(), from_matrix.str());

  std::istringstream is(from_snap.str());
  auto restored = hier::restore<double>(is);
  EXPECT_TRUE(gbx::equal(restored.snapshot(), snap.to_matrix()));
}

// Epochs of successive freezes are exactly the matrix's update counter
// at each freeze.
TEST(SnapshotProperties, EngineTracksEpochs) {
  HHGBX_PROP_SEED(seed, kSeedEngine);
  std::mt19937_64 rng(proptest::mix(seed));
  HierMatrix<double> h(64, 64, CutPolicy({4}));

  std::uint64_t expected_updates = 0;
  for (int k = 0; k < 25; ++k) {
    const int n = 1 + static_cast<int>(rng() % 5);
    for (int u = 0; u < n; ++u) h.update(proptest::random_batch<double>(rng, 64, 8));
    expected_updates += static_cast<std::uint64_t>(n);
    auto snap = h.freeze();
    EXPECT_EQ(snap.epoch(), expected_updates);
  }
}

// Row-split parts frozen through an unstarted ParallelStream: with no
// concurrency, every freeze must contain exactly the submitted batches
// (the prefix is "all of them"), and the stitched epoch counts one
// update per part each batch touched.
TEST(SnapshotProperties, ShardedFreezeIsExactWhenQuiesced) {
  HHGBX_PROP_SEED(seed, kSeedSharded);
  std::mt19937_64 rng(seed);
  constexpr std::size_t kParts = 4;
  hier::InstanceArray<double> parts(kParts, 1u << 20, 1u << 20,
                                    CutPolicy({16, 256}));
  hier::ParallelStream<double> stream(parts);
  DenseRef<double> ref;
  std::uint64_t part_updates = 0;
  for (int k = 0; k < 30; ++k) {
    auto b = proptest::random_batch<double>(rng, 1u << 20, 25);
    parts.update_rows(b);
    ref.apply(b);
    std::vector<bool> touched(kParts, false);
    for (const auto& e : b) touched[hier::row_partition(e.row, kParts)] = true;
    part_updates += static_cast<std::uint64_t>(
        std::count(touched.begin(), touched.end(), true));
    auto snap = stream.freeze();
    EXPECT_EQ(snap.epoch(), part_updates);
    EXPECT_EQ(snap.total_entries(), static_cast<std::uint64_t>(k + 1) * 25);
    EXPECT_TRUE(ref.matches(snap.to_matrix()));
    EXPECT_EQ(snap.reduce(), ref.reduce());
  }
}

// View-accepting kernels agree with their Matrix counterparts on the
// frozen levels (the "analytics accept views" contract).
TEST(SnapshotProperties, ViewKernelsMatchMatrixKernels) {
  HHGBX_PROP_SEED(seed, kSeedEngine);
  std::mt19937_64 rng(seed ^ 0xBEEF);
  HierMatrix<double> h(512, 512, CutPolicy({8, 64}));
  for (int k = 0; k < 40; ++k) h.update(proptest::random_batch<double>(rng, 512, 30));

  auto snap = h.freeze();
  auto materialized = snap.to_matrix();
  // Whole-snapshot reduce vs materialized reduce.
  EXPECT_DOUBLE_EQ(snap.reduce(),
                   gbx::reduce_scalar<gbx::PlusMonoid<double>>(materialized));
  // Per-level view kernels vs a per-level materialized copy.
  // The bottom is read chunk by chunk.
  for (std::size_t l = 0; l < snap.part(0).num_levels(); ++l) {
    for (const auto& c : snap.part(0).level_slices(l).slices()) {
      const auto& v = c.view;
      gbx::Matrix<double> copy(v.nrows(), v.ncols());
      copy.plus_assign(v);
      EXPECT_DOUBLE_EQ(gbx::reduce_scalar<gbx::PlusMonoid<double>>(v),
                       gbx::reduce_scalar<gbx::PlusMonoid<double>>(copy));
      EXPECT_EQ(gbx::reduce_rows<gbx::PlusMonoid<double>>(v).nvals(),
                gbx::reduce_rows<gbx::PlusMonoid<double>>(copy).nvals());
      EXPECT_EQ(gbx::reduce_cols<gbx::PlusMonoid<double>>(v).nvals(),
                gbx::reduce_cols<gbx::PlusMonoid<double>>(copy).nvals());
      auto vs = analytics::summarize(v);
      auto ms = analytics::summarize(copy);
      EXPECT_EQ(vs.links, ms.links);
      EXPECT_DOUBLE_EQ(vs.packets, ms.packets);
      EXPECT_EQ(vs.sources, ms.sources);
      EXPECT_EQ(vs.destinations, ms.destinations);
    }
  }
}

}  // namespace
