// Concurrency coverage for the snapshot engine:
//
//   * Linearizability: a snapshot taken while ParallelStream workers are
//     actively inserting equals, per lane, the monoid-sum of EXACTLY the
//     first `part(p).epoch()` batches submitted to that lane — checked
//     entry-for-entry against dense reference prefix replays, and as the
//     acceptance-criterion Σ Ai scalar.
//   * Checkpoint-from-live-snapshot: a checkpoint written from a frozen
//     image while ingest continues restores to exactly that image.
//   * Readers racing pump(): a TSan-clean stress of concurrent
//     snapshot/reduce/summarize against live workers.
//   * MemoryGovernor: evictions racing re-queries stay exact, and the
//     governor's newest-epoch record never goes back under concurrent
//     freezes.
//
// All sizes are kept small: these tests run under TSan in CI (label
// `concurrency`), where every operation costs ~10x.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "analytics/analytics.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;
using hier::HierMatrix;
using hier::InstanceArray;
using hier::ParallelStream;
using proptest::DenseRef;

constexpr std::uint64_t kSeedLinear = 0xC0C0001;
constexpr std::uint64_t kSeedPump = 0xC0C0002;
constexpr std::uint64_t kSeedCkpt = 0xC0C0003;

/// Generator adapter replaying a pre-scripted batch sequence through the
/// member pump() interface (ignores the requested size; batch k of the
/// script IS set k of the run).
struct ScriptGen {
  const std::vector<Tuples<double>>* seq;
  std::size_t next = 0;
  void batch(std::size_t, Tuples<double>& out) { out.append((*seq)[next++]); }
};

/// Deterministic per-lane batch sequences plus, for every lane, the
/// dense reference replay after each prefix length (prefix_ref[p][k] =
/// replay of the first k batches of lane p).
struct LaneScript {
  std::vector<std::vector<Tuples<double>>> batches;       // [lane][batch]
  std::vector<std::vector<DenseRef<double>>> prefix_ref;  // [lane][0..n]
  std::vector<std::vector<double>> prefix_sum;            // Σ values per prefix

  LaneScript(std::uint64_t seed, std::size_t lanes, std::size_t per_lane,
             std::size_t batch_len, Index dim) {
    std::mt19937_64 rng(seed);
    batches.resize(lanes);
    prefix_ref.resize(lanes);
    prefix_sum.resize(lanes);
    for (std::size_t p = 0; p < lanes; ++p) {
      DenseRef<double> ref;
      prefix_ref[p].push_back(ref);  // empty prefix
      prefix_sum[p].push_back(0.0);
      for (std::size_t k = 0; k < per_lane; ++k) {
        auto b = proptest::random_batch<double>(rng, dim, batch_len);
        ref.apply(b);
        batches[p].push_back(std::move(b));
        prefix_ref[p].push_back(ref);
        prefix_sum[p].push_back(ref.reduce());
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Snapshot-under-ingest linearizability (explicit submit).
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, SnapshotUnderIngestIsPrefixExact) {
  HHGBX_PROP_SEED(seed, kSeedLinear);
  const std::size_t lanes = 3, per_lane = 40, batch_len = 200;
  const Index dim = 1u << 16;
  LaneScript script(seed, lanes, per_lane, batch_len, dim);

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({64, 1024}));
  ParallelStream<double> engine(array);
  engine.start();

  // One producer per lane feeding its scripted sequence in order.
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < lanes; ++p) {
    producers.emplace_back([&, p] {
      for (const auto& b : script.batches[p]) engine.submit(p, b);
    });
  }

  // Reader: snapshots while the producers are mid-flight.
  std::vector<hier::SnapshotSet<double>> snaps;
  for (int s = 0; s < 10; ++s) snaps.push_back(engine.freeze());

  for (auto& t : producers) t.join();
  engine.drain();
  snaps.push_back(engine.freeze());  // final: must contain everything
  auto report = engine.stop();
  ASSERT_EQ(report.entries, lanes * per_lane * batch_len);

  bool saw_partial = false;
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const auto& snap = snaps[s];
    SCOPED_TRACE(::testing::Message() << "snapshot " << s << ", epoch "
                                      << snap.epoch());
    ASSERT_EQ(snap.size(), lanes);
    double expected_total = 0;
    for (std::size_t p = 0; p < lanes; ++p) {
      const auto k = snap.part(p).epoch();
      ASSERT_LE(k, per_lane) << "epoch beyond submitted prefix";
      if (k < per_lane) saw_partial = true;
      EXPECT_EQ(snap.part(p).stats().entries_appended, k * batch_len);
      // Entry-for-entry: lane image == dense replay of its exact prefix.
      EXPECT_TRUE(script.prefix_ref[p][k].matches(snap, p));
      expected_total += script.prefix_sum[p][k];
    }
    // The acceptance criterion: Σ Ai of the snapshot equals the dense
    // reference sum of the per-lane submitted-batch prefixes.
    EXPECT_DOUBLE_EQ(snap.reduce(), expected_total);
    EXPECT_DOUBLE_EQ(
        gbx::reduce_scalar<gbx::PlusMonoid<double>>(snap.to_matrix()),
        expected_total);
  }
  // The last snapshot (after drain) contains every batch.
  const auto& final_snap = snaps.back();
  for (std::size_t p = 0; p < lanes; ++p)
    EXPECT_EQ(final_snap.part(p).epoch(), per_lane);
  // On any machine slow enough to matter, at least one mid-flight
  // snapshot catches a true partial prefix; do not assert it on fast
  // machines, but record it for the curious.
  if (!saw_partial)
    GTEST_LOG_(INFO) << "all snapshots saw completed lanes (fast machine)";
}

// ---------------------------------------------------------------------------
// Snapshot while pump() is actively inserting (the acceptance wording).
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, SnapshotDuringPumpIsPrefixExact) {
  HHGBX_PROP_SEED(seed, kSeedPump);
  const std::size_t lanes = 2, sets = 30, set_size = 400;
  const Index dim = 1u << 16;
  // The pump generators are deterministic in (seed, lane), so the same
  // script can be replayed afterwards to build the reference prefixes.
  LaneScript script(seed, lanes, sets, set_size, dim);

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({128, 2048}));
  ParallelStream<double> engine(array);

  std::vector<hier::SnapshotSet<double>> snaps;
  std::thread reader([&] {
    for (int s = 0; s < 8; ++s) snaps.push_back(engine.freeze());
  });

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    return ScriptGen{&script.batches[p]};
  });
  reader.join();
  ASSERT_EQ(report.entries, lanes * sets * set_size);

  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const auto& snap = snaps[s];
    SCOPED_TRACE(::testing::Message() << "snapshot " << s);
    double expected_total = 0;
    for (std::size_t p = 0; p < snap.size(); ++p) {
      const auto k = snap.part(p).epoch();
      ASSERT_LE(k, sets);
      EXPECT_TRUE(script.prefix_ref[p][k].matches(snap, p));
      expected_total += script.prefix_sum[p][k];
    }
    EXPECT_DOUBLE_EQ(snap.reduce(), expected_total);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint taken from a live snapshot restores identically.
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, CheckpointFromLiveSnapshotRestoresIdentically) {
  HHGBX_PROP_SEED(seed, kSeedCkpt);
  const std::size_t per_lane = 50, batch_len = 300;
  const Index dim = 1u << 16;
  LaneScript script(seed, 1, per_lane, batch_len, dim);

  InstanceArray<double> array(1, dim, dim, CutPolicy::geometric(3, 64, 8));
  ParallelStream<double> engine(array);
  engine.start();
  std::thread producer([&] {
    for (const auto& b : script.batches[0]) engine.submit(0, b);
  });

  // Freeze mid-ingest, checkpoint the frozen image on this (reader)
  // thread while the worker keeps inserting behind it.
  auto snap = engine.freeze();
  std::ostringstream os;
  hier::checkpoint(os, snap);

  producer.join();
  engine.drain();
  (void)engine.stop();

  std::istringstream is(os.str());
  auto restored = hier::restore<double>(is);
  const auto k = snap.part(0).epoch();
  // The restored matrix IS the frozen prefix: entry-for-entry against
  // the reference replay, and equal to the snapshot's own materialization.
  EXPECT_TRUE(script.prefix_ref[0][k].matches(restored.snapshot()));
  EXPECT_TRUE(gbx::equal(restored.snapshot(), snap.to_matrix()));
  // Cascade state survives too: resumed streaming behaves identically.
  EXPECT_EQ(restored.stats().updates, snap.part(0).stats().updates);
}

// ---------------------------------------------------------------------------
// Readers racing pump(): the TSan stress. No values checked beyond
// internal consistency — the point is that TSan sees no race between
// worker folds and reader traversals of frozen views.
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, ReadersRacingPumpTsanStress) {
  HHGBX_PROP_SEED(seed, kSeedPump);
  const std::size_t lanes = 2, sets = 25, set_size = 300;
  const Index dim = 1u << 14;
  LaneScript script(proptest::mix(seed), lanes, sets, set_size, dim);

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({32, 512}));
  ParallelStream<double> engine(array);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> reads{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = engine.freeze();
        // Epochs never go backwards for a single reader.
        EXPECT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        // Exercise every read path against the frozen views.
        (void)snap.reduce();
        for (std::size_t p = 0; p < snap.size(); ++p)
          for (std::size_t l = 0; l < snap.part(p).num_levels(); ++l)
            for (const auto& c : snap.part(p).level_slices(l).slices())
              (void)analytics::summarize(c.view);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    return ScriptGen{&script.batches[p]};
  });
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(report.entries, lanes * sets * set_size);
  EXPECT_GT(reads.load(), 0u);
  // Post-run: a quiescent snapshot equals the full dense replay.
  auto final_snap = engine.freeze();
  for (std::size_t p = 0; p < lanes; ++p)
    EXPECT_TRUE(script.prefix_ref[p][sets].matches(final_snap, p));
}

// ---------------------------------------------------------------------------
// Readers count live images while pump() runs: nvals() (the row-chunked
// count, in its own OpenMP team on each reader) must equal the
// materialized count of the same image. Batches are large enough that
// later images pass the serial cutoff, so the parallel count races the
// lane folds under TSan.
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, NvalsDuringPumpIsExact) {
  HHGBX_PROP_SEED(seed, kSeedPump ^ 0x4E5A);
  const std::size_t lanes = 2, sets = 40, set_size = 2000;
  const Index dim = 1u << 16;
  std::mt19937_64 rng(proptest::mix(seed));
  std::vector<std::vector<Tuples<double>>> batches(lanes);
  for (auto& lane : batches)
    for (std::size_t s = 0; s < sets; ++s)
      lane.push_back(proptest::random_batch<double>(rng, dim, set_size));

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({256, 4096}));
  ParallelStream<double> engine(array);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0}, above_cutoff{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = engine.freeze();
        EXPECT_EQ(snap.nvals(), snap.to_matrix().nvals())
            << "epoch " << snap.epoch();
        std::size_t bound = 0;
        for (std::size_t p = 0; p < snap.size(); ++p)
          bound += snap.part(p).nvals_bound();
        if (bound >= hier::detail::kParallelCountCutoff)
          above_cutoff.fetch_add(1, std::memory_order_relaxed);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    return ScriptGen{&batches[p]};
  });
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_EQ(report.entries, lanes * sets * set_size);
  EXPECT_GT(checked.load(), 0u);
  if (above_cutoff.load() == 0)
    GTEST_LOG_(INFO) << "no live image passed the serial cutoff (fast machine)";

  const auto final_snap = engine.freeze();
  EXPECT_EQ(final_snap.nvals(), final_snap.to_matrix().nvals());
}

// ---------------------------------------------------------------------------
// Snapshot deltas under live ingest: pairs of snapshots taken while
// pump() runs are diffed on the reader thread. Epoch-ordered pairs from
// one source must never report removals, and patching the older image
// with the delta must reproduce the newer one bit-for-bit — the
// incremental-analytics invariant, verified mid-stream.
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, DiffDuringPumpPatchesExactly) {
  HHGBX_PROP_SEED(seed, kSeedPump ^ 0xD1FF);
  const std::size_t lanes = 2, sets = 30, set_size = 300;
  const Index dim = 1u << 14;
  LaneScript script(proptest::mix(seed ^ 1), lanes, sets, set_size, dim);

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({64, 1024}));
  ParallelStream<double> engine(array);

  std::thread analyst([&] {
    auto prev = engine.freeze();
    for (int s = 0; s < 6; ++s) {
      auto cur = engine.freeze();
      EXPECT_GE(cur.epoch(), prev.epoch());
      auto d = hier::snapshot_diff(prev, cur);
      EXPECT_TRUE(d.removed.empty())
          << "streaming source lost entries between epochs " << d.epoch_from
          << " and " << d.epoch_to;
      EXPECT_LE(d.stats.levels_reused, d.stats.levels_total);
      // Patch the old Σ Ai with the delta's new values (right-biased
      // union merge): must equal the new Σ Ai exactly.
      gbx::Tuples<double> patch;
      patch.append(d.added);
      for (const auto& c : d.changed) patch.push_back(c.row, c.col, c.new_val);
      auto patched = prev.to_matrix();
      if (!patch.empty()) {
        patch.sort_dedup<gbx::PlusMonoid<double>>();
        patched = gbx::Matrix<double>::adopt(
            patched.nrows(), patched.ncols(),
            gbx::ewise_add<gbx::Second<double>>(
                patched.storage(),
                gbx::Dcsr<double>::from_sorted_unique(patch.entries())));
      }
      EXPECT_TRUE(gbx::equal(patched, cur.to_matrix()));
      prev = std::move(cur);
    }
  });

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    return ScriptGen{&script.batches[p]};
  });
  analyst.join();
  ASSERT_EQ(report.entries, lanes * sets * set_size);

  // Post-run sanity: final quiescent image equals the dense replay.
  auto final_snap = engine.freeze();
  for (std::size_t p = 0; p < lanes; ++p)
    EXPECT_TRUE(script.prefix_ref[p][sets].matches(final_snap, p));
}

// ---------------------------------------------------------------------------
// Memory-governed readers evicted mid-query under a live pump(). Each
// reader materializes an unevicted baseline the moment it freezes a
// handle, keeps re-querying that handle while a zero-budget governor
// compacts/evicts it from other threads, and checks every re-query
// bit-identical to the baseline. TSan coverage of the slot handshake:
// reader pins race governor evictions race further freezes, all while
// the lanes keep folding.
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, EvictionDuringPumpKeepsReadsExact) {
  HHGBX_PROP_SEED(seed, kSeedPump ^ 0xE71C);
  const std::size_t lanes = 2, sets = 25, set_size = 300;
  const Index dim = 1u << 14;
  LaneScript script(proptest::mix(seed ^ 3), lanes, sets, set_size, dim);

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({64, 1024}));
  ParallelStream<double> engine(array);
  hier::GovernorConfig cfg;
  cfg.budget_bytes = 0;  // evict every lagging image as soon as possible
  hier::MemoryGovernor<ParallelStream<double>> gov(engine, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> exact_requeries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      using Handle =
          hier::MemoryGovernor<ParallelStream<double>>::handle_type;
      Handle held;
      gbx::Matrix<double> ref(1, 1);
      while (!stop.load(std::memory_order_relaxed)) {
        if (!held.valid()) {
          held = gov.freeze();
          ref = held.pin().to_matrix();  // unevicted baseline of the image
          continue;
        }
        // Re-query the (possibly just evicted) handle: every
        // read path must still produce the frozen image bit-for-bit.
        EXPECT_TRUE(gbx::equal(held.to_matrix(), ref));
        EXPECT_EQ(held.epoch(), held.pin().epoch());
        exact_requeries.fetch_add(1, std::memory_order_relaxed);
        // Rotate so later epochs get held (and evicted) too.
        held = gov.freeze();
        ref = held.pin().to_matrix();
      }
    });
  }

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    return ScriptGen{&script.batches[p]};
  });
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_EQ(report.entries, lanes * sets * set_size);
  EXPECT_GT(exact_requeries.load(), 0u);

  // Post-run: quiescent truth still matches the dense replay, and a
  // final governed read of a fresh handle matches it too.
  auto final_handle = gov.freeze();
  auto final_image = final_handle.pin();
  for (std::size_t p = 0; p < lanes; ++p)
    EXPECT_TRUE(script.prefix_ref[p][sets].matches(final_image, p));
}

// ---------------------------------------------------------------------------
// The governor's newest-epoch record only moves forward: four readers
// freeze through one governor while pump() runs, and after each freeze
// newest_epoch() covers both the handle just taken and everything that
// reader saw before. Once the pump is over, a final freeze is the
// newest epoch.
// ---------------------------------------------------------------------------
TEST(SnapshotConcurrency, GovernorNewestEpochIsMonotone) {
  HHGBX_PROP_SEED(seed, kSeedPump ^ 0xE90C);
  const std::size_t lanes = 2, sets = 25, set_size = 300;
  const Index dim = 1u << 14;
  LaneScript script(proptest::mix(seed), lanes, sets, set_size, dim);

  InstanceArray<double> array(lanes, dim, dim, CutPolicy({64, 1024}));
  ParallelStream<double> engine(array);
  hier::MemoryGovernor<ParallelStream<double>> gov(engine);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> freezes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto handle = gov.freeze();
        const std::uint64_t newest = gov.newest_epoch();
        EXPECT_GE(newest, handle.epoch());
        EXPECT_GE(newest, seen);
        seen = newest;
        freezes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    return ScriptGen{&script.batches[p]};
  });
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_EQ(report.entries, lanes * sets * set_size);
  EXPECT_GT(freezes.load(), 0u);

  const auto final_handle = gov.freeze();
  EXPECT_EQ(final_handle.epoch(), gov.newest_epoch());
  EXPECT_EQ(final_handle.epoch(), lanes * sets);
}

}  // namespace
