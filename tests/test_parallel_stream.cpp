// Tests for hier::ParallelStream, the parallel multi-instance
// streaming-insert engine. The central invariant is the same as for a
// single HierMatrix — cascade equals direct accumulation — extended to
// concurrent batched inserts: every instance's snapshot must equal the
// direct sum of exactly the batches routed to it, no matter how the lane
// queues and worker threads interleave. A single-lane engine must also be
// bit-for-bit deterministic, including cascade statistics, because one
// lane applies batches in submission order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "gbx/failpoint.hpp"
#include "gbx/matrix_ops.hpp"
#include "gen/kronecker.hpp"
#include "gen/power_law.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;
using gbx::Tuples;
using hier::CutPolicy;
using hier::InstanceArray;
using hier::ParallelStream;

constexpr Index kDim = Index{1} << 17;

gen::KroneckerGenerator kron(std::uint64_t seed, int scale = 17) {
  gen::KroneckerParams kp;
  kp.scale = scale;
  kp.seed = seed;
  return gen::KroneckerGenerator(kp);
}

/// Hold the next batch's cascade on any lane for `ms` (test failpoint).
void stall_next_cascade(int ms) {
  gbx::FailpointSpec stall;
  stall.action = gbx::FailAction::kDelay;
  stall.at_op = 1;
  stall.delay_ms = ms;
  gbx::failpoints().arm("hier.stream.cascade", stall);
}

/// Wait (up to 30 s) until the armed failpoint has fired: it disarms
/// itself on its one fire, and it is the only one armed.
bool wait_for_fire() {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (gbx::failpoints().armed() && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return !gbx::failpoints().armed();
}

double total_sum(const Matrix<double>& m) {
  double s = 0;
  for (const auto& e : m.extract_tuples()) s += e.val;
  return s;
}

TEST(ParallelStream, ExplicitLaneRoutingMatchesDirectAccumulation) {
  const std::size_t instances = 4, batches = 24, batch_size = 5000;
  const auto cuts = CutPolicy::geometric(3, 512, 8);

  InstanceArray<double> array(instances, kDim, kDim, cuts);
  std::vector<Matrix<double>> direct;
  for (std::size_t p = 0; p < instances; ++p) direct.emplace_back(kDim, kDim);

  ParallelStream<double> engine(array);
  engine.start();
  auto g = kron(7);
  for (std::size_t s = 0; s < batches; ++s) {
    const std::size_t lane = s % instances;
    auto batch = g.batch<double>(batch_size);
    direct[lane].append(batch);
    engine.submit(lane, std::move(batch));
  }
  auto report = engine.stop();

  EXPECT_EQ(report.instances, instances);
  EXPECT_EQ(report.batches, batches);
  EXPECT_EQ(report.entries, batches * batch_size);
  for (std::size_t p = 0; p < instances; ++p) {
    direct[p].materialize();
    auto snap = array.instance(p).snapshot();
    EXPECT_TRUE(gbx::equal(snap, direct[p]))
        << "instance " << p << " diverged from direct accumulation";
    EXPECT_TRUE(snap.validate());
  }
}

TEST(ParallelStream, RoundRobinConservesEveryEntry) {
  const std::size_t instances = 3, batches = 30, batch_size = 4000;
  const auto cuts = CutPolicy::geometric(4, 256, 4);

  InstanceArray<double> array(instances, kDim, kDim, cuts);
  Matrix<double> all(kDim, kDim);

  ParallelStream<double> engine(array);
  engine.start();
  auto g = kron(11);
  for (std::size_t s = 0; s < batches; ++s) {
    auto batch = g.batch<double>(batch_size);
    all.append(batch);
    engine.submit(std::move(batch));
  }
  engine.drain();  // all queues applied before we look
  auto report = engine.stop();
  all.materialize();

  // The union of instance snapshots is the direct accumulation of the
  // whole stream (instances partition the batches).
  Matrix<double> merged(kDim, kDim);
  for (std::size_t p = 0; p < instances; ++p)
    merged.plus_assign(array.instance(p).snapshot());
  EXPECT_TRUE(gbx::equal(merged, all));
  EXPECT_EQ(report.entries, batches * batch_size);
  EXPECT_EQ(array.total_entries_appended(), batches * batch_size);
}

TEST(ParallelStream, SingleLaneIsDeterministic) {
  const std::size_t batches = 16, batch_size = 3000;
  const auto cuts = CutPolicy::geometric(3, 1024, 8);

  // Reference: plain serial HierMatrix fed the same batches in order.
  hier::HierMatrix<double> serial(kDim, kDim, cuts);
  {
    auto g = kron(23);
    for (std::size_t s = 0; s < batches; ++s) serial.update(g.batch<double>(batch_size));
  }

  InstanceArray<double> array(1, kDim, kDim, cuts);
  ParallelStream<double> engine(array);
  engine.start();
  auto g = kron(23);
  for (std::size_t s = 0; s < batches; ++s)
    engine.submit(0, g.batch<double>(batch_size));
  auto report = engine.stop();

  auto& streamed = array.instance(0);
  EXPECT_TRUE(gbx::equal(streamed.snapshot(), serial.snapshot()));
  // One lane applies batches in submission order, so the cascade takes
  // the exact same fold decisions: statistics must match, not just sums.
  ASSERT_EQ(streamed.stats().level.size(), serial.stats().level.size());
  for (std::size_t i = 0; i < serial.stats().level.size(); ++i) {
    EXPECT_EQ(streamed.stats().level[i].folds, serial.stats().level[i].folds);
    EXPECT_EQ(streamed.stats().level[i].entries_folded,
              serial.stats().level[i].entries_folded);
  }
  EXPECT_EQ(streamed.stats().entries_appended, serial.stats().entries_appended);
  EXPECT_EQ(report.batches, batches);
}

TEST(ParallelStream, PumpMatchesDirectAccumulationPerInstance) {
  const std::size_t instances = 3, sets = 10, set_size = 2000;
  const auto cuts = CutPolicy::geometric(4, 512, 8);

  InstanceArray<double> array(instances, kDim, kDim, cuts);
  auto report = hier::pump<double>(array, sets, set_size, [](std::size_t p) {
    return kron(100 + p);
  });

  EXPECT_EQ(report.instances, instances);
  EXPECT_EQ(report.entries, instances * sets * set_size);
  for (std::size_t p = 0; p < instances; ++p) {
    // Replay instance p's private stream directly.
    Matrix<double> direct(kDim, kDim);
    auto g = kron(100 + p);
    for (std::size_t s = 0; s < sets; ++s) direct.append(g.batch<double>(set_size));
    direct.materialize();
    EXPECT_TRUE(gbx::equal(array.instance(p).snapshot(), direct));
  }
  EXPECT_GT(report.aggregate_rate, 0.0);
}

TEST(ParallelStream, RestartAndValueConservation) {
  const auto cuts = CutPolicy::geometric(3, 128, 4);
  InstanceArray<double> array(2, kDim, kDim, cuts);
  ParallelStream<double> engine(array);

  double expected = 0;
  for (int round = 0; round < 2; ++round) {
    engine.start();
    auto g = kron(31 + round);
    for (std::size_t s = 0; s < 6; ++s) {
      auto batch = g.batch<double>(1000);
      for (const auto& e : batch) expected += e.val;
      engine.submit(std::move(batch));
    }
    auto report = engine.stop();
    EXPECT_EQ(report.batches, 6u);
    EXPECT_FALSE(engine.running());
  }

  double got = 0;
  for (std::size_t p = 0; p < array.size(); ++p)
    got += total_sum(array.instance(p).snapshot());
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST(ParallelStream, StopRacingBlockedSubmitLosesNoEntries) {
  // A producer thread hammers one lane while the controller stops the
  // engine. A submit caught mid-wait by stop() must throw rather than
  // enqueue a batch no worker will apply; everything submitted before
  // that must land in the matrix. (Regression test for a drop window
  // between worker exit and a blocked producer waking.)
  const std::size_t batch_size = 2000;
  InstanceArray<double> array(1, kDim, kDim, CutPolicy::geometric(3, 256, 4));
  typename ParallelStream<double>::Options opt;
  opt.queue_capacity = 1;  // maximize time spent blocked in submit()
  ParallelStream<double> engine(array, opt);
  engine.start();

  std::atomic<std::uint64_t> submitted{0};
  std::thread producer([&] {
    auto g = kron(97);
    try {
      for (int s = 0; s < 200; ++s) {
        engine.submit(0, g.batch<double>(batch_size));
        ++submitted;
      }
    } catch (const gbx::Error&) {
      // expected when stop() wins the race
    }
  });
  while (submitted < 5) std::this_thread::yield();
  auto report = engine.stop();
  producer.join();

  EXPECT_EQ(report.entries, submitted * batch_size);
  EXPECT_EQ(array.total_entries_appended(), submitted * batch_size);
}

TEST(ParallelStream, MisuseThrows) {
  InstanceArray<double> array(2, kDim, kDim, CutPolicy::geometric(2, 64, 2));
  ParallelStream<double> engine(array);
  EXPECT_THROW(engine.submit(0, Tuples<double>{}), gbx::Error);
  EXPECT_THROW(engine.drain(), gbx::Error);
  engine.start();
  EXPECT_THROW(engine.start(), gbx::Error);
  EXPECT_THROW(engine.submit(5, Tuples<double>{}), gbx::Error);
  engine.stop();
}

// try_submit must never block and must leave a refused batch untouched:
// kStopped before start and after stop, kLaneFull while the lane queue
// is at capacity, kAccepted otherwise — with every accepted batch
// applied exactly once.
TEST(ParallelStream, TrySubmitRefusalLeavesBatchUntouched) {
  InstanceArray<double> array(1, kDim, kDim, CutPolicy::geometric(3, 512, 8));
  ParallelStream<double>::Options opt;
  opt.queue_capacity = 1;
  ParallelStream<double> engine(array, opt);

  auto g = kron(41);
  auto batch = g.batch<double>(1000);
  const auto copy = batch.entries();

  // Not started: defined refusal, not a throw, not a hang.
  EXPECT_EQ(engine.try_submit(0, batch), hier::SubmitResult::kStopped);
  EXPECT_EQ(batch.entries(), copy) << "refused batch was modified";

  engine.start();
  // A huge batch keeps the worker busy applying while we fill the
  // 1-deep queue behind it; the next try_submit must bounce.
  engine.submit(0, g.batch<double>(1u << 21));
  std::size_t accepted = 1;
  hier::SubmitResult r;
  std::size_t filled = 0;
  do {
    auto b = g.batch<double>(1000);
    r = engine.try_submit(0, b);
    if (r == hier::SubmitResult::kAccepted)
      ++accepted;
    else
      EXPECT_EQ(b.size(), 1000u) << "kLaneFull consumed the batch";
    ++filled;
  } while (r == hier::SubmitResult::kAccepted && filled < 1000);
  EXPECT_EQ(r, hier::SubmitResult::kLaneFull)
      << "queue never filled; worker outran a 2M-entry apply";

  // The refused batch submits fine once space opens (blocking submit).
  EXPECT_EQ(engine.try_submit(0, batch), hier::SubmitResult::kLaneFull);
  engine.submit(0, std::move(batch));
  ++accepted;
  auto report = engine.stop();
  EXPECT_EQ(report.entries, (accepted - 1) * 1000 + (1u << 21));

  EXPECT_EQ(engine.try_submit(0, batch), hier::SubmitResult::kStopped);
}

// A batch whose update() throws is dropped but still done: drain()
// returns, failed_batches counts it, and the lane goes on to apply the
// next batch.
TEST(ParallelStream, ThrowingBatchCountsAsDone) {
  InstanceArray<double> array(1, kDim, kDim, CutPolicy::geometric(3, 512, 8));
  ParallelStream<double> engine(array);
  engine.start();

  Tuples<double> bad;
  bad.push_back(kDim, 0, 1.0);  // row out of range: update() throws
  std::uint64_t ticket = 0;
  ASSERT_EQ(engine.try_submit(0, bad, &ticket), hier::SubmitResult::kAccepted);
  EXPECT_EQ(ticket, 1u);
  engine.drain();
  EXPECT_EQ(engine.lane_done(0), 1u);

  Tuples<double> good;
  good.push_back(3, 4, 2.0);
  ASSERT_EQ(engine.try_submit(0, good, &ticket), hier::SubmitResult::kAccepted);
  EXPECT_EQ(ticket, 2u);
  engine.drain();
  EXPECT_EQ(engine.lane_done(0), 2u);

  const auto report = engine.stop();
  EXPECT_EQ(report.lane[0].failed_batches, 1u);
  EXPECT_EQ(report.lane[0].batches, 1u);
  EXPECT_EQ(array.instance(0).snapshot().extract_element(3, 4), 2.0);
}

// A freeze asked for while a lane cascades is served once the next
// queued batch is staged, so a batch that queued behind a slow cascade
// is in the image.
TEST(ParallelStream, FreezeIncludesABatchQueuedBehindASlowCascade) {
  InstanceArray<double> array(1, kDim, kDim, CutPolicy::geometric(3, 512, 8));
  ParallelStream<double> engine(array);
  auto g = kron(41);
  const auto b1 = g.batch<double>(2000);
  const auto b2 = g.batch<double>(2000);
  proptest::DenseRef<double> ref;
  ref.apply(b1);
  ref.apply(b2);

  stall_next_cascade(500);
  engine.start();
  engine.submit(0, b1);
  ASSERT_TRUE(wait_for_fire()) << "batch 1's cascade never stalled";
  engine.submit(0, b2);  // queued behind the stalled cascade
  const auto snap = engine.freeze();
  EXPECT_EQ(snap.part(0).epoch(), 2u);
  EXPECT_EQ(snap.part(0).stats().entries_appended, 4000u);
  EXPECT_TRUE(ref.matches(snap, 0));

  const auto report = engine.stop();
  EXPECT_EQ(report.lane[0].batches, 2u);  // each batch counted once
  EXPECT_EQ(report.lane[0].entries, 4000u);
  EXPECT_EQ(report.lane[0].failed_batches, 0u);
  gbx::failpoints().clear();
}

// drain() returns only once every cascade has finished: the matrix read
// here, from the test thread, is the settled one (and, under TSan, no
// fold races the read).
TEST(ParallelStream, DrainWaitsForTheCascade) {
  InstanceArray<double> array(1, kDim, kDim, CutPolicy::geometric(3, 512, 8));
  ParallelStream<double> engine(array);
  stall_next_cascade(300);
  engine.start();
  engine.submit(0, kron(43).batch<double>(2000));  // over the first cut
  engine.drain();
  EXPECT_FALSE(gbx::failpoints().armed()) << "the cascade never stalled";
  const auto& m = array.instance(0);
  EXPECT_EQ(m.level_entries(0), 0u);
  EXPECT_EQ(m.stats().level[0].folds, 1u);
  engine.stop();
  gbx::failpoints().clear();
}

// A freeze asked for during a lane's bottom merge pauses the merge after
// its wave: the lane stages the batch queued behind it, serves the
// freeze and resumes. The freeze returns before the merge ends (its
// image's bottom holds fewer entries than the merged one) and includes
// the queued batch; drain() waits for the last wave.
TEST(ParallelStream, FreezeDoesNotWaitForTheGrownBottomMerge) {
  const Index dim = Index{1} << 40;
  InstanceArray<double> array(1, dim, dim, CutPolicy::geometric(3, 1024, 8));
  auto& m = array.instance(0);
  std::mt19937_64 rng(4101);
  proptest::DenseRef<double> ref;
  auto fresh = [&] { return proptest::random_batch<double>(rng, dim, 4096); };

  // Grow the matrix, quiescent, to one batch short of a bottom merge
  // that runs at least three waves on the lane (a wave merges up to a
  // team of pieces, each filling at most a chunk); `after` is that batch
  // applied.
  const std::size_t merged_levels = 5, bottom = merged_levels - 1;
  const std::size_t wave =
      static_cast<std::size_t>(gbx::max_threads()) *
      hier::HierMatrix<double>::kChunkEntries;
  gbx::Tuples<double> trigger;
  hier::HierMatrix<double> after = m;
  for (;;) {
    trigger = fresh();
    after = m;
    after.update(trigger);
    if (after.num_levels() == merged_levels &&
        m.num_levels() == merged_levels &&
        after.stats().level[bottom - 1].folds >
            m.stats().level[bottom - 1].folds &&
        m.level_entries(bottom) >=
            2 * wave + hier::HierMatrix<double>::kChunkEntries)
      break;
    ASSERT_LT(m.stats().updates, 1000u) << "no bottom merge found";
    m.update(trigger);
    ref.apply(trigger);
  }
  const std::size_t old_bottom = m.level_entries(bottom);
  const std::uint64_t prefix = m.epoch();

  gbx::FailpointSpec slow;
  slow.action = gbx::FailAction::kDelay;
  slow.probability = 1.0;
  slow.max_fires = 1000;
  slow.delay_ms = 200;
  gbx::failpoints().arm("hier.stream.merge", slow);
  ParallelStream<double> engine(array);
  engine.start();
  engine.submit(0, trigger);
  ref.apply(trigger);
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (gbx::failpoints().ops("hier.stream.merge") == 0 &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(gbx::failpoints().ops("hier.stream.merge"), 0u)
      << "the bottom merge never paused";

  const auto queued = fresh();
  engine.submit(0, queued);  // queued behind the merge
  ref.apply(queued);
  const auto snap = engine.freeze();
  const auto waves_at_freeze = gbx::failpoints().ops("hier.stream.merge");
  const auto& part = snap.part(0);
  ASSERT_EQ(part.num_levels(), merged_levels);
  EXPECT_GE(part.level_slices(bottom).nvals(), old_bottom);
  EXPECT_LT(part.level_slices(bottom).nvals(), after.level_entries(bottom))
      << "the freeze waited for the merge's last wave";
  // The merge writes the bottom `after` holds and asks yield() between
  // waves, so at least one ask fewer than the waves that bottom fills.
  const std::size_t asks =
      (after.level_entries(bottom) + wave - 1) / wave - 1;
  EXPECT_LT(waves_at_freeze, asks)
      << "the freeze waited for the merge's last wave";
  EXPECT_EQ(snap.part(0).epoch(), prefix + 2);
  EXPECT_TRUE(ref.matches(snap, 0));

  engine.drain();
  EXPECT_FALSE(m.merging());
  EXPECT_TRUE(*m.chunks(m.num_levels() - 1).joined() ==
              *after.chunks(after.num_levels() - 1).joined())
      << "drain() returned before the merge's last wave";
  EXPECT_TRUE(ref.matches(m.freeze()));
  const auto report = engine.stop();
  EXPECT_EQ(report.lane[0].batches, 2u);
  EXPECT_EQ(report.lane[0].entries, 2 * 4096u);
  gbx::failpoints().clear();
}

// Reader threads freeze and read while one lane runs grown bottom
// merges over a chunked bottom. Every batch is fresh coordinates, so the
// image at epoch e holds exactly the first e batches: every read checks
// nvals, reduce and point probes (the last batch in, the next one out)
// against that prefix. In a plain build the merges recycle every chunk
// no reader pins; under TSan (gbx::sole_owner) they never recycle.
TEST(ParallelStream, ReadersFreezeWhileChunkedMergesRecycleChunks) {
  const Index dim = Index{1} << 40;
  InstanceArray<double> array(1, dim, dim, CutPolicy({512, 8192}));
  std::mt19937_64 rng(4102);
  constexpr std::size_t kBatches = 240, kSize = 4096;
  std::vector<Tuples<double>> batches;
  std::vector<double> sums{0};
  batches.reserve(kBatches);
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.push_back(proptest::random_batch<double>(rng, dim, kSize));
    double sum = sums.back();
    for (const auto& e : batches.back()) sum += e.val;
    sums.push_back(sum);
  }

  ParallelStream<double> engine(array);
  engine.start();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0}, bad{0};
  auto reader = [&] {
    while (!done.load()) {
      const auto snap = engine.freeze();
      const auto e = static_cast<std::size_t>(snap.part(0).epoch());
      bool ok = snap.nvals() == e * kSize && snap.reduce() == sums[e];
      if (e > 0) {
        const auto& in = batches[e - 1].entries().back();
        ok = ok && snap.extract_element(in.row, in.col) == in.val;
      }
      if (e < kBatches) {
        const auto& out = batches[e].entries().front();
        ok = ok && !snap.extract_element(out.row, out.col);
      }
      bad += ok ? 0 : 1;
      ++reads;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
  for (const auto& b : batches) engine.submit(0, b);
  engine.drain();
  done = true;
  for (auto& t : readers) t.join();
  engine.stop();

  EXPECT_EQ(bad.load(), 0u) << "of " << reads.load() << " reads";
  EXPECT_GT(reads.load(), 3u);
  const auto& m = array.instance(0);
  ASSERT_EQ(m.num_levels(), 4u);
  EXPECT_GE(m.chunks(m.num_levels() - 1).slices().size(), 3u)
      << "the bottom never chunked";
  EXPECT_GE(m.stats().level[2].folds, 4u) << "too few grown bottom merges";
  EXPECT_EQ(m.nvals(), kBatches * kSize);
}

// Producers racing stop() get a defined kStopped instead of blocking on
// a queue no worker will drain; every batch accepted before the close
// is applied exactly once.
TEST(ParallelStream, TrySubmitVersusStopRace) {
  for (int round = 0; round < 8; ++round) {
    InstanceArray<double> array(2, kDim, kDim,
                                CutPolicy::geometric(3, 512, 8));
    ParallelStream<double> engine(array);
    engine.start();

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<bool> saw_stopped{false};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        auto g = kron(900 + static_cast<std::uint64_t>(round) * 10 + p);
        for (int i = 0; i < 100000; ++i) {
          auto b = g.batch<double>(8);
          switch (engine.try_submit(p, b)) {
            case hier::SubmitResult::kAccepted:
              accepted.fetch_add(1, std::memory_order_relaxed);
              break;
            case hier::SubmitResult::kLaneFull:
              std::this_thread::yield();
              break;
            case hier::SubmitResult::kStopped:
              saw_stopped.store(true, std::memory_order_relaxed);
              return;
          }
        }
      });
    }
    while (accepted.load(std::memory_order_relaxed) < 50) std::this_thread::yield();
    auto report = engine.stop();
    for (auto& t : producers) t.join();

    EXPECT_TRUE(saw_stopped.load()) << "producers outran stop() entirely";
    EXPECT_EQ(report.entries, accepted.load() * 8)
        << "accepted batches and applied entries diverged (round " << round
        << ")";
    EXPECT_EQ(array.total_entries_appended(), accepted.load() * 8);
  }
}

}  // namespace
