// End-to-end checkpoint + write-ahead-log recovery drill, the gap called
// out in ISSUE 1: hier::checkpoint round-trip through the store::wal
// write path. The scenario is a streaming ingest node that logs every
// entry to its WAL, checkpoints mid-stream to real storage (a file on
// disk), crashes, restores from the checkpoint, and replays the
// post-checkpoint suffix of the log. The restored matrix must be
// indistinguishable from the uninterrupted one: identical Σ Ai, identical
// per-level structure, identical cascade statistics.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gbx/matrix_ops.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"
#include "legacy_frame.hpp"
#include "net/protocol.hpp"
#include "prop_util.hpp"
#include "store/block_store.hpp"
#include "store/wal.hpp"

namespace {

using gbx::Matrix;
using gbx::Tuples;
using hier::CutPolicy;
using hier::HierMatrix;

constexpr gbx::Index kDim = gbx::Index{1} << 17;

Tuples<double> make_batch(gen::KroneckerGenerator& g, std::size_t n,
                          store::WriteAheadLog& wal) {
  auto batch = g.batch<double>(n);
  // Real ingest logs before it applies; per-entry, like the database
  // baselines in cluster/scaling_harness.hpp.
  for (const auto& e : batch) wal.append({e.row, e.col}, e.val);
  return batch;
}

TEST(CheckpointWal, SaveRestoreIdenticalSum) {
  const auto cuts = CutPolicy::geometric(4, 512, 8);
  const std::size_t batches = 12, batch_size = 4000;

  gen::KroneckerParams kp;
  kp.scale = 17;
  kp.seed = 42;
  gen::KroneckerGenerator g(kp);
  store::WriteAheadLog wal;

  HierMatrix<double> h(kDim, kDim, cuts);
  for (std::size_t s = 0; s < batches; ++s) h.update(make_batch(g, batch_size, wal));
  EXPECT_EQ(wal.records(), batches * batch_size);
  EXPECT_EQ(wal.bytes_logged(),
            wal.records() * (sizeof(std::uint64_t) + sizeof(store::Key) +
                             sizeof(store::Value)));

  std::stringstream ss;
  hier::checkpoint(ss, h);
  auto restored = hier::restore<double>(ss);

  // Σ Ai identical — and not just the sum: every level matches, so the
  // restart is invisible to the cascade.
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
  ASSERT_EQ(restored.num_levels(), h.num_levels());
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    EXPECT_EQ(restored.level_entries(i), h.level_entries(i));
  EXPECT_EQ(restored.stats().entries_appended, h.stats().entries_appended);
  EXPECT_EQ(restored.cut_policy().cuts(), h.cut_policy().cuts());
}

TEST(CheckpointWal, CrashRecoveryThroughDiskAndLogReplay) {
  const auto cuts = CutPolicy::geometric(3, 1024, 16);
  const std::size_t pre = 8, post = 7, batch_size = 5000;
  const std::string path = testing::TempDir() + "hhgbx_ckpt_wal.bin";

  gen::KroneckerParams kp;
  kp.scale = 17;
  kp.seed = 77;

  // The WAL suffix written after the checkpoint. The in-memory WAL model
  // does not read back, so the "log" we replay is the batches themselves,
  // retained exactly as a replayer would see them.
  std::vector<Tuples<double>> suffix;

  store::WriteAheadLog wal;
  HierMatrix<double> live(kDim, kDim, cuts);
  {
    gen::KroneckerGenerator g(kp);
    for (std::size_t s = 0; s < pre; ++s) live.update(make_batch(g, batch_size, wal));

    const std::uint64_t ckpt_lsn = wal.records();
    std::ofstream os(path, std::ios::binary);
    hier::checkpoint(os, live);
    os.close();
    ASSERT_TRUE(os.good());
    EXPECT_EQ(ckpt_lsn, pre * batch_size);

    for (std::size_t s = 0; s < post; ++s) {
      auto b = make_batch(g, batch_size, wal);
      suffix.push_back(b);
      live.update(b);
    }
    EXPECT_EQ(wal.records() - ckpt_lsn, post * batch_size);
  }

  // --- crash: all in-memory state gone; recover from disk + log suffix ---
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  auto recovered = hier::restore<double>(is);
  for (const auto& b : suffix) recovered.update(b);

  EXPECT_TRUE(gbx::equal(recovered.snapshot(), live.snapshot()));
  EXPECT_EQ(recovered.stats().entries_appended, live.stats().entries_appended);
  ASSERT_EQ(recovered.stats().level.size(), live.stats().level.size());
  for (std::size_t i = 0; i < live.stats().level.size(); ++i)
    EXPECT_EQ(recovered.stats().level[i].folds, live.stats().level[i].folds);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// hier::recover(): automatic checkpoint-epoch cut (ISSUE 3 satellite).
// The caller no longer tracks the checkpoint LSN by hand — recover()
// reads epoch E from the checkpoint and replays exactly the WAL records
// above it, rejecting torn, overlapping, and gapped suffixes.
// ---------------------------------------------------------------------------

TEST(CheckpointWal, RecoverCutsWalAtCheckpointEpochAutomatically) {
  const auto cuts = CutPolicy::geometric(3, 1024, 16);
  const std::size_t pre = 8, post = 7, batch_size = 5000;

  gen::KroneckerParams kp;
  kp.scale = 17;
  kp.seed = 99;
  gen::KroneckerGenerator g(kp);

  std::stringstream wal_ss, ckpt_ss;
  hier::BatchWal<double> wal(wal_ss);
  HierMatrix<double> live(kDim, kDim, cuts);

  for (std::size_t s = 0; s < pre; ++s)
    wal.log_and_update(live, g.batch<double>(batch_size));
  hier::checkpoint(ckpt_ss, live);
  for (std::size_t s = 0; s < post; ++s)
    wal.log_and_update(live, g.batch<double>(batch_size));
  EXPECT_EQ(wal.records(), pre + post);

  // --- crash: recover from the checkpoint + the FULL log. recover()
  // itself finds the cut (epoch E = pre) and skips the prefix.
  hier::RecoveryReport rep;
  auto recovered = hier::recover<double>(ckpt_ss, wal_ss, &rep);
  EXPECT_EQ(rep.checkpoint_epoch, pre);
  EXPECT_EQ(rep.skipped_records, pre);
  EXPECT_EQ(rep.replayed_records, post);
  EXPECT_EQ(rep.replayed_entries, post * batch_size);

  EXPECT_TRUE(gbx::equal(recovered.snapshot(), live.snapshot()));
  EXPECT_EQ(recovered.epoch(), live.epoch());
  EXPECT_EQ(recovered.stats().entries_appended, live.stats().entries_appended);
  ASSERT_EQ(recovered.stats().level.size(), live.stats().level.size());
  for (std::size_t i = 0; i < live.stats().level.size(); ++i)
    EXPECT_EQ(recovered.stats().level[i].folds, live.stats().level[i].folds);
}

TEST(CheckpointWal, RecoverRejectsTornSuffix) {
  std::stringstream wal_ss, ckpt_ss;
  hier::BatchWal<double> wal(wal_ss);
  HierMatrix<double> live(kDim, kDim, CutPolicy::geometric(2, 64, 2));

  gbx::Tuples<double> b;
  for (int k = 0; k < 50; ++k) b.push_back(k, k + 1, 1.0);
  wal.log_and_update(live, b);
  hier::checkpoint(ckpt_ss, live);
  wal.log_and_update(live, b);

  // A crash mid-append: drop the tail of the last record.
  std::string torn = wal_ss.str();
  torn.resize(torn.size() - 9);
  std::istringstream torn_ss(torn);
  EXPECT_THROW(hier::recover<double>(ckpt_ss, torn_ss), gbx::Error);
}

TEST(CheckpointWal, RecoverRejectsOverlappingSuffix) {
  std::stringstream wal_ss, ckpt_ss;
  hier::BatchWal<double> wal(wal_ss);
  HierMatrix<double> live(kDim, kDim, CutPolicy::geometric(2, 64, 2));
  hier::checkpoint(ckpt_ss, live);  // E = 0

  gbx::Tuples<double> b;
  b.push_back(1, 2, 3.0);
  wal.log(1, b);
  wal.log(2, b);
  wal.log(2, b);  // duplicate epoch: two writers on one log
  EXPECT_THROW(hier::recover<double>(ckpt_ss, wal_ss), gbx::Error);
}

TEST(CheckpointWal, RecoverRejectsGappedSuffix) {
  gbx::Tuples<double> b;
  b.push_back(1, 2, 3.0);

  // Gap at the cut: checkpoint says E=0 but the log starts at epoch 2.
  {
    std::stringstream wal_ss, ckpt_ss;
    hier::BatchWal<double> wal(wal_ss);
    HierMatrix<double> live(kDim, kDim, CutPolicy::geometric(2, 64, 2));
    hier::checkpoint(ckpt_ss, live);
    wal.log(2, b);
    EXPECT_THROW(hier::recover<double>(ckpt_ss, wal_ss), gbx::Error);
  }
  // Gap inside the suffix: epochs 1, 3.
  {
    std::stringstream wal_ss, ckpt_ss;
    hier::BatchWal<double> wal(wal_ss);
    HierMatrix<double> live(kDim, kDim, CutPolicy::geometric(2, 64, 2));
    hier::checkpoint(ckpt_ss, live);
    wal.log(1, b);
    wal.log(3, b);
    EXPECT_THROW(hier::recover<double>(ckpt_ss, wal_ss), gbx::Error);
  }
}

TEST(CheckpointWal, RecoverRejectsCorruptPayload) {
  std::stringstream wal_ss, ckpt_ss;
  hier::BatchWal<double> wal(wal_ss);
  HierMatrix<double> live(kDim, kDim, CutPolicy::geometric(2, 64, 2));
  hier::checkpoint(ckpt_ss, live);
  gbx::Tuples<double> b;
  for (int k = 0; k < 8; ++k) b.push_back(k, k, 1.0);
  wal.log(1, b);

  // Flip one payload byte: the record checksum must catch it.
  std::string blob = wal_ss.str();
  blob[3 * sizeof(std::uint64_t) + 5] ^= 0x5a;
  std::istringstream bad(blob);
  EXPECT_THROW(hier::recover<double>(ckpt_ss, bad), gbx::Error);
}

TEST(CheckpointWal, RestoreRejectsCorruptMagic) {
  std::stringstream ss;
  HierMatrix<double> h(kDim, kDim, CutPolicy::geometric(2, 64, 2));
  h.update(1, 2, 3.0);
  hier::checkpoint(ss, h);
  std::string blob = ss.str();
  blob[0] ^= 0x5a;  // corrupt the magic
  std::istringstream bad(blob);
  EXPECT_THROW(hier::restore<double>(bad), gbx::Error);
}

// A compacted snapshot (the memory governor's eviction form) keeps the
// cuts but holds one level: its checkpoint writes the compact block as
// the bottom level under empty upper levels, and restores to the same
// Σ Ai, epoch and cuts.
TEST(CheckpointWal, CompactedSnapshotRestoresToTheSameSum) {
  HierMatrix<double> h(100, 100, CutPolicy({4, 16}));
  for (int k = 0; k < 30; ++k)
    h.update(static_cast<gbx::Index>(k * 7 % 100),
             static_cast<gbx::Index>(k * 13 % 100), 1.0 + k);
  const auto compact = h.freeze().compacted();
  ASSERT_EQ(compact.part(0).num_levels(), 1u);

  std::stringstream ss;
  hier::checkpoint(ss, compact);
  auto restored = hier::restore<double>(ss);
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
  EXPECT_EQ(restored.epoch(), h.epoch());
  EXPECT_EQ(restored.num_levels(), 3u);
  EXPECT_EQ(restored.cut_policy().cuts(), h.cut_policy().cuts());
  EXPECT_EQ(restored.level_entries(0), 0u);
  EXPECT_EQ(restored.level_entries(1), 0u);
}

// An image of several lanes is refused before a byte is written.
TEST(CheckpointWal, MultiPartImageIsRefused) {
  hier::InstanceArray<double> array(2, 100, 100, CutPolicy({4, 16}));
  hier::ParallelStream<double> engine(array);
  engine.start();
  (void)engine.stop();
  std::ostringstream os;
  EXPECT_THROW(hier::checkpoint(os, engine.freeze()), gbx::Error);
  EXPECT_TRUE(os.str().empty());
}

// A restored grown matrix folds into its bottom the way the original
// does: its bottom is chunks too, so both run bottom merges (in waves,
// pausing at yield()) over identical batches and end with the same
// levels and chunks. Beside them each keeps the released chunk buffers
// of its last merge (at most a wave: two at this team size), and the
// level above the bottom keeps its capacity warm; both follow each
// copy's own history, so the totals agree up to a wave.
TEST(CheckpointWal, RestoreKeepsTheGrownPath) {
  proptest::ThreadsGuard threads(1);  // a wave per piece: many pauses
  const gbx::Index dim = gbx::Index{1} << 40;
  std::mt19937_64 rng(4401);
  auto batch = [&] {
    Tuples<double> t;
    for (int k = 0; k < 512; ++k) t.push_back(rng() % dim, rng() % dim, 1.0);
    return t;
  };
  HierMatrix<double> h(dim, dim, CutPolicy::geometric(3, 1024, 8));
  while (h.num_levels() < 4) h.update(batch());
  std::stringstream ckpt;
  hier::checkpoint(ckpt, h);
  auto restored = hier::restore<double>(ckpt);

  std::size_t asks[2] = {0, 0};
  const auto merges = h.stats().level[2].folds;
  while (h.stats().level[2].folds < merges + 2) {
    const auto b = batch();
    HierMatrix<double>* m[2] = {&h, &restored};
    for (int i = 0; i < 2; ++i) {
      m[i]->stage(b);
      while (!m[i]->cascade([&] { return ++asks[i], true; })) {
      }
    }
  }
  EXPECT_EQ(restored.stats().level[2].folds, h.stats().level[2].folds);
  EXPECT_GT(asks[0], 0u);
  EXPECT_EQ(asks[1], asks[0]) << "the restored copy's merges did not pause";
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    EXPECT_EQ(restored.level_entries(i), h.level_entries(i));
  const auto& chunks = h.chunks(h.num_levels() - 1).slices();
  const auto& got = restored.chunks(restored.num_levels() - 1).slices();
  ASSERT_EQ(got.size(), chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c)
    EXPECT_EQ(got[c].nvals(), chunks[c].nvals());
  const std::size_t kept_wave =
      2 * (HierMatrix<double>::kChunkEntries + 1) *
      (2 * sizeof(gbx::Index) + sizeof(gbx::Offset) + sizeof(double));
  EXPECT_LE(std::max(restored.memory_bytes(), h.memory_bytes()) -
                std::min(restored.memory_bytes(), h.memory_bytes()),
            kept_wave);
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
}

// Every chunked level restores as chunks, at every depth: under cuts
// {512, 8192, 262144} level 2 is a chunk list above the chunked bottom,
// and both hold more than two chunks when the checkpoint is taken. The
// restored copy holds each as chunks of at most kChunkEntries
// entries (level() throws for both), and the merges that follow into
// level 2 run as wave merges on both copies and keep them equal.
TEST(CheckpointWal, RestoreKeepsEveryChunkedLevelAsChunks) {
  using H = HierMatrix<double>;
  const gbx::Index dim = gbx::Index{1} << 20;
  std::mt19937_64 rng(4701);
  auto batch = [&] {
    Tuples<double> t;
    for (int k = 0; k < 512; ++k) t.push_back(rng() % dim, rng() % dim, 1.0);
    return t;
  };
  H h(dim, dim, CutPolicy({512, 8192, 262144}));
  while (h.stats().level[2].folds == 0 ||
         h.level_entries(2) <= 2 * H::kChunkEntries)
    h.update(batch());
  ASSERT_EQ(h.num_levels(), 4u);
  std::stringstream ckpt;
  hier::checkpoint(ckpt, h);
  auto restored = hier::restore<double>(ckpt);

  ASSERT_EQ(restored.num_levels(), h.num_levels());
  for (std::size_t i = 0; i < h.num_levels(); ++i) {
    SCOPED_TRACE("level " + std::to_string(i));
    EXPECT_EQ(restored.level_entries(i), h.level_entries(i));
    if (i < 2) {
      EXPECT_NO_THROW((void)restored.level(i));
      continue;
    }
    EXPECT_THROW((void)restored.level(i), gbx::InvalidValue);
    const auto& chunks = restored.chunks(i).slices();
    EXPECT_GE(chunks.size(), 3u);
    for (const auto& c : chunks) EXPECT_LE(c.nvals(), H::kChunkEntries);
  }
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));

  const auto merges = h.stats().level[1].folds;
  while (h.stats().level[1].folds < merges + 2) {
    const auto b = batch();
    h.update(b);
    restored.update(b);
  }
  EXPECT_EQ(restored.stats().level[1].folds, h.stats().level[1].folds);
  EXPECT_GT(restored.chunks(2).slices().size(), 2u);
  EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
}

// The stream of the compatibility checks below: 512-entry batches over
// 4096 x 65536 coordinates with values in tenths (sums that round), into
// cuts {64, 1024, 8192}, whose bottom grows the matrix past 65536.
HierMatrix<double> compat_stream(int batches) {
  HierMatrix<double> h(gbx::Index{1} << 20, gbx::Index{1} << 20,
                       CutPolicy({64, 1024, 8192}));
  std::mt19937_64 rng(4601);
  for (int b = 0; b < batches; ++b) {
    Tuples<double> t;
    for (int k = 0; k < 512; ++k)
      t.push_back(rng() % 4096, rng() % 65536,
                  static_cast<double>(rng() % 1000) * 0.1);
    h.update(t);
  }
  return h;
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes)
    h = (h ^ std::to_integer<std::uint64_t>(b)) * 0x100000001b3ull;
  return h;
}

// What the build before every bottom was chunks wrote for compat_stream:
// its header words (the last one the retired starting depth) and each
// level frame's size and FNV-1a digest. After 60 batches the matrix is
// at its starting depth, its bottom one block; after 400 it has grown a
// level and its bottom was chunks.
struct ParentCheckpoint {
  int batches;
  std::vector<std::uint64_t> header;
  std::vector<std::pair<std::size_t, std::uint64_t>> levels;
};
const ParentCheckpoint kParentCheckpoints[] = {
    {60,
     {1048576, 1048576, 60, 30720, 0, 3, 64, 1024, 8192, 60, 30720, 512, 20,
      30720, 1536, 3, 27648, 9216, 0, 0, 0, 4},
     {{76, 0x520c7cf11769db1eull},
      {76, 0x520c7cf11769db1eull},
      {83804, 0x63d2ec25fa4713afull},
      {507932, 0x09ac47ec56ef2f63ull}}},
    {400,
     {1048576, 1048576, 400, 204800, 0, 4, 64, 1024, 8192, 65536, 400, 204800,
      512, 133, 204288, 1536, 22, 202752, 9216, 1, 73718, 73718, 0, 0, 0, 4},
     {{76, 0x520c7cf11769db1eull},
      {15980, 0x5315fa7361927e6aull},
      {45452, 0xe16a9592e8f09987ull},
      {950252, 0xa8b313801f28da70ull},
      {2424316, 0x05460c3a726bfdfeull}}},
};

// For the same stream a checkpoint's level frames are byte for byte the
// older build's, and its header is the older one without the retired
// starting-depth word. The older file (that header, these frames)
// restores into chunks with the same sum, depth and level sizes.
TEST(CheckpointWal, OlderCheckpointsRestoreIntoChunks) {
  for (const auto& want : kParentCheckpoints) {
    SCOPED_TRACE(want.batches);
    const auto h = compat_stream(want.batches);
    std::stringstream ckpt;
    hier::checkpoint(ckpt, h);
    store::RecordLogReader frames(ckpt);
    std::vector<std::uint64_t> header;
    const auto head = frames.next();
    ASSERT_TRUE(head && store::payload_as(head->payload, header));
    EXPECT_EQ(header, std::vector<std::uint64_t>(want.header.begin(),
                                                 want.header.end() - 1));
    // The older file: the same frames behind the older header.
    std::stringstream older;
    store::RecordLogWriter out(older);
    out.append(head->epoch, want.header.data(),
               want.header.size() * sizeof want.header[0]);
    for (const auto& [size, digest] : want.levels) {
      const auto rec = frames.next();
      ASSERT_TRUE(rec.has_value());
      EXPECT_EQ(rec->payload.size(), size);
      EXPECT_EQ(fnv1a(rec->payload), digest) << "a level frame changed";
      out.append(rec->epoch, rec->payload.data(), rec->payload.size());
    }
    EXPECT_FALSE(frames.next().has_value());

    const auto restored = hier::restore<double>(older);
    ASSERT_EQ(restored.num_levels(), h.num_levels());
    for (std::size_t i = 0; i < h.num_levels(); ++i)
      EXPECT_EQ(restored.level_entries(i), h.level_entries(i)) << "level " << i;
    EXPECT_TRUE(gbx::equal(restored.snapshot(), h.snapshot()));
    const auto& chunks = restored.chunks(restored.num_levels() - 1).slices();
    ASSERT_FALSE(chunks.empty());
    for (const auto& c : chunks)
      EXPECT_LE(c.nvals(), HierMatrix<double>::kChunkEntries);
    EXPECT_EQ(chunks.size(),
              (restored.level_entries(h.num_levels() - 1) +
               HierMatrix<double>::kChunkEntries - 1) /
                  HierMatrix<double>::kChunkEntries);
  }
}

// A crash while a checkpoint is written leaves a prefix of it: cut at
// every frame boundary and at every byte of the header frame, recover()
// over the prefix and the WAL of the batches after it either throws or
// (the whole file) returns the checkpointed image with the WAL replayed.
TEST(CheckpointWal, CheckpointCutAtEveryFrameBoundaryRecoversOrThrows) {
  auto h = compat_stream(400);  // a grown matrix, its bottom chunks
  std::stringstream ckpt;
  hier::checkpoint(ckpt, h);
  const std::string file = ckpt.str();
  std::stringstream wal_bytes;
  hier::BatchWal<double> wal(wal_bytes);
  std::mt19937_64 rng(4602);
  for (int b = 0; b < 6; ++b)
    wal.log_and_update(h, proptest::random_batch<double>(rng, 1 << 20, 300));
  const auto want = h.snapshot();

  std::vector<std::size_t> cuts;
  store::RecordLogReader frames(ckpt);
  std::size_t at = 0;
  for (bool first = true; auto rec = frames.next(); first = false) {
    const std::size_t end = at + store::frame_bytes(rec->payload.size());
    if (first)
      for (std::size_t c = 0; c < end; ++c) cuts.push_back(c);
    cuts.push_back(at = end);
  }
  ASSERT_EQ(at, file.size());
  std::size_t recovered = 0;
  for (const std::size_t c : cuts) {
    SCOPED_TRACE(c);
    std::istringstream in(file.substr(0, c)), log(wal_bytes.str());
    try {
      const auto r = hier::recover<double>(in, log);
      EXPECT_EQ(c, file.size()) << "a torn checkpoint recovered";
      EXPECT_TRUE(gbx::equal(r.snapshot(), want));
      ++recovered;
    } catch (const gbx::Error&) {
      EXPECT_LT(c, file.size()) << "the whole checkpoint did not recover";
    }
  }
  EXPECT_EQ(recovered, 1u);
}

// A level frame of a chunked level holds the bytes of the level as one
// block: hier::Level::chunked cuts a block into chunks of at most `cap`
// entries (a longer row alone), and Level::serialize writes them in
// place as one matrix, byte for byte what gbx::serialize writes for the
// block.
TEST(CheckpointWal, ChunkedLevelWritesTheJoinedBytes) {
  std::mt19937_64 rng(4403);
  Matrix<double> m(1 << 20, 1 << 20);
  Tuples<double> t;
  for (int k = 0; k < 20000; ++k)
    t.push_back(rng() % 3000, rng() % (1 << 20), static_cast<double>(k));
  for (int k = 0; k < 700; ++k) t.push_back(1500, k, 1.0);  // a long row
  m.append(t);
  std::ostringstream want;
  gbx::serialize(want, m);
  for (std::size_t cap : {std::size_t{1}, std::size_t{300}, std::size_t{4096},
                          std::size_t{1} << 20}) {
    SCOPED_TRACE(cap);
    const auto level = hier::Level<double>::chunked(m.view(), cap);
    std::size_t entries = 0;
    for (const auto& c : level.slices()) {
      entries += c.nvals();
      if (c.k1 - c.k0 > 1) {
        EXPECT_LE(c.nvals(), cap);
      }
    }
    EXPECT_EQ(entries, m.nvals());
    std::ostringstream got;
    level.serialize(got, m.nrows(), m.ncols());
    EXPECT_EQ(got.str(), want.str());
  }
}

// The retired starting-depth word: a header that ends with it (a file
// written before every bottom was chunks) restores like one without it,
// whatever its value, and a checkpoint writes no such word.
TEST(CheckpointWal, RestoreAcceptsTheRetiredStartingDepthWord) {
  auto file = [](std::vector<std::uint64_t> tail) {
    // A 3-level, empty 64 x 64 matrix under cuts {4, 16}.
    std::vector<std::uint64_t> words{64, 64, 0, 0, 0, 2, 4, 16};
    words.insert(words.end(), 9, 0);
    words.insert(words.end(), tail.begin(), tail.end());
    std::stringstream ss;
    store::RecordLogWriter out(ss);
    out.append(0, words.data(), words.size() * sizeof words[0]);
    for (int i = 0; i < 3; ++i) {
      std::ostringstream level;
      gbx::serialize(level, Matrix<double>(64, 64));
      const std::string bytes = std::move(level).str();
      out.append(0, bytes.data(), bytes.size());
    }
    return ss;
  };
  for (const std::vector<std::uint64_t>& tail :
       {std::vector<std::uint64_t>{}, {3}, {2}, {4}}) {
    SCOPED_TRACE(tail.size());
    auto in = file(tail);
    auto h = hier::restore<double>(in);
    EXPECT_EQ(h.num_levels(), 3u);
    std::stringstream again;
    hier::checkpoint(again, h);
    store::RecordLogReader frames(again);
    std::vector<std::uint64_t> words;
    ASSERT_TRUE(store::payload_as(frames.next()->payload, words));
    EXPECT_EQ(words.size(), 9u + 4 * 2) << "the header's word count";
  }
  auto longer = file({3, 3});
  EXPECT_THROW(hier::restore<double>(longer), gbx::Error);
}

// ---------------------------------------------------------------------------
// Out-of-core tier vs crash recovery (ISSUE 7 satellite). Demotion moves
// the cold bottom level's bytes into a block store, but durability still
// belongs to checkpoint + WAL: hier::recover() never consults the store,
// so a crash at ANY point of a demotion — mid-run with blocks half
// written, or after the store write with the resident level already
// released — recovers to the bit-identical Σ Ai from the log alone.
// ---------------------------------------------------------------------------

// Backend that dies at the Nth write (the crash point lands inside a
// demotion's block loop).
class DyingBackend final : public store::BlockBackend {
 public:
  explicit DyingBackend(std::uint64_t fail_at) : fail_at_(fail_at) {}
  void write(store::BlockId id, const void* data, std::size_t size) override {
    GBX_CHECK(++writes_ != fail_at_, "injected crash mid-demotion");
    inner_.write(id, data, size);
  }
  bool read(store::BlockId id, std::string& out) override {
    return inner_.read(id, out);
  }
  void erase(store::BlockId id) override { inner_.erase(id); }
  std::vector<std::pair<store::BlockId, std::uint64_t>> entries()
      const override {
    return inner_.entries();
  }

 private:
  store::MemBackend inner_;
  std::uint64_t writes_ = 0, fail_at_;
};

TEST(CheckpointWal, RecoverAfterCrashMidDemotionIsBitIdentical) {
  const auto cuts = CutPolicy::geometric(3, 256, 8);
  const std::size_t pre = 5, post = 4, batch_size = 3000;

  gen::KroneckerParams kp;
  kp.scale = 17;
  kp.seed = 123;
  gen::KroneckerGenerator g(kp);

  std::stringstream wal_ss, ckpt_ss;
  hier::BatchWal<double> wal(wal_ss);

  // Huge segments: one block per demotion. The second block write dies,
  // so the first demotion succeeds and the final one crashes mid-run.
  store::BlockStore bstore(std::make_unique<DyingBackend>(2));
  HierMatrix<double> live(kDim, kDim, cuts);
  hier::DemotionConfig dcfg;
  dcfg.segment_bytes = 64u << 20;
  live.enable_demotion(&bstore, dcfg);
  HierMatrix<double> twin(kDim, kDim, cuts);  // never demotes, no WAL

  for (std::size_t s = 0; s < pre; ++s) {
    auto b = g.batch<double>(batch_size);
    wal.log_and_update(live, b);
    twin.update(b);
  }
  live.flush();
  twin.flush();
  ASSERT_TRUE(live.demote_now());  // succeeds (few blocks yet)
  hier::checkpoint(ckpt_ss, live);  // checkpoint WHILE demoted

  for (std::size_t s = 0; s < post; ++s) {
    auto b = g.batch<double>(batch_size);
    wal.log_and_update(live, b);
    twin.update(b);
  }
  live.flush();
  EXPECT_THROW(live.demote_now(), gbx::Error);  // crash mid-demotion

  // --- process dies here; recover from checkpoint + full WAL only ---
  hier::RecoveryReport rep;
  auto recovered = hier::recover<double>(ckpt_ss, wal_ss, &rep);
  EXPECT_EQ(rep.checkpoint_epoch, pre);
  EXPECT_EQ(rep.replayed_records, post);
  EXPECT_TRUE(gbx::equal(recovered.snapshot(), twin.snapshot()))
      << "recovery diverged from the never-demoted twin";
  EXPECT_EQ(recovered.epoch(), twin.epoch());
}

TEST(CheckpointWal, RecoverAfterCrashBetweenDemoteAndNextBatch) {
  // The converse ordering: the demotion COMPLETED (store written,
  // resident level released) and the process dies before anything else
  // lands. The store's contents are irrelevant to recovery.
  const auto cuts = CutPolicy::geometric(3, 256, 8);
  const std::size_t pre = 6, batch_size = 3000;

  gen::KroneckerParams kp;
  kp.scale = 17;
  kp.seed = 321;
  gen::KroneckerGenerator g(kp);

  std::stringstream wal_ss, ckpt_ss;
  hier::BatchWal<double> wal(wal_ss);
  auto bstore = store::make_mem_block_store();
  HierMatrix<double> live(kDim, kDim, cuts);
  live.enable_demotion(bstore.get());
  HierMatrix<double> twin(kDim, kDim, cuts);

  for (std::size_t s = 0; s < pre; ++s) {
    auto b = g.batch<double>(batch_size);
    wal.log_and_update(live, b);
    twin.update(b);
    if (s == 2) hier::checkpoint(ckpt_ss, live);
  }
  live.flush();
  ASSERT_TRUE(live.demote_now());
  ASSERT_TRUE(live.has_demoted());  // resident bottom gone, bytes in store

  // --- crash; the block store evaporates with the process ---
  auto recovered = hier::recover<double>(ckpt_ss, wal_ss);
  EXPECT_TRUE(gbx::equal(recovered.snapshot(), twin.snapshot()));
  EXPECT_TRUE(gbx::equal(recovered.snapshot(), live.snapshot()))
      << "demotion must not change the logical value the WAL reproduces";
}

// --- RecordFrameDecoder: the incremental frame decoder under the
// reader (and the network server's session codec). The contract under
// test: arbitrarily short reads are never misclassified as corruption
// — kNeedMore until the frame completes, byte-identical results to a
// whole-buffer decode, and corruption still detected at the earliest
// byte that can prove it.

std::string three_records() {
  std::ostringstream os;
  store::RecordLogWriter w(os);
  const std::string p1 = "alpha", p2 = "", p3(300, 'z');
  w.append(1, p1.data(), p1.size());
  w.append(2, p2.data(), p2.size());
  w.append(3, p3.data(), p3.size());
  return os.str();
}

TEST(RecordFrameDecoder, OneByteAtATimeMatchesWholeBufferDecode) {
  const std::string blob = three_records();
  store::RecordFrameDecoder dec;
  std::vector<store::LogRecord> got;
  store::LogRecord rec;
  for (char c : blob) {
    dec.feed(&c, 1);  // worst-case short read: a nonblocking socket
    for (;;) {
      const auto st = dec.next(rec);
      ASSERT_NE(st, store::RecordFrameDecoder::Status::kCorrupt)
          << dec.error();
      if (st != store::RecordFrameDecoder::Status::kFrame) break;
      got.push_back(rec);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(dec.buffered(), 0u);  // clean end: no torn tail
  EXPECT_EQ(dec.frames_decoded(), 3u);
  EXPECT_EQ(got[0].epoch, 1u);
  EXPECT_EQ(got[0].payload.size(), 5u);
  EXPECT_EQ(got[1].epoch, 2u);
  EXPECT_TRUE(got[1].payload.empty());
  EXPECT_EQ(got[2].epoch, 3u);
  EXPECT_EQ(got[2].payload.size(), 300u);
}

TEST(RecordFrameDecoder, PartialFrameIsNeedMoreNotCorrupt) {
  const std::string blob = three_records();
  // Every possible truncation point inside the final frame: the decoder
  // must report kNeedMore with bytes buffered — the torn-tail verdict
  // belongs to the caller, who alone knows the input ended. The final
  // record is 4 u64 framing words + its 300-byte payload.
  const std::size_t last_start = blob.size() - (4 * sizeof(std::uint64_t) + 300);
  for (std::size_t cut = last_start; cut < blob.size(); ++cut) {
    store::RecordFrameDecoder dec;
    dec.feed(blob.data(), cut);
    store::LogRecord rec;
    std::size_t frames = 0;
    for (;;) {
      const auto st = dec.next(rec);
      ASSERT_NE(st, store::RecordFrameDecoder::Status::kCorrupt)
          << "cut at " << cut << ": " << dec.error();
      if (st != store::RecordFrameDecoder::Status::kFrame) break;
      ++frames;
    }
    EXPECT_EQ(frames, 2u) << "cut at " << cut;
    EXPECT_EQ(dec.buffered() > 0, cut > last_start) << "cut at " << cut;
  }
}

TEST(RecordFrameDecoder, BadMagicIsCorruptAtEightBytes) {
  store::RecordFrameDecoder dec;
  const char junk[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  dec.feed(junk, 4);
  store::LogRecord rec;
  EXPECT_EQ(dec.next(rec), store::RecordFrameDecoder::Status::kNeedMore);
  dec.feed(junk + 4, 4);  // eight garbage bytes: provably not a frame
  EXPECT_EQ(dec.next(rec), store::RecordFrameDecoder::Status::kCorrupt);
  EXPECT_TRUE(dec.corrupt());
  EXPECT_NE(dec.error().find("magic"), std::string::npos);
  // Poisoned: more bytes never un-corrupt it.
  dec.feed(junk, 8);
  EXPECT_EQ(dec.next(rec), store::RecordFrameDecoder::Status::kCorrupt);
}

TEST(RecordFrameDecoder, ChecksumMismatchIsCorrupt) {
  std::string blob = three_records();
  blob[3 * sizeof(std::uint64_t) + 2] ^= 0x40;  // first record's payload
  store::RecordFrameDecoder dec;
  dec.feed(blob.data(), blob.size());
  store::LogRecord rec;
  EXPECT_EQ(dec.next(rec), store::RecordFrameDecoder::Status::kCorrupt);
  EXPECT_NE(dec.error().find("checksum"), std::string::npos);
}

TEST(RecordFrameDecoder, PayloadCapRejectsAbsurdSizes) {
  std::ostringstream os;
  store::RecordLogWriter w(os);
  const std::string big(4096, 'x');
  w.append(7, big.data(), big.size());
  const std::string blob = os.str();

  store::RecordFrameDecoder capped(1024);
  capped.feed(blob.data(), blob.size());
  store::LogRecord rec;
  EXPECT_EQ(capped.next(rec), store::RecordFrameDecoder::Status::kCorrupt);
  EXPECT_NE(capped.error().find("exceeds"), std::string::npos);

  store::RecordFrameDecoder roomy(4096);
  roomy.feed(blob.data(), blob.size());
  EXPECT_EQ(roomy.next(rec), store::RecordFrameDecoder::Status::kFrame);
  EXPECT_EQ(rec.payload.size(), 4096u);
}

TEST(RecordFrameDecoder, ReaderStillClassifiesTornVersusCorrupt) {
  // The stream reader built on the decoder must preserve its historical
  // verdicts: clean logs replay, torn tails and corruption throw with
  // the same messages recover() relies on.
  const std::string blob = three_records();
  {
    std::istringstream is(blob);
    store::RecordLogReader r(is);
    std::size_t n = 0;
    while (r.next()) ++n;
    EXPECT_EQ(n, 3u);
  }
  {
    std::istringstream is(blob.substr(0, blob.size() - 3));
    store::RecordLogReader r(is);
    EXPECT_NO_THROW(r.next());
    EXPECT_NO_THROW(r.next());
    EXPECT_THROW(r.next(), gbx::Error);  // torn tail
  }
}

// --- the frame checksum: XXH64, seeded with the epoch ------------------------

TEST(FrameSum, Xxh64KnownAnswers) {
  // Reference vectors of the XXH64 spec, seed 0.
  const auto h = [](const std::string& s) {
    return store::detail::xxh64(s.data(), s.size(), 0);
  };
  EXPECT_EQ(h(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(h("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(h("abc"), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(h("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ull);
  EXPECT_EQ(store::detail::xxh64(nullptr, 0, 0), 0xEF46DB3751D8E999ull);
}

store::RecordFrameDecoder::Status first_verdict(const std::string& bytes) {
  store::RecordFrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  store::LogRecord rec;
  return dec.next(rec);
}

TEST(FrameSum, EveryHeaderBitFlipIsRejected) {
  // The trailer covers both header words, on every tail path of the
  // hash (sizes straddle the 8-, 4- and 1-byte tails and the edge of
  // the 32-byte four-lane stripe). Zero padding after the frame lets a
  // shrunk or modestly grown size field reach the checksum, where it
  // must fail; a size past the buffered bytes stays kNeedMore. Neither
  // ever yields a frame.
  constexpr std::size_t kPad = 4096;
  constexpr std::size_t kEpochAt = 8, kSizeAt = 16;
  for (const std::size_t n : {0, 1, 3, 4, 7, 8, 31, 32, 33, 63, 64, 65}) {
    std::string payload(n, '\0');
    for (std::size_t i = 0; i < n; ++i)
      payload[i] = static_cast<char>(i * 37 + 1);
    std::ostringstream os;
    store::RecordLogWriter w(os);
    w.append(0x0123456789ABCDEFull, payload.data(), payload.size());
    std::string bytes = os.str() + std::string(kPad, '\0');
    for (const std::size_t at : {kEpochAt, kSizeAt}) {
      for (int bit = 0; bit < 64; ++bit) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + at, 8);
        word ^= std::uint64_t{1} << bit;
        std::memcpy(bytes.data() + at, &word, 8);
        const auto st = first_verdict(bytes);
        const bool reaches_trailer =
            at == kEpochAt || 24 + word + 8 <= bytes.size();
        EXPECT_EQ(st, reaches_trailer
                          ? store::RecordFrameDecoder::Status::kCorrupt
                          : store::RecordFrameDecoder::Status::kNeedMore)
            << "size " << n << (at == kEpochAt ? " epoch" : " size")
            << " bit " << bit;
        word ^= std::uint64_t{1} << bit;  // restore for the next flip
        std::memcpy(bytes.data() + at, &word, 8);
      }
    }
  }
}

TEST(FrameSum, PreviousFormatIsRejectedByMagic) {
  const std::string p = "a frame from before the XXH64 trailer";
  const std::string v1 = legacy::v1_frame(3, p.data(), p.size());
  const auto expect_magic_error = [](auto& reader) {
    try {
      reader.next();
      ADD_FAILURE() << "an HHWAL001 frame was accepted";
    } catch (const gbx::Error& e) {
      EXPECT_NE(std::string(e.what()).find("bad record magic"),
                std::string::npos)
          << e.what();
    }
  };
  {
    std::istringstream is(v1);
    store::RecordLogReader r(is);
    expect_magic_error(r);
  }
  {
    std::istringstream is(v1);
    store::RecordLogTailer t(is);
    expect_magic_error(t);
  }
}

// --- one frame layout: the wire, the WAL and the block file write the
// same bytes, pinned against literals captured before their three
// encoders became one.

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

TEST(FrameLayout, EveryWriterEmitsTheGoldenBytes) {
  unsigned char payload[24];
  for (int i = 0; i < 24; ++i)
    payload[i] = static_cast<unsigned char>(i * 37 + 1);
  const struct {
    std::uint64_t epoch;
    const void* data;
    std::size_t size;
    const char* hex;
  } cases[] = {
      {7, payload, sizeof payload,
       "3230304c415748480700000000000000180000000000000001264b7095badf04"
       "294e7398bde2072c51769bc0e50a2f547067099e7612a4ec"},
      {0, nullptr, 0,
       "3230304c415748480000000000000000000000000000000099e9d85137db46ef"},
  };
  const std::string path = testing::TempDir() + std::to_string(::getpid()) +
                           "_hhgbx_golden_frame.bin";
  for (const auto& c : cases) {
    std::string store_frame;
    store::append_frame(store_frame, c.epoch, c.data, c.size);

    const auto type = static_cast<net::MsgType>(0);
    ASSERT_EQ(net::make_tag(type, c.epoch), c.epoch);
    std::string net_frame;
    net::append_frame(net_frame, type, c.epoch, c.data, c.size);

    std::ostringstream wal;
    store::RecordLogWriter(wal).append(c.epoch, c.data, c.size);

    std::remove(path.c_str());
    store::FileBackend(path).write(c.epoch, c.data, c.size);
    std::ifstream in(path, std::ios::binary);
    const std::string file_frame{std::istreambuf_iterator<char>(in), {}};
    in.close();
    std::remove(path.c_str());

    for (const auto& [writer, bytes] :
         {std::pair{"store::append_frame", store_frame},
          std::pair{"net::append_frame", net_frame},
          std::pair{"RecordLogWriter", wal.str()},
          std::pair{"FileBackend", file_frame}}) {
      EXPECT_EQ(to_hex(bytes), c.hex) << writer;
      store::RecordFrameDecoder dec;
      dec.feed(bytes.data(), bytes.size());
      store::LogRecord rec;
      ASSERT_EQ(dec.next(rec), store::FrameStatus::kFrame) << writer;
      EXPECT_EQ(rec.epoch, c.epoch) << writer;
      ASSERT_EQ(rec.payload.size(), c.size) << writer;
      if (c.size > 0) {
        EXPECT_EQ(std::memcmp(rec.payload.data(), c.data, c.size), 0)
            << writer;
      }
      EXPECT_EQ(dec.buffered(), 0u) << writer;
    }
  }
}

}  // namespace
