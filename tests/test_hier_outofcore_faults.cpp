// Fault injection for the out-of-core tier (ISSUE 7 satellite): a
// failpoint backend wrapped around the real ones injects torn writes,
// short reads, I/O errors (ENOSPC), and at-rest corruption at
// configurable operation counts. The invariant under test, everywhere:
// a failure leaves every query either bit-exact or failing loudly with
// a gbx::Error — never silently wrong, never crashing.
//
// Same discipline as test_failure_injection.cpp: sweeps are
// parameterized over injection points so the failure lands in different
// phases (first segment, mid-run, directory already partially filled).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"
#include "store/failpoint_backend.hpp"

namespace {

using gbx::Index;
using hier::CutPolicy;
using hier::DemotionConfig;
using hier::HierMatrix;

// The fault injector is the shared store::FailpointBackend (this suite
// is where it was born, PR 7 — now generalized over gbx::failpoints()
// so the same registry drives net/repl fault matrices). The legacy
// arming API (fail_write_at & co., absolute 1-based op counts, fire
// once) is unchanged.
using store::FailpointBackend;

struct Rig {
  store::BlockStore* store = nullptr;
  FailpointBackend* fp = nullptr;
  store::MemBackend* mem = nullptr;
  std::unique_ptr<store::BlockStore> owned;
};

// A store whose every byte passes through the failpoints, with the
// MemBackend reachable for at-rest corruption. Cache disabled so reads
// always hit the (faulty) backend.
Rig make_rig() {
  auto mem = std::make_unique<store::MemBackend>();
  Rig rig;
  rig.mem = mem.get();
  auto fp = std::make_unique<FailpointBackend>(std::move(mem));
  rig.fp = fp.get();
  store::BlockStoreConfig cfg;
  cfg.cache_budget_bytes = 0;
  rig.owned = std::make_unique<store::BlockStore>(std::move(fp), cfg);
  rig.store = rig.owned.get();
  return rig;
}

DemotionConfig tiny_segments() {
  DemotionConfig cfg;
  cfg.segment_bytes = 1024;  // several blocks per demotion
  cfg.max_runs = 4;
  return cfg;
}

// Build a matrix with enough demoted state that probes traverse
// multiple runs and segments.
void stream_and_demote(HierMatrix<std::int64_t>& h,
                       proptest::DenseRef<std::int64_t>& ref, int demotions) {
  std::mt19937_64 rng(4242);
  for (int s = 0; s < demotions; ++s) {
    auto b = proptest::random_batch<std::int64_t>(rng, 2048, 600);
    h.update(b);
    ref.apply(b);
    h.flush();
    ASSERT_TRUE(h.demote_now());
  }
}

// Every oracle coordinate reads either the exact value or throws a
// diagnosable gbx::Error — the "bit-exact or loud" meta-assertion.
void expect_exact_or_loud(const HierMatrix<std::int64_t>& h,
                          const proptest::DenseRef<std::int64_t>& ref,
                          std::size_t* loud = nullptr) {
  auto snap = h.freeze();
  std::size_t threw = 0;
  for (const auto& [k, v] : ref.cells()) {
    try {
      auto got = snap.extract_element(k.first, k.second);
      ASSERT_TRUE(got.has_value())
          << "silently LOST entry (" << k.first << ", " << k.second << ")";
      ASSERT_EQ(*got, v) << "silently WRONG value at (" << k.first << ", "
                         << k.second << ")";
    } catch (const gbx::Error&) {
      ++threw;  // loud failure: acceptable under injected faults
    }
  }
  if (loud != nullptr) *loud = threw;
}

// ---------------------------------------------------------------------------
// Write-side faults: a demote that dies mid-run must roll back whole —
// image unchanged, resident level intact, partial blocks erased.
// ---------------------------------------------------------------------------

class EnospcSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnospcSweep, FailedDemoteRollsBackWhole) {
  Rig rig = make_rig();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  h.enable_demotion(rig.store, tiny_segments());
  proptest::DenseRef<std::int64_t> ref;
  stream_and_demote(h, ref, 2);  // some pre-existing demoted state

  // More data, then a demotion that dies at the Nth block write.
  std::mt19937_64 rng(7);
  auto b = proptest::random_batch<std::int64_t>(rng, 2048, 900);
  h.update(b);
  ref.apply(b);
  h.flush();

  const auto runs_before = h.tier().num_runs();
  const auto blocks_before = rig.store->blocks();
  const auto entries_before = h.level_entries(h.num_levels() - 1);
  ASSERT_GT(entries_before, 0u);

  rig.fp->fail_write_at(rig.fp->writes() + GetParam());
  EXPECT_THROW(h.demote_now(), gbx::Error);

  // Rolled back whole: nothing published, nothing leaked, level intact.
  EXPECT_EQ(h.tier().num_runs(), runs_before);
  EXPECT_EQ(rig.store->blocks(), blocks_before);
  EXPECT_EQ(h.level_entries(h.num_levels() - 1), entries_before);
  std::size_t loud = 0;
  expect_exact_or_loud(h, ref, &loud);
  EXPECT_EQ(loud, 0u) << "a write-side fault must not poison reads";

  // The failure is transient (space freed): the retry succeeds and the
  // matrix is whole.
  ASSERT_TRUE(h.demote_now());
  ASSERT_TRUE(ref.matches(h.freeze()));
}

INSTANTIATE_TEST_SUITE_P(InjectionPoints, EnospcSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// ---------------------------------------------------------------------------
// Read-side faults: damage planted under a successful demote must turn
// every affected read into a loud error, and only the affected ones.
// ---------------------------------------------------------------------------

class TornWriteSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TornWriteSweep, TornBlockReadsLoudNeverWrong) {
  Rig rig = make_rig();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  h.enable_demotion(rig.store, tiny_segments());
  proptest::DenseRef<std::int64_t> ref;
  stream_and_demote(h, ref, 1);

  std::mt19937_64 rng(8);
  auto b = proptest::random_batch<std::int64_t>(rng, 2048, 900);
  h.update(b);
  ref.apply(b);
  h.flush();

  rig.fp->torn_write_at(rig.fp->writes() + GetParam());
  ASSERT_TRUE(h.demote_now());  // the tear is silent — demote "succeeds"

  std::size_t loud = 0;
  expect_exact_or_loud(h, ref, &loud);
  EXPECT_GT(loud, 0u) << "the torn block was never read";
  EXPECT_GT(rig.store->stats().checksum_failures, 0u);

  // Materializing reads decode every block: loud, not wrong.
  EXPECT_THROW(h.freeze().to_matrix(), gbx::Error);
  EXPECT_THROW((void)h.nvals(), gbx::Error);
}

INSTANTIATE_TEST_SUITE_P(InjectionPoints, TornWriteSweep,
                         ::testing::Values(1u, 2u, 4u));

TEST(ReadFaults, InjectedReadErrorPropagates) {
  Rig rig = make_rig();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  h.enable_demotion(rig.store, tiny_segments());
  proptest::DenseRef<std::int64_t> ref;
  stream_and_demote(h, ref, 1);

  rig.fp->fail_read_at(rig.fp->reads() + 1);
  EXPECT_THROW(h.freeze().to_matrix(), gbx::Error);
  // Transient: the next read succeeds, bit-exactly.
  ASSERT_TRUE(ref.matches(h.freeze()));
}

TEST(ReadFaults, ShortReadCaughtByChecksum) {
  Rig rig = make_rig();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  h.enable_demotion(rig.store, tiny_segments());
  proptest::DenseRef<std::int64_t> ref;
  stream_and_demote(h, ref, 1);

  rig.fp->short_read_at(rig.fp->reads() + 1);
  EXPECT_THROW(h.freeze().to_matrix(), gbx::Error);
  EXPECT_GT(rig.store->stats().checksum_failures, 0u);
  ASSERT_TRUE(ref.matches(h.freeze()));
}

TEST(ReadFaults, AtRestCorruptionCaughtByChecksum) {
  Rig rig = make_rig();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  h.enable_demotion(rig.store, tiny_segments());
  proptest::DenseRef<std::int64_t> ref;
  stream_and_demote(h, ref, 2);

  // Flip one byte of one stored block, bypassing every API.
  auto ids = rig.fp->inner().entries();
  ASSERT_FALSE(ids.empty());
  std::string* payload = rig.mem->payload(ids[ids.size() / 2].first);
  ASSERT_NE(payload, nullptr);
  (*payload)[payload->size() / 3] ^= 0x5a;

  std::size_t loud = 0;
  expect_exact_or_loud(h, ref, &loud);
  EXPECT_GT(loud, 0u) << "the corrupted block was never read";
  EXPECT_GT(rig.store->stats().checksum_failures, 0u);
  EXPECT_THROW(h.freeze().to_matrix(), gbx::Error);
}

// A fault during compaction's rewrite leaves the old (good) image
// published: reads keep working bit-exactly.
TEST(CompactionFaults, FailedCompactionKeepsOldImage) {
  Rig rig = make_rig();
  HierMatrix<std::int64_t> h(2048, 2048, CutPolicy({16}));
  DemotionConfig cfg = tiny_segments();
  cfg.max_runs = 100;  // no auto-compaction; we trigger it by hand
  h.enable_demotion(rig.store, cfg);
  proptest::DenseRef<std::int64_t> ref;
  stream_and_demote(h, ref, 3);
  const auto runs_before = h.tier().num_runs();
  ASSERT_GT(runs_before, 1u);

  // Compaction reads every run (fine), then writes the merged run: die
  // on its first write.
  rig.fp->fail_write_at(rig.fp->writes() + 1);
  auto& tier = const_cast<hier::DemotedTier<std::int64_t>&>(h.tier());
  EXPECT_THROW(tier.compact(), gbx::Error);
  EXPECT_EQ(h.tier().num_runs(), runs_before);
  ASSERT_TRUE(ref.matches(h.freeze()));

  // And with the fault cleared, compaction completes.
  tier.compact();
  EXPECT_EQ(h.tier().num_runs(), 1u);
  ASSERT_TRUE(ref.matches(h.freeze()));
}

// ---------------------------------------------------------------------------
// FileBackend durability: torn tails truncate away on reopen; mid-file
// corruption truncates from the damage point; surviving blocks stay
// readable, lost ones fail loudly.
// ---------------------------------------------------------------------------

struct TempFile {
  std::string path;
  // pid-unique: the seed reruns of this suite may run concurrently.
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + std::to_string(::getpid()) + "_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(FileBackendFaults, TornTailTruncatedOnReopen) {
  TempFile tf("hhgbx_faults_torn.bin");
  std::string p1(500, 'a'), p2(600, 'b'), p3(700, 'c');
  {
    store::FileBackend fb(tf.path);
    fb.write(1, p1.data(), p1.size());
    fb.write(2, p2.data(), p2.size());
    fb.write(3, p3.data(), p3.size());
  }
  // Crash mid-append of block 3: chop into its frame.
  const auto full = std::filesystem::file_size(tf.path);
  std::filesystem::resize_file(tf.path, full - 300);

  store::FileBackend fb(tf.path);
  std::string out;
  EXPECT_TRUE(fb.read(1, out));
  EXPECT_EQ(out, p1);
  EXPECT_TRUE(fb.read(2, out));
  EXPECT_EQ(out, p2);
  EXPECT_FALSE(fb.read(3, out));  // reverted to "unknown", not wrong bytes
  EXPECT_EQ(fb.entries().size(), 2u);
  // The torn bytes are physically gone: appends go to the good end.
  EXPECT_EQ(std::filesystem::file_size(tf.path), fb.file_bytes());
}

TEST(FileBackendFaults, MidFileCorruptionTruncatesFromDamage) {
  TempFile tf("hhgbx_faults_corrupt.bin");
  std::string p1(500, 'a'), p2(600, 'b'), p3(700, 'c');
  std::uint64_t frame1_end = 0;
  {
    store::FileBackend fb(tf.path);
    fb.write(1, p1.data(), p1.size());
    frame1_end = fb.file_bytes();
    fb.write(2, p2.data(), p2.size());
    fb.write(3, p3.data(), p3.size());
  }
  // Flip a byte inside block 2's payload.
  {
    std::fstream f(tf.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(frame1_end + 3 * 8 + 100));
    char c = 'X';
    f.write(&c, 1);
  }
  store::FileBackend fb(tf.path);
  std::string out;
  EXPECT_TRUE(fb.read(1, out));  // before the damage: intact
  EXPECT_EQ(out, p1);
  EXPECT_FALSE(fb.read(2, out));  // damage point: truncated away
  EXPECT_FALSE(fb.read(3, out));  // after the damage: unrecoverable, loud
  EXPECT_EQ(std::filesystem::file_size(tf.path), frame1_end);
}

TEST(FileBackendFaults, StoreOverReopenedFileFailsLoudOnLostBlocks) {
  TempFile tf("hhgbx_faults_store.bin");
  store::BlockId id1 = 0, id3 = 0;
  std::uint64_t keep_bytes = 0;
  {
    auto st = store::make_file_block_store(tf.path);
    const std::string p1(500, 'a'), p2(600, 'b'), p3(700, 'c');
    id1 = st->allocate();
    st->put(id1, p1);
    const auto id2 = st->allocate();
    st->put(id2, p2);
    keep_bytes = static_cast<store::FileBackend&>(st->backend()).file_bytes();
    id3 = st->allocate();
    st->put(id3, p3);
  }
  std::filesystem::resize_file(tf.path, keep_bytes + 10);  // tear block 3

  store::BlockStoreConfig cfg;
  cfg.cache_budget_bytes = 0;
  auto st = store::make_file_block_store(tf.path, cfg);
  EXPECT_EQ(*st->get(id1), std::string(500, 'a'));
  EXPECT_FALSE(st->contains(id3));
  EXPECT_THROW(st->get(id3), gbx::Error);  // unknown id: loud
  // The torn block's id was never durable, so the reopened store may
  // recycle it — but never an id of a surviving block.
  const auto fresh = st->allocate();
  EXPECT_GE(fresh, id3);
  st->put(fresh, "replacement");
  EXPECT_EQ(*st->get(fresh), "replacement");
  EXPECT_EQ(*st->get(id1), std::string(500, 'a'));
}

// A live backend verifies every frame it reads, not only the ones a
// reopen scanned: the file can change under an open FileBackend.

void overwrite(const std::string& path, std::uint64_t at,
               const std::string& bytes) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_at(const std::string& path, std::uint64_t at,
                    std::size_t n) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(at));
  std::string out(n, '\0');
  f.read(out.data(), static_cast<std::streamsize>(n));
  return out;
}

TEST(FileBackendFaults, LiveReadRejectsEveryByteFlip) {
  TempFile tf("hhgbx_faults_live_flip.bin");
  const std::string p1(100, 'a'), p2(40, 'b');
  store::FileBackend fb(tf.path);
  fb.write(1, p1.data(), p1.size());
  const std::uint64_t at = fb.file_bytes();
  fb.write(2, p2.data(), p2.size());
  const std::size_t frame = fb.file_bytes() - at;
  ASSERT_EQ(frame, store::frame_bytes(p2.size()));
  std::string out;
  for (std::size_t i = 0; i < frame; ++i) {
    const std::string good = read_at(tf.path, at + i, 1);
    const char flipped = static_cast<char>(good[0] ^ 0x5A);
    overwrite(tf.path, at + i, std::string(1, flipped));
    EXPECT_THROW(fb.read(2, out), gbx::Error) << "byte " << i;
    overwrite(tf.path, at + i, good);
  }
  ASSERT_TRUE(fb.read(2, out));
  EXPECT_EQ(out, p2);
  ASSERT_TRUE(fb.read(1, out));
  EXPECT_EQ(out, p1);
}

TEST(FileBackendFaults, LiveReadRejectsAnotherBlocksFrame) {
  // Two equal-size frames swapped on disk each pass magic, size and
  // checksum: only the id check tells them apart.
  TempFile tf("hhgbx_faults_live_swap.bin");
  const std::string pa(64, 'a'), pb(64, 'b');
  store::FileBackend fb(tf.path);
  fb.write(1, pa.data(), pa.size());
  const std::uint64_t b_at = fb.file_bytes();
  fb.write(2, pb.data(), pb.size());
  const std::string fa = read_at(tf.path, 0, b_at);
  const std::string fb_bytes = read_at(tf.path, b_at, b_at);
  ASSERT_EQ(fa.size(), fb_bytes.size());
  overwrite(tf.path, 0, fb_bytes);
  overwrite(tf.path, b_at, fa);
  std::string out;
  EXPECT_THROW(fb.read(1, out), gbx::Error);
  EXPECT_THROW(fb.read(2, out), gbx::Error);
}

}  // namespace
