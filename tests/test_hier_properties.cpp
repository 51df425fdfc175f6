// Property tests for the central claim of the paper's Section II: the
// hierarchical cascade is *exactly* equivalent to direct accumulation,
// for any stream, any cut schedule, and any number of levels, because
// GraphBLAS addition is a commutative monoid ("the strong mathematical
// properties of the GraphBLAS allow a hierarchical implementation ...
// via simple addition").
//
// Seeds are pinned (reproducible by default) and perturbed by the
// HHGBX_SEED environment variable, under which CTest re-runs this whole
// suite several times; failures always print the effective seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gen/gen.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"
#include "store/block_store.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;
using gbx::Tuples;
using hier::CutPolicy;
using hier::HierMatrix;
using proptest::ThreadsGuard;

struct Config {
  std::size_t levels;
  std::size_t base;
  std::size_t ratio;
  std::size_t batches;
  std::size_t batch_size;
  int scale;
  std::uint64_t seed;
};

class HierEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(HierEquivalence, SnapshotEqualsDirectAccumulation) {
  const Config c = GetParam();
  HHGBX_PROP_SEED(seed, c.seed);
  gen::PowerLawParams pp;
  pp.scale = c.scale;
  pp.dim = gbx::kIPv4Dim;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);

  HierMatrix<double> h(pp.dim, pp.dim,
                       CutPolicy::geometric(c.levels, c.base, c.ratio));
  Matrix<double> direct(pp.dim, pp.dim);

  for (std::size_t s = 0; s < c.batches; ++s) {
    auto batch = g.batch<double>(c.batch_size);
    h.update(batch);
    direct.append(batch);
  }
  direct.materialize();

  auto snap = h.snapshot();
  EXPECT_TRUE(gbx::equal(snap, direct))
      << "hierarchical sum diverged from direct accumulation";
  EXPECT_TRUE(snap.validate());
}

TEST_P(HierEquivalence, CollapseEqualsSnapshot) {
  const Config c = GetParam();
  HHGBX_PROP_SEED(seed, c.seed + 77);
  gen::PowerLawParams pp;
  pp.scale = c.scale;
  pp.dim = gbx::kIPv4Dim;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);

  HierMatrix<double> h(pp.dim, pp.dim,
                       CutPolicy::geometric(c.levels, c.base, c.ratio));
  for (std::size_t s = 0; s < c.batches; ++s)
    h.update(g.batch<double>(c.batch_size));

  auto snap = h.snapshot();
  const auto& collapsed = h.collapse();
  EXPECT_TRUE(gbx::equal(snap, collapsed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierEquivalence,
    ::testing::Values(
        // levels base ratio batches batch_size scale seed
        Config{2, 64, 4, 10, 500, 10, 1},       // minimal hierarchy
        Config{3, 128, 8, 20, 1000, 12, 2},     // typical
        Config{4, 256, 8, 20, 2000, 14, 3},     // deep
        Config{5, 32, 2, 30, 300, 10, 4},       // slow growth, many folds
        Config{6, 16, 2, 40, 100, 8, 5},        // tiny cuts, dup-heavy
        Config{3, 100000, 10, 10, 1000, 12, 6}, // cuts never hit (no folds)
        Config{4, 64, 16, 25, 1500, 16, 7}));   // wide fanout

// Cross-monoid property: the equivalence holds for any commutative
// monoid, not just plus.
template <class M>
void check_monoid_equivalence(std::uint64_t pinned) {
  HHGBX_PROP_SEED(seed, pinned);
  using T = typename M::value_type;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> coord(0, 255);
  std::uniform_int_distribution<int> val(-5, 5);

  HierMatrix<T, M> h(256, 256, CutPolicy({7, 31}));
  std::map<std::pair<Index, Index>, T> model;
  for (int k = 0; k < 5000; ++k) {
    const Index i = coord(rng), j = coord(rng);
    const T v = static_cast<T>(val(rng));
    h.update(i, j, v);
    auto [it, fresh] = model.try_emplace({i, j}, v);
    if (!fresh) it->second = M::apply(it->second, v);
  }
  auto snap = h.snapshot();
  ASSERT_EQ(snap.nvals(), model.size());
  for (const auto& [k, v] : model)
    EXPECT_EQ(snap.extract_element(k.first, k.second).value(), v);
}

TEST(HierMonoids, PlusInt64) {
  check_monoid_equivalence<gbx::PlusMonoid<std::int64_t>>(11);
}
TEST(HierMonoids, MinInt64) {
  check_monoid_equivalence<gbx::MinMonoid<std::int64_t>>(12);
}
TEST(HierMonoids, MaxInt64) {
  check_monoid_equivalence<gbx::MaxMonoid<std::int64_t>>(13);
}
TEST(HierMonoids, LorInt) {
  check_monoid_equivalence<gbx::LorMonoid<int>>(14);
}

// Interleaving property: queries interleaved with updates never perturb
// the final value (snapshot is pure).
TEST(HierInterleaving, QueriesDoNotPerturb) {
  HHGBX_PROP_SEED(seed, 99);
  gen::PowerLawParams pp;
  pp.scale = 12;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);

  HierMatrix<double> h1(pp.dim, pp.dim, CutPolicy::geometric(4, 128, 8));
  HierMatrix<double> h2(pp.dim, pp.dim, CutPolicy::geometric(4, 128, 8));
  gen::PowerLawParams pp2 = pp;
  gen::PowerLawGenerator g2(pp2);

  for (int s = 0; s < 15; ++s) {
    auto b1 = g.batch<double>(700);
    auto b2 = g2.batch<double>(700);
    h1.update(b1);
    h2.update(b2);
    if (s % 3 == 0) (void)h2.snapshot();  // extra queries on h2 only
    if (s % 5 == 0) h2.flush();           // and forced flushes
  }
  EXPECT_TRUE(gbx::equal(h1.snapshot(), h2.snapshot()));
}

// Fold-order property: explicit vs geometric cut schedules with the same
// stream agree (fold timing must be unobservable in the result).
TEST(HierFoldOrder, DifferentCutsSameResult) {
  HHGBX_PROP_SEED(seed, 123);
  gen::PowerLawParams pp;
  pp.scale = 13;
  pp.seed = seed;

  std::vector<CutPolicy> policies{
      CutPolicy({10}),
      CutPolicy({100, 10000}),
      CutPolicy::geometric(5, 50, 4),
      CutPolicy({1, 2, 3, 4, 5}),  // pathological: cascade nearly every update
  };

  std::vector<Matrix<double>> results;
  for (const auto& pol : policies) {
    gen::PowerLawGenerator g(pp);  // identical stream each time
    HierMatrix<double> h(pp.dim, pp.dim, pol);
    for (int s = 0; s < 8; ++s) h.update(g.batch<double>(400));
    results.push_back(h.snapshot());
  }
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_TRUE(gbx::equal(results[0], results[i]))
        << "cut policy " << i << " changed the accumulated value";
}

// Memory property: with geometric cuts, lower levels stay bounded while
// the stream grows — the "fast memory stays small" guarantee of Fig. 1.
TEST(HierMemory, LowLevelsBounded) {
  HHGBX_PROP_SEED(seed, 5);
  gen::PowerLawParams pp;
  pp.scale = 16;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);
  const std::size_t c1 = 1000, ratio = 10;
  HierMatrix<double> h(pp.dim, pp.dim, CutPolicy::geometric(4, c1, ratio));
  for (int s = 0; s < 50; ++s) {
    h.update(g.batch<double>(2000));
    // After each batched update+cascade, level 0 holds at most c1 worth
    // of entries plus the batch that just landed (cascade triggers only
    // when the bound exceeds the cut).
    EXPECT_LE(h.level_entries(0), c1 + 2000);
    EXPECT_LE(h.level_entries(1), c1 * ratio + c1 + 2000);
  }
  EXPECT_GT(h.stats().level[0].folds, 5u);
}

// collapse() ends streaming: the collapsed top is one block, with no
// recycled spare beside it, and every emptied level released. The
// bottom is that block, as slices of at most kChunkEntries entries.
TEST(HierMemory, CollapseKeepsOneBlock) {
  HHGBX_PROP_SEED(seed, 5002);
  std::mt19937_64 rng(seed);
  const Index dim = Index{1} << 40;
  HierMatrix<double> h(dim, dim, CutPolicy::geometric(3, 1024, 8));
  for (int b = 0; b < 500; ++b)
    h.update(proptest::random_batch<double>(rng, dim, 512));
  ASSERT_GT(h.num_levels(), 3u) << "the stream must grow the matrix";
  const auto want = h.snapshot();
  const auto& top = h.collapse();
  EXPECT_TRUE(gbx::equal(top, want));
  // The bottom is the one block, shared with the returned matrix; every
  // level above it holds an empty block and an empty spare.
  const auto& chunks = h.chunks(h.num_levels() - 1).slices();
  ASSERT_GT(chunks.size(), 1u);
  for (const auto& c : chunks) {
    EXPECT_EQ(c.view.shared_storage(), top.shared_storage());
    EXPECT_LE(c.nvals(), HierMatrix<double>::kChunkEntries);
  }
  EXPECT_EQ(h.chunks(h.num_levels() - 1).nvals(), top.nvals());
  const std::size_t empty = gbx::Dcsr<double>().memory_bytes();
  EXPECT_EQ(h.memory_bytes(),
            top.storage().memory_bytes() + 2 * (h.num_levels() - 1) * empty);
}

// Depth grows with the state: under cuts {4, 16} a level with 4x the
// last cut goes in above the bottom each time the bottom passes it. The
// grown matrix equals the dense replay after every update, folds each
// cut level at most once per cut's worth of appended entries, and
// checkpoints and restores with its grown cuts.
TEST(HierGrowth, GrowthIsExactAndPersists) {
  HHGBX_PROP_SEED(seed, 41001);
  std::mt19937_64 rng(seed);
  const Index dim = 64;
  HierMatrix<double> h(dim, dim, CutPolicy({4, 16}));
  proptest::DenseRef<double> ref;

  auto expect_exact = [&](const HierMatrix<double>& m) {
    const auto snap = m.freeze();
    ASSERT_TRUE(ref.matches(snap));
    ASSERT_EQ(m.nvals(), ref.nvals());
    for (Index i = 0; i < dim; ++i)
      for (Index j = 0; j < dim; ++j) {
        const auto it = ref.cells().find({i, j});
        const auto got = snap.extract_element(i, j);
        ASSERT_EQ(got.has_value(), it != ref.cells().end()) << i << "," << j;
        if (got) {
          ASSERT_EQ(*got, it->second) << i << "," << j;
        }
      }
  };
  auto stream = [&](HierMatrix<double>& m, std::size_t k) {
    const auto batch = proptest::random_batch<double>(rng, dim, 1 + k % 24);
    m.update(batch);
    ref.apply(batch);
  };

  for (std::size_t k = 0; h.num_levels() < 6; ++k) {
    ASSERT_LT(k, 20000u) << "the matrix never grew to 6 levels";
    stream(h, k);
    ASSERT_NO_FATAL_FAILURE(expect_exact(h));
    const auto& cuts = h.cut_policy().cuts();
    ASSERT_EQ(cuts.size() + 1, h.num_levels());
    ASSERT_EQ(h.stats().level.size(), h.num_levels());
    for (std::size_t l = 0; l < cuts.size(); ++l) {
      ASSERT_EQ(cuts[l], std::size_t{4} << (2 * l));
      ASSERT_LE(h.stats().level[l].folds,
                h.stats().entries_appended / cuts[l]);
    }
  }

  std::stringstream ckpt;
  hier::checkpoint(ckpt, h);
  auto restored = hier::restore<double>(ckpt);
  EXPECT_EQ(restored.cut_policy().cuts(), h.cut_policy().cuts());
  ASSERT_NO_FATAL_FAILURE(expect_exact(restored));
  for (std::size_t k = 0; k < 300; ++k) {
    stream(restored, k);
    ASSERT_NO_FATAL_FAILURE(expect_exact(restored));
  }
}

// Each level's entries_written counts the output entries of every fold
// into it, on a cascade whose fold outputs are known: under cuts {2, 4}
// every 3-entry batch passes level 1's cut. A fold into level 2 (a
// block) writes its new block, whole; the first fold into the chunked
// bottom takes level 2's block as it is, writing nothing; the next one
// merges into the bottom's one chunk and writes it. The bottom then
// passes 2 x 4 and a block level with cut 8 goes in above it, with
// counts of its own.
TEST(HierGrowth, EntriesWrittenCountsEveryFoldsOutput) {
  HierMatrix<double> h(16, 16, CutPolicy({2, 4}));
  auto update = [&](std::initializer_list<std::pair<Index, Index>> coords) {
    Tuples<double> b;
    for (const auto& [i, j] : coords) b.push_back(i, j, 1.0);
    h.update(b);
  };
  auto written = [&] {
    std::vector<std::uint64_t> w;
    for (const auto& l : h.stats().level) w.push_back(l.entries_written);
    return w;
  };
  using W = std::vector<std::uint64_t>;
  update({{0, 0}, {0, 1}, {1, 1}});  // into empty level 2: 3 built
  EXPECT_EQ(written(), (W{0, 3, 0}));
  update({{0, 0}, {2, 2}, {3, 3}});  // level 2 is 5; the bottom takes it
  EXPECT_EQ(written(), (W{0, 8, 0}));
  EXPECT_EQ(h.level_entries(2), 5u);
  update({{1, 1}, {4, 4}, {5, 5}});  // into emptied level 2: 3 built
  EXPECT_EQ(written(), (W{0, 11, 0}));
  update({{6, 6}, {7, 7}, {4, 4}});  // level 2 is 5; the bottom becomes 9
  ASSERT_EQ(h.num_levels(), 4u) << "the bottom passed 8: a level goes in";
  EXPECT_EQ(written(), (W{0, 16, 0, 9}));
  EXPECT_EQ(h.level_entries(3), 9u);
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    EXPECT_EQ(h.stats().level[i].folds, i == 0 ? 4u : i == 1 ? 2u : 0u);
}

// The grown setup of the chunked-merge tests: under cuts {512, 8192}
// the bottom passes 16 x 8192 and a level with cut 131072 goes in above
// it, so every merge into the bottom (a list of chunks of at most
// kChunkEntries entries) merges a level of up to 131072 entries, itself
// a chunk list (its cut is past kChunkEntries).
constexpr Index kGrownDim = Index{1} << 20;
constexpr std::size_t kChunk = HierMatrix<double>::kChunkEntries;
// The most a chunk can take: kChunkEntries entries, each a row of its own.
constexpr std::size_t kChunkBytes =
    kChunk * (2 * sizeof(Index) + sizeof(gbx::Offset) + sizeof(double));

HierMatrix<double> grown_matrix() {
  return HierMatrix<double>(kGrownDim, kGrownDim, CutPolicy({512, 8192}));
}

// The heap a grown matrix paused in a bottom merge holds in its levels:
// the two levels above, the level above the bottom from the cursor on
// and the chunks.
std::size_t held_bytes(const HierMatrix<double>& h) {
  std::size_t held = h.chunks(h.num_levels() - 1).memory_bytes() +
                     h.freeze().part(0).level_slices(2).memory_bytes();
  for (std::size_t i = 0; i < 2; ++i) held += h.level(i).memory_bytes();
  return held;
}

// Stage batches, cascading with a yield() that always pauses, until a
// merge into the bottom is in flight (a merge into a chunked level above
// it pauses too). Returns memory_bytes() before the update that began it.
template <class Batch>
std::size_t pause_a_bottom_merge(HierMatrix<double>& h, Batch&& batch) {
  const std::size_t above = h.num_levels() - 2;
  for (int k = 0; k < 200; ++k) {
    const auto folds = h.stats().level[above].folds;
    const std::size_t start = h.memory_bytes();
    h.stage(batch());
    h.cascade([] { return true; });
    if (h.merging() && h.stats().level[above].folds > folds) return start;
  }
  ADD_FAILURE() << "no bottom merge was paused";
  return 0;
}

// Entry-for-entry comparison of a materialized matrix with the oracle,
// in one ordered pass over both.
::testing::AssertionResult same_entries(
    const Matrix<double>& m, const proptest::DenseRef<double>& ref) {
  if (m.nvals() != ref.nvals())
    return ::testing::AssertionFailure()
           << "nvals " << m.nvals() << " vs oracle " << ref.nvals();
  auto it = ref.cells().begin();
  std::optional<std::pair<Index, Index>> bad;
  m.for_each([&](Index i, Index j, double v) {
    if (!bad && (it->first != std::pair(i, j) || it->second != v))
      bad = std::pair(i, j);
    ++it;
  });
  if (bad)
    return ::testing::AssertionFailure()
           << "entry (" << bad->first << ", " << bad->second << ") differs";
  return ::testing::AssertionSuccess();
}

// A bottom merge that yield() paused stays in flight: stage() and
// freeze() work, cascade() resumes the merge and folds nothing else, a
// copy restarts it, and every call that reshapes the levels finishes it
// first. At every pause of a merge over a bottom of at least 8 chunks
// the image is exact (extract_element, nvals, reduce and to_matrix
// against the dense oracle), diffs empty against the previous pause's
// image, and checkpoints and restores to the oracle. Neither the chunked
// bottom nor the paused level above reads as one block. A merge pauses
// between its waves of `team` pieces: at least ceil(8 / team) - 1 times.
void paused_merge_semantics(int team) {
  ThreadsGuard threads(team);
  HHGBX_PROP_SEED(seed, 41002);
  std::mt19937_64 rng(seed);
  auto h = grown_matrix();
  proptest::DenseRef<double> ref;
  // Rows of a few hundred entries keep the images' row arrays small.
  std::uniform_int_distribution<Index> row(0, 4095), col(0, kGrownDim - 2);
  std::uniform_int_distribution<int> val(-5, 5);
  auto batch = [&] {
    Tuples<double> b;
    for (int k = 0; k < 4096; ++k)
      b.push_back(row(rng), col(rng), static_cast<double>(val(rng)));
    ref.apply(b);
    return b;
  };
  auto pause = [] { return true; };
  while (h.num_levels() < 4 ||
         h.chunks(h.num_levels() - 1).slices().size() < 8) {
    ASSERT_LT(h.stats().updates, 600u) << "the bottom never spanned 8 chunks";
    h.update(batch());
  }
  pause_a_bottom_merge(h, batch);
  ASSERT_TRUE(h.merging());
  ASSERT_EQ(h.num_levels(), 4u);
  EXPECT_THROW((void)h.level(3), gbx::InvalidValue) << "chunked bottom";
  EXPECT_THROW((void)h.level(2), gbx::InvalidValue) << "chunked level above";
  // memory_bytes() counts the levels, the chunks and the pinned level
  // above (and the released chunks: ChunkedMergeHoldsAtMostTwoChunksMore).
  EXPECT_GE(h.memory_bytes(), held_bytes(h));

  std::vector<std::size_t> entries;
  for (std::size_t i = 0; i < h.num_levels(); ++i)
    entries.push_back(h.level_entries(i));
  h.stage(batch());
  EXPECT_FALSE(h.cascade(pause));
  EXPECT_TRUE(h.merging());
  EXPECT_EQ(h.level_entries(0), entries[0] + 4096) << "level 1 folded";
  EXPECT_EQ(h.level_entries(1), entries[1]) << "level 2 moved";
  // The level above counts its rows from the merge's cursor on: the
  // chunks the merge passed left it.
  EXPECT_LE(h.level_entries(2), entries[2]) << "level 3 grew";
  EXPECT_EQ(h.level_entries(2), h.chunks(2).nvals());
  EXPECT_EQ(h.level_entries(2), h.freeze().part(0).level_slices(2).nvals());

  // The oracle as a matrix, built once: nothing is staged while the
  // merge below pauses, so every pause image must equal it.
  Matrix<double> want_now(kGrownDim, kGrownDim);
  for (const auto& [k, v] : ref.cells()) want_now.set_element(k.first, k.second, v);
  ASSERT_TRUE(same_entries(want_now, ref));
  const double want_sum = ref.reduce();
  // Probes: every 251st oracle entry, and coordinates next to them.
  std::vector<std::pair<std::pair<Index, Index>, std::optional<double>>> probes;
  std::size_t n = 0;
  for (const auto& [k, v] : ref.cells()) {
    if (n++ % 251 != 0) continue;
    probes.push_back({k, v});
    const std::pair<Index, Index> near{k.first, k.second + 1};
    const auto it = ref.cells().find(near);
    probes.push_back({near, it == ref.cells().end()
                                ? std::nullopt
                                : std::optional<double>(it->second)});
  }
  auto check_image = [&](const hier::SnapshotSet<double>& snap) {
    ASSERT_EQ(snap.nvals(), ref.nvals());
    ASSERT_EQ(snap.reduce(), want_sum);
    ASSERT_TRUE(gbx::equal(snap.to_matrix(), want_now));
    for (const auto& [k, v] : probes)
      ASSERT_EQ(snap.extract_element(k.first, k.second), v)
          << k.first << "," << k.second;
  };
  std::optional<hier::SnapshotSet<double>> prev;
  std::size_t pauses = 0;
  while (h.merging()) {
    SCOPED_TRACE("pause " + std::to_string(pauses));
    const auto snap = h.freeze();
    ASSERT_NO_FATAL_FAILURE(check_image(snap));
    EXPECT_THROW((void)snap.part(0).level(3), gbx::InvalidValue);
    if (prev) {
      ASSERT_TRUE(hier::snapshot_diff(*prev, snap).empty());
    }
    std::stringstream ckpt;
    hier::checkpoint(ckpt, snap);
    const auto restored = hier::restore<double>(ckpt);
    ASSERT_EQ(restored.num_levels(), 4u);
    ASSERT_TRUE(gbx::equal(restored.snapshot(), want_now));
    prev = snap;
    h.cascade(pause);
    ++pauses;
  }
  EXPECT_GE(pauses, (8u + team - 1) / team - 1)
      << "the merge must pause between its waves";
  ASSERT_NO_FATAL_FAILURE(check_image(h.freeze()));
  EXPECT_TRUE(ref.matches(h.freeze()));

  // A second merge, paused once, for the calls that reshape the levels.
  while (!h.merging()) {
    h.stage(batch());
    h.cascade(pause);
  }
  const auto want = h.snapshot();
  auto store = store::make_mem_block_store();
  auto finishes = [&](const char* name, auto&& call) {
    SCOPED_TRACE(name);
    HierMatrix<double> m = h;
    ASSERT_TRUE(m.merging()) << "a copy restarts the merge";
    call(m);
    EXPECT_FALSE(m.merging());
    EXPECT_TRUE(gbx::equal(m.snapshot(), want));
  };
  finishes("flush", [](auto& m) { m.flush(); });
  finishes("collapse", [](auto& m) { m.collapse(); });
  finishes("demote_now", [&](auto& m) {
    m.enable_demotion(store.get());
    m.demote_now();
  });
  finishes("enforce_residency", [&](auto& m) {
    m.enable_demotion(store.get());
    m.enforce_residency(0);
  });
  finishes("restore_level", [](auto& m) { m.restore_level(0, m.level(0)); });
  finishes("restore_stats", [](auto& m) { m.restore_stats(m.stats()); });
  finishes("cascade", [](auto& m) { m.cascade(); });
}

TEST(HierGrowth, PausedMergeSemantics) { paused_merge_semantics(1); }
TEST(HierGrowth, PausedMergeSemanticsInWaves) { paused_merge_semantics(4); }

// The wave merge is gbx::merge_blocks_into over the joined bottom, bit
// for bit: a grown matrix's bottom (chunks written by earlier merges) is
// merged with a block put in level 1 by restore_level (rows shared with
// the bottom, fresh ones, and rows past the bottom's last row; over
// every cut, it is passed down as is),
// the merge pausing after every wave. Every freeze between waves is the
// sum of its prefix, the value the merge started from (nothing is staged
// meanwhile), and a snapshot taken before the merge pins the old chunks:
// none is recycled into a new chunk, and its blocks and values stay as
// they were across this merge and the next ones.
template <class T, class M>
void wave_merge_matches_block_merge(int team, std::uint64_t seed) {
  ThreadsGuard threads(team);
  SCOPED_TRACE("team " + std::to_string(team));
  std::mt19937_64 rng(seed);
  auto value = [&rng] {
    if constexpr (std::is_floating_point_v<T>)
      return std::uniform_real_distribution<T>(-1, 1)(rng);
    else
      return std::uniform_int_distribution<T>(-1000, 1000)(rng);
  };
  HierMatrix<T, M> h(kGrownDim, kGrownDim, CutPolicy({512, 8192}));
  std::uniform_int_distribution<Index> row(0, 8191), col(0, kGrownDim - 1);
  auto batch = [&](int n) {
    Tuples<T> b;
    for (int k = 0; k < n; ++k) b.push_back(row(rng), col(rng), value());
    return b;
  };
  while (h.num_levels() < 4 || h.chunks(h.num_levels() - 1).slices().size() < 6)
    h.update(batch(4096));
  h.flush();
  auto pause = [] { return true; };

  std::vector<std::pair<std::shared_ptr<const gbx::Dcsr<T>>, gbx::Dcsr<T>>> old;
  std::optional<hier::SnapshotSet<T, M>> pinned;
  Matrix<T, M> pinned_value(kGrownDim, kGrownDim);
  for (int merge = 0; merge < 3; ++merge) {
    SCOPED_TRACE("merge " + std::to_string(merge));
    // The level above, over its cut (so the cascade merges it): about
    // 40000 of its entries at the bottom's coordinates.
    const auto joined = h.chunks(h.num_levels() - 1).joined();
    Tuples<T> t = batch(100000);
    std::uniform_int_distribution<std::size_t> pick(0, joined->nnz() - 1);
    joined->for_each([&](Index i, Index j, const T&) {
      if (pick(rng) < 40000) t.push_back(i, j, value());
    });
    // And two chunks' worth of rows past the bottom's last row.
    std::uniform_int_distribution<Index> past(0, (Index{1} << 14) - 1);
    for (int k = 0; k < 140000; ++k)
      t.push_back((Index(merge) + 1) * (Index{1} << 16) + past(rng), col(rng),
                  value());
    Matrix<T, M> upper(kGrownDim, kGrownDim);
    upper.append(t);
    upper.materialize();
    gbx::Dcsr<T> want;
    gbx::merge_blocks_into<typename M::op_type>(*joined, upper.storage(), want);
    const auto sum = Matrix<T, M>::adopt(kGrownDim, kGrownDim, want);
    if (merge == 0) {  // pin the old chunks
      pinned = h.freeze();
      pinned_value = pinned->to_matrix();
      for (const auto& c : h.chunks(h.num_levels() - 1).slices())
        old.emplace_back(c.view.shared_storage(), c.block());
    }

    h.restore_level(0, upper);
    std::size_t waves = 1;
    for (; !h.cascade(pause); ++waves) {
      ASSERT_TRUE(h.merging());
      ASSERT_TRUE(gbx::equal(h.snapshot(), sum)) << "after wave " << waves;
    }
    EXPECT_GE(waves, (h.chunks(h.num_levels() - 1).slices().size() - 1) / team)
        << "the merge did not pause between its waves";
    ASSERT_TRUE(*h.chunks(h.num_levels() - 1).joined() == want)
        << "the bottom differs";
    for (const auto& c : h.chunks(h.num_levels() - 1).slices()) {
      EXPECT_LE(c.nvals(), (HierMatrix<T, M>::kChunkEntries));
      for (const auto& [blk, copy] : old)
        EXPECT_NE(&c.block(), blk.get()) << "a pinned chunk was recycled";
    }
    for (const auto& [blk, copy] : old)
      ASSERT_TRUE(*blk == copy) << "a pinned chunk changed";
    ASSERT_TRUE(gbx::equal(pinned->to_matrix(), pinned_value));
  }
}

TEST(HierGrowth, WaveMergeMatchesBlockMerge) {
  HHGBX_PROP_SEED(seed, 46001);
  for (const int team : {1, 4}) {
    wave_merge_matches_block_merge<double, gbx::PlusMonoid<double>>(team, seed);
    wave_merge_matches_block_merge<std::int64_t, gbx::MinMonoid<std::int64_t>>(
        team, seed + 1);
    wave_merge_matches_block_merge<std::int64_t, gbx::MaxMonoid<std::int64_t>>(
        team, seed + 2);
  }
}

// The wave merge at every depth is gbx::merge_blocks_into over the
// joined levels, bit for bit. Under cuts {512, 8192, 262144} level 2 is
// a chunk list above the chunked bottom (both restored as chunks). Each
// round puts a block over every cut in level 1 (restore_level(0, ...)),
// twice: first one that level 2 takes in and stays under its cut (a
// merge into a chunked middle level, from a block), then one that takes
// level 2 past its cut, so level 2's chunks, written by that merge,
// merge into the bottom (a merge whose upper level is a chunk list). The
// blocks hold rows shared with level 2, fresh rows and rows past its
// last row. Every freeze between waves is the prefix sum, and a
// snapshot taken before the first round pins both levels' chunks: each
// merge writes every chunk of its level anew, none into a pinned
// block, and the pinned blocks and values stay as they were.
template <class T, class M>
void wave_merges_at_every_depth(int team, std::uint64_t seed) {
  ThreadsGuard threads(team);
  SCOPED_TRACE("team " + std::to_string(team));
  std::mt19937_64 rng(seed);
  auto value = [&rng] {
    if constexpr (std::is_floating_point_v<T>)
      return std::uniform_real_distribution<T>(-1, 1)(rng);
    else
      return std::uniform_int_distribution<T>(-1000, 1000)(rng);
  };
  using H = HierMatrix<T, M>;
  using op = typename M::op_type;
  H h(kGrownDim, kGrownDim, CutPolicy({512, 8192, 262144}));
  ASSERT_THROW((void)h.level(2), gbx::InvalidValue) << "level 2 is one block";
  std::uniform_int_distribution<Index> row(0, 8191), col(0, kGrownDim - 1);
  auto block = [&](Tuples<T> t, int fresh) {
    for (int k = 0; k < fresh; ++k) t.push_back(row(rng), col(rng), value());
    Matrix<T, M> m(kGrownDim, kGrownDim);
    m.append(t);
    m.materialize();
    return m;
  };
  h.restore_level(2, block({}, 150000));
  h.restore_level(3, block({}, 300000));
  ASSERT_GE(h.chunks(2).slices().size(), 3u);
  auto pause = [] { return true; };

  std::vector<std::pair<std::shared_ptr<const gbx::Dcsr<T>>, gbx::Dcsr<T>>> old;
  const auto pinned = h.freeze();
  const auto pinned_value = pinned.to_matrix();
  for (const auto* l : {&h.chunks(2), &h.chunks(h.num_levels() - 1)})
    for (const auto& c : l->slices())
      old.emplace_back(c.view.shared_storage(), c.block());
  auto not_pinned = [&](const hier::Level<T, M>& l) {
    for (const auto& c : l.slices())
      for (const auto& [blk, copy] : old)
        if (&c.block() == blk.get())
          return ::testing::AssertionFailure() << "a chunk is a pinned block";
    return ::testing::AssertionSuccess();
  };

  for (int round = 0; round < 2; ++round) {
    for (const bool past : {false, true}) {
      SCOPED_TRACE("round " + std::to_string(round) +
                   (past ? ", past level 2's cut" : ", into level 2"));
      const auto l2 = h.chunks(2).joined();
      const auto l3 = h.chunks(h.num_levels() - 1).joined();
      // Rows shared with level 2, fresh rows, and rows past level 2's.
      Tuples<T> t;
      if (l2->nnz() > 0) {
        std::uniform_int_distribution<std::size_t> pick(0, l2->nnz() - 1);
        l2->for_each([&](Index i, Index j, const T&) {
          if (pick(rng) < 10000) t.push_back(i, j, value());
        });
      }
      std::uniform_int_distribution<Index> beyond(0, (Index{1} << 12) - 1);
      for (int k = 0; k < 20000; ++k)
        t.push_back((Index(round) + 1) * (Index{1} << 16) + beyond(rng),
                    col(rng), value());
      const auto upper = block(
          std::move(t), past ? 300000 - static_cast<int>(l2->nnz()) : 30000);
      gbx::Dcsr<T> want2, want3;
      gbx::merge_blocks_into<op>(*l2, upper.storage(), want2);
      ASSERT_EQ(want2.nnz() > 262144, past);
      if (past) gbx::merge_blocks_into<op>(*l3, want2, want3);
      gbx::Dcsr<T> want_sum;
      gbx::merge_blocks_into<op>(*l3, want2, want_sum);
      const auto sum = Matrix<T, M>::adopt(kGrownDim, kGrownDim, want_sum);

      // The entries each level's merge writes: its chunks that are new
      // (told apart by their blocks in the first round, where the pinned
      // snapshot keeps every old block from being recycled).
      std::vector<std::vector<const gbx::Dcsr<T>*>> had(2);
      std::vector<std::uint64_t> written(2);
      for (std::size_t l = 2; l < 4; ++l) {
        for (const auto& c : h.chunks(l).slices()) had[l - 2].push_back(&c.block());
        written[l - 2] = h.stats().level[l].entries_written;
      }
      auto new_entries = [&](std::size_t l) {
        std::uint64_t n = 0;
        for (const auto& c : h.chunks(l).slices())
          if (std::find(had[l - 2].begin(), had[l - 2].end(), &c.block()) ==
              had[l - 2].end())
            n += c.nvals();
        return n;
      };
      h.restore_level(0, upper);
      std::size_t waves = 1;
      for (; !h.cascade(pause); ++waves) {
        ASSERT_TRUE(h.merging());
        ASSERT_TRUE(gbx::equal(h.snapshot(), sum)) << "after wave " << waves;
      }
      if (!past) {
        ASSERT_TRUE(*h.chunks(2).joined() == want2) << "level 2 differs";
        ASSERT_TRUE(*h.chunks(h.num_levels() - 1).joined() == *l3)
            << "the bottom moved";
        EXPECT_EQ(h.stats().level[3].entries_written, written[1]);
        // A level that was empty takes the block as it is, writing nothing.
        if (round == 0 || l2->nnz() == 0) {
          EXPECT_EQ(h.stats().level[2].entries_written,
                    written[0] + (l2->nnz() > 0 ? new_entries(2) : 0));
        }
        if (l2->nnz() > 0) {
          // Level 2's cut is under kParallelMergeCutoff: one piece a
          // wave, at any team size.
          EXPECT_GE(waves, h.chunks(2).slices().size() - 1)
              << "the merge did not pause between its waves";
          EXPECT_TRUE(not_pinned(h.chunks(2)));
        }
      } else {
        EXPECT_TRUE(h.chunks(2).slices().empty());
        ASSERT_TRUE(*h.chunks(h.num_levels() - 1).joined() == want3)
            << "the bottom differs";
        if (round == 0) {
          EXPECT_EQ(h.stats().level[3].entries_written,
                    written[1] + new_entries(3));
          EXPECT_TRUE(not_pinned(h.chunks(h.num_levels() - 1)));
        }
      }
      for (const auto* l : {&h.chunks(2), &h.chunks(h.num_levels() - 1)})
        for (const auto& c : l->slices())
          EXPECT_LE(c.nvals(), H::kChunkEntries);
      for (const auto& [blk, copy] : old)
        ASSERT_TRUE(*blk == copy) << "a pinned chunk changed";
      ASSERT_TRUE(gbx::equal(pinned.to_matrix(), pinned_value));
    }
  }
}

TEST(HierGrowth, WaveMergeMatchesBlockMergeAtEveryDepth) {
  HHGBX_PROP_SEED(seed, 47001);
  for (const int team : {1, 4}) {
    wave_merges_at_every_depth<double, gbx::PlusMonoid<double>>(team, seed);
    wave_merges_at_every_depth<std::int64_t, gbx::MinMonoid<std::int64_t>>(
        team, seed + 1);
    wave_merges_at_every_depth<std::int64_t, gbx::MaxMonoid<std::int64_t>>(
        team, seed + 2);
  }
}

// Grown bottom merges whose level above holds rows that all lie above
// the bottom's (each merge's batches draw rows from a band above the
// last one's): every old chunk keeps its place untouched, the last one
// included, and the level above's rows past it are cut into pieces of
// their own, each filling one chunk, at team sizes 1 and 4.
void merges_above_the_bottom_rows(int team) {
  ThreadsGuard threads(team);
  SCOPED_TRACE("team " + std::to_string(team));
  HHGBX_PROP_SEED(seed, 41004);
  std::mt19937_64 rng(seed);
  auto h = grown_matrix();
  proptest::DenseRef<double> ref;
  constexpr Index kBand = Index{1} << 15;
  auto merges = [&] { return h.num_levels() < 4 ? 0 : h.stats().level[2].folds; };
  std::uniform_int_distribution<Index> row(0, kBand - 1), col(0, kGrownDim - 1);
  while (merges() < 5) {
    Tuples<double> b;
    for (int k = 0; k < 4096; ++k)
      b.push_back(merges() * kBand + row(rng), col(rng), 1.0);
    ref.apply(b);
    const auto before = merges();
    // The first merge rewrites the starting-depth bottom, in its band.
    std::vector<const gbx::Dcsr<double>*> untouched;
    if (before > 0)
      for (const auto& c : h.chunks(h.num_levels() - 1).slices())
        untouched.push_back(&c.block());
    h.update(b);
    if (merges() == before) continue;
    ASSERT_TRUE(same_entries(h.snapshot(), ref)) << "merge " << merges();
    const auto& cs = h.chunks(h.num_levels() - 1).slices();
    ASSERT_GE(cs.size(), untouched.size());
    for (std::size_t i = 0; i < untouched.size(); ++i)
      EXPECT_EQ(&cs[i].block(), untouched[i])
          << "old chunk " << i << " was rewritten, merge " << merges();
    for (std::size_t i = untouched.size(); i + 1 < cs.size(); ++i)
      EXPECT_GE(cs[i].nvals(), HierMatrix<double>::kChunkEntries * 9 / 10)
          << "new chunk " << i << " is not full, merge " << merges();
  }
}

TEST(HierGrowth, MergesAboveTheBottomRows) {
  merges_above_the_bottom_rows(1);
  merges_above_the_bottom_rows(4);
}

// A bottom merge frees each wave's old chunks once their rows are
// rewritten and writes the next wave into the freed buffers: at every
// pause of a merge over a bottom of at least 8 chunks, memory_bytes()
// stays within one wave of chunks (the team size, plus one) and the
// entries the merge adds (the level above's) of its value before the
// merge started (which counts the buffers the last merge kept), instead
// of holding a second bottom until the end. A
// restored copy's bottom is chunks too, so the first merge after a
// restore keeps the same bound.
void chunked_merge_holds_a_wave(int team) {
  ThreadsGuard threads(team);
  HHGBX_PROP_SEED(seed, 41003);
  std::mt19937_64 rng(seed);
  auto h = grown_matrix();
  auto batch = [&] {
    return proptest::random_batch<double>(rng, kGrownDim, 4096);
  };
  auto pause = [] { return true; };
  while (h.num_levels() < 4 ||
         h.chunks(h.num_levels() - 1).slices().size() < 8) {
    ASSERT_LT(h.stats().updates, 600u) << "the bottom never spanned 8 chunks";
    h.update(batch());
  }
  const std::size_t wave_bytes =
      static_cast<std::size_t>(team + 1) * kChunkBytes;
  auto merges_hold = [&](HierMatrix<double>& m, int merges) {
    for (int merge = 0; merge < merges; ++merge) {
      SCOPED_TRACE("merge " + std::to_string(merge));
      const auto folded = m.stats().level[2].entries_folded;
      const std::size_t start = pause_a_bottom_merge(m, batch);
      ASSERT_TRUE(m.merging());
      // The entries the merge can add: the level above's.
      const std::size_t added =
          (m.stats().level[2].entries_folded - folded) * kChunkBytes / kChunk;
      std::size_t pauses = 0;
      bool counted = false;  // a released chunk's buffer counted
      for (; m.merging(); ++pauses) {
        ASSERT_GE(m.memory_bytes(), held_bytes(m));
        counted |= m.memory_bytes() >=
                   held_bytes(m) + kChunk * (sizeof(Index) + sizeof(double));
        ASSERT_LE(m.memory_bytes(), start + wave_bytes + added)
            << "pause " << pauses << " of a merge over "
            << m.level_entries(3) << " bottom entries";
        m.cascade(pause);
      }
      EXPECT_GE(pauses, (8u + team - 1) / team - 1);
#if !defined(__SANITIZE_THREAD__) && !GBX_HAS_FEATURE_TSAN
      // (Under TSan gbx::sole_owner is false: no chunk is ever released.)
      EXPECT_TRUE(counted) << "the released chunks are not counted";
#endif
      EXPECT_GE(m.chunks(m.num_levels() - 1).slices().size(), 8u);
    }
  };
  ASSERT_NO_FATAL_FAILURE(merges_hold(h, 3));
  std::stringstream ckpt;
  hier::checkpoint(ckpt, h);
  auto restored = hier::restore<double>(ckpt);
  EXPECT_GE(restored.chunks(restored.num_levels() - 1).slices().size(), 8u)
      << "the restored bottom is not chunks";
  SCOPED_TRACE("restored");
  ASSERT_NO_FATAL_FAILURE(merges_hold(restored, 1));
}

TEST(HierGrowth, ChunkedMergeHoldsAtMostTwoChunksMore) {
  chunked_merge_holds_a_wave(1);
}
TEST(HierGrowth, ChunkedMergeHoldsAtMostAWaveMore) {
  chunked_merge_holds_a_wave(4);
}

// A merge into a grown level frees its old chunks as it goes, as a
// bottom merge does: under cuts {4096, 32768} the bottom passes 8 x
// 32768 and a level with cut 262144 (a chunk list) goes in above it. At
// every pause of a merge into that level, memory_bytes() stays within
// its value before the merge began (both levels' live bytes and the
// buffers the last merge kept) plus one wave of chunks (the team size,
// plus one) and the entries the merge adds, never a second copy of the
// level. Between merges the buffers kept beside the levels are at most
// one wave (the team size, plus one).
void grown_level_merge_holds_a_wave(int team) {
  ThreadsGuard threads(team);
  HHGBX_PROP_SEED(seed, 47002);
  std::mt19937_64 rng(seed);
  HierMatrix<double> h(kGrownDim, kGrownDim, CutPolicy({4096, 32768}));
  auto batch = [&] {
    return proptest::random_batch<double>(rng, kGrownDim, 4096);
  };
  auto pause = [] { return true; };
  while (h.num_levels() < 4) {
    ASSERT_LT(h.stats().updates, 400u) << "the matrix never grew";
    h.update(batch());
  }
  ASSERT_EQ(h.cut_policy().cut(2), 262144u);
  const std::size_t wave = static_cast<std::size_t>(team + 1) * kChunkBytes;
  auto kept = [&] {
    std::size_t levels = h.chunks(2).memory_bytes() +
                         h.chunks(h.num_levels() - 1).memory_bytes();
    for (std::size_t i = 0; i < 2; ++i) levels += h.level(i).memory_bytes();
    return h.memory_bytes() - levels;
  };
  std::size_t paused = 0;
  for (int update = 0; paused < 6; ++update) {
    ASSERT_LT(update, 2000) << "merges into level 2 paused " << paused
                            << " times";
    const auto into2 = h.stats().level[1].folds;
    const auto into3 = h.stats().level[2].folds;
    const auto folded = h.stats().level[1].entries_folded;
    const std::size_t start = h.memory_bytes();
    h.stage(batch());
    h.cascade(pause);
    const bool in_level2 = h.merging() && h.stats().level[1].folds > into2 &&
                           h.stats().level[2].folds == into3;
    if (in_level2) {
      SCOPED_TRACE("merge " + std::to_string(paused));
      ++paused;
      const std::size_t added =
          (h.stats().level[1].entries_folded - folded) * kChunkBytes / kChunk;
      for (int pause_n = 0; h.merging() && h.stats().level[2].folds == into3;
           ++pause_n) {
        ASSERT_LE(h.memory_bytes(), start + wave + added)
            << "pause " << pause_n << " of a merge into "
            << h.level_entries(2) << " entries";
        h.cascade(pause);
      }
    }
    h.cascade();
    ASSERT_FALSE(h.merging());
    ASSERT_LE(kept(), static_cast<std::size_t>(team + 1) *
                          (kChunkBytes + sizeof(gbx::Offset)))
        << "more than a wave of buffers kept";
  }
}

TEST(HierGrowth, GrownLevelMergeHoldsAtMostTwoChunksMore) {
  grown_level_merge_holds_a_wave(1);
}
TEST(HierGrowth, GrownLevelMergeHoldsAtMostAWaveMore) {
  grown_level_merge_holds_a_wave(4);
}

}  // namespace
