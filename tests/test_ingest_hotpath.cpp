// Differential and allocation tests for the fused ingest hot path:
// radix sort vs comparison oracles, fused fold vs a comparison-sort
// oracle vs dense replay, dedup over long equal-key runs, the fold
// kernels writing into poisoned recycled blocks, and the allocation
// profile of cascade folds: none at steady state, amortized (log of the
// growth) while the bottom level grows.
//
// This translation unit replaces the global operator new/delete with
// counting wrappers (malloc-backed, so sanitizer interception still
// works underneath): the "allocation-counting test hook" the scratch
// arenas are verified against. Counting is off except inside the
// measured windows.
#include <gtest/gtest.h>

// The counting operator new below is malloc-backed (so sanitizer malloc
// interception keeps working underneath); GCC flags every matching
// delete-calls-free site, which is exactly the design here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <random>
#include <vector>

#include "gbx/ewise.hpp"
#include "gbx/fold.hpp"
#include "gbx/matrix.hpp"
#include "gbx/scratch.hpp"
#include "gbx/sort.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

// ---------------------------------------------------------------------
// Allocation-counting hook (global; counting gated by g_count_allocs).
// ---------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_max{0};  // the largest one
std::atomic<bool> g_count_allocs{false};
}  // namespace

void* operator new(std::size_t sz) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(sz, std::memory_order_relaxed);
    auto m = g_alloc_max.load(std::memory_order_relaxed);
    while (m < sz && !g_alloc_max.compare_exchange_weak(
                         m, sz, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using gbx::Entry;
using gbx::Index;

/// 2^18 entries: a pending run several times a served batch (~50K); the
/// large-input tests size their inputs from it.
constexpr std::size_t kLarge = std::size_t{1} << 18;

using proptest::ThreadsGuard;

// -------------------- entry generators (the adversarial shapes) -------

std::vector<Entry<double>> gen_random(std::mt19937_64& rng, std::size_t n,
                                      Index max_coord) {
  std::uniform_int_distribution<Index> coord(0, max_coord);
  std::uniform_int_distribution<int> val(-5, 5);
  std::vector<Entry<double>> v(n);
  for (auto& e : v) e = {coord(rng), coord(rng), static_cast<double>(val(rng))};
  return v;
}

std::vector<Entry<double>> gen_skewed(std::mt19937_64& rng, std::size_t n) {
  // 90% of entries in one row: heavy power-law style bucket imbalance.
  std::uniform_int_distribution<Index> coord(0, Index{1} << 20);
  std::vector<Entry<double>> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Index r = (i % 10 == 0) ? coord(rng) : Index{42};
    v[i] = {r, coord(rng), 1.0};
  }
  return v;
}

std::vector<Entry<double>> gen_all_duplicate(std::size_t n) {
  return std::vector<Entry<double>>(n, Entry<double>{7, 9, 1.0});
}

std::vector<Entry<double>> gen_presorted(std::mt19937_64& rng, std::size_t n) {
  auto v = gen_random(rng, n, Index{1} << 24);
  std::sort(v.begin(), v.end(), gbx::entry_less<double>);
  return v;
}

std::vector<Entry<double>> gen_reversed(std::mt19937_64& rng, std::size_t n) {
  auto v = gen_presorted(rng, n);
  std::reverse(v.begin(), v.end());
  return v;
}

std::vector<Entry<double>> gen_near_index_max(std::mt19937_64& rng,
                                              std::size_t n) {
  // Rows AND cols near 2^64: combined significant bits exceed 64, so the
  // packed-key radix path must fall back to std::sort.
  std::uniform_int_distribution<Index> coord(gbx::kIndexMax - 4096,
                                             gbx::kIndexMax - 1);
  std::vector<Entry<double>> v(n);
  for (auto& e : v) e = {coord(rng), coord(rng), 1.0};
  return v;
}

std::vector<Entry<double>> gen_zero_rows_full_cols(std::mt19937_64& rng,
                                                   std::size_t n) {
  // Every row 0, columns spanning all 64 bits: col_bits == 64 must not
  // pack (shift-by-64 guard) — std::sort fallback territory.
  std::uniform_int_distribution<Index> coord(gbx::kIndexMax / 2,
                                             gbx::kIndexMax - 1);
  std::vector<Entry<double>> v(n);
  for (auto& e : v) e = {0, coord(rng), 1.0};
  return v;
}

std::vector<Entry<double>> gen_packed_64_exact(std::mt19937_64& rng,
                                               std::size_t n) {
  // 32 + 32 significant bits: packs at exactly the 64-bit boundary.
  std::uniform_int_distribution<Index> coord((Index{1} << 31),
                                             (Index{1} << 32) - 1);
  std::vector<Entry<double>> v(n);
  for (auto& e : v) e = {coord(rng), coord(rng), 1.0};
  return v;
}

/// Full-order comparator: (row, col, value) — makes sorted sequences
/// comparable across engines that order equal keys differently.
bool entry_full_less(const Entry<double>& a, const Entry<double>& b) {
  if (a.row != b.row) return a.row < b.row;
  if (a.col != b.col) return a.col < b.col;
  return a.val < b.val;
}

void check_sort_matches_oracle(std::vector<Entry<double>> v) {
  auto oracle = v;
  gbx::sort_entries(v);
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end(), gbx::entry_less<double>));
  // Same multiset of (row, col, value) triples.
  auto canon = v;
  std::sort(canon.begin(), canon.end(), entry_full_less);
  std::sort(oracle.begin(), oracle.end(), entry_full_less);
  ASSERT_EQ(canon.size(), oracle.size());
  EXPECT_TRUE(canon == oracle);
}

TEST(RadixSort, MatchesOracleAllShapesSerial) {
  HHGBX_PROP_SEED(seed, 0x16e57011ull);
  std::mt19937_64 rng(seed);
  const std::size_t n = 6000;  // above the radix cutoff
  check_sort_matches_oracle(gen_random(rng, n, Index{1} << 17));
  check_sort_matches_oracle(gen_random(rng, n, 30));  // dup-heavy
  check_sort_matches_oracle(gen_skewed(rng, n));
  check_sort_matches_oracle(gen_all_duplicate(n));
  check_sort_matches_oracle(gen_presorted(rng, n));
  check_sort_matches_oracle(gen_reversed(rng, n));
  check_sort_matches_oracle(gen_near_index_max(rng, n));
  check_sort_matches_oracle(gen_zero_rows_full_cols(rng, n));
  check_sort_matches_oracle(gen_packed_64_exact(rng, n));
}

TEST(RadixSort, MatchesOracleAllShapesLarge) {
  HHGBX_PROP_SEED(seed, 20260729ull);
  std::mt19937_64 rng(seed);
  const std::size_t n = kLarge + 123;
  check_sort_matches_oracle(gen_random(rng, n, Index{1} << 20));
  check_sort_matches_oracle(gen_skewed(rng, n));
  check_sort_matches_oracle(gen_all_duplicate(n));
  check_sort_matches_oracle(gen_presorted(rng, n));
  check_sort_matches_oracle(gen_reversed(rng, n));
  check_sort_matches_oracle(gen_packed_64_exact(rng, n));
}

// -------------------- dedup over long equal-key runs -----------------

void check_dedup_matches_map(std::vector<Entry<double>> v) {
  std::map<std::pair<Index, Index>, double> model;
  for (const auto& e : v) model[{e.row, e.col}] += e.val;
  std::sort(v.begin(), v.end(), gbx::entry_less<double>);
  const std::size_t m = gbx::dedup_sorted_entries<gbx::PlusMonoid<double>>(v);
  ASSERT_EQ(m, model.size());
  ASSERT_EQ(v.size(), model.size());
  std::size_t k = 0;
  for (const auto& [key, val] : model) {
    EXPECT_EQ(v[k].row, key.first);
    EXPECT_EQ(v[k].col, key.second);
    EXPECT_NEAR(v[k].val, val, 1e-9);
    ++k;
  }
}

TEST(DedupSorted, MatchesMapModelOnRunShapes) {
  HHGBX_PROP_SEED(seed, 771020ull);
  std::mt19937_64 rng(seed);
  // 5 distinct keys, each repeated ~n/5 times: a few survivors of long
  // equal-key runs.
  {
    const std::size_t n = kLarge + 7;
    std::vector<Entry<double>> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back({i % 5, 1, 1.0});
    check_dedup_matches_map(std::move(v));
  }
  // One run holds every entry.
  check_dedup_matches_map(gen_all_duplicate(kLarge + 31));
  // Four runs of exactly n/4 entries each.
  {
    const std::size_t n = kLarge;
    std::vector<Entry<double>> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back({i / (n / 4), 2, 0.5});
    check_dedup_matches_map(std::move(v));
  }
  // Mixed run lengths over a 41 x 41 key space.
  check_dedup_matches_map(gen_random(rng, kLarge + 11, 40));
}

// ------------- fused fold vs comparison-sort oracle vs dense replay ---

/// Σ of every streamed entry built the slow way: one comparison sort of
/// the whole stream, one dedup, one block — no radix, no cascade.
template <class T, class M>
gbx::Matrix<T, M> comparison_oracle(std::vector<Entry<T>> all, Index dim) {
  std::sort(all.begin(), all.end(), gbx::entry_less<T>);
  gbx::dedup_sorted_entries<M>(all);
  return gbx::Matrix<T, M>::adopt(dim, dim,
                                  gbx::Dcsr<T>::from_sorted_unique(all));
}

template <class T, class M>
void run_fold_differential(std::uint64_t seed, Index dim,
                           std::size_t batches, std::size_t batch_size) {
  hier::HierMatrix<T, M> fused(dim, dim, hier::CutPolicy::geometric(4, 512, 8));
  proptest::DenseRef<T, M> ref;
  std::vector<Entry<T>> all;
  std::mt19937_64 rng(seed);
  for (std::size_t b = 0; b < batches; ++b) {
    auto batch = proptest::random_batch<T>(rng, dim, batch_size);
    fused.update(batch);
    ref.apply(batch);
    for (const auto& e : batch) all.push_back(e);
  }
  ASSERT_TRUE(ref.matches(fused.freeze()));
  EXPECT_TRUE(gbx::equal(fused.snapshot(),
                         comparison_oracle<T, M>(std::move(all), dim)));
}

TEST(FusedFold, MatchesComparisonOracleAndDenseRefPlusDouble) {
  HHGBX_PROP_SEED(seed, 41001ull);
  run_fold_differential<double, gbx::PlusMonoid<double>>(seed, 96, 24, 700);
}

TEST(FusedFold, MatchesComparisonOracleAndDenseRefPlusInt64) {
  HHGBX_PROP_SEED(seed, 41002ull);
  run_fold_differential<std::int64_t, gbx::PlusMonoid<std::int64_t>>(seed, 64,
                                                                     24, 700);
}

TEST(FusedFold, MatchesComparisonOracleAndDenseRefMinInt64) {
  HHGBX_PROP_SEED(seed, 41003ull);
  run_fold_differential<std::int64_t, gbx::MinMonoid<std::int64_t>>(seed, 80,
                                                                    20, 600);
}

TEST(FusedFold, MatchesComparisonOracleAndDenseRefMaxInt64) {
  HHGBX_PROP_SEED(seed, 41004ull);
  run_fold_differential<std::int64_t, gbx::MaxMonoid<std::int64_t>>(seed, 80,
                                                                    20, 600);
}

/// One pending run of 2^18 + 1 entries, then one of 2^18 - 1, each radix
/// sorted with the dedup fused into the last scatter; a 512 x 512 key
/// space so both runs fold many duplicates.
template <class T, class M>
void run_large_fold_runs(std::uint64_t seed) {
  const Index dim = 512;
  hier::HierMatrix<T, M> fused(dim, dim, hier::CutPolicy::geometric(3, 1024, 8));
  proptest::DenseRef<T, M> ref;
  std::vector<Entry<T>> all;
  std::mt19937_64 rng(seed);
  for (const std::size_t n : {kLarge + 1, kLarge - 1}) {
    const auto batch = proptest::random_batch<T>(rng, dim, n);
    fused.update(batch);
    ref.apply(batch);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  ASSERT_TRUE(ref.matches(fused.freeze()));
  EXPECT_TRUE(gbx::equal(fused.snapshot(),
                         comparison_oracle<T, M>(std::move(all), dim)));
}

TEST(FusedFold, LargePendingRunsPlusDouble) {
  HHGBX_PROP_SEED(seed, 41006ull);
  run_large_fold_runs<double, gbx::PlusMonoid<double>>(seed);
}

TEST(FusedFold, LargePendingRunsMinInt64) {
  HHGBX_PROP_SEED(seed, 41007ull);
  run_large_fold_runs<std::int64_t, gbx::MinMonoid<std::int64_t>>(seed);
}

/// One unpackable pending run of 2^18 + 1 entries (rows and columns near
/// 2^64, so the key cannot pack and the fold takes std::sort plus
/// dedup_sorted_entries) over a 64 x 64 key set, so duplicates fold.
TEST(FusedFold, LargeUnpackableRunPlusDouble) {
  HHGBX_PROP_SEED(seed, 41008ull);
  std::mt19937_64 rng(seed);
  const Index dim = gbx::kIPv6Dim;
  hier::HierMatrix<double> fused(dim, dim,
                                 hier::CutPolicy::geometric(3, 1024, 8));
  proptest::DenseRef<double> ref;
  std::uniform_int_distribution<Index> offset(1, 64);
  std::uniform_int_distribution<int> val(-5, 5);
  gbx::Tuples<double> batch;
  for (std::size_t i = 0; i < kLarge + 1; ++i)
    batch.push_back(gbx::kIndexMax - offset(rng), gbx::kIndexMax - offset(rng),
                    static_cast<double>(val(rng)));
  const auto& es = batch.entries();
  ASSERT_FALSE(gbx::detail::radix_layout(es.data(), es.size()).packable);
  fused.update(batch);
  ref.apply(batch);
  ASSERT_TRUE(ref.matches(fused.freeze()));
  EXPECT_TRUE(gbx::equal(
      fused.snapshot(),
      comparison_oracle<double, gbx::PlusMonoid<double>>(es, dim)));
}

TEST(FusedFold, AdversarialBatchShapes) {
  HHGBX_PROP_SEED(seed, 41005ull);
  std::mt19937_64 rng(seed);
  const Index dim = gbx::kIPv6Dim;
  hier::HierMatrix<double> fused(dim, dim,
                                 hier::CutPolicy::geometric(3, 1024, 8));
  proptest::DenseRef<double> ref;

  std::vector<std::vector<Entry<double>>> batches;
  batches.push_back(gen_all_duplicate(3000));
  batches.push_back(gen_presorted(rng, 3000));
  batches.push_back(gen_reversed(rng, 3000));
  batches.push_back(gen_near_index_max(rng, 3000));  // unpackable fallback
  batches.push_back(gen_skewed(rng, 3000));
  batches.push_back(gen_random(rng, 3000, 50));  // dup-heavy
  std::vector<Entry<double>> all;
  for (const auto& b : batches) {
    gbx::Tuples<double> t;
    for (const auto& e : b) t.push_back(e.row, e.col, e.val);
    fused.update(t);
    ref.apply(t);
    all.insert(all.end(), b.begin(), b.end());
  }
  ASSERT_TRUE(ref.matches(fused.freeze()));
  EXPECT_TRUE(gbx::equal(fused.snapshot(),
                         comparison_oracle<double, gbx::PlusMonoid<double>>(
                             std::move(all), dim)));
}

// -------------- fold kernels into poisoned recycled blocks ------------

using Block = gbx::Dcsr<double>;
using PlusD = gbx::Plus<double>;

constexpr Index kPoisonIndex = gbx::kIndexMax - 3;
constexpr double kPoisonValue = -7.25e300;

/// Sort and fold duplicates. The generators' values are integers, so
/// Plus is exact in any order and every kernel can be compared bit for
/// bit.
std::vector<Entry<double>> sorted_unique(std::vector<Entry<double>> v) {
  std::sort(v.begin(), v.end(), gbx::entry_less<double>);
  gbx::dedup_sorted_entries<gbx::PlusMonoid<double>>(v);
  return v;
}

/// A block whose four arrays are sized (and filled) to `rows` and `nnz`
/// slots of sentinels — the stale contents of a recycled spare.
Block poisoned_block(std::size_t rows, std::size_t nnz) {
  Block b;
  b.prepare(rows, nnz);
  std::fill(b.mutable_rows().begin(), b.mutable_rows().end(), kPoisonIndex);
  std::fill(b.mutable_ptr().begin(), b.mutable_ptr().end(), kPoisonIndex);
  std::fill(b.mutable_cols().begin(), b.mutable_cols().end(), kPoisonIndex);
  std::fill(b.mutable_vals().begin(), b.mutable_vals().end(), kPoisonValue);
  return b;
}

/// Reference Σ of sorted unique entry lists, via the one-shot builder.
Block reference_sum(std::vector<Entry<double>> a,
                    const std::vector<Entry<double>>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return Block::from_sorted_unique(sorted_unique(std::move(a)));
}

/// The kernels that size their output through Dcsr::prepare(), each
/// with the (rows, nnz) it asks prepare() for; BlockMerge runs in slices
/// of 1 and of 7 output entries.
struct FoldKernelCase {
  const char* name;
  std::function<void(Block&)> run;
  Block reference;
  std::size_t need_rows;
  std::size_t need_nnz;
};

std::vector<FoldKernelCase> fold_kernel_cases(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const Index span = Index{1} << 12;
  auto ea = sorted_unique(gen_random(rng, 3000, span - 1));
  // B and the run reuse some of A's coordinates so both-present entries
  // combine, and add fresh ones so rows interleave.
  auto mixed = [&](std::size_t fresh) {
    auto v = gen_random(rng, fresh, span - 1);
    for (std::size_t i = 0; i < ea.size(); i += 3)
      v.push_back({ea[i].row, ea[i].col, 2.0});
    return sorted_unique(std::move(v));
  };
  auto eb = mixed(2000);
  auto er = mixed(1500);
  auto A = std::make_shared<Block>(Block::from_sorted_unique(ea));
  auto B = std::make_shared<Block>(Block::from_sorted_unique(eb));
  auto R = std::make_shared<std::vector<Entry<double>>>(er);
  auto run = [R] { return gbx::detail::AosRun<double>{R->data(), R->size()}; };

  std::vector<FoldKernelCase> cases;
  Block ab = reference_sum(ea, eb);
  const std::size_t ab_rows = ab.nrows_nonempty(), ab_nnz = ab.nnz();
  cases.push_back({"ewise_add_into",
                   [A, B](Block& out) {
                     gbx::ewise_add_into<PlusD>(*A, *B, out,
                                                gbx::ScratchPool::local());
                   },
                   std::move(ab), ab_rows, ab_nnz});
  cases.push_back({"merge_blocks_into",
                   [A, B](Block& out) {
                     gbx::merge_blocks_into<PlusD>(*A, *B, out);
                   },
                   reference_sum(ea, eb),
                   A->nrows_nonempty() + B->nrows_nonempty(),
                   A->nnz() + B->nnz()});
  for (const std::size_t budget : {1u, 7u}) {
    cases.push_back({budget == 1 ? "BlockMerge, budget 1" : "BlockMerge, budget 7",
                     [A, B, budget](Block& out) {
                       gbx::BlockMerge<PlusD, double> m(*A, *B, out);
                       while (!m.step(budget)) {
                       }
                     },
                     reference_sum(ea, eb),
                     A->nrows_nonempty() + B->nrows_nonempty(),
                     A->nnz() + B->nnz()});
  }
  cases.push_back({"merge_run_into",
                   [A, run](Block& out) {
                     gbx::merge_run_into<PlusD>(*A, run(), out);
                   },
                   reference_sum(ea, er), A->nrows_nonempty() + er.size(),
                   A->nnz() + er.size()});
  Block r = Block::from_sorted_unique(er);
  const std::size_t r_rows = r.nrows_nonempty();
  cases.push_back({"build_from_run",
                   [run](Block& out) { gbx::build_from_run(run(), out); },
                   std::move(r), r_rows, er.size()});
  return cases;
}

TEST(RecycledOutput, PoisonedSpareMatchesFreshOutputForEveryKernel) {
  HHGBX_PROP_SEED(seed, 28001ull);
  for (auto& c : fold_kernel_cases(seed)) {
    SCOPED_TRACE(c.name);
    Block fresh;
    c.run(fresh);
    ASSERT_TRUE(fresh.validate());
    ASSERT_TRUE(fresh == c.reference);

    // Stale contents longer than the result: still sized (as a block
    // handed back uncleared) and cleared (as publish_spare leaves it).
    for (const bool cleared : {false, true}) {
      SCOPED_TRACE(cleared ? "cleared" : "uncleared");
      Block spare = poisoned_block(3 * c.need_rows, 3 * c.need_nnz);
      if (cleared) spare.clear();
      const Index* cols_before = spare.cols().data();
      c.run(spare);
      EXPECT_TRUE(spare.validate());
      EXPECT_TRUE(spare == c.reference);
      EXPECT_EQ(spare.cols().data(), cols_before)
          << "a spare with room to spare was reallocated";
    }
  }
}

TEST(RecycledOutput, ShortSpareGrowsToAtMostHalfAgainTheNeed) {
  HHGBX_PROP_SEED(seed, 28002ull);
  for (auto& c : fold_kernel_cases(seed)) {
    SCOPED_TRACE(c.name);
    // 0.9 of the need: 1.5x regrowth overshoots it (headroom for the next
    // fold); 0.1 of the need: regrowth lands on the need itself.
    for (const std::size_t tenths : {9u, 1u}) {
      SCOPED_TRACE(tenths);
      Block spare =
          poisoned_block(c.need_rows * tenths / 10, c.need_nnz * tenths / 10);
      c.run(spare);
      EXPECT_TRUE(spare.validate());
      EXPECT_TRUE(spare == c.reference);
      const std::pair<std::size_t, std::size_t> cap_need[] = {
          {spare.mutable_rows().capacity(), c.need_rows},
          {spare.mutable_ptr().capacity(), c.need_rows + 1},
          {spare.mutable_cols().capacity(), c.need_nnz},
          {spare.mutable_vals().capacity(), c.need_nnz}};
      for (const auto& [cap, need] : cap_need) {
        EXPECT_GE(cap, need);
        EXPECT_LE(cap, need + need / 2);
        if (tenths == 9) {
          EXPECT_GT(cap, need) << "regrowth was exact-fit";
        }
      }
    }
  }
}

// A merge stopped every 1 or 7 output entries, inside rows too, writes
// the block merge_blocks_into writes, in ceil(entries / budget) steps.
TEST(BlockMerge, SlicedMatchesMergeBlocksInto) {
  HHGBX_PROP_SEED(seed, 28003ull);
  std::mt19937_64 rng(seed);
  // Skewed blocks: most entries in one shared row, so slices end inside
  // a row both blocks hold.
  const auto a = Block::from_sorted_unique(sorted_unique(gen_skewed(rng, 3000)));
  const auto b = Block::from_sorted_unique(sorted_unique(gen_skewed(rng, 2000)));
  const Block empty;
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a},
                             std::pair{&a, &empty}, std::pair{&empty, &b},
                             std::pair{&empty, &empty}}) {
    Block want;
    gbx::merge_blocks_into<PlusD>(*x, *y, want);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{7},
                                     static_cast<std::size_t>(-1)}) {
      SCOPED_TRACE(budget);
      Block out;
      gbx::BlockMerge<PlusD, double> m(*x, *y, out);
      std::size_t steps = 1;
      while (!m.step(budget)) ++steps;
      EXPECT_TRUE(m.done());
      EXPECT_TRUE(m.step(budget)) << "a done merge stays done";
      EXPECT_TRUE(out.validate());
      EXPECT_TRUE(out == want);
      if (budget != static_cast<std::size_t>(-1)) {
        EXPECT_EQ(steps,
                  std::max<std::size_t>(1, (want.nnz() + budget - 1) / budget));
      }
    }
  }
}

// -------------------- freeze-backed queries ---------------------------

TEST(HierQueries, NvalsMatchesDenseReplayWithoutMaterializing) {
  HHGBX_PROP_SEED(seed, 52001ull);
  std::mt19937_64 rng(seed);
  hier::HierMatrix<double> m(256, 256, hier::CutPolicy::geometric(4, 256, 4));
  proptest::DenseRef<double> ref;
  for (int b = 0; b < 30; ++b) {
    auto batch = proptest::random_batch<double>(rng, 256, 400);
    m.update(batch);
    ref.apply(batch);
    ASSERT_EQ(m.nvals(), ref.nvals()) << "batch " << b;
  }
  ASSERT_TRUE(ref.matches(m.snapshot()));
}

TEST(HierQueries, SnapshotAliasesSingleNonEmptyLevel) {
  hier::HierMatrix<double> m(1000, 1000,
                             hier::CutPolicy::geometric(3, 64, 8));
  gbx::Tuples<double> t;
  for (Index i = 0; i < 500; ++i) t.push_back(i, i, 1.0);
  m.update(t);
  m.flush();  // everything lands in the bottom, as one chunk
  ASSERT_EQ(m.chunks(m.num_levels() - 1).slices().size(), 1u);
  const auto& top = m.chunks(m.num_levels() - 1).slices()[0].block();
  auto snap = m.snapshot();
  // Non-destructive query of a single-block hierarchy must alias, not
  // copy: the satellite fix routes snapshot() through freeze() views.
  EXPECT_EQ(snap.storage_handle().get(), &top);
  EXPECT_EQ(snap.nvals(), 500u);
}

TEST(HierQueries, SnapshotNvalsCountsCrossLevelDuplicatesOnce) {
  hier::HierMatrix<double> m(64, 64, hier::CutPolicy::geometric(3, 16, 4));
  // Same coordinate folded into different levels at different times.
  for (int rep = 0; rep < 8; ++rep) {
    gbx::Tuples<double> t;
    for (Index i = 0; i < 20; ++i) t.push_back(i % 8, i % 8, 1.0);
    m.update(t);
  }
  std::size_t distinct = m.nvals();
  EXPECT_EQ(distinct, 8u);
  EXPECT_EQ(m.snapshot().nvals(), 8u);
}

// -------------------- copy-on-fold safety of the spare block ----------

TEST(SpareBlock, PublishedViewsSurviveLaterFolds) {
  gbx::Matrix<double> m(100, 100);
  m.set_element(1, 1, 1.0);
  m.set_element(2, 2, 2.0);
  auto v1 = m.view();  // pins the current block
  m.set_element(1, 1, 10.0);
  m.materialize();  // shared block: fold must copy, not swap in place
  EXPECT_DOUBLE_EQ(v1.get(1, 1).value(), 1.0);
  EXPECT_DOUBLE_EQ(m.extract_element(1, 1).value(), 11.0);
  {
    auto v2 = m.view();
    (void)v2;
  }  // dropped: matrix is sole owner again
  m.set_element(3, 3, 3.0);
  m.materialize();  // sole owner: in-place spare swap path
  EXPECT_DOUBLE_EQ(m.extract_element(3, 3).value(), 3.0);
  EXPECT_DOUBLE_EQ(v1.get(1, 1).value(), 1.0);
  EXPECT_FALSE(v1.get(3, 3).has_value());
}

// -------------------- zero-allocation steady state --------------------

TEST(ZeroAlloc, SteadyStateCascadeFoldsDoNotTouchTheHeap) {
#if defined(__SANITIZE_THREAD__) || GBX_HAS_FEATURE_TSAN
  // Under TSan, Matrix::sole_owner() is pinned false (TSan cannot model
  // the COW acquire-fence pairing), so every fold copies by design.
  GTEST_SKIP() << "in-place block reuse disabled under TSan";
#endif
  // Serial engine for a deterministic allocation profile (the parallel
  // paths are allocation-free too once warm, but libgomp's internal
  // bookkeeping is outside our control).
  ThreadsGuard threads(1);

  const Index dim = 256;  // 65536 coordinates: the blocks saturate
  hier::HierMatrix<double> m(dim, dim,
                             hier::CutPolicy::geometric(4, 1024, 8));
  std::mt19937_64 rng(99);
  // Pre-generate a fixed set of batches (generation allocates; the
  // measured window must see only append + cascade folds).
  std::vector<gbx::Tuples<double>> batches;
  for (int b = 0; b < 20; ++b)
    batches.push_back(proptest::random_batch<double>(rng, dim, 2048));

  // Warm up: saturate the coordinate space and plateau every capacity
  // (pending buffers, radix scratch, spare blocks, merge scratch).
  for (int warm = 0; warm < 60; ++warm)
    m.update(batches[static_cast<std::size_t>(warm) % batches.size()]);

  const auto grow_before = gbx::ScratchPool::local().grow_count();
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (const auto& b : batches) m.update(b);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "steady-state cascade folds allocated";
  EXPECT_EQ(gbx::ScratchPool::local().grow_count(), grow_before)
      << "scratch arenas grew after warmup";
  // The folds above really did run (sanity that the window was hot).
  EXPECT_GT(m.stats().level[0].folds, 60u);
}

// A steady-state fold into a chunked middle level: under cuts {4096,
// 32768, 262144} level 2 is a chunk list (its cut is past
// kChunkEntries), and batches over a 400 x 400 coordinate space (160000
// coordinates, under that cut) never take it past its cut. Every fold
// from level 1 into it is a wave merge that rewrites its chunks into the
// buffers the last wave and the last merge released, and level 1 stays
// warm: none of them touches the heap.
TEST(ZeroAlloc, SteadyStateChunkedLevelFoldsDoNotTouchTheHeap) {
#if defined(__SANITIZE_THREAD__) || GBX_HAS_FEATURE_TSAN
  GTEST_SKIP() << "in-place block reuse disabled under TSan";
#endif
  ThreadsGuard threads(1);
  using H = hier::HierMatrix<double>;
  const Index dim = 400;
  H m(dim, dim, hier::CutPolicy::geometric(4, 4096, 8));
  ASSERT_THROW((void)m.level(2), gbx::InvalidValue) << "level 2 is one block";
  std::mt19937_64 rng(4701);
  std::vector<gbx::Tuples<double>> batches;
  for (int b = 0; b < 64; ++b)
    batches.push_back(proptest::random_batch<double>(rng, dim, 4096));
  std::size_t next = 0;
  auto folds = [&] { return m.stats().level[1].folds; };
  while (folds() < 16) m.update(batches[next++ % batches.size()]);
  ASSERT_GT(m.chunks(2).slices().size(), 2u);

  const auto before = folds();
  const auto grow_before = gbx::ScratchPool::local().grow_count();
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (std::size_t b = 0; b < batches.size(); ++b)
    m.update(batches[next++ % batches.size()]);
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u)
      << "steady-state folds into the chunked level allocated";
  EXPECT_EQ(gbx::ScratchPool::local().grow_count(), grow_before);
  EXPECT_GE(folds(), before + 6) << "the window must cover many merges";
  EXPECT_EQ(m.stats().level[2].folds, 0u) << "level 2 passed its cut";
}

/// Allocations of one chunk buffer: the shared block, its four arrays,
/// and the row pointers' regrowth past the first slot.
constexpr std::uint64_t kChunkAllocs = 6;
/// Allocations of the update that runs a bottom merge, besides its chunk
/// buffers: the level above's four arrays regrowing in the fold that
/// puts it over its cut, its release (three empty blocks), the bottom's
/// slice list growing its room, and the merge's two lists (a piece's
/// segments, a wave's new slices) growing to their most yet.
constexpr std::uint64_t kMergeFixedAllocs = 10;

// A steady-state bottom merge: 64 batches cycled over a 512 x 512
// coordinate space, so every merge into the bottom (three chunks)
// rewrites its chunks without adding an entry. Each merge writes into
// the chunk buffers the last wave and the last merge released, and the
// level above, a block, stays warm (cleared, not released), so no
// update that runs a merge touches the heap.
TEST(ZeroAlloc, SteadyStateBottomMergesDoNotTouchTheHeap) {
#if defined(__SANITIZE_THREAD__) || GBX_HAS_FEATURE_TSAN
  GTEST_SKIP() << "in-place block reuse disabled under TSan";
#endif
  ThreadsGuard threads(1);
  const Index dim = 512;
  hier::HierMatrix<double> m(dim, dim, hier::CutPolicy::geometric(3, 4096, 8));
  std::mt19937_64 rng(4602);
  std::vector<gbx::Tuples<double>> batches;
  for (int b = 0; b < 64; ++b)
    batches.push_back(proptest::random_batch<double>(rng, dim, 4096));
  std::size_t next = 0;
  auto merges = [&] { return m.stats().level[1].folds; };
  while (merges() < 8) m.update(batches[next++ % batches.size()]);
  const std::size_t entries = m.level_entries(2);
  const std::size_t chunks = m.chunks(m.num_levels() - 1).slices().size();
  ASSERT_GE(chunks, 3u);

  for (int merge = 0; merge < 16; ++merge) {
    const auto before = merges();
    std::uint64_t allocs = 0;
    while (merges() == before) {
      g_alloc_count.store(0, std::memory_order_relaxed);
      g_count_allocs.store(true, std::memory_order_relaxed);
      m.update(batches[next++ % batches.size()]);
      g_count_allocs.store(false, std::memory_order_relaxed);
      allocs = g_alloc_count.load(std::memory_order_relaxed);
    }
    EXPECT_EQ(m.level_entries(2), entries);
    EXPECT_EQ(m.chunks(m.num_levels() - 1).slices().size(), chunks);
    EXPECT_EQ(allocs, 0u) << "merge " << merge << " allocated";
  }
}

TEST(ZeroAlloc, GrowingBottomLevelAllocatesAmortized) {
#if defined(__SANITIZE_THREAD__) || GBX_HAS_FEATURE_TSAN
  GTEST_SKIP() << "in-place block reuse disabled under TSan";
#endif
  ThreadsGuard threads(1);

  // Every batch is fresh coordinates, so the bottom level grows with
  // every merge into it from the level above. The ratio 64 keeps the
  // bottom under 64 x the last cut, so the matrix stays at its starting
  // depth. The bottom is chunks, so a merge allocates the chunks the
  // bottom gains and at most a wave (one piece at this team size) and
  // the chunk a wave's cut lags behind, never a second bottom: its
  // allocations do not grow with the bottom. Besides the chunk buffers
  // it allocates at most kMergeFixedAllocs. The buffers the last merge
  // kept (one wave: two at this team size) may hold chunks it gains.
  using H = hier::HierMatrix<double>;
  const Index dim = Index{1} << 40;
  H m(dim, dim, hier::CutPolicy::geometric(3, 128, 64));
  const std::size_t bottom_in = m.num_levels() - 2;  // merges INTO the bottom
  std::mt19937_64 rng(2801);
  std::vector<gbx::Tuples<double>> batches;
  for (int b = 0; b < 800; ++b)
    batches.push_back(proptest::random_batch<double>(rng, dim, 512));

  // Warm up: the upper levels' blocks and the scratch arenas plateau.
  std::size_t next = 0;
  while (m.stats().level[bottom_in].folds < 8) m.update(batches[next++]);

  const double first = static_cast<double>(m.level_entries(2));
  std::vector<std::int64_t> fixed;  // a merge's allocations less its gain
  while (next < batches.size()) {
    const auto merges = m.stats().level[bottom_in].folds;
    const auto chunks = m.chunks(m.num_levels() - 1).slices().size();
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    m.update(batches[next++]);
    g_count_allocs.store(false, std::memory_order_relaxed);
    if (m.stats().level[bottom_in].folds == merges) continue;
    const auto allocs = g_alloc_count.load(std::memory_order_relaxed);
    const auto gained = m.chunks(m.num_levels() - 1).slices().size() - chunks;
    ASSERT_GE(allocs + 2 * kChunkAllocs, kChunkAllocs * gained);
    EXPECT_LE(allocs, kChunkAllocs * (gained + 2) + kMergeFixedAllocs)
        << "merge " << fixed.size() << " gained " << gained << " chunks";
    fixed.push_back(static_cast<std::int64_t>(allocs) -
                    static_cast<std::int64_t>(kChunkAllocs * gained));
  }
  const double last = static_cast<double>(m.level_entries(2));

  ASSERT_GE(fixed.size(), 32u) << "the window must cover many bottom merges";
  ASSERT_GT(last, 2 * first) << "the bottom level must really grow";
  ASSERT_EQ(m.num_levels(), 3u) << "the matrix grew a level";
  // Less the chunks the bottom gains, the merges together allocate at
  // most one merge's fixed allocations and one wave: a merge that reuses
  // a kept buffer for a gained chunk leaves the next one to allocate its
  // replacement, and nothing grows with the bottom or the merges.
  EXPECT_LE(std::accumulate(fixed.begin(), fixed.end(), std::int64_t{0}),
            static_cast<std::int64_t>(kMergeFixedAllocs + 2 * kChunkAllocs))
      << "allocations grew with the bottom, " << first << " -> " << last
      << " entries";
}

// A merge into the bottom fills chunks of kChunkEntries entries and
// writes each into the buffers of an old chunk it released. At the team
// size `team`, the update that runs a merge allocates at most the level
// above's regrowth, the chunks the bottom gains, one wave and the chunk
// a wave's cut lags behind; after the merge at most one wave of
// released buffers (the team size plus one) is kept beside the chunks,
// every chunk is a chunk's buffer and all but the last are nearly full.
// With a team of one, every merge cycle allocates the same.
void grown_merge_recycles_chunks(int team) {
  ThreadsGuard threads(team);

  // Fresh coordinates: the bottom passes 16 x 8192 and a level with cut
  // 131072 goes in above it.
  using H = hier::HierMatrix<double>;
  const Index dim = Index{1} << 40;
  H m(dim, dim, hier::CutPolicy({512, 8192}));
  std::mt19937_64 rng(2802);
  std::vector<gbx::Tuples<double>> batches;
  batches.reserve(400);
  for (int b = 0; b < 400; ++b)
    batches.push_back(proptest::random_batch<double>(rng, dim, 4096));

  std::size_t next = 0;
  auto merges = [&] {
    return m.num_levels() < 4 ? 0 : m.stats().level[2].folds;
  };
  // Warm: the bottom spans eight chunks.
  while (m.num_levels() < 4 || m.level_entries(3) < 8 * H::kChunkEntries)
    m.update(batches[next++]);
  ASSERT_EQ(m.num_levels(), 4u);

  // The most a chunk can take: kChunkEntries entries, each a row.
  const std::size_t chunk_bytes =
      H::kChunkEntries * (2 * sizeof(Index) + sizeof(gbx::Offset) + sizeof(double));
  std::vector<std::uint64_t> allocs;
  const std::size_t first = m.level_entries(3);
  while (m.level_entries(3) < 2 * first) {
    ASSERT_LT(next + 40, batches.size()) << "the bottom never doubled";
    const auto before = merges();
    const auto chunks_before = m.chunks(m.num_levels() - 1).slices().size();
    std::size_t upper_bytes = 0, merge_bytes = 0;
    std::uint64_t merge_allocs = 0;
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    while (merges() == before) {
      upper_bytes = m.chunks(2).memory_bytes();
      g_alloc_bytes.store(0, std::memory_order_relaxed);
      merge_allocs = g_alloc_count.load(std::memory_order_relaxed);
      m.update(batches[next++]);
      merge_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    allocs.push_back(g_alloc_count.load(std::memory_order_relaxed));
    merge_allocs = allocs.back() - merge_allocs;
    const auto& chunks = m.chunks(m.num_levels() - 1).slices();
    const std::size_t gained = chunks.size() - chunks_before;
    EXPECT_LE(merge_bytes, upper_bytes + (gained + team + 1) * chunk_bytes)
        << "merge " << allocs.size() << " over " << m.level_entries(3)
        << " bottom entries";
    if (team == 1) {  // libgomp's own bookkeeping is not counted
      EXPECT_LE(merge_allocs,
                kChunkAllocs * (gained + team + 1) + kMergeFixedAllocs)
          << "merge " << allocs.size() << " gained " << gained << " chunks";
    }

    // Beside the levels at most one wave of chunk buffers is kept (the
    // team size plus one), and every chunk is a chunk's buffer (no
    // regrowth headroom), all but the last nearly full.
    std::size_t held = m.chunks(2).memory_bytes();
    for (std::size_t i = 0; i < 2; ++i) held += m.level(i).memory_bytes();
    held += m.chunks(m.num_levels() - 1).memory_bytes();
    ASSERT_GE(m.memory_bytes(), held);
    EXPECT_LE(m.memory_bytes() - held,
              static_cast<std::size_t>(team + 1) *
                  (chunk_bytes + sizeof(gbx::Offset)));
    for (const auto& c : chunks) EXPECT_EQ(c.block().capacity(), H::kChunkEntries);
    EXPECT_GE(m.level_entries(3), (chunks.size() - 1) * H::kChunkEntries * 9 / 10);
  }
  ASSERT_GE(allocs.size(), 3u);
  ASSERT_EQ(m.num_levels(), 4u);
  if (team != 1) return;
  // The allocations per merge cycle do not grow with the bottom. Each
  // cycle gains two bottom chunks (the level above's 131072 fresh
  // entries), and the level above, a chunk list, gains and releases two;
  // the buffers a merge keeps for the next one cover the rest, so a
  // cycle takes fewer than the 64 it took when every merge's first wave
  // allocated.
  for (const auto a : allocs)
    EXPECT_EQ(a, allocs.front()) << "allocations grew with the bottom";
  for (const auto a : allocs) EXPECT_LE(a, 64u);
}

// Demotion writes the bottom's chunks into the block store from their
// blocks in place: no allocation during demote_now() is as large as one
// chunk's column array (a joined copy of the bottom would take one the
// size of all its chunks'), and the resident bytes fall by the bottom's.
TEST(ZeroAlloc, DemotionWritesTheChunksInPlace) {
  ThreadsGuard threads(1);
  using H = hier::HierMatrix<double>;
  const Index dim = Index{1} << 15;  // ~16 entries a row: a small row index
  auto store = store::make_mem_block_store();
  H m(dim, dim, hier::CutPolicy({512, 8192}));
  hier::DemotionConfig cfg;
  cfg.segment_bytes = 64u << 10;
  m.enable_demotion(store.get(), cfg);
  std::mt19937_64 rng(4601);
  while (m.chunks(m.num_levels() - 1).slices().size() < 8)
    m.update(proptest::random_batch<double>(rng, dim, 4096));
  m.flush();
  const auto want = m.freeze().to_matrix();
  const std::size_t before = m.memory_bytes();
  const std::size_t bottom = m.chunks(m.num_levels() - 1).memory_bytes();

  g_alloc_max.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  ASSERT_TRUE(m.demote_now());
  g_count_allocs.store(false, std::memory_order_relaxed);

  EXPECT_LT(g_alloc_max.load(std::memory_order_relaxed),
            H::kChunkEntries * sizeof(Index))
      << "demotion copied the bottom";
  EXPECT_EQ(m.memory_bytes(), before - bottom);
  EXPECT_TRUE(m.chunks(m.num_levels() - 1).slices().empty());
  EXPECT_TRUE(gbx::equal(m.freeze().to_matrix(), want));
}

TEST(ZeroAlloc, GrownBottomMergeRecyclesItsChunks) {
#if defined(__SANITIZE_THREAD__) || GBX_HAS_FEATURE_TSAN
  GTEST_SKIP() << "in-place block reuse disabled under TSan";
#endif
  grown_merge_recycles_chunks(1);
  grown_merge_recycles_chunks(4);
}

}  // namespace
