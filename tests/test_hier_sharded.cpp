// Tests for ShardedHier: correctness vs single hierarchy, and true
// multi-threaded ingest into one logical matrix.
#include <gtest/gtest.h>

#include <omp.h>

#include <random>

#include "gbx/gbx.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"

namespace {

using gbx::Index;
using hier::CutPolicy;
using hier::ShardedHier;

TEST(Sharded, MatchesSingleHierarchy) {
  gen::PowerLawParams pp;
  pp.scale = 12;
  pp.seed = 5;
  gen::PowerLawGenerator g(pp);

  ShardedHier<double> sharded(8, pp.dim, pp.dim, CutPolicy::geometric(3, 256, 8));
  hier::HierMatrix<double> single(pp.dim, pp.dim, CutPolicy::geometric(3, 256, 8));

  for (int s = 0; s < 10; ++s) {
    auto batch = g.batch<double>(2000);
    sharded.update(batch);
    single.update(batch);
  }
  EXPECT_TRUE(gbx::equal(sharded.freeze().to_matrix(), single.snapshot()));
  EXPECT_EQ(sharded.entries_appended(), single.stats().entries_appended);
}

TEST(Sharded, SingleShardDegenerate) {
  ShardedHier<double> one(1, 100, 100, CutPolicy({10}));
  one.update(3, 4, 1.5);
  one.update(3, 4, 2.5);
  EXPECT_DOUBLE_EQ(one.freeze().to_matrix().extract_element(3, 4).value(), 4.0);
  EXPECT_THROW(ShardedHier<double>(0, 100, 100, CutPolicy({10})),
               gbx::InvalidValue);
}

TEST(Sharded, ConcurrentWritersProduceExactTotal) {
  // T threads hammer the same logical matrix concurrently; the final
  // value must equal the serial accumulation of all updates (monoid
  // commutativity makes interleaving unobservable).
  const int threads = std::min(8, omp_get_max_threads());
  const int per_thread = 20000;
  ShardedHier<double> m(16, 1u << 20, 1u << 20,
                        CutPolicy::geometric(3, 512, 8));

  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel num_threads(threads)
  {
    gbx::OmpRegionGuard tsan_region;
    const int tid = omp_get_thread_num();
    std::mt19937_64 rng(static_cast<std::uint64_t>(tid) + 1);
    std::uniform_int_distribution<Index> coord(0, 1023);
    for (int k = 0; k < per_thread; ++k)
      m.update(coord(rng), coord(rng), 1.0);
  }

  EXPECT_EQ(m.entries_appended(),
            static_cast<std::uint64_t>(threads) * per_thread);
  // Total packet mass is exactly #updates (each carries weight 1).
  auto snap = m.freeze().to_matrix();
  const double total = gbx::reduce_scalar<gbx::PlusMonoid<double>>(snap);
  EXPECT_DOUBLE_EQ(total, static_cast<double>(threads) * per_thread);
}

TEST(Sharded, ConcurrentBatchesMatchSerialReplay) {
  const int threads = 4;
  const int batches = 10;
  ShardedHier<double> concurrent(8, 1u << 16, 1u << 16, CutPolicy({200, 2000}));
  hier::HierMatrix<double> serial(1u << 16, 1u << 16, CutPolicy({200, 2000}));

  // Pre-generate all batches so both sides see identical data.
  std::vector<gbx::Tuples<double>> all;
  for (int t = 0; t < threads; ++t) {
    gen::PowerLawParams pp;
    pp.scale = 10;
    pp.dim = 1u << 16;
    pp.seed = 100 + static_cast<std::uint64_t>(t);
    gen::PowerLawGenerator g(pp);
    for (int b = 0; b < batches; ++b) all.push_back(g.batch<double>(1000));
  }

  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel num_threads(threads)
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
    for (std::size_t k = 0; k < all.size(); ++k) concurrent.update(all[k]);
  }
  for (const auto& b : all) serial.update(b);

  EXPECT_TRUE(gbx::equal(concurrent.freeze().to_matrix(), serial.snapshot()));
}

TEST(Sharded, BoundsChecked) {
  ShardedHier<double> m(4, 10, 10, CutPolicy({5}));
  EXPECT_THROW(m.update(10, 0, 1.0), gbx::IndexOutOfBounds);
}

}  // namespace
