// Stress tests: sustained streams, deep cascades, and multi-instance
// runs at sizes well beyond the unit tests — invariants must hold at
// scale, not just on toys. Kept to a few seconds total.
//
// Seeds are pinned (reproducible by default) and perturbed by the
// HHGBX_SEED environment variable, under which CTest re-runs this whole
// suite several times; failures always print the effective seed. Every
// assertion below is seed-robust: it checks structural invariants and
// exact algebraic equivalences, not sample-specific values.
#include <gtest/gtest.h>

#include <omp.h>

#include "cluster/cluster.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"
#include "prop_util.hpp"

namespace {

TEST(Stress, MillionEntryStreamEquivalence) {
  HHGBX_PROP_SEED(seed, 42);
  // 1M entries through a deep hierarchy vs direct accumulation.
  gen::PowerLawParams pp;
  pp.scale = 18;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);

  hier::HierMatrix<double> h(pp.dim, pp.dim,
                             hier::CutPolicy::geometric(5, 4096, 8));
  gbx::Matrix<double> direct(pp.dim, pp.dim);
  for (int s = 0; s < 10; ++s) {
    auto b = g.batch<double>(100000);
    h.update(b);
    direct.append(b);
  }
  direct.materialize();
  auto snap = h.snapshot();
  ASSERT_TRUE(gbx::equal(snap, direct));
  ASSERT_TRUE(snap.validate());
  // Cascade really happened at this scale: every 100K-entry set blows
  // through c1 = 4096 (one fold per set), and level 2 folded repeatedly.
  EXPECT_EQ(h.stats().level[0].folds, 10u);
  EXPECT_GE(h.stats().level[1].folds, 4u);
}

TEST(Stress, TinyCutsMaximalFoldChurn) {
  // Pathologically small cuts force a fold on nearly every update; the
  // value must still be exact and memory must not blow up.
  HHGBX_PROP_SEED(seed, 3);
  hier::HierMatrix<double> h(gbx::kIPv4Dim, gbx::kIPv4Dim,
                             hier::CutPolicy({1, 2, 4, 8, 16}));
  gen::PowerLawParams pp;
  pp.scale = 10;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);
  gbx::Matrix<double> direct(pp.dim, pp.dim);
  for (int k = 0; k < 300; ++k) {
    auto b = g.batch<double>(10);
    h.update(b);
    direct.append(b);
  }
  direct.materialize();
  EXPECT_TRUE(gbx::equal(h.snapshot(), direct));
  EXPECT_GT(h.stats().level[0].folds, 200u);
}

TEST(Stress, ManyInstancesSaturated) {
  // One instance per hardware thread, real parallel ingest; totals and
  // values verified per instance.
  HHGBX_PROP_SEED(seed, 77);
  const auto threads = static_cast<std::size_t>(omp_get_max_threads());
  cluster::WorkloadSpec w;
  w.sets = 2;
  w.set_size = 20000;
  w.scale = 14;
  w.seed = seed;
  auto r = cluster::run_hier_gbx(threads, w,
                                 hier::CutPolicy::geometric(4, 2048, 8));
  EXPECT_EQ(r.instances, threads);
  EXPECT_EQ(r.entries, threads * w.entries_per_instance());
  EXPECT_GT(r.aggregate_rate, 0.0);
  EXPECT_GT(r.wall_rate, 0.0);
}

TEST(Stress, SnapshotUnderContinuousQueries) {
  // Query every batch — the worst-case analysis cadence. Rate will be
  // query-bound but values must track exactly.
  HHGBX_PROP_SEED(seed, 5);
  gen::PowerLawParams pp;
  pp.scale = 14;
  pp.seed = seed;
  gen::PowerLawGenerator g(pp);
  hier::HierMatrix<double> h(pp.dim, pp.dim,
                             hier::CutPolicy::geometric(4, 8192, 8));
  gbx::Matrix<double> direct(pp.dim, pp.dim);
  double last_total = 0;
  for (int s = 0; s < 30; ++s) {
    auto b = g.batch<double>(10000);
    h.update(b);
    direct.append(b);
    const double t =
        gbx::reduce_scalar<gbx::PlusMonoid<double>>(h.snapshot());
    EXPECT_GE(t, last_total);
    last_total = t;
  }
  direct.materialize();
  EXPECT_DOUBLE_EQ(last_total,
                   gbx::reduce_scalar<gbx::PlusMonoid<double>>(direct));
}

}  // namespace
