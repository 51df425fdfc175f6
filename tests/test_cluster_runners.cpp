// Tests for the baseline scaling-harness runners (LSM, B+tree, D4M) and
// thread-setting hygiene of run_instances.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster.hpp"

namespace {

cluster::WorkloadSpec tiny() {
  cluster::WorkloadSpec w;
  w.sets = 2;
  w.set_size = 2000;
  w.scale = 10;
  w.seed = 3;
  return w;
}

TEST(Runners, LsmRunsAndCounts) {
  auto r = cluster::run_lsm(2, tiny());
  EXPECT_EQ(r.instances, 2u);
  EXPECT_EQ(r.entries, 2u * tiny().entries_per_instance());
  EXPECT_GT(r.aggregate_rate, 0.0);
}

TEST(Runners, BtreeRunsAndCounts) {
  auto r = cluster::run_btree(3, tiny());
  EXPECT_EQ(r.instances, 3u);
  EXPECT_GT(r.aggregate_rate, 0.0);
  EXPECT_GT(r.busy_seconds_mean, 0.0);
}

TEST(Runners, HierAssocRunsAndCounts) {
  auto r = cluster::run_hier_assoc(2, tiny(),
                                   hier::CutPolicy::geometric(3, 512, 8));
  EXPECT_EQ(r.instances, 2u);
  EXPECT_GT(r.aggregate_rate, 0.0);
}

TEST(Runners, AmbientThreadCountRestored) {
  // run_instances pins workers to one thread internally; the caller's
  // OpenMP configuration must be intact afterwards.
  const int before = omp_get_max_threads();
  (void)cluster::run_hier_gbx(2, tiny(), hier::CutPolicy({1000}));
  EXPECT_EQ(omp_get_max_threads(), before);
}

TEST(Runners, EveryInstanceIsSingleThreaded) {
  // The paper's instances are single-threaded processes: every gbx
  // kernel an instance calls must see a team of one.
  for (const std::size_t instances : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "instances " << instances);
    std::vector<int> seen(instances, 0);
    (void)cluster::run_instances<std::size_t>(
        instances, tiny(), [](std::size_t p) { return p; },
        [&](std::size_t& p, const gbx::Tuples<double>&) {
          seen[p] = std::max(seen[p], gbx::max_threads());
        });
    for (std::size_t p = 0; p < instances; ++p) EXPECT_EQ(seen[p], 1) << p;
  }
}

TEST(Runners, RelativeOrderingHolds) {
  // Even at toy sizes the hierarchical GraphBLAS path should not lose to
  // the per-row B+tree path (the central Fig. 2 ordering).
  cluster::WorkloadSpec w;
  w.sets = 4;
  w.set_size = 50000;
  w.scale = 14;
  w.seed = 9;
  auto hier_r = cluster::run_hier_gbx(1, w, hier::CutPolicy::geometric(4, 8192, 8));
  auto btree_r = cluster::run_btree(1, w);
  EXPECT_GT(hier_r.aggregate_rate, btree_r.aggregate_rate * 0.9);
}

}  // namespace
