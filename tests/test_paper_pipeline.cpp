// Capstone integration test: the paper's experiment, end to end, at
// reduced scale. Section III's shape — a power-law graph divided into
// sets, streamed simultaneously by many instances, network statistics
// computed on the streams, results combined — plus the operational steps
// a deployment adds (checkpoint mid-stream, restore).
#include <gtest/gtest.h>

#include <sstream>

#include "analytics/analytics.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"

namespace {

using gbx::Index;

TEST(PaperPipeline, EndToEnd) {
  // The paper: 1,000 sets of 100,000 entries per graph, one graph per
  // process. Scaled: 4 instances x 25 sets x 4,000 entries, same shape.
  constexpr std::size_t kInstances = 4;
  constexpr std::size_t kSets = 25;
  constexpr std::size_t kSetSize = 4000;

  gen::PowerLawParams base;
  base.scale = 12;
  base.alpha = 1.3;
  base.dim = gbx::kIPv4Dim;

  const auto cuts = hier::CutPolicy::geometric(4, 2048, 8);

  // --- stream per instance, with mid-stream analytics ----------------
  std::vector<hier::HierMatrix<double>> instances;
  gbx::Matrix<double> reference(base.dim, base.dim);
  for (std::size_t p = 0; p < kInstances; ++p) {
    gen::PowerLawParams pp = base;
    pp.seed = 1000 + p;
    gen::PowerLawGenerator g(pp);
    hier::HierMatrix<double> h(base.dim, base.dim, cuts);
    double last_packets = 0;
    for (std::size_t s = 0; s < kSets; ++s) {
      auto batch = g.batch<double>(kSetSize);
      h.update(batch);
      reference.append(batch);
      if (s % 8 == 4) {
        // "each process would also compute various network statistics
        // on each of the streams as they are updated"
        auto sum = analytics::summarize(h.snapshot());
        EXPECT_GT(sum.packets, last_packets);
        last_packets = sum.packets;
      }
    }
    // cascade really engaged
    EXPECT_GT(h.stats().level[0].folds, 0u);
    instances.push_back(std::move(h));
  }
  reference.materialize();

  // --- checkpoint/restore one instance mid-life ----------------------
  std::stringstream disk;
  hier::checkpoint(disk, instances[2]);
  instances[2] = hier::restore<double>(disk);

  // --- combine all instances: A = Σ over instances of Σ Ai ------------
  gbx::Matrix<double> combined(base.dim, base.dim);
  for (const auto& h : instances) h.freeze().part(0).fold_into(combined);
  ASSERT_TRUE(gbx::equal(combined, reference))
      << "combined instance matrices diverged from the global reference";

  // --- analyze the global traffic matrix -----------------------------
  auto sum = analytics::summarize(combined);
  EXPECT_EQ(sum.links, combined.nvals());
  EXPECT_DOUBLE_EQ(sum.packets,
                   static_cast<double>(kInstances * kSets * kSetSize));

  auto top = analytics::top_sources(combined, 10);
  ASSERT_FALSE(top.empty());
  EXPECT_GE(top.front().value, top.back().value);

  auto hist = analytics::out_degree_histogram(combined);
  EXPECT_LT(analytics::power_law_slope(hist), 0.0);  // heavy tail survives
}

}  // namespace
