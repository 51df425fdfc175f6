// Tests for the uniform control workload generator.
#include <gtest/gtest.h>

#include <map>

#include "gbx/monoid.hpp"
#include "gen/gen.hpp"

namespace {

using gbx::Index;

TEST(Uniform, CoordinatesInRangeAndSpread) {
  gen::UniformParams p;
  p.dim = 1u << 20;
  p.seed = 3;
  gen::UniformGenerator g(p);
  auto b = g.batch<double>(50000);
  std::map<Index, int> rows;
  for (const auto& e : b) {
    EXPECT_LT(e.row, p.dim);
    EXPECT_LT(e.col, p.dim);
    ++rows[e.row];
  }
  // With 50K draws over 1M rows, collisions exist but no row dominates.
  int maxc = 0;
  for (const auto& [r, c] : rows) maxc = std::max(maxc, c);
  EXPECT_LT(maxc, 10);
}

TEST(Uniform, DeterministicPerSeed) {
  gen::UniformParams p;
  p.seed = 11;
  gen::UniformGenerator a(p), b(p);
  auto ba = a.batch<double>(100);
  auto bb = b.batch<double>(100);
  for (std::size_t k = 0; k < 100; ++k) {
    EXPECT_EQ(ba[k].row, bb[k].row);
    EXPECT_EQ(ba[k].col, bb[k].col);
  }
}

TEST(Uniform, MuchLowerDuplicationThanPowerLaw) {
  gen::UniformParams up;
  up.dim = 1u << 16;
  gen::UniformGenerator ug(up);
  gen::PowerLawParams pp;
  pp.scale = 16;
  pp.dim = 1u << 16;
  pp.alpha = 1.5;
  pp.scatter = false;
  gen::PowerLawGenerator pg(pp);

  auto ub = ug.batch<double>(100000);
  auto pb = pg.batch<double>(100000);
  ub.sort_dedup<gbx::PlusMonoid<double>>();
  pb.sort_dedup<gbx::PlusMonoid<double>>();
  // Uniform has near-zero duplication; the power-law collapses heavily.
  EXPECT_GT(ub.size(), pb.size());
}

}  // namespace
