// Tests for the workload generators: determinism, distribution shape,
// stream partitioning.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "analytics/analytics.hpp"
#include "gen/gen.hpp"

namespace {

TEST(Rng, SplitmixDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  const auto a = gen::splitmix64(s1);
  EXPECT_EQ(a, gen::splitmix64(s2));
  EXPECT_EQ(s1, s2);
  // consecutive outputs differ (state advanced)
  EXPECT_NE(gen::splitmix64(s1), a);
}

TEST(Rng, XoshiroDeterministicAndSpread) {
  gen::Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  // different seeds diverge
  gen::Xoshiro256 a2(7);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) diverged |= (a2.next() != c.next());
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowInRange) {
  gen::Xoshiro256 r(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, Mix64IsInjectiveOnSample) {
  std::map<std::uint64_t, std::uint64_t> seen;
  for (std::uint64_t x = 0; x < 100000; ++x) {
    auto y = gen::mix64(x);
    auto [it, fresh] = seen.emplace(y, x);
    ASSERT_TRUE(fresh) << "collision between " << x << " and " << it->second;
  }
}

TEST(AliasTable, MatchesWeights) {
  std::vector<double> w{1.0, 2.0, 4.0, 8.0};  // p = 1/15, 2/15, 4/15, 8/15
  gen::AliasTable t(w);
  gen::Xoshiro256 rng(11);
  std::vector<std::size_t> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[t.sample(rng)];
  for (int k = 0; k < 4; ++k) {
    const double expect = w[static_cast<std::size_t>(k)] / 15.0;
    const double got = static_cast<double>(counts[static_cast<std::size_t>(k)]) / n;
    EXPECT_NEAR(got, expect, 0.01) << "bucket " << k;
  }
}

TEST(AliasTable, Validation) {
  EXPECT_THROW(gen::AliasTable(std::vector<double>{}), gbx::InvalidValue);
  EXPECT_THROW(gen::AliasTable(std::vector<double>{0, 0}), gbx::InvalidValue);
  EXPECT_THROW(gen::AliasTable(std::vector<double>{1, -1}), gbx::InvalidValue);
  EXPECT_NO_THROW(gen::AliasTable(std::vector<double>{0, 1}));
}

TEST(PowerLaw, DeterministicPerSeed) {
  gen::PowerLawParams p;
  p.scale = 10;
  p.seed = 5;
  gen::PowerLawGenerator g1(p), g2(p);
  auto b1 = g1.batch<double>(1000);
  auto b2 = g2.batch<double>(1000);
  ASSERT_EQ(b1.size(), b2.size());
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(b1[i].row, b2[i].row);
    EXPECT_EQ(b1[i].col, b2[i].col);
  }
}

TEST(PowerLaw, CoordinatesWithinDim) {
  gen::PowerLawParams p;
  p.scale = 12;
  p.dim = 1u << 20;
  gen::PowerLawGenerator g(p);
  auto b = g.batch<double>(20000);
  for (const auto& e : b) {
    EXPECT_LT(e.row, p.dim);
    EXPECT_LT(e.col, p.dim);
  }
}

TEST(PowerLaw, DegreeDistributionHasPowerLawTail) {
  gen::PowerLawParams p;
  p.scale = 12;
  p.alpha = 1.4;
  p.scatter = false;  // keep raw ranks so the shape is directly visible
  p.dim = 1u << 12;
  gen::PowerLawGenerator g(p);

  gbx::Matrix<double> m(p.dim, p.dim);
  m.append(g.batch<double>(200000));
  m.materialize();
  auto hist = analytics::out_degree_histogram(m);
  const double slope = analytics::power_law_slope(hist);
  // Power-law degree distributions show strongly negative log-log slope.
  EXPECT_LT(slope, -0.5) << "slope " << slope << " is not heavy-tailed";
}

TEST(PowerLaw, ScatterPreservesMultiset) {
  // Scatter is a deterministic relabeling: the multiset of degree values
  // must be identical with and without it.
  gen::PowerLawParams p1, p2;
  p1.scale = p2.scale = 10;
  p1.seed = p2.seed = 9;
  p1.scatter = false;
  p1.dim = 1u << 10;
  p2.scatter = true;
  p2.dim = gbx::kIPv4Dim;
  gen::PowerLawGenerator g1(p1), g2(p2);
  auto b1 = g1.batch<double>(30000);
  auto b2 = g2.batch<double>(30000);

  std::map<gbx::Index, int> c1, c2;
  for (const auto& e : b1) ++c1[e.row];
  for (const auto& e : b2) ++c2[e.row];
  std::vector<int> v1, v2;
  for (auto& [k, c] : c1) v1.push_back(c);
  for (auto& [k, c] : c2) v2.push_back(c);
  std::sort(v1.begin(), v1.end());
  std::sort(v2.begin(), v2.end());
  // mix64 collisions into dim >> population are negligible but possible;
  // allow the tiniest slack in the comparison.
  ASSERT_NEAR(static_cast<double>(v1.size()),
              static_cast<double>(v2.size()), 2.0);
}

TEST(PowerLaw, Validation) {
  gen::PowerLawParams p;
  p.scale = 0;
  EXPECT_THROW(gen::PowerLawGenerator{p}, gbx::InvalidValue);
  p.scale = 12;
  p.dim = 100;  // smaller than 2^12 population
  EXPECT_THROW(gen::PowerLawGenerator{p}, gbx::InvalidValue);
}

TEST(Kronecker, EdgesWithinVertexSpace) {
  gen::KroneckerParams p;
  p.scale = 10;
  gen::KroneckerGenerator g(p);
  for (int i = 0; i < 10000; ++i) {
    auto [u, v] = g.edge();
    EXPECT_LT(u, g.nverts());
    EXPECT_LT(v, g.nverts());
  }
}

TEST(Kronecker, SkewTowardLowIdsWithoutScramble) {
  gen::KroneckerParams p;
  p.scale = 16;
  p.scramble = false;
  gen::KroneckerGenerator g(p);
  std::size_t low = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    auto [u, v] = g.edge();
    if (u < g.nverts() / 2) ++low;
  }
  // With A+B = 0.76 mass in the top half of the recursion, low ids are
  // strongly favoured.
  EXPECT_GT(static_cast<double>(low) / n, 0.65);
}

TEST(Kronecker, Validation) {
  gen::KroneckerParams p;
  p.a = 0.0;
  EXPECT_THROW(gen::KroneckerGenerator{p}, gbx::InvalidValue);
  p = {};
  p.a = 0.5;
  p.b = 0.3;
  p.c = 0.3;
  EXPECT_THROW(gen::KroneckerGenerator{p}, gbx::InvalidValue);
}

}  // namespace
