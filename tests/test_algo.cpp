// Tests for the graph algorithm layer (PageRank, triangles) over
// hypersparse matrices.
#include <gtest/gtest.h>

#include <random>

#include "algo/algo.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"

namespace {

using gbx::Index;
using gbx::Matrix;

TEST(PageRank, UniformCycle) {
  // A directed cycle: perfectly uniform ranks.
  const Index n = 8;
  Matrix<double> g(100, 100);
  for (Index k = 0; k < n; ++k) g.set_element(k, (k + 1) % n, 1.0);
  auto r = algo::pagerank(g);
  ASSERT_EQ(r.ranks.size(), n);
  for (const auto& [v, rank] : r.ranks) EXPECT_NEAR(rank, 1.0 / n, 1e-6);
  EXPECT_LT(r.residual, 1e-7);
}

TEST(PageRank, HubGetsHighestRank) {
  // Star pointing into vertex 0: it must rank first.
  Matrix<double> g(1000, 1000);
  for (Index k = 1; k <= 20; ++k) {
    g.set_element(k, 0, 1.0);
    g.set_element(0, k, 1.0);  // back edges so nothing dangles awkwardly
  }
  auto r = algo::pagerank(g);
  ASSERT_FALSE(r.ranks.empty());
  EXPECT_EQ(r.ranks[0].first, 0u);
  EXPECT_GT(r.ranks[0].second, r.ranks[1].second * 2);
}

TEST(PageRank, RanksSumToOne) {
  gen::KroneckerParams kp;
  kp.scale = 8;
  kp.seed = 5;
  gen::KroneckerGenerator kg(kp);
  Matrix<double> g(kg.nverts(), kg.nverts());
  g.append(kg.batch<double>(2000));
  g.materialize();
  auto r = algo::pagerank(g);
  double total = 0;
  for (const auto& [v, rank] : r.ranks) total += rank;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(PageRank, EmptyGraph) {
  Matrix<double> g(10, 10);
  auto r = algo::pagerank(g);
  EXPECT_TRUE(r.ranks.empty());
}

TEST(PageRank, Validation) {
  Matrix<double> g(4, 4);
  algo::PageRankOptions opt;
  opt.damping = 1.5;
  EXPECT_THROW(algo::pagerank(g, opt), gbx::InvalidValue);
}

TEST(Triangles, SingleTriangle) {
  Matrix<double> g(100, 100);
  g.set_element(1, 2, 1.0);
  g.set_element(2, 3, 1.0);
  g.set_element(3, 1, 1.0);  // directed cycle = one undirected triangle
  EXPECT_EQ(algo::triangle_count(g), 1u);
}

TEST(Triangles, CompleteGraphK5) {
  // K5 has C(5,3) = 10 triangles.
  Matrix<double> g(10, 10);
  for (Index i = 0; i < 5; ++i)
    for (Index j = 0; j < 5; ++j)
      if (i != j) g.set_element(i, j, 1.0);
  EXPECT_EQ(algo::triangle_count(g), 10u);
}

TEST(Triangles, TriangleFreeBipartite) {
  Matrix<double> g(20, 20);
  for (Index i = 0; i < 5; ++i)
    for (Index j = 5; j < 10; ++j) g.set_element(i, j, 1.0);
  EXPECT_EQ(algo::triangle_count(g), 0u);
}

TEST(Triangles, SelfLoopsIgnored) {
  Matrix<double> g(10, 10);
  g.set_element(1, 1, 1.0);
  g.set_element(1, 2, 1.0);
  g.set_element(2, 1, 1.0);
  EXPECT_EQ(algo::triangle_count(g), 0u);
}

TEST(Triangles, VsBruteForceRandom) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<Index> coord(0, 29);
  Matrix<double> g(30, 30);
  bool adj[30][30] = {};
  for (int e = 0; e < 120; ++e) {
    Index i = coord(rng), j = coord(rng);
    if (i == j) continue;
    g.set_element(i, j, 1.0);
    adj[i][j] = adj[j][i] = true;
  }
  std::uint64_t brute = 0;
  for (int a = 0; a < 30; ++a)
    for (int b = a + 1; b < 30; ++b)
      for (int c = b + 1; c < 30; ++c)
        if (adj[a][b] && adj[b][c] && adj[a][c]) ++brute;
  EXPECT_EQ(algo::triangle_count(g), brute);
}

TEST(AlgoOnStream, HierSnapshotIsAnalyzable) {
  // The paper's end state: run graph algorithms on a live hierarchical
  // traffic matrix snapshot.
  gen::KroneckerParams kp;
  kp.scale = 10;
  kp.seed = 3;
  gen::KroneckerGenerator kg(kp);
  hier::HierMatrix<double> h(kg.nverts(), kg.nverts(),
                             hier::CutPolicy::geometric(3, 512, 8));
  for (int s = 0; s < 5; ++s) h.update(kg.batch<double>(2000));
  auto snap = h.snapshot();

  auto tri = algo::triangle_count(snap);
  (void)tri;  // value depends on seed; just must not throw
  auto pr = algo::pagerank(snap);
  EXPECT_FALSE(pr.ranks.empty());
}

}  // namespace
