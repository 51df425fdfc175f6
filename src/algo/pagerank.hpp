// algo/pagerank.hpp — PageRank over hypersparse matrices.
//
// Standard damped power iteration expressed with gbx kernels. Ranks are
// maintained only for vertices that appear in the graph (hypersparse
// discipline: the 2^32 vertex space never materializes). Dangling mass is
// redistributed uniformly over the *active* vertex set, the convention
// for graphs embedded in enormous ID spaces.
#pragma once

#include <cmath>
#include <unordered_map>
#include <vector>

#include "gbx/apply.hpp"
#include "gbx/matrix.hpp"
#include "gbx/ops.hpp"
#include "gbx/reduce.hpp"

namespace algo {

struct PageRankOptions {
  double damping = 0.85;
  double tol = 1e-8;     ///< L1 convergence threshold
  int max_iters = 100;
  /// Optional warm start: (vertex, rank) pairs from a previous result
  /// (PageRankResult::ranks is accepted as-is). Known vertices start at
  /// their previous rank, new vertices at 1/n, and the vector is
  /// renormalized to sum 1. On a slightly-changed graph the iteration
  /// then converges in a handful of sweeps instead of from scratch —
  /// the incremental-analytics fast path (analytics::IncrementalEngine).
  /// The converged result agrees with a cold run to within `tol`, but is
  /// not bit-identical to it (different iterate sequence); leave this
  /// null when exact reproducibility against cold runs is required.
  const std::vector<std::pair<gbx::Index, double>>* warm_start = nullptr;
};

struct PageRankResult {
  std::vector<std::pair<gbx::Index, double>> ranks;  ///< active vertices only
  int iterations = 0;
  double residual = 0;  ///< final L1 delta
};

template <class T, class M>
PageRankResult pagerank(const gbx::Matrix<T, M>& A,
                        PageRankOptions opt = {}) {
  GBX_CHECK_DIM(A.nrows() == A.ncols(), "pagerank requires a square matrix");
  GBX_CHECK_VALUE(opt.damping > 0 && opt.damping < 1,
                  "damping must be in (0, 1)");

  // Active vertex set: every endpoint of any stored edge.
  std::unordered_map<gbx::Index, std::size_t> slot;  // vertex -> dense pos
  std::vector<gbx::Index> verts;
  A.for_each([&](gbx::Index i, gbx::Index j, T) {
    if (slot.emplace(i, verts.size()).second) verts.push_back(i);
    if (slot.emplace(j, verts.size()).second) verts.push_back(j);
  });
  const std::size_t n = verts.size();
  PageRankResult out;
  if (n == 0) return out;

  // Out-degree per active vertex.
  auto outdeg = gbx::reduce_rows<gbx::PlusMonoid<T>>(
      gbx::apply<gbx::One<T>>(A));

  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  if (opt.warm_start != nullptr && !opt.warm_start->empty()) {
    for (const auto& [v, r] : *opt.warm_start) {
      auto it = slot.find(v);
      if (it != slot.end()) rank[it->second] = r;
    }
    double total = 0;
    for (double r : rank) total += r;
    if (total > 0)
      for (double& r : rank) r /= total;
  }

  // Dense-ified edge walk (active set is small by construction).
  struct Edge {
    std::size_t from;
    std::size_t to;
  };
  std::vector<Edge> edges;
  edges.reserve(A.nvals());
  A.for_each([&](gbx::Index i, gbx::Index j, T) {
    edges.push_back({slot.at(i), slot.at(j)});
  });
  std::vector<double> inv_outdeg(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    auto d = outdeg.get(verts[k]);
    if (d && static_cast<double>(*d) > 0) inv_outdeg[k] = 1.0 / static_cast<double>(*d);
  }

  const double base = (1.0 - opt.damping) / static_cast<double>(n);
  for (out.iterations = 0; out.iterations < opt.max_iters; ++out.iterations) {
    // Dangling vertices spread their rank uniformly.
    double dangling = 0;
    for (std::size_t k = 0; k < n; ++k)
      if (inv_outdeg[k] == 0.0) dangling += rank[k];
    const double spread =
        base + opt.damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), spread);
    for (const auto& e : edges)
      next[e.to] += opt.damping * rank[e.from] * inv_outdeg[e.from];

    double delta = 0;
    for (std::size_t k = 0; k < n; ++k) delta += std::abs(next[k] - rank[k]);
    rank.swap(next);
    out.residual = delta;
    if (delta < opt.tol) {
      ++out.iterations;
      break;
    }
  }

  out.ranks.reserve(n);
  for (std::size_t k = 0; k < n; ++k) out.ranks.emplace_back(verts[k], rank[k]);
  std::sort(out.ranks.begin(), out.ranks.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace algo
