// analytics/background.hpp — background traffic model & anomaly scoring.
//
// The classic gravity (rank-1) background model for traffic matrices
// (Zhang et al., ToN 2005, the paper's ref [5]): expected traffic on link
// (i, j) is out_i * in_j / total. Links whose observed volume exceeds the
// expectation by a large factor are anomalies — the "inferring unobserved
// /unexpected traffic" use case the paper motivates.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/reduce.hpp"

namespace analytics {

struct Anomaly {
  gbx::Index src;
  gbx::Index dst;
  double observed;
  double expected;
  double score;  ///< observed / expected
};

/// Rank-1 gravity model scores for every stored link, descending by
/// score; links with expected == 0 cannot occur (marginals cover every
/// stored entry). Returns at most `k` anomalies with score >= min_score
/// and observed volume >= min_observed — the support threshold keeps
/// one-packet flows between otherwise-quiet hosts (expected ~ 1/total,
/// score ~ total) from drowning out real heavy hitters.
template <class T, class M>
std::vector<Anomaly> gravity_anomalies(const gbx::Matrix<T, M>& A,
                                       std::size_t k, double min_score = 2.0,
                                       double min_observed = 0.0) {
  const double total =
      static_cast<double>(gbx::reduce_scalar<gbx::PlusMonoid<T>>(A));
  if (total <= 0) return {};

  auto out = gbx::reduce_rows<gbx::PlusMonoid<T>>(A);
  auto in = gbx::reduce_cols<gbx::PlusMonoid<T>>(A);

  // Dense-free marginal lookup: both reductions are sorted sparse vectors.
  auto lookup = [](const gbx::SparseVector<T>& v, gbx::Index i) -> double {
    auto x = v.get(i);
    return x ? static_cast<double>(*x) : 0.0;
  };

  std::vector<Anomaly> all;
  A.for_each([&](gbx::Index i, gbx::Index j, T obs) {
    if (static_cast<double>(obs) < min_observed) return;
    const double e = lookup(out, i) * lookup(in, j) / total;
    if (e <= 0) return;
    const double score = static_cast<double>(obs) / e;
    if (score >= min_score)
      all.push_back({i, j, static_cast<double>(obs), e, score});
  });
  std::sort(all.begin(), all.end(),
            [](const Anomaly& a, const Anomaly& b) { return a.score > b.score; });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Residual matrix R = A - gravity(A), for downstream spectral analysis.
/// Only stored links get residuals (hypersparse discipline).
template <class T, class M>
gbx::Matrix<double> gravity_residual(const gbx::Matrix<T, M>& A) {
  const double total =
      static_cast<double>(gbx::reduce_scalar<gbx::PlusMonoid<T>>(A));
  gbx::Matrix<double> R(A.nrows(), A.ncols());
  if (total <= 0) return R;
  auto out = gbx::reduce_rows<gbx::PlusMonoid<T>>(A);
  auto in = gbx::reduce_cols<gbx::PlusMonoid<T>>(A);
  gbx::Tuples<double> resid;
  A.for_each([&](gbx::Index i, gbx::Index j, T obs) {
    const double e = static_cast<double>(*out.get(i)) *
                     static_cast<double>(*in.get(j)) / total;
    resid.push_back(i, j, static_cast<double>(obs) - e);
  });
  R.append(resid);
  R.materialize();
  return R;
}

}  // namespace analytics
