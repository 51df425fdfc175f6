// analytics/traffic.hpp — traffic-matrix network statistics.
//
// The paper's motivating application (Section I): origin-destination
// traffic matrices enable "observation of temporal fluctuations of
// network supernodes, computing background models, and inferring the
// presence of unobserved traffic". These are the statistics "each
// process would also compute ... on each of the streams as they are
// updated". Everything here consumes a materialized gbx matrix — in a
// streaming pipeline, a HierMatrix snapshot().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gbx/apply.hpp"
#include "gbx/matrix.hpp"
#include "gbx/ops.hpp"
#include "gbx/reduce.hpp"

namespace analytics {

/// Scalar summary of a traffic matrix A(src, dst) = #packets.
struct TrafficSummary {
  std::uint64_t links = 0;        ///< nnz: distinct (src, dst) pairs
  double packets = 0;             ///< total traffic (sum of values)
  std::uint64_t sources = 0;      ///< distinct senders (non-empty rows)
  std::uint64_t destinations = 0; ///< distinct receivers
  double max_link = 0;            ///< heaviest single link
  double mean_link = 0;           ///< packets / links
};

/// Summary of an immutable snapshot view: touches only the frozen block,
/// so it is safe while the owning matrix keeps streaming.
template <class T>
TrafficSummary summarize(const gbx::MatrixView<T>& A) {
  TrafficSummary s;
  s.links = A.nvals();
  s.packets = static_cast<double>(gbx::reduce_scalar<gbx::PlusMonoid<T>>(A));
  s.sources = A.storage().nrows_nonempty();
  s.destinations = gbx::reduce_cols<gbx::PlusMonoid<T>>(A).nvals();
  if (s.links > 0) {
    s.max_link = static_cast<double>(gbx::reduce_scalar<gbx::MaxMonoid<T>>(A));
    s.mean_link = s.packets / static_cast<double>(s.links);
  }
  return s;
}

template <class T, class M>
TrafficSummary summarize(const gbx::Matrix<T, M>& A) {
  return summarize(A.view());  // folds pending, then reads the view
}

/// One vertex with an associated magnitude (degree, traffic volume, ...).
struct RankedVertex {
  gbx::Index id;
  double value;
};

namespace detail {

/// The k largest entries of a per-vertex reduction, heaviest first.
template <class T>
std::vector<RankedVertex> top_k(const gbx::SparseVector<T>& v, std::size_t k) {
  std::vector<RankedVertex> all;
  all.reserve(v.nvals());
  v.for_each([&](gbx::Index i, T x) {
    all.push_back({i, static_cast<double>(x)});
  });
  const std::size_t kk = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(kk),
                    all.end(), [](const RankedVertex& a, const RankedVertex& b) {
                      return a.value > b.value;
                    });
  all.resize(kk);
  return all;
}

}  // namespace detail

/// Top-k rows by out-traffic (the paper's "supernodes"). `by_links` ranks
/// by distinct peers (out-degree) instead of packet volume.
template <class T, class M>
std::vector<RankedVertex> top_sources(const gbx::Matrix<T, M>& A, std::size_t k,
                                      bool by_links = false) {
  return detail::top_k(
      by_links ? gbx::reduce_rows<gbx::PlusMonoid<T>>(gbx::apply<gbx::One<T>>(A))
               : gbx::reduce_rows<gbx::PlusMonoid<T>>(A),
      k);
}

/// Top-k columns by in-traffic.
template <class T, class M>
std::vector<RankedVertex> top_destinations(const gbx::Matrix<T, M>& A,
                                           std::size_t k,
                                           bool by_links = false) {
  return detail::top_k(
      by_links ? gbx::reduce_cols<gbx::PlusMonoid<T>>(gbx::apply<gbx::One<T>>(A))
               : gbx::reduce_cols<gbx::PlusMonoid<T>>(A),
      k);
}

/// Degree distribution: histogram[d] = #vertices with out-degree d,
/// returned as (degree, count) pairs sorted by degree.
template <class T, class M>
std::vector<std::pair<std::uint64_t, std::uint64_t>> out_degree_histogram(
    const gbx::Matrix<T, M>& A) {
  auto deg = gbx::reduce_rows<gbx::PlusMonoid<T>>(gbx::apply<gbx::One<T>>(A));
  std::vector<std::uint64_t> degrees;
  degrees.reserve(deg.nvals());
  deg.for_each([&](gbx::Index, T d) {
    degrees.push_back(static_cast<std::uint64_t>(d));
  });
  std::sort(degrees.begin(), degrees.end());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hist;
  for (std::uint64_t d : degrees) {
    if (!hist.empty() && hist.back().first == d) ++hist.back().second;
    else hist.emplace_back(d, 1);
  }
  return hist;
}

/// Least-squares slope of log(count) vs log(degree): a power-law degree
/// distribution shows a clearly negative slope (≈ -alpha). Used both by
/// analytics consumers and by tests validating the generators.
inline double power_law_slope(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& hist) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (const auto& [d, c] : hist) {
    if (d == 0 || c == 0) continue;
    const double x = std::log(static_cast<double>(d));
    const double y = std::log(static_cast<double>(c));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  const double nn = static_cast<double>(n);
  const double denom = nn * sxx - sx * sx;
  return denom == 0 ? 0.0 : (nn * sxy - sx * sy) / denom;
}

}  // namespace analytics
