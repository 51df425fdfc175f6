// analytics/incremental.hpp — delta-driven incremental analytics engine.
//
// The paper's analysis step materializes A = Σ Ai on every query; the
// snapshot engine (PR 2) made that safe under live ingest, but every
// pass still recomputed from scratch. Streaming network-analytics
// pipelines (e.g. the enterprise IP-similarity system of Soliman et al.,
// arXiv:2010.04777) re-run their graph metrics on every window — the
// pattern where delta-driven recompute turns O(nnz) per pass into
// O(changed).
//
// IncrementalEngine holds a snapshot source (anything with freeze()),
// keeps the previous snapshot plus derived state (materialized Σ Ai,
// traffic/degree summary, triangle adjacency, PageRank), and on
// refresh() diffs the new snapshot against the previous one
// (hier::snapshot_diff, block identity reuse) and patches the derived
// state from the delta instead of recomputing it.
//
// Exactness contract per quantity (asserted by tests/bench):
//   * Σ Ai          — bit-identical to snapshot.to_matrix(): the delta
//                     carries the new snapshot's own left-fold values,
//                     and the patch is a right-biased union merge.
//   * triangles     — exactly equal to algo::triangle_count(Σ Ai): new
//                     undirected edges close |N(u) ∩ N(v)| triangles at
//                     insertion time, each triangle counted once by its
//                     last-inserted edge.
//   * links/sources/destinations/max_link — exactly equal to
//                     analytics::summarize(Σ Ai) (integer/max updates).
//   * packets/mean  — floating accumulation in delta order; equal to a
//                     full summarize up to roundoff (not bit-identical).
//   * PageRank      — two modes. Warm start (default): previous ranks
//                     seed the iteration with delta-seeded residual
//                     early-exit; agrees with a cold full recompute to
//                     within the convergence tolerance. Exact mode
//                     (pagerank_warm_start = false): a cold run on the
//                     incrementally-maintained Σ Ai — bit-identical to
//                     the full recompute because the inputs are.
//
// Any refresh whose delta reports removals (out-of-order snapshots,
// source restarted) falls back to a full recompute and says so in the
// report — incrementality is an optimization, never a correctness bet.
//
// Memory-governed sources (hier::MemoryGovernor): the governor spells
// freeze() too, so the engine layers on it unchanged — snapshot_type
// becomes the governed handle. When the governor has evicted the
// engine's cached previous snapshot between refreshes (its levels
// compacted, so no block-identity diff exists any more),
// try_snapshot_diff reports the image unavailable and the refresh falls
// back to the same counted full recompute, with
// report.prev_unavailable set. Delta semantics are unchanged either
// way; results stay exactly as specified above.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algo/pagerank.hpp"
#include "algo/triangle_count.hpp"
#include "analytics/traffic.hpp"
#include "gbx/ewise.hpp"
#include "gbx/ops.hpp"
#include "gbx/reduce.hpp"
#include "hier/delta.hpp"
#include "hier/snapshot.hpp"

namespace analytics {

struct IncrementalOptions {
  algo::PageRankOptions pagerank;
  /// Warm-start PageRank from the previous converged ranks (fast,
  /// tolerance-exact). false = cold rerun on the maintained Σ Ai
  /// (bit-identical to a full recompute, costs full iterations).
  bool pagerank_warm_start = true;
  bool enable_pagerank = true;
  bool enable_triangles = true;
};

/// What one refresh() did.
struct IncrementalReport {
  std::uint64_t epoch = 0;          ///< epoch of the snapshot analyzed
  bool full_recompute = false;      ///< first pass, removal, or eviction
                                    ///< fallback
  bool prev_unavailable = false;    ///< previous snapshot was evicted by
                                    ///< a memory governor
  std::size_t added = 0;            ///< new coordinates in Σ Ai
  std::size_t changed = 0;          ///< coordinates whose value changed
  std::size_t new_edges = 0;        ///< new undirected graph edges
  int pagerank_iterations = 0;      ///< 0 when reused/skipped
  hier::DeltaStats delta;           ///< block-reuse accounting
};

template <class Source>
class IncrementalEngine {
 public:
  using snapshot_type =
      std::decay_t<decltype(std::declval<Source&>().freeze())>;
  using value_type = typename snapshot_type::value_type;
  using matrix_type = typename snapshot_type::matrix_type;
  using T = value_type;

  explicit IncrementalEngine(Source& source, IncrementalOptions opt = {})
      : source_(&source), opt_(std::move(opt)) {}

  /// Freeze a fresh snapshot and bring every derived quantity up to
  /// date — incrementally when the delta allows it. Returns the report
  /// for this pass. Single-analyst discipline: one thread calls
  /// refresh(); the results are plain members readable between calls.
  const IncrementalReport& refresh() {
    auto snap = source_->freeze();
    report_ = IncrementalReport{};
    report_.epoch = snap.epoch();
    ++refreshes_;

    if (!has_state_) {
      full_recompute(snap);
    } else {
      // Unqualified: ADL resolves the governed-handle overload (which
      // reports nullopt once eviction took the diffable structure away)
      // as well as the plain-snapshot wrapper in hier/delta.hpp.
      auto delta = try_snapshot_diff(prev_, snap);
      if (!delta) {
        // A memory governor evicted the cached image: recompute.
        report_.prev_unavailable = true;
        full_recompute(snap);
      } else if (!delta->removed.empty()) {
        // Not an epoch-ordered pair from this source: start over.
        report_.delta = delta->stats;
        full_recompute(snap);
      } else {
        report_.delta = delta->stats;
        apply_delta(*delta);
      }
    }
    prev_ = std::move(snap);
    return report_;
  }

  /// Materialized Σ Ai of the last refreshed snapshot (bit-identical to
  /// snapshot().to_matrix()).
  const matrix_type& sum() const { return sum_; }
  const snapshot_type& snapshot() const { return prev_; }
  const TrafficSummary& summary() const { return summary_; }
  const algo::PageRankResult& pagerank() const { return pagerank_; }
  std::uint64_t triangles() const { return triangles_; }
  const IncrementalReport& last_report() const { return report_; }
  std::uint64_t refreshes() const { return refreshes_; }
  std::uint64_t full_recomputes() const { return full_recomputes_; }

 private:
  using Index = gbx::Index;

  void full_recompute(const snapshot_type& snap) {
    ++full_recomputes_;
    report_.full_recompute = true;
    sum_ = snap.to_matrix();
    summary_ = summarize(sum_);
    row_links_.clear();
    col_links_.clear();
    sum_.for_each([&](Index i, Index j, T) {
      ++row_links_[i];
      ++col_links_[j];
    });
    if (opt_.enable_triangles) {
      GBX_CHECK_DIM(sum_.nrows() == sum_.ncols(),
                    "incremental triangles require a square matrix");
      rebuild_adjacency();
      triangles_ = algo::triangle_count(sum_);
    }
    if (opt_.enable_pagerank) {
      GBX_CHECK_DIM(sum_.nrows() == sum_.ncols(),
                    "incremental pagerank requires a square matrix");
      auto opt = opt_.pagerank;
      opt.warm_start = nullptr;  // full recompute = cold, reproducible
      pagerank_ = algo::pagerank(sum_, opt);
      report_.pagerank_iterations = pagerank_.iterations;
    }
    has_state_ = true;
  }

  void apply_delta(const hier::SnapshotDelta<T>& delta) {
    report_.added = delta.added.size();
    report_.changed = delta.changed.size();

    // --- Σ Ai: right-biased union patch. The delta values are the new
    // snapshot's own cross-level fold, so the patched matrix equals the
    // full to_matrix() bit-for-bit.
    if (!delta.empty()) {
      gbx::Tuples<T> patch;
      patch.reserve(delta.added.size() + delta.changed.size());
      patch.append(delta.added);
      for (const auto& c : delta.changed) patch.push_back(c.row, c.col, c.new_val);
      patch.template sort_dedup<typename matrix_type::add_monoid>();
      auto patch_block =
          gbx::Dcsr<T>::from_sorted_unique(patch.entries());
      sum_ = matrix_type::adopt(
          sum_.nrows(), sum_.ncols(),
          gbx::ewise_add<gbx::Second<T>>(sum_.storage(), patch_block));
    }

    // --- degree / traffic summary.
    bool max_rescan = false;
    // With no prior links there is no prior maximum to extend (added
    // values may all be negative).
    double max_candidate = summary_.links > 0
                               ? summary_.max_link
                               : std::numeric_limits<double>::lowest();
    for (const auto& e : delta.added) {
      if (++row_links_[e.row] == 1) ++summary_.sources;
      if (++col_links_[e.col] == 1) ++summary_.destinations;
      summary_.packets += static_cast<double>(e.val);
      max_candidate = std::max(max_candidate, static_cast<double>(e.val));
    }
    summary_.links += delta.added.size();
    for (const auto& c : delta.changed) {
      summary_.packets += static_cast<double>(c.new_val) -
                          static_cast<double>(c.old_val);
      const double nv = static_cast<double>(c.new_val);
      max_candidate = std::max(max_candidate, nv);
      // The previous maximum may have decreased: only then is a rescan
      // needed to find the new (exact) maximum.
      if (nv < static_cast<double>(c.old_val) &&
          static_cast<double>(c.old_val) >= summary_.max_link)
        max_rescan = true;
    }
    if (summary_.links > 0) {
      summary_.max_link =
          max_rescan ? static_cast<double>(
                           gbx::reduce_scalar<gbx::MaxMonoid<T>>(sum_))
                     : max_candidate;
      summary_.mean_link =
          summary_.packets / static_cast<double>(summary_.links);
    }

    // --- triangles: close new undirected edges against the current
    // adjacency; each new triangle is counted exactly once, at the
    // insertion of its last edge. Value-only changes never touch the
    // pattern, so `changed` is skipped entirely.
    if (opt_.enable_triangles) {
      for (const auto& e : delta.added) {
        if (e.row == e.col) continue;
        if (has_edge(e.row, e.col)) continue;  // reverse direction known
        triangles_ += common_neighbors(e.row, e.col);
        add_edge(e.row, e.col);
        ++report_.new_edges;
      }
    }

    // --- PageRank: the transition structure depends only on the edge
    // pattern, so value-only deltas reuse the previous ranks outright.
    // Structural deltas warm-start from them (or rerun cold in exact
    // mode). NOTE: pagerank's pattern is the DIRECTED stored structure,
    // self-loops included — every added coordinate changes it, even the
    // reverse directions and self-loops the undirected triangle
    // adjacency deliberately ignores.
    if (opt_.enable_pagerank) {
      const bool pattern_changed = !delta.added.empty();
      if (pattern_changed) {
        auto opt = opt_.pagerank;
        if (opt_.pagerank_warm_start) {
          // Delta-seeded residual: a perturbation confined to the new
          // edges' endpoints moves at most ~d/(1-d) of their rank mass;
          // below tolerance the previous ranks are already converged.
          if (seeded_residual(delta) < opt.tol) {
            report_.pagerank_iterations = 0;
            return;
          }
          opt.warm_start = &pagerank_.ranks;
        } else {
          opt.warm_start = nullptr;
        }
        pagerank_ = algo::pagerank(sum_, opt);
        report_.pagerank_iterations = pagerank_.iterations;
      }
    }
  }

  /// Upper-bound seed for the post-delta PageRank residual: rank mass
  /// sitting at the endpoints of new edges, amplified by the damping
  /// geometric series. Crude but sound as an early-exit guard — with
  /// any real churn it exceeds tol and the iteration runs.
  double seeded_residual(const hier::SnapshotDelta<T>& delta) const {
    std::unordered_map<Index, double> rank_of;
    rank_of.reserve(pagerank_.ranks.size());
    for (const auto& [v, r] : pagerank_.ranks) rank_of.emplace(v, r);
    const double floor_rank =
        pagerank_.ranks.empty()
            ? 1.0
            : 1.0 / static_cast<double>(pagerank_.ranks.size());
    double mass = 0;
    for (const auto& e : delta.added) {
      auto it = rank_of.find(e.row);
      mass += it != rank_of.end() ? it->second : floor_rank;
      it = rank_of.find(e.col);
      mass += it != rank_of.end() ? it->second : floor_rank;
    }
    const double d = opt_.pagerank.damping;
    return 2.0 * mass * d / (1.0 - d);
  }

  // --- symmetrized adjacency (pattern of Σ Ai, self-loops dropped),
  // sorted neighbor lists for O(min-degree · log) edge closure counts.
  void rebuild_adjacency() {
    adj_.clear();
    sum_.for_each([&](Index i, Index j, T) {
      if (i == j) return;
      if (!has_edge(i, j)) add_edge(i, j);
    });
  }

  bool has_edge(Index u, Index v) const {
    auto it = adj_.find(u);
    if (it == adj_.end()) return false;
    return std::binary_search(it->second.begin(), it->second.end(), v);
  }

  void add_edge(Index u, Index v) {
    insert_sorted(adj_[u], v);
    insert_sorted(adj_[v], u);
  }

  static void insert_sorted(std::vector<Index>& list, Index v) {
    list.insert(std::lower_bound(list.begin(), list.end(), v), v);
  }

  std::uint64_t common_neighbors(Index u, Index v) const {
    auto iu = adj_.find(u);
    auto iv = adj_.find(v);
    if (iu == adj_.end() || iv == adj_.end()) return 0;
    const auto* small = &iu->second;
    const auto* big = &iv->second;
    if (small->size() > big->size()) std::swap(small, big);
    std::uint64_t n = 0;
    for (Index w : *small)
      if (std::binary_search(big->begin(), big->end(), w)) ++n;
    return n;
  }

  Source* source_;
  IncrementalOptions opt_;
  bool has_state_ = false;
  snapshot_type prev_;
  matrix_type sum_{1, 1};
  TrafficSummary summary_;
  algo::PageRankResult pagerank_;
  std::uint64_t triangles_ = 0;
  std::unordered_map<Index, std::uint64_t> row_links_, col_links_;
  std::unordered_map<Index, std::vector<Index>> adj_;
  IncrementalReport report_;
  std::uint64_t refreshes_ = 0;
  std::uint64_t full_recomputes_ = 0;
};

}  // namespace analytics
