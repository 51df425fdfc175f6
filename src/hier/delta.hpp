// hier/delta.hpp — snapshot-to-snapshot deltas for incremental analytics.
//
// Successive epoch snapshots of one source share every level block the
// writer has not folded past (shared_ptr identity, see gbx/view.hpp).
// snapshot_diff exploits that: level slices both images hold (same
// block, same rows) are skipped outright, and only the rest is merged
// entry-by-entry (gbx::delta). The result is the difference of
// the *logical* matrices Σ Ai — per-level movement that cancels out
// (a fold relocating entries to the next level without changing the
// union value) is filtered away by re-reading both snapshots' cross-
// level folds at every touched coordinate.
//
// Exactness contract: `added` carries the new snapshot's union value and
// `changed` carries both union values, each computed with the snapshot's
// own extract_element — the identical left-fold (ascending level order,
// part-major for sets) that to_matrix() applies per coordinate. Patching
// a materialized old Σ Ai with these entries therefore reproduces the
// full to_matrix() of the new snapshot bit-for-bit, which is what lets
// IncrementalEngine (analytics/incremental.hpp) assert exact equality
// against full recomputes.
//
// Streaming sources only ever add entries (folds preserve them), so
// `removed` is empty for snapshot pairs taken from one source in epoch
// order; it is populated — and reported — when diffing unrelated or
// out-of-order snapshots, so callers can detect that and fall back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "gbx/delta.hpp"
#include "gbx/error.hpp"
#include "hier/snapshot.hpp"

namespace hier {

/// Per-level reuse accounting of one snapshot_diff call: how much of the
/// two snapshots was skipped via block identity versus actually scanned.
struct DeltaStats {
  std::size_t levels_total = 0;    ///< level slots compared (all parts)
  std::size_t levels_reused = 0;   ///< skipped, every slice shared
  std::size_t entries_scanned = 0; ///< entries examined in changed blocks
                                   ///< (both sides of each pair)
  std::size_t entries_reused = 0;  ///< entries skipped in reused blocks
                                   ///< (both sides, same units as scanned)
  std::size_t bytes_reused = 0;    ///< heap bytes of the reused blocks

  double reuse_ratio() const {
    const std::size_t total = entries_scanned + entries_reused;
    return total == 0 ? 1.0
                      : static_cast<double>(entries_reused) /
                            static_cast<double>(total);
  }
};

/// The difference of snapshot B's logical matrix relative to snapshot
/// A's, as entry streams over Σ Ai (NOT per level): coordinates new in
/// B, coordinates whose union value changed, and (for non-prefix pairs
/// only) coordinates that vanished.
template <class T>
struct SnapshotDelta {
  gbx::Tuples<T> added;                      ///< new coordinate, B's value
  std::vector<gbx::ChangedEntry<T>> changed; ///< both, old & new values
  gbx::Tuples<T> removed;                    ///< gone in B (A's value);
                                             ///< empty for epoch-ordered
                                             ///< pairs from one source
  DeltaStats stats;
  std::uint64_t epoch_from = 0;
  std::uint64_t epoch_to = 0;

  bool empty() const {
    return added.empty() && changed.empty() && removed.empty();
  }
  std::size_t touched() const {
    return added.size() + changed.size() + removed.size();
  }
};

namespace detail {

/// Core diff: `each_pair(f)` enumerates aligned hier::Level pairs, and
/// `get_old`/`get_new` are the two snapshots' cross-level lookups. The
/// union value is re-read at every coordinate where any changed block
/// differs (including per-level removals — a fold moving entries up
/// changes blocks without necessarily changing the union), so the
/// emitted values are exactly the left-fold values of each snapshot.
template <class T, class EachPair, class GetOld, class GetNew>
SnapshotDelta<T> diff_core(EachPair&& each_pair, GetOld&& get_old,
                           GetNew&& get_new, std::uint64_t epoch_from,
                           std::uint64_t epoch_to) {
  SnapshotDelta<T> out;
  out.epoch_from = epoch_from;
  out.epoch_to = epoch_to;

  std::vector<std::pair<gbx::Index, gbx::Index>> touched;
  each_pair([&](const auto& la, const auto& lb) {
    ++out.stats.levels_total;
    // Slices both levels hold (same block, same rows) are skipped. Same
    // units as entries_scanned (which counts BOTH sides of a changed
    // pair): a reused slice skips scanning each side once.
    using L = std::decay_t<decltype(la)>;
    const L ra = L::unshared(la, lb), rb = L::unshared(lb, la);
    out.stats.entries_reused +=
        (la.nvals() - ra.nvals()) + (lb.nvals() - rb.nvals());
    out.stats.bytes_reused += la.memory_bytes() - ra.memory_bytes();
    if (ra.slices().empty() && rb.slices().empty()) {
      ++out.stats.levels_reused;
      return;
    }
    auto d = gbx::delta(*ra.joined(), *rb.joined());
    out.stats.entries_scanned += d.entries_scanned;
    for (const auto& e : d.added) touched.emplace_back(e.row, e.col);
    for (const auto& e : d.removed) touched.emplace_back(e.row, e.col);
    for (const auto& e : d.changed) touched.emplace_back(e.row, e.col);
  });

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  for (const auto& [i, j] : touched) {
    const auto oldv = get_old(i, j);
    const auto newv = get_new(i, j);
    if (!oldv && !newv) continue;  // unreachable: touched implies presence
    if (!oldv) {
      out.added.push_back(i, j, *newv);
    } else if (!newv) {
      out.removed.push_back(i, j, *oldv);
    } else if (!(*oldv == *newv)) {
      out.changed.push_back({i, j, *oldv, *newv});
    }
    // both present and equal: per-level movement with no logical change
  }
  return out;
}

/// Pair the levels of two images for the diff: bottom with bottom, the
/// upper levels shallowest first, and the shallower image padded with
/// empty levels above its bottom. Depths differ across a growth event (a
/// level goes in above the bottom) and against a compacted() image (its
/// one level is its bottom).
template <class T, class M, class F>
void each_level_pair(const HierSnapshot<T, M>& a, const HierSnapshot<T, M>& b,
                     F&& f) {
  const std::size_t n = std::max(a.num_levels(), b.num_levels());
  const Level<T, M> none;
  auto at = [&](const HierSnapshot<T, M>& s,
                std::size_t i) -> const Level<T, M>& {
    const std::size_t ns = s.num_levels();
    if (ns == 0) return none;
    if (i + 1 == n) return s.level_slices(ns - 1);
    return i + 1 < ns ? s.level_slices(i) : none;
  };
  for (std::size_t i = 0; i < n; ++i) f(at(a, i), at(b, i));
}

}  // namespace detail

/// Diff two epoch snapshots of one source (b taken at or after a for
/// the prefix guarantee; arbitrary pairs work but may report removals),
/// parts aligned by position. O(changed blocks + touched·levels·log),
/// not O(nnz). Two images of a part may differ in depth
/// (detail::each_level_pair). Union values are read with the set's
/// part-major fold, matching SnapshotSet::to_matrix bit-for-bit.
template <class T, class M>
SnapshotDelta<T> snapshot_diff(const SnapshotSet<T, M>& a,
                               const SnapshotSet<T, M>& b) {
  GBX_CHECK_DIM(a.size() == b.size(), "snapshot_diff part count mismatch");
  for (std::size_t p = 0; p < a.size(); ++p)
    GBX_CHECK_DIM(a.part(p).nrows() == b.part(p).nrows() &&
                      a.part(p).ncols() == b.part(p).ncols(),
                  "snapshot_diff dimension mismatch");
  return detail::diff_core<T>(
      [&](auto&& f) {
        for (std::size_t p = 0; p < a.size(); ++p)
          detail::each_level_pair(a.part(p), b.part(p), f);
      },
      [&](gbx::Index i, gbx::Index j) { return a.extract_element(i, j); },
      [&](gbx::Index i, gbx::Index j) { return b.extract_element(i, j); },
      a.epoch(), b.epoch());
}

/// Optional-returning facade over snapshot_diff, for callers that must
/// tolerate snapshots whose diffable structure may have been taken away
/// under them (analytics::IncrementalEngine). For plain snapshots the
/// diff always exists, so this overload simply wraps it; governed
/// handles (hier::GovernedSnapshot, memory_governor.hpp) overload it to
/// return nullopt once eviction has compacted either image — the signal
/// to fall back to a counted full recompute.
template <class Snap>
auto try_snapshot_diff(const Snap& a, const Snap& b)
    -> std::optional<decltype(snapshot_diff(a, b))> {
  return snapshot_diff(a, b);
}

}  // namespace hier
