// hier/cut_policy.hpp — cut (threshold) schedules for the cascade.
//
// The paper: "The parameters of hierarchical hypersparse matrices rely on
// controlling the number of entries in each level in the hierarchy before
// an update is cascaded. The parameters are easily tunable to achieve
// optimal performance for a variety of applications."
//
// A CutPolicy is simply the vector c1..c_{N-1} of per-level entry
// thresholds; the bottom level N holds the rest. Geometric schedules
// c_i = c1 * r^(i-1) are the common choice: level 1 sized to fit cache,
// each level r times bigger, so every entry is merged O(log_r total) times.
//
// The schedule a matrix is built with is its starting depth. A bottom
// level that passes next_cut() — the last cut times the schedule's own
// last ratio — gets a new level above it with that cut (HierMatrix adds
// it), as LSM leveling does (O'Neil et al., The Log-Structured
// Merge-Tree, 1996): writes per entry stay O(r log n) instead of growing
// with the bottom. A one-cut schedule has no ratio and keeps its depth.
#pragma once

#include <cstddef>
#include <vector>

#include "gbx/error.hpp"

namespace hier {

class CutPolicy {
 public:
  /// Explicit thresholds c1..c_{N-1} for an N-level hierarchy. Must be
  /// non-empty and strictly increasing (a level must be able to absorb
  /// the one below before itself overflowing).
  explicit CutPolicy(std::vector<std::size_t> cuts) : cuts_(std::move(cuts)) {
    GBX_CHECK_VALUE(!cuts_.empty(), "cut policy needs at least one threshold");
    for (std::size_t i = 0; i < cuts_.size(); ++i) {
      GBX_CHECK_VALUE(cuts_[i] > 0, "cut thresholds must be positive");
      if (i > 0)
        GBX_CHECK_VALUE(cuts_[i] > cuts_[i - 1],
                        "cut thresholds must be strictly increasing");
    }
  }

  /// Geometric schedule: N levels, c_i = base * ratio^(i-1) for
  /// i = 1..N-1. `levels` counts ALL levels including the bottom one,
  /// so levels >= 2.
  static CutPolicy geometric(std::size_t levels, std::size_t base,
                             std::size_t ratio) {
    GBX_CHECK_VALUE(levels >= 2, "hierarchy needs at least 2 levels");
    GBX_CHECK_VALUE(base > 0 && ratio > 1, "need base > 0 and ratio > 1");
    std::vector<std::size_t> cuts(levels - 1);
    std::size_t c = base;
    for (auto& x : cuts) {
      x = c;
      GBX_CHECK_VALUE(c <= (std::size_t{1} << 62) / ratio,
                      "geometric cut overflow");
      c *= ratio;
    }
    return CutPolicy(std::move(cuts));
  }

  /// Total number of hierarchy levels (cut levels + the bottom one).
  std::size_t levels() const { return cuts_.size() + 1; }

  /// Threshold of level i (0-based; valid for i < levels()-1).
  std::size_t cut(std::size_t i) const {
    GBX_CHECK_INDEX(i < cuts_.size(), "cut index out of range");
    return cuts_[i];
  }

  const std::vector<std::size_t>& cuts() const { return cuts_; }

  /// The cut a level added above the bottom gets: c_last * r, with r the
  /// last ratio c_last / c_prev (exact for a geometric schedule). 0 when
  /// the schedule cannot grow: one cut, or a cut that would overflow.
  std::size_t next_cut() const {
    if (cuts_.size() < 2) return 0;
    const unsigned __int128 last = cuts_.back();
    const auto next = last * last / cuts_[cuts_.size() - 2];
    return next > (std::size_t{1} << 62) ? 0 : static_cast<std::size_t>(next);
  }

  /// Append next_cut(): the schedule one level deeper.
  void grow() {
    const std::size_t c = next_cut();
    GBX_CHECK_VALUE(c > 0, "cut schedule cannot grow");
    cuts_.push_back(c);
  }

 private:
  std::vector<std::size_t> cuts_;
};

}  // namespace hier
