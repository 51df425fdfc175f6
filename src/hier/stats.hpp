// hier/stats.hpp — instrumentation of the hierarchical cascade.
//
// Counters sufficient to regenerate the paper's Fig. 1 narrative: how
// many updates landed in the fast level, how often each level folded into
// the next, and how many entries each fold moved — i.e. how much of the
// update traffic actually reached "slow memory".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hier {

struct LevelStats {
  std::uint64_t folds = 0;           ///< times this level was cascaded up
  std::uint64_t entries_folded = 0;  ///< total entries moved up from here
  std::uint64_t max_entries = 0;     ///< high-water mark of entry count
  /// Output entries of every fold into this level, counted where the
  /// merge writes them: a fold into a block level writes the whole new
  /// block, a merge into a chunked level the chunks it fills (an old
  /// chunk it keeps is not written), and a level that was empty takes
  /// the level above as it is, writing nothing. Not checkpointed: a
  /// restored matrix counts from zero.
  std::uint64_t entries_written = 0;
};

struct HierStats {
  std::uint64_t updates = 0;          ///< update() and stage() calls
  std::uint64_t entries_appended = 0; ///< raw entries streamed in
  std::uint64_t queries = 0;          ///< snapshot()/collapse() calls
  std::vector<LevelStats> level;      ///< one per hierarchy level

  /// Fraction of appended entries that were ever moved past level `k`
  /// (0-based). level 0 folds / appends measures slow-memory pressure:
  /// with a working hierarchy, deeper levels see far fewer entries.
  /// A fold moves a level's entry count as it stands, so a level that a
  /// freeze() sorted and deduplicated before its fold moves fewer
  /// entries than were appended to it: a ParallelStream lane serves
  /// freezes between stage() and cascade(), so its level-0 ratio can
  /// read just under 1.0 even when every batch passes the first cut.
  double fold_ratio(std::size_t k) const {
    if (entries_appended == 0 || k >= level.size()) return 0.0;
    return static_cast<double>(level[k].entries_folded) /
           static_cast<double>(entries_appended);
  }
};

}  // namespace hier
