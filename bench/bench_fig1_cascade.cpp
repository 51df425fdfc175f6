// Experiment E1 — Fig. 1 of the paper: hierarchy mechanics.
//
// Streams power-law batches into a 4-level hierarchical hypersparse
// matrix and records, per update set: per-level entry occupancy and
// cumulative fold counts. The table demonstrates Fig. 1's claim that
// "hierarchical hypersparse matrices ensure that the majority of updates
// are performed in fast memory": the fast level absorbs every update and
// folds to deeper (slower) levels orders of magnitude less often.
//
// A second stream times the paper's comparison: HierMatrix::update
// against one flat gbx::Matrix doing append + materialize per set over
// the same stream, the two taking turns set by set, generation excluded
// from both. It is the same
// generator at alpha 0.8, under the same cuts: most of its 5M entries
// are distinct, so the bottom outgrows the starting depth (the Fig. 1
// stream at alpha 1.3 stays under it) and the timed run includes the
// grown bottom merges over a chunked bottom.
// BENCH_JSON: {"bench":"fig1_cascade","entries":n,"levels":L,
//   "hier_meps":h,"flat_meps":f,"hier_over_flat":h/f} — hier_over_flat
//   is the gated same-host ratio; L is the depth the matrix reached.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"

int main() {
  benchutil::header(
      "E1 / Fig. 1 — hierarchical hypersparse matrix cascade mechanics",
      "4-level hierarchy, geometric cuts c_i = 2^18 * 2^(i-1); power-law "
      "stream (scale 17, alpha 1.3) in sets of 100,000 entries");

  gen::PowerLawParams pp;
  pp.scale = 17;
  pp.alpha = 1.3;
  pp.dim = gbx::kIPv4Dim;
  pp.seed = 20200316;
  gen::PowerLawGenerator g(pp);

  // c1 > set size so the fast level visibly accumulates several sets
  // before each fold (with c1 below the set size, every set cascades
  // immediately and the L1 occupancy column reads zero at sample time).
  // Growth ratio 2 keeps the deeper cuts within this run's reach so the
  // fold-count decay down the hierarchy is visible in one table.
  const auto cuts = hier::CutPolicy::geometric(4, 1u << 18, 2);
  hier::HierMatrix<double> h(pp.dim, pp.dim, cuts);

  benchutil::note("cuts: c1=" + std::to_string(cuts.cut(0)) +
                  " c2=" + std::to_string(cuts.cut(1)) +
                  " c3=" + std::to_string(cuts.cut(2)) +
                  " (the starting depth: a level goes in above the bottom "
                  "once it passes c3 x 2)");
  std::printf(
      "set\tentries_in\tL1_entries\tL2_entries\tL3_entries\tL4_entries"
      "\tL1_folds\tL2_folds\tL3_folds\n");

  const std::size_t kSets = 50;
  const std::size_t kSetSize = 100000;
  for (std::size_t s = 1; s <= kSets; ++s) {
    h.update(g.batch<double>(kSetSize));
    if (s % 5 == 0 || s == 1) {
      const auto& st = h.stats();
      std::printf("%zu\t%llu\t%zu\t%zu\t%zu\t%zu\t%llu\t%llu\t%llu\n", s,
                  static_cast<unsigned long long>(st.entries_appended),
                  h.level_entries(0), h.level_entries(1), h.level_entries(2),
                  h.level_entries(3),
                  static_cast<unsigned long long>(st.level[0].folds),
                  static_cast<unsigned long long>(st.level[1].folds),
                  static_cast<unsigned long long>(st.level[2].folds));
    }
  }

  const auto& st = h.stats();
  const auto snap = h.snapshot();
  std::printf("\nfinal: streamed=%llu entries, logical nnz=%zu\n",
              static_cast<unsigned long long>(st.entries_appended),
              snap.nvals());
  for (std::size_t i = 0; i + 1 < h.num_levels(); ++i) {
    std::printf(
        "level %zu: folds=%llu entries_folded=%llu max_entries=%llu "
        "fold_ratio=%.4f\n",
        i + 1, static_cast<unsigned long long>(st.level[i].folds),
        static_cast<unsigned long long>(st.level[i].entries_folded),
        static_cast<unsigned long long>(st.level[i].max_entries),
        st.fold_ratio(i));
  }
  benchutil::note(
      "expected shape (paper Fig. 1): every update lands in L1; each level "
      "folds ~ratio x less often than the level above, so slow-memory "
      "merges see a small fraction of the raw update traffic.");

  // The timed comparison, on the growing stream.
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  pp.alpha = 0.8;
  gen::PowerLawGenerator hier_gen(pp);
  hier::HierMatrix<double> grown(pp.dim, pp.dim, cuts);
  gbx::Matrix<double> flat(pp.dim, pp.dim);
  // The two take turns set by set, so both run on the same heap state.
  double hier_s = 0, flat_s = 0;
  for (std::size_t s = 1; s <= kSets; ++s) {
    const auto batch = hier_gen.batch<double>(kSetSize);
    const auto t0 = Clock::now();
    grown.update(batch);
    const auto t1 = Clock::now();
    flat.append(batch);
    flat.materialize();
    hier_s += seconds(t0, t1);
    flat_s += seconds(t1, Clock::now());
  }
  if (!gbx::equal(flat, grown.snapshot())) {
    std::printf("the flat matrix differs from the hierarchy's sum\n");
    return 1;
  }
  const double n = static_cast<double>(grown.stats().entries_appended);
  const double hier_rate = n / hier_s, flat_rate = n / flat_s;
  std::printf("\nalpha 0.8 stream: logical nnz=%zu, depth %zu, bottom %zu "
              "entries\n",
              flat.nvals(), grown.num_levels(),
              grown.level_entries(grown.num_levels() - 1));
  std::printf("update rate: hierarchical %s entries/s, flat "
              "append+materialize %s entries/s, ratio %.2f\n",
              benchutil::rate(hier_rate).c_str(),
              benchutil::rate(flat_rate).c_str(), hier_rate / flat_rate);
  std::printf(
      "BENCH_JSON {\"bench\":\"fig1_cascade\",\"entries\":%llu,"
      "\"levels\":%zu,\"hier_meps\":%.3f,\"flat_meps\":%.3f,"
      "\"hier_over_flat\":%.3f}\n",
      static_cast<unsigned long long>(grown.stats().entries_appended),
      grown.num_levels(), hier_rate / 1e6, flat_rate / 1e6,
      hier_rate / flat_rate);
  return 0;
}
