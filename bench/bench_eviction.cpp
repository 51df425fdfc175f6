// Experiment E9 — memory-governed snapshot eviction under a slow reader.
//
// The scenario the governor exists for: Fig. 2-style batched Kronecker
// ingest, split by row over InstanceArray parts (update_rows) and frozen
// through MemoryGovernor<ParallelStream>, while one analytics reader
// freezes an early batch and then lags ≥8 batches behind, pinning
// superseded block generations. Two identical single-driver runs:
//
//   OFF — governor present but with an unlimited budget (same code path,
//         no evictions): measures how many pinned bytes the laggard
//         accumulates, and the baseline update_rows() throughput.
//   ON  — budget B (default: a quarter of the OFF peak): the governor
//         must materialize-and-release the laggard.
//
// Gates (exit non-zero on violation):
//   * drift — the OFF run ends with more pinned bytes than B: the
//     laggard's superseded generations stay pinned for ever without a
//     budget, which is the memory the ON run exists to remove.
//   * bounded memory — ON peak identity-deduped pinned bytes stay
//     ≤ B + slack, where slack is one block per shard (between two
//     enforcement points each shard can supersede at most its current
//     fold chain, dominated by its largest block; EVICT_SLACK_BLOCKS
//     overrides the count).
//   * exactness — every probe through the evicted reader handle, and
//     its final full materialization, is BIT-IDENTICAL to the baseline
//     materialized from the same frozen image before any eviction.
//   * governed — the ON run evicts at least once.
//   * throughput — ON ingest rate (measured strictly inside
//     update_rows(), like Fig. 2) stays ≥ EVICT_MIN_RATE_RATIO (default
//     0.9) of OFF.
//   * lag — the reader ends ≥ 8 batches behind the newest freeze.
//
// Env knobs: EVICT_SETS, EVICT_SET_SIZE, EVICT_SHARDS, EVICT_SCALE,
// EVICT_BUDGET_BYTES, EVICT_MIN_RATE_RATIO, EVICT_SLACK_BLOCKS.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::size_t env_or(const char* name, std::size_t dflt) {
  if (const char* v = std::getenv(name)) return std::strtoull(v, nullptr, 10);
  return dflt;
}

double env_or_d(const char* name, double dflt) {
  if (const char* v = std::getenv(name)) return std::atof(v);
  return dflt;
}

struct RunResult {
  double ingest_rate = 0;          ///< entries / seconds inside update_rows()
  double ingest_seconds = 0;
  std::uint64_t peak_pinned = 0;   ///< governor stats high-water mark
  std::uint64_t end_pinned = 0;    ///< pinned bytes after the final enforce
  std::uint64_t largest_block = 0;
  std::uint64_t held_lag = 0;      ///< batches the slow reader lagged
  std::uint64_t probe_mismatches = 0;
  bool identical = false;          ///< final full read == baseline image
  hier::GovernorStats stats;
};

RunResult run(const std::vector<gbx::Tuples<double>>& batches,
              std::size_t shards, gbx::Index dim, std::uint64_t budget,
              std::size_t hold_at) {
  using Stream = hier::ParallelStream<double>;
  hier::InstanceArray<double> parts(shards, dim, dim,
                                    hier::CutPolicy::geometric(4, 1u << 13, 8));
  Stream stream(parts);
  hier::GovernorConfig cfg;
  cfg.budget_bytes = budget;
  hier::MemoryGovernor<Stream> gov(stream, cfg);

  using Handle = hier::MemoryGovernor<Stream>::handle_type;
  Handle held;
  gbx::Matrix<double> ref(1, 1);  // the unevicted baseline image
  std::vector<std::pair<gbx::Index, gbx::Index>> probes;

  RunResult r;
  std::uint64_t entries = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const auto t0 = Clock::now();
    parts.update_rows(batches[k]);
    r.ingest_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    entries += batches[k].size();

    // Reader cadence (untimed): the slow analyst freezes once and then
    // holds; every other batch is frozen fresh and dropped, which is
    // also what drives enforcement.
    if (k == hold_at) {
      held = gov.freeze();
      auto image = held.pin();
      ref = image.to_matrix();  // materialized BEFORE any eviction
      std::size_t want = 64;
      ref.for_each([&](gbx::Index i, gbx::Index j, double) {
        if (probes.size() < want && (i ^ j) % 7 == 0) probes.emplace_back(i, j);
      });
    } else {
      gov.freeze();
      if (held.valid()) ++r.held_lag;  // one more batch past the reader
    }

    const auto mem = gov.memory();
    r.largest_block = std::max(r.largest_block, mem.largest_block_bytes);

    // The slow reader re-queries its held (possibly evicted) handle:
    // results must match the baseline bit-for-bit.
    if (held.valid() && k > hold_at && k % 3 == 0) {
      auto img = held.pin();
      for (const auto& [i, j] : probes) {
        auto got = img.extract_element(i, j);
        auto want_v = ref.extract_element(i, j);
        if (!got || !want_v || *got != *want_v) ++r.probe_mismatches;
      }
    }
  }

  if (held.valid()) {
    auto final_img = held.to_matrix();
    r.identical = gbx::equal(final_img, ref) && held.nvals() == ref.nvals() &&
                  r.probe_mismatches == 0;
  }
  r.end_pinned = gov.memory().pinned_bytes;
  r.stats = gov.stats();
  r.peak_pinned = r.stats.peak_pinned_bytes;
  r.ingest_rate =
      r.ingest_seconds > 0 ? static_cast<double>(entries) / r.ingest_seconds : 0;
  return r;
}

}  // namespace

int main() {
  const std::size_t sets = env_or("EVICT_SETS", 30);
  const std::size_t set_size = env_or("EVICT_SET_SIZE", 50000);
  const std::size_t shards = env_or("EVICT_SHARDS", 4);
  const int scale = static_cast<int>(env_or("EVICT_SCALE", 14));
  const std::size_t hold_at = 6;
  const double min_ratio = env_or_d("EVICT_MIN_RATE_RATIO", 0.9);
  const gbx::Index dim = gbx::Index{1} << scale;

  benchutil::header(
      "E9 — memory-governed snapshot eviction (hier::MemoryGovernor)",
      "bounded pinned bytes + bit-exact reads for a reader lagging >= 8 batches");
  benchutil::note("workload: " + std::to_string(sets) + " sets x " +
                  std::to_string(set_size) + " entries, Kronecker scale-" +
                  std::to_string(scale) + ", " + std::to_string(shards) +
                  " shards");

  // Deterministic pre-generated stream: both runs ingest identical data.
  gen::KroneckerParams kp;
  kp.scale = scale;
  kp.seed = 20200316;
  gen::KroneckerGenerator g(kp);
  std::vector<gbx::Tuples<double>> batches(sets);
  for (auto& b : batches) g.batch<double>(set_size, b);

  const auto off =
      run(batches, shards, dim, hier::GovernorConfig::kNever, hold_at);
  const std::uint64_t budget = static_cast<std::uint64_t>(
      env_or("EVICT_BUDGET_BYTES",
             static_cast<std::size_t>(off.peak_pinned / 4)));
  const auto on = run(batches, shards, dim, budget, hold_at);

  const std::uint64_t slack_blocks = env_or("EVICT_SLACK_BLOCKS", shards);
  const std::uint64_t slack = slack_blocks * on.largest_block;
  const double ratio =
      off.ingest_rate > 0 ? on.ingest_rate / off.ingest_rate : 0.0;

  std::printf("\nrun\tpeak_pinned\tingest_rate\tevictions\tidentical\n");
  std::printf("off\t%llu\t%s\t%llu\t%s\n",
              static_cast<unsigned long long>(off.peak_pinned),
              benchutil::rate(off.ingest_rate).c_str(),
              static_cast<unsigned long long>(off.stats.evictions),
              off.identical ? "yes" : "NO");
  std::printf("on\t%llu\t%s\t%llu\t%s\n",
              static_cast<unsigned long long>(on.peak_pinned),
              benchutil::rate(on.ingest_rate).c_str(),
              static_cast<unsigned long long>(on.stats.evictions),
              on.identical ? "yes" : "NO");
  std::printf("\nbudget B = %llu bytes (off-peak/4 unless EVICT_BUDGET_BYTES)"
              "\nslack    = %llu bytes (%llu blocks x largest %llu)"
              "\nreader lag at end: %llu batches (need >= 8)"
              "\nthroughput ratio on/off: %.3f (floor %.2f)\n",
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(slack),
              static_cast<unsigned long long>(slack_blocks),
              static_cast<unsigned long long>(on.largest_block),
              static_cast<unsigned long long>(on.held_lag), ratio, min_ratio);

  std::printf("steady pinned after enforcement: off=%llu on=%llu (budget %llu)\n",
              static_cast<unsigned long long>(off.end_pinned),
              static_cast<unsigned long long>(on.end_pinned),
              static_cast<unsigned long long>(budget));

  const bool lag_ok = on.held_lag >= 8;
  // Two-sided memory gate: the transient peak may overshoot by at most
  // one superseded block per shard (the window between two enforcement
  // points), and enforcement must bring pinned bytes back under B.
  const bool bounded =
      on.peak_pinned <= budget + slack && on.end_pinned <= budget;
  const bool exact = on.identical && off.identical;
  const bool governed = on.stats.evictions >= 1;
  const bool fast = ratio >= min_ratio;
  const bool drifts = off.end_pinned > budget;
  const bool pass = lag_ok && drifts && bounded && exact && governed && fast;

  if (!bounded)
    std::printf("FAIL: pinned peak %llu exceeds budget %llu + slack %llu\n",
                static_cast<unsigned long long>(on.peak_pinned),
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(slack));
  if (!exact) std::printf("FAIL: evicted-reader reads not bit-identical\n");
  if (!governed) std::printf("FAIL: governor performed no eviction\n");
  if (!fast)
    std::printf("FAIL: governed ingest rate ratio %.3f below %.2f\n", ratio,
                min_ratio);
  if (!drifts)
    std::printf("FAIL: governor-off end pinned %llu does not exceed budget "
                "%llu (no drift to remove)\n",
                static_cast<unsigned long long>(off.end_pinned),
                static_cast<unsigned long long>(budget));
  if (!lag_ok)
    std::printf("FAIL: reader lag %llu < 8 batches (workload too small)\n",
                static_cast<unsigned long long>(on.held_lag));

  std::string json =
      "{\"bench\":\"eviction\",\"sets\":" + std::to_string(sets) +
      ",\"set_size\":" + std::to_string(set_size) +
      ",\"shards\":" + std::to_string(shards) +
      ",\"budget_bytes\":" + std::to_string(budget) +
      ",\"off_peak_pinned\":" + std::to_string(off.peak_pinned) +
      ",\"on_peak_pinned\":" + std::to_string(on.peak_pinned) +
      ",\"off_end_pinned\":" + std::to_string(off.end_pinned) +
      ",\"on_end_pinned\":" + std::to_string(on.end_pinned) +
      ",\"slack_bytes\":" + std::to_string(slack) +
      ",\"off_ingest_rate\":" + std::to_string(off.ingest_rate) +
      ",\"on_ingest_rate\":" + std::to_string(on.ingest_rate) +
      ",\"rate_ratio\":" + std::to_string(ratio) +
      ",\"evictions\":" + std::to_string(on.stats.evictions) +
      ",\"held_lag\":" + std::to_string(on.held_lag) +
      ",\"identical\":" + (exact ? "true" : "false") +
      ",\"pass\":" + (pass ? "true" : "false") + "}";
  std::printf("BENCH_JSON %s\n", json.c_str());
  return pass ? 0 : 1;
}
