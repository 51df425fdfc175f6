// Experiment E10 — out-of-core tiering: ingest past the resident budget.
//
// The paper's hierarchy keeps the bottom (coldest, largest) level exactly
// where an Accumulo tablet server would keep it: on disk. This bench
// streams a Kronecker batch sequence whose in-memory footprint is at
// least 3x the resident budget B through a demoting HierMatrix backed by
// a file BlockStore, against an identical in-memory run:
//
//   mem — plain HierMatrix, no tier: measures baseline_rate and the full
//         resident footprint M (which fixes B = M/3 unless overridden).
//   ooc — demotion enabled into a single-file store; every batch pays
//         update() AND enforce_residency(B) inside the timed section, so
//         serialization + block writes are charged to the ingest rate.
//
// Gates (exit non-zero on violation):
//   * oversubscribed — the in-memory footprint M is >= 3x the budget B
//     actually enforced (the bench is meaningless otherwise).
//   * bounded — at every quarter-cadence sweep point, resident bytes are
//     <= B, or the bottom level is empty (enforcement moved every
//     compressed byte out and only warm-capacity buffers remain).
//   * exactness — at every sweep point and at the end, the demoted
//     matrix's full materialization and point probes are BIT-IDENTICAL
//     to an untimed in-memory twin fed the same batches (Kronecker
//     values are small exact doubles, so the plus-fold is associative
//     bit-for-bit).
//   * governed — the tier actually demoted (demotions >= 1, bytes on
//     disk at the end).
//   * throughput — ooc ingest rate >= OUTOFCORE_MIN_RATE_RATIO
//     (default 0.8) of the in-memory rate.
//
// Env knobs: OOC_SETS, OOC_SET_SIZE, OOC_SCALE, OOC_BUDGET_BYTES,
// OOC_CACHE_BYTES, OOC_DIR, OUTOFCORE_MIN_RATE_RATIO.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unistd.h>
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

hier::CutPolicy cuts() { return hier::CutPolicy::geometric(4, 1u << 13, 8); }

std::string store_path() {
  if (const char* v = std::getenv("OOC_DIR"))
    return std::string(v) + "/bench_outofcore.blocks";
  const auto p = std::filesystem::temp_directory_path() /
                 ("bench_outofcore." + std::to_string(::getpid()) + ".blocks");
  return p.string();
}

}  // namespace

int main() {
  const std::size_t sets = env_or("OOC_SETS", 30);
  const std::size_t set_size = env_or("OOC_SET_SIZE", 50000);
  const int scale = static_cast<int>(env_or("OOC_SCALE", 14));
  const double min_ratio = env_or_d("OUTOFCORE_MIN_RATE_RATIO", 0.8);
  const gbx::Index dim = gbx::Index{1} << scale;

  benchutil::header(
      "E10 — out-of-core tiering (hier::DemotedTier over store::BlockStore)",
      "stream >= 3x the resident budget; bit-exact reads at >= 0.8x the "
      "in-memory ingest rate");
  benchutil::note("workload: " + std::to_string(sets) + " sets x " +
                  std::to_string(set_size) + " entries, Kronecker scale-" +
                  std::to_string(scale));

  // Deterministic pre-generated stream: both runs ingest identical data.
  gen::KroneckerParams kp;
  kp.scale = scale;
  kp.seed = 20200316;
  gen::KroneckerGenerator g(kp);
  std::vector<gbx::Tuples<double>> batches(sets);
  std::uint64_t entries = 0;
  for (auto& b : batches) {
    g.batch<double>(set_size, b);
    entries += b.size();
  }

  // Pass 1 — in-memory baseline: rate and full resident footprint M.
  double mem_seconds = 0;
  std::size_t mem_footprint = 0;
  {
    hier::HierMatrix<double> mem(dim, dim, cuts());
    for (const auto& b : batches) {
      const auto t0 = Clock::now();
      mem.update(b);
      mem_seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    }
    mem_footprint = mem.memory_bytes();
  }
  const double baseline_rate =
      mem_seconds > 0 ? static_cast<double>(entries) / mem_seconds : 0;

  const std::size_t budget = env_or(
      "OOC_BUDGET_BYTES", std::max<std::size_t>(mem_footprint / 3, 1));
  const double oversub =
      static_cast<double>(mem_footprint) / static_cast<double>(budget);

  // Pass 2 — demoting run (timed) in lockstep with an untimed in-memory
  // twin that serves as the bit-exactness oracle at every sweep point.
  const std::string path = store_path();
  std::filesystem::remove(path);
  store::BlockStoreConfig scfg;
  scfg.cache_budget_bytes = env_or("OOC_CACHE_BYTES", 8u << 20);
  auto store = store::make_file_block_store(path, scfg);

  hier::HierMatrix<double> ooc(dim, dim, cuts());
  ooc.enable_demotion(store.get());
  hier::HierMatrix<double> twin(dim, dim, cuts());

  double ooc_seconds = 0;
  std::uint64_t resident_violations = 0;
  std::uint64_t probe_mismatches = 0;
  std::uint64_t sweep_mismatches = 0;
  std::uint64_t sweeps = 0;
  const std::size_t sweep_every = std::max<std::size_t>(sets / 4, 1);

  for (std::size_t k = 0; k < batches.size(); ++k) {
    const auto t0 = Clock::now();
    ooc.update(batches[k]);
    ooc.enforce_residency(budget);
    ooc_seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    twin.update(batches[k]);

    if ((k + 1) % sweep_every != 0 && k + 1 != batches.size()) continue;
    ++sweeps;
    // Residency: enforcement either met the budget or moved every
    // compressed byte out (only warm-capacity buffers remain resident).
    if (ooc.memory_bytes() > budget &&
        ooc.level_entries(ooc.num_levels() - 1) > 0)
      ++resident_violations;
    // Exactness, full and pointwise, against the twin at this epoch.
    const auto snap = ooc.freeze();
    const auto want = twin.freeze().to_matrix();
    if (!gbx::equal(snap.to_matrix(), want) || snap.nvals() != want.nvals())
      ++sweep_mismatches;
    std::size_t probed = 0;
    want.for_each([&](gbx::Index i, gbx::Index j, double v) {
      if (probed >= 256 || (i ^ j) % 5 != 0) return;
      ++probed;
      const auto got = snap.extract_element(i, j);
      if (!got || *got != v) ++probe_mismatches;
    });
  }

  const double ingest_rate =
      ooc_seconds > 0 ? static_cast<double>(entries) / ooc_seconds : 0;
  const double ratio = baseline_rate > 0 ? ingest_rate / baseline_rate : 0;
  const auto tstats = ooc.tier().stats();
  const std::uint64_t store_bytes = ooc.store_bytes();
  const std::uint64_t file_bytes = std::filesystem::exists(path)
                                       ? std::filesystem::file_size(path)
                                       : 0;

  std::printf("\nrun\tresident_final\tstore_bytes\tingest_rate\n");
  std::printf("mem\t%zu\t0\t%s\n", mem_footprint,
              benchutil::rate(baseline_rate).c_str());
  std::printf("ooc\t%zu\t%llu\t%s\n", ooc.memory_bytes(),
              static_cast<unsigned long long>(store_bytes),
              benchutil::rate(ingest_rate).c_str());
  std::printf(
      "\nbudget B = %zu bytes (mem-footprint/3 unless OOC_BUDGET_BYTES)"
      "\noversubscription M/B = %.2fx (need >= 3)"
      "\ndemotions=%llu compactions=%llu entries_demoted=%llu"
      "\nstore file: %llu bytes on disk (%s)"
      "\nthroughput ratio ooc/mem: %.3f (floor %.2f)\n",
      budget, oversub, static_cast<unsigned long long>(tstats.demotions),
      static_cast<unsigned long long>(tstats.compactions),
      static_cast<unsigned long long>(tstats.entries_demoted),
      static_cast<unsigned long long>(file_bytes), path.c_str(), ratio,
      min_ratio);

  const bool oversubscribed = oversub >= 3.0;
  const bool bounded = resident_violations == 0;
  const bool exact = sweep_mismatches == 0 && probe_mismatches == 0;
  const bool governed = tstats.demotions >= 1 && store_bytes > 0;
  const bool fast = ratio >= min_ratio;
  const bool pass = oversubscribed && bounded && exact && governed && fast;

  if (!oversubscribed)
    std::printf("FAIL: footprint only %.2fx the budget — raise OOC_SETS or "
                "lower OOC_BUDGET_BYTES\n", oversub);
  if (!bounded)
    std::printf("FAIL: %llu sweep points over budget with a non-empty "
                "bottom level\n",
                static_cast<unsigned long long>(resident_violations));
  if (!exact)
    std::printf("FAIL: %llu sweep / %llu probe mismatches vs the in-memory "
                "twin\n",
                static_cast<unsigned long long>(sweep_mismatches),
                static_cast<unsigned long long>(probe_mismatches));
  if (!governed) std::printf("FAIL: tier performed no demotion\n");
  if (!fast)
    std::printf("FAIL: demoting ingest rate ratio %.3f below %.2f\n", ratio,
                min_ratio);

  std::string json =
      "{\"bench\":\"outofcore\",\"sets\":" + std::to_string(sets) +
      ",\"set_size\":" + std::to_string(set_size) +
      ",\"budget_bytes\":" + std::to_string(budget) +
      ",\"mem_footprint\":" + std::to_string(mem_footprint) +
      ",\"oversubscription\":" + std::to_string(oversub) +
      ",\"resident_final\":" + std::to_string(ooc.memory_bytes()) +
      ",\"store_bytes\":" + std::to_string(store_bytes) +
      ",\"file_bytes\":" + std::to_string(file_bytes) +
      ",\"baseline_rate\":" + std::to_string(baseline_rate) +
      ",\"ingest_rate\":" + std::to_string(ingest_rate) +
      ",\"rate_ratio\":" + std::to_string(ratio) +
      ",\"demotions\":" + std::to_string(tstats.demotions) +
      ",\"compactions\":" + std::to_string(tstats.compactions) +
      ",\"entries_demoted\":" + std::to_string(tstats.entries_demoted) +
      ",\"sweeps\":" + std::to_string(sweeps) +
      ",\"identical\":" + (exact ? "true" : "false") +
      ",\"pass\":" + (pass ? "true" : "false") + "}";
  std::printf("BENCH_JSON %s\n", json.c_str());

  std::filesystem::remove(path);
  return pass ? 0 : 1;
}
