// Ingest hot path — the fused radix fold pipeline on a Kronecker stream.
//
// The paper's headline number is raw streaming insert rate, and the
// per-update cost is dominated by the cascade fold: sort the pending
// batch, fold duplicates, merge into the next level. This bench streams
// one pre-generated workload through the fold pipeline and gates it:
//
//   * exactness: Σ Ai after the single-lane run must be bit-identical
//     to direct accumulation into one flat matrix;
//   * zero scratch growth: the measured (post-warmup) runs must not grow
//     the thread's ScratchPool — the steady-state zero-allocation claim;
//   * checksum at memory speed: store::detail::frame_sum, the trailer
//     every WAL, wire and block frame pays on write and again on every
//     verify, must hash one 50K-entry batch at >= 0.2x the bytes/s of a
//     memcpy of it (checksum_over_memcpy, a same-host ratio; a
//     byte-serial hash measures ~0.035);
//   * fused_rate (single lane) and the P-lane hier::pump rates feed the
//     perf trajectory (scripts/check_perf.py gates them against perf/;
//     the Fig. 2 shape bench remains bench_parallel_stream).
//
// Workload: the paper's set granularity (100K-entry batches; INGEST_SETS
// and INGEST_SET_SIZE adjust for CI scale), scale-17 Kronecker stream,
// geometric cuts — the same shape bench_parallel_stream measures.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gbx/reduce.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"
#include "store/wal.hpp"

namespace {

std::size_t env_or_sz(const char* name, std::size_t fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0')
             ? static_cast<std::size_t>(std::atoll(s))
             : fallback;
}

gen::KroneckerGenerator make_generator(std::size_t instance,
                                       std::uint64_t base_seed) {
  gen::KroneckerParams kp;
  kp.scale = 17;
  kp.seed = base_seed + instance;
  return gen::KroneckerGenerator(kp);
}

struct LaneRun {
  double busy_seconds = 0;
  std::uint64_t entries = 0;
  double sum = 0;            ///< Σ Ai, reduced exactly
  std::size_t nvals = 0;     ///< distinct coordinates
  double rate() const {
    return busy_seconds > 0 ? static_cast<double>(entries) / busy_seconds : 0;
  }
};

/// Stream pre-generated batches through one HierMatrix; only
/// HierMatrix::update is timed (generation happens up front, the
/// paper's untimed packet-capture role).
LaneRun run_single_lane(const std::vector<gbx::Tuples<double>>& batches,
                        const hier::CutPolicy& cuts, gbx::Index dim) {
  hier::HierMatrix<double> m(dim, dim, cuts);
  LaneRun r;
  for (const auto& b : batches) {
    const auto t0 = std::chrono::steady_clock::now();
    m.update(b);
    r.busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    r.entries += b.size();
  }
  auto sum = m.snapshot();
  r.sum = gbx::reduce_scalar<gbx::PlusMonoid<double>>(sum);
  r.nvals = sum.nvals();
  return r;
}

/// Best-of-`reps` bytes/s of `pass` over `bytes` bytes, each rep timing
/// `iters` back-to-back passes.
template <class Pass>
double best_bytes_per_s(std::size_t bytes, Pass&& pass) {
  constexpr int reps = 7, iters = 20;
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) pass();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::max(best, static_cast<double>(bytes) * iters / s);
  }
  return best;
}

/// frame_sum bytes/s over memcpy bytes/s, both over the same one
/// 50K-entry batch (warm in cache, as a just-received batch is).
double checksum_over_memcpy(const gbx::Tuples<double>& batch) {
  const auto& es = batch.entries();
  const std::size_t bytes = es.size() * sizeof(es[0]);
  std::vector<unsigned char> dst(bytes);
  volatile std::uint64_t sink = 0;
  std::uint64_t epoch = 0;
  const double sum_bps = best_bytes_per_s(bytes, [&] {
    sink = sink ^ store::detail::frame_sum(++epoch, bytes, es.data());
  });
  const double copy_bps = best_bytes_per_s(bytes, [&] {
    std::memcpy(dst.data(), es.data(), bytes);
    asm volatile("" : : "r"(dst.data()) : "memory");  // keep every copy
    sink = sink ^ dst[epoch++ % bytes];
  });
  std::printf("frame_sum\t%.2f GB/s\nmemcpy\t\t%.2f GB/s\n", sum_bps / 1e9,
              copy_bps / 1e9);
  return sum_bps / copy_bps;
}

}  // namespace

int main() {
  const std::size_t sets = env_or_sz("INGEST_SETS", 30);
  const std::size_t set_size = env_or_sz("INGEST_SET_SIZE", 100000);
  const std::uint64_t seed = 20200316;
  const gbx::Index dim = gbx::Index{1} << 17;
  const auto cuts = hier::CutPolicy::geometric(4, 1u << 13, 8);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  benchutil::header(
      "ingest hot path — fused radix fold pipeline",
      "gate: bit-identical Σ Ai vs direct accumulation AND zero scratch "
      "arena growth after warmup; fused_rate feeds the perf trajectory");
  benchutil::note("workload: " + std::to_string(sets) + " sets x " +
                  std::to_string(set_size) + " entries, scale-17 Kronecker");

  // Pre-generate the stream once; every run and the direct reference
  // consume the identical batches.
  std::vector<gbx::Tuples<double>> batches;
  batches.reserve(sets);
  {
    auto gen = make_generator(0, seed);
    for (std::size_t s = 0; s < sets; ++s)
      batches.push_back(gen.batch<double>(set_size));
  }

  // Direct accumulation reference: one flat matrix, one fold at the end.
  double direct_sum = 0;
  std::size_t direct_nvals = 0;
  {
    gbx::Matrix<double> acc(dim, dim);
    for (const auto& b : batches) acc.append(b);
    direct_sum = gbx::reduce_scalar<gbx::PlusMonoid<double>>(acc);
    direct_nvals = acc.nvals();
  }

  // Warm once (first-touch page faults, scratch growth), then keep the
  // best of INGEST_REPS measured runs.
  const std::size_t reps = env_or_sz("INGEST_REPS", 2);
  std::printf("\n-- single lane: fold throughput (updates/s, insert time only; "
              "best of %zu reps) --\n", reps);
  (void)run_single_lane(batches, cuts, dim);
  LaneRun fused;
  const auto grow_before = gbx::ScratchPool::local().grow_count();
  for (std::size_t r = 0; r < reps; ++r) {
    const auto f = run_single_lane(batches, cuts, dim);
    if (r == 0 || f.busy_seconds < fused.busy_seconds) fused = f;
  }
  const std::uint64_t scratch_grows =
      gbx::ScratchPool::local().grow_count() - grow_before;

  std::printf("fused\t%s updates/s (%.3fs busy)\n",
              benchutil::rate(fused.rate()).c_str(), fused.busy_seconds);
  std::printf("scratch arena grows during measured runs: %llu\n",
              static_cast<unsigned long long>(scratch_grows));

  const bool identical =
      fused.sum == direct_sum && fused.nvals == direct_nvals;
  std::printf("Σ Ai fused=%.17g direct=%.17g nvals %zu/%zu -> %s\n", fused.sum,
              direct_sum, fused.nvals, direct_nvals,
              identical ? "BIT-IDENTICAL" : "MISMATCH");

  std::printf("\n-- frame checksum vs memcpy (one 50K-entry batch) --\n");
  const double sum_ratio = [&] {
    auto gen = make_generator(0, seed + 991);
    return checksum_over_memcpy(gen.batch<double>(50000));
  }();
  const bool sum_ok = sum_ratio >= 0.2;
  std::printf("checksum_over_memcpy %.3f (gate >= 0.2) -> %s\n", sum_ratio,
              sum_ok ? "ok" : "TOO SLOW");

  // P-lane sweep (informational; the Fig. 2 gate lives in
  // bench_parallel_stream).
  std::printf("\n-- P lanes (hier::pump, generation untimed) --\n");
  std::printf("P\tfused_agg\n");
  std::string lanes_json = "[";
  std::vector<std::size_t> counts;
  for (std::size_t p = 1; p <= hw; p *= 2) counts.push_back(p);
  if (counts.back() != hw) counts.push_back(hw);
  for (std::size_t idx = 0; idx < counts.size(); ++idx) {
    const std::size_t p = counts[idx];
    hier::InstanceArray<double> fa(p, dim, dim, cuts);
    const auto fr = hier::pump<double>(fa, sets, set_size, [&](std::size_t q) {
      return make_generator(q, seed + 777);
    });
    std::printf("%zu\t%s\n", p, benchutil::rate(fr.aggregate_rate).c_str());
    lanes_json += std::string(idx ? "," : "") + "{\"instances\":" +
                  std::to_string(p) + ",\"fused_agg_rate\":" +
                  std::to_string(fr.aggregate_rate) + "}";
  }
  lanes_json += "]";

  const bool pass = identical && scratch_grows == 0 && sum_ok;
  std::printf(
      "\nresult: %s (exactness %s, scratch grows %llu, checksum %.3f x "
      "memcpy)\n",
      pass ? "PASS" : "FAIL", identical ? "ok" : "VIOLATED",
      static_cast<unsigned long long>(scratch_grows), sum_ratio);
  std::printf(
      "BENCH_JSON {\"bench\":\"ingest_hotpath\",\"sets\":%zu,"
      "\"set_size\":%zu,\"single\":{\"fused_rate\":%.1f},\"identical\":%s,"
      "\"scratch_grows\":%llu,\"checksum_over_memcpy\":%.3f,\"lanes\":%s}\n",
      sets, set_size, fused.rate(), identical ? "true" : "false",
      static_cast<unsigned long long>(scratch_grows), sum_ratio,
      lanes_json.c_str());
  return pass ? 0 : 1;
}
