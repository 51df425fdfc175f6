// Experiment E7 — query-while-ingest: insert-rate cost of concurrent
// epoch-snapshot readers.
//
// The seed system had to quiesce the stream before any analysis; the
// snapshot engine promises analytics *during* ingest at a bounded cost.
// This bench quantifies that cost: a ParallelStream pumps a Kronecker
// stream while N reader threads loop { snapshot -> Σ Ai -> triangle
// count } at a realistic analyst cadence, and the aggregate insert rate
// (Σ_p entries_p / busy_p — the Fig. 2 metric, measured strictly inside
// HierMatrix::update) is compared against a reader-free baseline run of
// the identical workload.
//
// Acceptance target: < 30% degradation with 4 concurrent readers. The
// check is enforced only when the host has enough hardware threads to
// actually run writers and readers in parallel (lanes + readers); on
// smaller hosts pure CPU oversubscription would dominate the number and
// say nothing about the snapshot path, so the result is reported but
// not gated. Override the threshold with SNAPQ_MAX_DEGRADATION.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "algo/algo.hpp"
#include "bench_util.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"

namespace {

struct RunResult {
  double aggregate_rate = 0;
  double wall_seconds = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t triangles_last = 0;
};

RunResult run(std::size_t lanes, std::size_t readers, std::size_t sets,
              std::size_t set_size, gbx::Index dim, std::uint64_t seed) {
  hier::InstanceArray<double> array(lanes, dim, dim,
                                    hier::CutPolicy::geometric(4, 1u << 13, 8));
  hier::ParallelStream<double> engine(array);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> triangles{0};
  std::vector<std::thread> analysts;
  for (std::size_t r = 0; r < readers; ++r) {
    analysts.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto snap = engine.freeze();
        snapshots.fetch_add(1, std::memory_order_relaxed);
        // Σ Ai without materialization, then a real graph kernel on the
        // materialized union — the paper's "analysis step", live.
        (void)snap.reduce();
        triangles.store(algo::triangle_count(snap.to_matrix()),
                        std::memory_order_relaxed);
        // Analyst cadence: periodic, not a hot spin.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  auto report = engine.pump(sets, set_size, [&](std::size_t p) {
    gen::KroneckerParams kp;
    kp.scale = 14;
    kp.seed = seed + p;
    return gen::KroneckerGenerator(kp);
  });
  done.store(true);
  for (auto& t : analysts) t.join();

  RunResult r;
  r.aggregate_rate = report.aggregate_rate;
  r.wall_seconds = report.wall_seconds;
  r.snapshots = snapshots.load();
  r.triangles_last = triangles.load();
  return r;
}

}  // namespace

int main() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t lanes = 2;
  const std::size_t readers = 4;
  const std::size_t sets = 12;
  const std::size_t set_size = 50000;
  const gbx::Index dim = gbx::Index{1} << 14;
  const std::uint64_t seed = 20200316;

  double max_degradation = 0.30;
  if (const char* env = std::getenv("SNAPQ_MAX_DEGRADATION"))
    max_degradation = std::atof(env);

  benchutil::header(
      "E7 — query-while-ingest (ParallelStream::freeze readers)",
      "aggregate insert rate with concurrent snapshot+analytics readers");
  benchutil::note("hardware concurrency: " + std::to_string(hw));
  benchutil::note("workload: " + std::to_string(lanes) + " lanes x " +
                  std::to_string(sets) + " sets x " +
                  std::to_string(set_size) + " entries, Kronecker scale-14");
  benchutil::note("readers loop: snapshot -> reduce(Σ Ai) -> triangle count");

  std::printf("\nreaders\tsnapshots\twall_s\tagg_rate\ttriangles\n");

  const auto baseline = run(lanes, 0, sets, set_size, dim, seed);
  std::printf("0\t%llu\t%.3f\t%s\t-\n",
              static_cast<unsigned long long>(baseline.snapshots),
              baseline.wall_seconds,
              benchutil::rate(baseline.aggregate_rate).c_str());
  std::fflush(stdout);

  const auto loaded = run(lanes, readers, sets, set_size, dim, seed);
  std::printf("%zu\t%llu\t%.3f\t%s\t%llu\n", readers,
              static_cast<unsigned long long>(loaded.snapshots),
              loaded.wall_seconds,
              benchutil::rate(loaded.aggregate_rate).c_str(),
              static_cast<unsigned long long>(loaded.triangles_last));

  const double degradation =
      baseline.aggregate_rate > 0
          ? 1.0 - loaded.aggregate_rate / baseline.aggregate_rate
          : 0.0;
  // pump() runs one producer thread per lane on top of the lane workers.
  const bool enough_cores = hw >= 2 * lanes + readers;
  const bool pass = degradation < max_degradation;

  std::printf("\ninsert-rate degradation with %zu readers: %.1f%% "
              "(threshold %.0f%%)\n",
              readers, degradation * 100.0, max_degradation * 100.0);
  if (!enough_cores)
    std::printf("note: only %u hardware threads for %zu worker+producer+"
                "reader threads — oversubscription dominates, threshold "
                "not enforced on this host\n",
                hw, 2 * lanes + readers);

  std::string json =
      "{\"bench\":\"snapshot_query\",\"hw\":" + std::to_string(hw) +
      ",\"lanes\":" + std::to_string(lanes) +
      ",\"readers\":" + std::to_string(readers) +
      ",\"baseline_agg_rate\":" + std::to_string(baseline.aggregate_rate) +
      ",\"loaded_agg_rate\":" + std::to_string(loaded.aggregate_rate) +
      ",\"snapshots\":" + std::to_string(loaded.snapshots) +
      ",\"degradation\":" + std::to_string(degradation) +
      ",\"threshold\":" + std::to_string(max_degradation) +
      ",\"enforced\":" + (enough_cores ? "true" : "false") +
      ",\"pass\":" + (pass ? "true" : "false") + "}";
  std::printf("BENCH_JSON %s\n", json.c_str());

  if (enough_cores && !pass) return 1;
  return 0;
}
