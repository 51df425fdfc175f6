// streaming_anomaly — continuous network monitoring with windowed
// background models, analyzed WHILE the stream is ingesting — and
// incrementally: the analyst no longer recomputes Σ Ai and its
// statistics from scratch each pass.
//
// Demonstrates the paper's "analyze extremely large streaming network
// data sets" use case in its production shape: a ParallelStream worker
// ingests traffic batches continuously while a separate analyst thread
// drives an analytics::IncrementalEngine — each pass takes an epoch
// snapshot (no drain, no pause), diffs it against the previous one
// (hier::snapshot_diff, unchanged level blocks skipped by identity),
// and patches the materialized traffic matrix, summary statistics, and
// triangle count from the delta. The gravity background model is then
// fitted on the incrementally-maintained matrix and links that deviate
// from it are reported. An exfiltration flow is planted mid-stream and
// must surface. Every analyst pass prints the snapshot's epoch plus the
// delta's block-reuse ratio: how little of the matrix each pass had to
// touch.
//
// The example checks its own result and exits non-zero unless the final
// pass saw every batch (epoch 16), the incrementally-maintained Σ Ai
// equals a fresh freeze of the stream, and the planted channel ranks
// first among the final anomalies.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "analytics/analytics.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"

int main() {
  gen::PowerLawParams params;
  params.scale = 12;
  params.alpha = 1.3;
  params.dim = gbx::kIPv4Dim;
  params.seed = 11;
  gen::PowerLawGenerator traffic(params);

  hier::InstanceArray<double> array(
      1, gbx::kIPv4Dim, gbx::kIPv4Dim,
      hier::CutPolicy::geometric(4, 4096, 8));
  hier::ParallelStream<double> stream(array);

  // Incremental analytics over epoch snapshots: Σ Ai, the traffic
  // summary, and the triangle count are patched from snapshot deltas.
  // (PageRank is off — the gravity model is this example's scorer.)
  analytics::IncrementalOptions iopt;
  iopt.enable_pagerank = false;
  analytics::IncrementalEngine<hier::ParallelStream<double>> engine(stream,
                                                                    iopt);
  // Two quiet hosts that will start a covert heavy flow at window 5.
  const gbx::Index covert_src = 0xC0A80042;  // 192.168.0.66
  const gbx::Index covert_dst = 0x2D4F3A19;

  stream.start();

  // The analyst: periodic incremental passes concurrent with live ingest.
  std::atomic<bool> feed_done{false};
  std::thread analyst([&] {
    std::printf(
        "epoch\tlinks\tpackets\treuse%%\ttouched\ttris\ttop_score\tcovert\n");
    while (!feed_done.load(std::memory_order_relaxed)) {
      const auto& rep = engine.refresh();
      const auto& summary = engine.summary();
      auto anomalies =
          analytics::gravity_anomalies(engine.sum(), 3, 3.0, 100.0);

      bool covert_found = false;
      for (const auto& a : anomalies)
        covert_found |= (a.src == covert_src && a.dst == covert_dst);

      std::printf("%llu\t%llu\t%.0f\t%.1f\t%zu\t%llu\t%.1f\t%s\n",
                  static_cast<unsigned long long>(rep.epoch),
                  static_cast<unsigned long long>(summary.links),
                  summary.packets, 100.0 * rep.delta.reuse_ratio(),
                  rep.added + rep.changed,
                  static_cast<unsigned long long>(engine.triangles()),
                  anomalies.empty() ? 0.0 : anomalies[0].score,
                  covert_found ? "YES" : "-");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // The feed: ten windows of continuous traffic; the stream never stops
  // for the analyst. Windows 5-10 each add a covert batch: 16 in all.
  constexpr int kWindows = 10, kCovertFrom = 5;
  constexpr std::uint64_t kBatches = kWindows + (kWindows - kCovertFrom + 1);
  for (int window = 1; window <= kWindows; ++window) {
    stream.submit(0, traffic.batch<double>(50000));
    if (window >= kCovertFrom) {
      // The covert channel: large repeated transfers between two hosts
      // with no other traffic.
      gbx::Tuples<double> covert;
      for (int k = 0; k < 200; ++k)
        covert.push_back(covert_src, covert_dst, 25.0);
      stream.submit(0, covert);
    }
  }
  stream.drain();
  feed_done.store(true);
  analyst.join();

  // Final incremental pass on the fully drained stream (epoch == every
  // batch): by now the delta is tiny, so this costs O(changed).
  const auto& final_rep = engine.refresh();
  const bool sum_exact = gbx::equal(engine.sum(), stream.freeze().to_matrix());
  (void)stream.stop();
  auto final_anoms = analytics::gravity_anomalies(engine.sum(), 3, 3.0, 100.0);
  std::printf("\nfinal epoch %llu (%zu full recomputes over %llu passes) — "
              "top anomalies (observed / expected = score):\n",
              static_cast<unsigned long long>(final_rep.epoch),
              static_cast<std::size_t>(engine.full_recomputes()),
              static_cast<unsigned long long>(engine.refreshes()));
  for (const auto& a : final_anoms)
    std::printf("  %#llx -> %#llx : %.0f / %.2f = %.1f%s\n",
                static_cast<unsigned long long>(a.src),
                static_cast<unsigned long long>(a.dst), a.observed, a.expected,
                a.score,
                (a.src == covert_src && a.dst == covert_dst)
                    ? "   <-- planted covert channel"
                    : "");

  const bool epoch_ok = final_rep.epoch == kBatches;
  const bool covert_first = !final_anoms.empty() &&
                            final_anoms[0].src == covert_src &&
                            final_anoms[0].dst == covert_dst;
  std::printf("\ncheck: epoch %s, incremental sum %s, covert channel %s\n",
              epoch_ok ? "ok" : "WRONG", sum_exact ? "exact" : "DIFFERS",
              covert_first ? "ranked first" : "NOT FIRST");
  return epoch_ok && sum_exact && covert_first ? 0 : 1;
}
