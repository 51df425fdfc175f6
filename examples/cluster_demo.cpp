// cluster_demo — a real multi-process cluster on one machine, with an
// exactness check against the single-process oracle.
//
//   ./example_cluster_demo [workers] [--kill]
//
// Topology (all forked from a single-threaded prologue, then threaded):
//
//   N worker processes   each a 1-lane ingest stack (fork + pipe port
//                        handoff, cluster/worker_pool.hpp)
//   1 router             cluster::Router over the partition map
//   2 client threads     stream deterministic integer batches through
//                        cluster::RouterClient
//
// Default mode verifies the tentpole claim end to end: the router's
// epoch-stitched Σ Ai / nvals / element probes are compared against an
// in-process hier::InstanceArray with the SAME part count fed the SAME
// batches through update_rows (the router's row split) and frozen
// through an unstarted hier::ParallelStream — values are small
// integers, so sums are exact and the comparison is ==, not a tolerance.
//
// --kill mode verifies the failure contract: SIGKILL one worker
// mid-stream and the next stitched query MUST fail loudly (kReplyError
// → gbx::Error). A silent success — a partial sum stitched from the
// survivors — is the bug, and exits nonzero.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifdef __linux__

#include <string>
#include <thread>
#include <vector>

#include <random>

#include "cluster/cluster.hpp"
#include "gbx/error.hpp"
#include "hier/hier.hpp"
#include "net/net.hpp"

namespace {

constexpr gbx::Index kDim = 512;
constexpr std::size_t kClients = 2;
constexpr std::size_t kBatches = 16;     // per client
constexpr std::size_t kBatchSize = 2048;

hier::CutPolicy cuts() { return hier::CutPolicy::geometric(3, 2048, 8); }

/// One client's deterministic batch plan (integer values 1..8: exact in
/// double, so Σ Ai comparisons are bit-identical, not approximate).
std::vector<gbx::Tuples<double>> make_plan(std::size_t client) {
  std::mt19937_64 rng(0xD157EDu + client);
  std::uniform_int_distribution<gbx::Index> coord(0, kDim - 1);
  std::uniform_int_distribution<int> val(1, 8);
  std::vector<gbx::Tuples<double>> plan(kBatches);
  for (auto& b : plan)
    for (std::size_t i = 0; i < kBatchSize; ++i)
      b.push_back(coord(rng), coord(rng), static_cast<double>(val(rng)));
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 2;
  bool kill_mode = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--kill") == 0)
      kill_mode = true;
    else
      workers = static_cast<std::size_t>(std::atoi(argv[a]));
  }
  if (workers == 0) workers = 2;

  // Fork every worker while still single-threaded; threads come after.
  cluster::WorkerConfig wcfg;
  wcfg.nrows = kDim;
  wcfg.ncols = kDim;
  wcfg.cuts = cuts();
  std::vector<cluster::SpawnedWorker> procs;
  for (std::size_t w = 0; w < workers; ++w)
    procs.push_back(cluster::spawn_worker_process(wcfg));

  cluster::Router::Options ropt;
  ropt.nrows = kDim;
  ropt.ncols = kDim;
  cluster::Router router(cluster::map_of(procs), ropt);
  router.start();
  std::printf("cluster: %zu worker processes (", workers);
  for (std::size_t w = 0; w < workers; ++w)
    std::printf("%spid %d:%u", w ? ", " : "", procs[w].pid, procs[w].port);
  std::printf("), router on port %u\n", router.port());

  int rc = 0;
  try {
    // Stream from concurrent clients through the router.
    std::vector<std::thread> senders;
    for (std::size_t c = 0; c < kClients; ++c) {
      senders.emplace_back([&router, c] {
        auto plan = make_plan(c);
        cluster::RouterClient cli;
        cli.connect("127.0.0.1", router.port());
        for (const auto& b : plan) cli.insert(b);
        cli.flush();
        cli.bye();
      });
    }
    for (auto& t : senders) t.join();

    if (kill_mode) {
      // The failure drill: SIGKILL worker 0, then the next stitched
      // query must error loudly. The flush barrier inside the stitch
      // touches every worker, so the death cannot go unnoticed.
      cluster::kill_worker(procs[0]);
      std::printf("killed worker 0; expecting a loud stitched-query "
                  "failure...\n");
      cluster::RouterClient cli;
      cli.connect("127.0.0.1", router.port());
      bool loud = false;
      try {
        const auto sum = cli.query_sum();
        std::printf("FAIL: stitched sum answered %.1f from a dead "
                    "cluster (silent partial sum)\n", sum.sum);
      } catch (const gbx::Error& e) {
        loud = true;
        std::printf("stitched query failed as required: %s\n", e.what());
      }
      rc = loud ? 0 : 1;
      std::printf("dead-worker drill: %s\n", loud ? "PASS" : "FAIL");
    } else {
      // Single-process oracle: same part count, same batches.
      hier::InstanceArray<double> oracle(workers, kDim, kDim, cuts());
      for (std::size_t c = 0; c < kClients; ++c)
        for (const auto& b : make_plan(c)) oracle.update_rows(b);
      auto truth = hier::ParallelStream<double>(oracle).freeze();

      cluster::RouterClient cli;
      cli.connect("127.0.0.1", router.port());

      // The stitched snapshot: freeze(), the verb every source spells.
      auto snap = cli.freeze();
      const double osum = truth.reduce();
      const std::uint64_t onvals = truth.nvals();
      std::printf("stitched  sum=%.1f nvals=%llu epoch=%llu (", snap.reduce(),
                  static_cast<unsigned long long>(snap.nvals()),
                  static_cast<unsigned long long>(snap.epoch()));
      for (std::size_t w = 0; w < snap.part_epochs().size(); ++w)
        std::printf("%s%llu", w ? "+" : "",
                    static_cast<unsigned long long>(snap.part_epochs()[w]));
      std::printf(")\noracle    sum=%.1f nvals=%llu\n", osum,
                  static_cast<unsigned long long>(onvals));

      bool exact = snap.reduce() == osum && snap.nvals() == onvals &&
                   snap.part_epochs().size() == workers;

      // Element probes, routed to their owning workers.
      std::mt19937_64 rng(7);
      std::uniform_int_distribution<gbx::Index> coord(0, kDim - 1);
      std::vector<net::ElementQuery> qs(64);
      for (auto& q : qs) q = net::ElementQuery{coord(rng), coord(rng)};
      const auto rs = cli.query_elements(qs);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const auto want = truth.extract_element(qs[i].row, qs[i].col);
        const bool ok = want ? (rs[i].present == 1 && rs[i].value == *want)
                             : rs[i].present == 0;
        if (!ok) {
          std::printf("probe (%llu,%llu) diverged: got %s%.1f want %s%.1f\n",
                      static_cast<unsigned long long>(qs[i].row),
                      static_cast<unsigned long long>(qs[i].col),
                      rs[i].present ? "" : "absent ", rs[i].value,
                      want ? "" : "absent ", want ? *want : 0.0);
          exact = false;
        }
      }

      // The summary stitch (destinations via the column-set union).
      const auto summary = cli.query_summary();
      if (summary.packets != osum ||
          summary.links != onvals) {
        std::printf("summary diverged: packets=%.1f links=%llu\n",
                    summary.packets,
                    static_cast<unsigned long long>(summary.links));
        exact = false;
      }
      std::printf("summary: %llu links, %.0f packets, %llu sources, "
                  "%llu destinations\n",
                  static_cast<unsigned long long>(summary.links),
                  summary.packets,
                  static_cast<unsigned long long>(summary.sources),
                  static_cast<unsigned long long>(summary.destinations));

      cli.bye();
      std::printf("round-trip vs single-process InstanceArray(%zu): %s\n",
                  workers, exact ? "EXACT" : "DIVERGED");
      rc = exact ? 0 : 1;
    }
  } catch (const gbx::Error& e) {
    std::fprintf(stderr, "cluster_demo: %s\n", e.what());
    rc = 2;
  }

  router.stop();
  for (auto& p : procs) cluster::kill_worker(p);
  return rc;
}

#else  // !__linux__

int main() {
  std::printf("cluster_demo: the cluster router is Linux-only\n");
  return 0;
}

#endif
