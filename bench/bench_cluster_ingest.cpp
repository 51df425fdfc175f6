// Cluster ingest scaling — aggregate insert rate through the N-primary
// router as the worker-process count grows.
//
// The full multi-process topology, on loopback: for each sweep point P,
// P forked worker processes (1-lane ingest stacks) sit behind one
// cluster::Router, and P concurrent clients stream Kronecker batches
// through it (row-hash fan-out, whole-batch atomicity). The flush
// barrier is the applied barrier on every worker, and the run's Σ Ai is
// read back through an epoch-stitched query. Every streamed edge
// carries value 1.0, so the exact stitched sum IS the streamed entry
// count — exactness gates the run at every P, on every host; a cluster
// that drops, duplicates, or half-routes a batch can never green.
//
// The gated rate metric is scaling_ratio = rate(P=max) / rate(P=1):
// with enough hardware threads for the whole topology (>= 2x workers:
// each worker needs a lane thread + event loop, and the router/clients
// ride the rest) the aggregate rate must not DROP as workers are added
// — the monotone-scaling floor CLUSTER_MIN_SCALING (1.0). On smaller
// hosts every process multiplexes the same cores and the sweep only
// measures scheduler churn, so the floor drops to
// CLUSTER_MIN_SCALING_SERIAL (0.25): still loud on livelocks and
// per-worker serialization bugs, not a core-count test.
//
// All workers (for every sweep point) are forked up front, while the
// process is still single-threaded — fork and threads don't mix.
//
//   CLUSTER_MAX_WORKERS          sweep ceiling                  (def 4)
//   CLUSTER_SETS                 batches per client             (def 8)
//   CLUSTER_SET_SIZE             entries per batch              (def 50000)
//   CLUSTER_MIN_SCALING          floor, hw >= 2x workers        (def 1.0)
//   CLUSTER_MIN_SCALING_SERIAL   floor otherwise                (def 0.25)
//
// BENCH_JSON: {"bench":"cluster_ingest","scaling_ratio":r,
// "exact_ratio":1|0,"rate_p<P>_ref":e/s...}. Gated: scaling_ratio and
// exact_ratio; absolute per-P rates are _ref-suffixed (host-sensitive).
#include <cstdio>
#include <cstdlib>

#ifdef __linux__

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"
#include "net/net.hpp"

namespace {

std::size_t env_or_sz(const char* name, std::size_t fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? static_cast<std::size_t>(std::atoll(s))
                                      : fallback;
}

double env_or_d(const char* name, double fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::atof(s) : fallback;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kScale = 16;
constexpr gbx::Index kDim = gbx::Index{1} << kScale;

struct SweepResult {
  double rate = 0;
  bool exact = false;
};

/// One sweep point: router over `procs`, |procs| clients streaming.
SweepResult run_sweep(std::vector<cluster::SpawnedWorker>& procs,
                      const std::vector<std::vector<gbx::Tuples<double>>>& work,
                      double streamed) {
  const std::size_t nclients = procs.size();
  cluster::Router::Options ropt;
  ropt.nrows = kDim;
  ropt.ncols = kDim;
  cluster::Router router(cluster::map_of(procs), ropt);
  router.start();

  const double t0 = now_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < nclients; ++c) {
    threads.emplace_back([&router, &work, c] {
      cluster::RouterClient cli;
      cli.connect("127.0.0.1", router.port());
      for (const auto& b : work[c]) cli.insert(b);
      cli.flush();  // applied barrier on every worker this client touched
      cli.bye();
    });
  }
  for (auto& t : threads) t.join();
  const double wall = now_seconds() - t0;

  cluster::RouterClient probe;
  probe.connect("127.0.0.1", router.port());
  const auto snap = probe.freeze();  // epoch-stitched Σ Ai
  probe.bye();
  router.stop();

  SweepResult r;
  r.rate = wall > 0 ? streamed / wall : 0;
  r.exact = snap.reduce() == streamed &&
            snap.part_epochs().size() == procs.size();
  return r;
}

}  // namespace

int main() {
  const std::size_t max_workers = env_or_sz("CLUSTER_MAX_WORKERS", 4);
  const std::size_t sets = env_or_sz("CLUSTER_SETS", 8);
  const std::size_t set_size = env_or_sz("CLUSTER_SET_SIZE", 50000);
  const unsigned hw = std::thread::hardware_concurrency();
  const bool roomy = hw >= 2 * max_workers;
  const double min_scaling =
      roomy ? env_or_d("CLUSTER_MIN_SCALING", 1.0)
            : env_or_d("CLUSTER_MIN_SCALING_SERIAL", 0.25);

  // Fork EVERY worker for EVERY sweep point now, single-threaded.
  cluster::WorkerConfig wcfg;
  wcfg.nrows = kDim;
  wcfg.ncols = kDim;
  wcfg.cuts = hier::CutPolicy::geometric(4, 4096, 8);
  std::vector<std::vector<cluster::SpawnedWorker>> fleets;
  for (std::size_t p = 1; p <= max_workers; ++p) {
    fleets.emplace_back();
    for (std::size_t w = 0; w < p; ++w)
      fleets.back().push_back(cluster::spawn_worker_process(wcfg));
  }

  benchutil::header(
      "Cluster ingest scaling (N-primary router, forked workers)",
      "aggregate insert rate through cluster::Router as the worker-process "
      "count grows; the epoch-stitched Σ Ai gates exactness at every P");
  benchutil::note("P = 1.." + std::to_string(max_workers) + " workers, P "
                  "clients x " + std::to_string(sets) + " x " +
                  std::to_string(set_size) + " entries; " +
                  std::to_string(hw) + " hw threads (" +
                  (roomy ? "monotone" : "serial") + " floor); gate "
                  "scaling_ratio >= " + std::to_string(min_scaling));

  std::vector<std::vector<gbx::Tuples<double>>> work(max_workers);
  for (std::size_t c = 0; c < max_workers; ++c) {
    gen::KroneckerParams kp;
    kp.scale = kScale;
    kp.seed = 10100 + c;
    gen::KroneckerGenerator g(kp);
    for (std::size_t b = 0; b < sets; ++b)
      work[c].push_back(g.batch<double>(set_size));
  }

  std::printf("workers\trate\texact\n");
  std::vector<double> rates;
  bool exact = true;
  for (std::size_t p = 1; p <= max_workers; ++p) {
    const double streamed = static_cast<double>(p * sets * set_size);
    SweepResult r = run_sweep(fleets[p - 1], work, streamed);
    for (auto& w : fleets[p - 1]) cluster::kill_worker(w);
    rates.push_back(r.rate);
    exact = exact && r.exact;
    std::printf("%zu\t%s\t%s\n", p, benchutil::rate(r.rate).c_str(),
                r.exact ? "ok" : "VIOLATED");
  }

  const double scaling =
      rates.front() > 0 ? rates.back() / rates.front() : 0;
  const bool pass = exact && scaling >= min_scaling;

  std::printf("\nresult: %s (scaling_ratio %.3f vs %s floor %.2f, "
              "stitched Σ Ai %s at every P)\n",
              pass ? "PASS" : "FAIL", scaling,
              roomy ? "monotone" : "serial", min_scaling,
              exact ? "exact" : "DIVERGED");
  std::string json =
      "BENCH_JSON {\"bench\":\"cluster_ingest\",\"max_workers\":" +
      std::to_string(max_workers) + ",\"sets\":" + std::to_string(sets) +
      ",\"set_size\":" + std::to_string(set_size) + ",\"scaling_ratio\":" +
      std::to_string(scaling) + ",\"exact_ratio\":" +
      (exact ? std::string("1.0") : std::string("0.0"));
  for (std::size_t p = 1; p <= max_workers; ++p)
    json += ",\"rate_p" + std::to_string(p) + "_ref\":" +
            std::to_string(rates[p - 1]);
  json += ",\"min_scaling_ref\":" + std::to_string(min_scaling) +
          ",\"hw_threads_ref\":" + std::to_string(hw) + ",\"pass\":" +
          (pass ? "true" : "false") + "}";
  std::printf("%s\n", json.c_str());
  return pass ? 0 : 1;
}

#else  // !__linux__

int main() {
  std::printf("bench_cluster_ingest: the cluster router is Linux-only\n");
  return 0;
}

#endif
