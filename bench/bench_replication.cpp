// Replication overhead — ingest rate with WAL shipping on vs off.
//
// Two identical loopback ingest runs: N clients stream Kronecker
// batches into net::IngestServer and flush (the applied barrier). The
// second run arms the full PR-9 replication chain — every accepted
// batch is seq-stamped into the primary's replication WAL, shipped to a
// live repl::ReplicaServer, logged there and acked, then applied; the
// final flush additionally waits for the replica to be durable (acked ⊆
// replicated). rate_ratio = shipped_rate / baseline_rate is the gated
// metric. The shipper is a second handler on the primary's ingest loop,
// and the replica's loop and lane workers run beside it, so with cores
// to pipeline on replication may only cost a thin slice of ingest
// throughput.
// Exactness is checked on BOTH ends — the primary's served Σ Ai and
// the stopped replica's per-lane Σ Ai must equal the streamed entry
// count — so the ratio can never green a replica that lags or
// diverges.
//
// The self-gate floor adapts to what the host can physically do: with
// >= 4 hardware threads the chain overlaps ingest and the floor is
// REPL_MIN_RATE_RATIO (0.85 — replication may cost at most 15%).
// Below that there is nothing to pipeline ON — the wall ratio
// degenerates to serial work_off/work_on (a second full apply, two
// more WAL checksum passes, a socket hop: ~2.5x the work), so the
// floor drops to REPL_MIN_RATE_RATIO_SERIAL (0.30), which still fails
// loudly on stalls, livelocks, and ack starvation while not failing
// single-core hosts for lacking cores.
//
//   REPL_CLIENTS                 client/lane count              (def 2)
//   REPL_SETS                    batches per client             (def 12)
//   REPL_SET_SIZE                entries per batch              (def 50000)
//   REPL_MIN_RATE_RATIO          floor, >= 4 hw threads         (def 0.85)
//   REPL_MIN_RATE_RATIO_SERIAL   floor, < 4 hw threads          (def 0.30)
//
// BENCH_JSON: {"bench":"replication","rate_ratio":r,"exact_ratio":1|0,
// "baseline_rate_ref":e/s,"shipped_rate_ref":e/s,...}. Gated metrics:
// rate_ratio (same-host relative, comparable across machines) and
// exact_ratio; absolute rates are _ref-suffixed (host-sensitive). So is
// the ship-on run's CPU split: "cpu_s_<thread name>_ref", the CPU
// seconds (on-CPU time, /proc/self/task/*/schedstat) each thread spent
// between the clients' first batch and their last flush, summed over
// the threads that share a name — hh-ingest (the primary's loop, the
// shipper included), hh-replica, hh-lane-<p> (the lane p workers of
// both ends, with any OpenMP team they fork), hh-client.
#include <cstdio>
#include <cstdlib>

#ifdef __linux__

#include <filesystem>
#include <chrono>
#include <fstream>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <unistd.h>

#include "bench_util.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"
#include "net/net.hpp"
#include "repl/repl.hpp"

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

/// CPU seconds of every live thread (its on-CPU time, nanosecond
/// resolution), by thread id, with the thread's name.
std::map<std::string, std::pair<std::string, double>> thread_cpu() {
  std::map<std::string, std::pair<std::string, double>> out;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm"), sched(task.path() / "schedstat");
    std::string name;
    double ns = 0;
    if (std::getline(comm, name) && sched >> ns)
      out[task.path().filename().string()] = {name, ns * 1e-9};
  }
  return out;
}

/// CPU seconds each thread name spent between two thread_cpu() samples.
std::map<std::string, double> cpu_by_name(
    const std::map<std::string, std::pair<std::string, double>>& before,
    const std::map<std::string, std::pair<std::string, double>>& after) {
  std::map<std::string, double> out;
  for (const auto& [tid, named] : after) {
    const auto it = before.find(tid);
    out[named.first] +=
        named.second - (it == before.end() ? 0.0 : it->second.second);
  }
  return out;
}

struct RunResult {
  double rate = 0;          ///< applied entries / wall seconds to barrier
  double server_sum = 0;    ///< primary's served Σ Ai
  double replica_sum = 0;   ///< stopped replica's Σ Ai (replicated only)
  bool exact = false;
  std::map<std::string, double> cpu_s;  ///< by thread name, streaming phase
};

std::string tmp_wal(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

RunResult run_once(bool replicated,
                   const std::vector<std::vector<gbx::Tuples<double>>>& work,
                   std::size_t clients, double streamed) {
  const gbx::Index dim = gbx::Index{1} << 16;
  const auto cuts = hier::CutPolicy::geometric(4, 4096, 8);

  const std::string primary_wal = tmp_wal("bench_repl_primary");
  const std::string replica_wal = tmp_wal("bench_repl_replica");
  std::filesystem::remove(replica_wal);

  // Replica first (the shipper dials it as soon as the primary starts).
  std::unique_ptr<repl::ReplicaServer> replica;
  if (replicated) {
    repl::ReplicaOptions ropt;
    ropt.wal_path = replica_wal;
    ropt.lanes = clients;
    ropt.nrows = dim;
    ropt.ncols = dim;
    ropt.cuts = cuts;
    ropt.auto_promote = false;  // the primary lives; no failover here
    replica = std::make_unique<repl::ReplicaServer>(ropt);
    replica->start();
  }

  hier::InstanceArray<double> array(clients, dim, dim, cuts);
  hier::ParallelStream<double> stream(array);
  stream.start();
  hier::MemoryGovernor<hier::ParallelStream<double>> governor(stream);

  std::unique_ptr<repl::PrimaryReplicator> replicator;
  net::IngestServer::Options sopt;
  if (replicated) {
    repl::ShipperOptions shop;
    shop.port = replica->port();
    shop.wal_path = primary_wal;
    replicator = std::make_unique<repl::PrimaryReplicator>(stream, shop);
    replicator->start();
    sopt.replication = replicator.get();
  }
  net::IngestServer server(stream, governor, sopt);
  server.start();

  // Clients stay alive until the CPU sample after their last flush.
  std::latch flushed(static_cast<std::ptrdiff_t>(clients)), sampled(1);
  const auto cpu0 = thread_cpu();
  const double t0 = now_seconds();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ::pthread_setname_np(::pthread_self(), "hh-client");
      net::Client cli;
      cli.connect("127.0.0.1", server.port());
      for (const auto& b : work[c]) cli.insert(b, c);
      cli.flush();  // replicated: also waits for replica durability
      flushed.count_down();
      sampled.wait();
      cli.bye();
    });
  }
  flushed.wait();
  RunResult r;
  const double sample_from = now_seconds();
  r.cpu_s = cpu_by_name(cpu0, thread_cpu());
  const double sample_s = now_seconds() - sample_from;
  sampled.count_down();
  for (auto& t : threads) t.join();
  // Wall time to the last bye, as without the sample, which it excludes.
  const double wall = now_seconds() - t0 - sample_s;
  r.rate = wall > 0 ? streamed / wall : 0;

  net::Client probe;
  probe.connect("127.0.0.1", server.port());
  r.server_sum = probe.query_sum().sum;
  probe.bye();

  server.stop();
  if (replicator) replicator->stop();
  stream.stop();

  r.exact = r.server_sum == streamed;
  if (replicated) {
    replica->stop();
    double s = 0;
    for (std::size_t p = 0; p < clients; ++p)
      s += replica->array().instance(p).freeze().reduce();
    r.replica_sum = s;
    r.exact = r.exact && r.replica_sum == streamed;
    replica.reset();
  }

  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
  return r;
}

}  // namespace

int main() {
  const std::size_t clients = env_or_sz("REPL_CLIENTS", 2);
  const std::size_t sets = env_or_sz("REPL_SETS", 12);
  const std::size_t set_size = env_or_sz("REPL_SET_SIZE", 50000);
  const unsigned hw = std::thread::hardware_concurrency();
  // The pipelined floor only applies when there are cores to pipeline
  // on; a serial host measures work_off/work_on instead (see header).
  const bool can_pipeline = hw >= 4;
  const double min_ratio =
      can_pipeline ? env_or_d("REPL_MIN_RATE_RATIO", 0.85)
                   : env_or_d("REPL_MIN_RATE_RATIO_SERIAL", 0.30);

  benchutil::header(
      "Replication overhead (WAL shipping to a live replica)",
      "loopback ingest rate with the PR-9 replication chain armed vs off; "
      "exactness of BOTH the primary's and the replica's Σ Ai gates the run");
  benchutil::note(std::to_string(clients) + " clients x " +
                  std::to_string(sets) + " x " + std::to_string(set_size) +
                  " entries; " + std::to_string(hw) + " hw threads (" +
                  (can_pipeline ? "pipelined" : "serial") +
                  " floor); gate rate_ratio >= " + std::to_string(min_ratio));

  std::vector<std::vector<gbx::Tuples<double>>> work(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    gen::KroneckerParams kp;
    kp.scale = 16;
    kp.seed = 9100 + c;
    gen::KroneckerGenerator g(kp);
    for (std::size_t b = 0; b < sets; ++b)
      work[c].push_back(g.batch<double>(set_size));
  }
  const double streamed = static_cast<double>(clients * sets * set_size);

  const RunResult off = run_once(false, work, clients, streamed);
  const RunResult on = run_once(true, work, clients, streamed);

  const double ratio = off.rate > 0 ? on.rate / off.rate : 0;
  const bool exact = off.exact && on.exact;
  const bool pass = exact && ratio >= min_ratio;

  std::printf("mode\trate\texact\n");
  std::printf("ship-off\t%s\t%s\n", benchutil::rate(off.rate).c_str(),
              off.exact ? "ok" : "VIOLATED");
  std::printf("ship-on\t%s\t%s\n", benchutil::rate(on.rate).c_str(),
              on.exact ? "ok" : "VIOLATED");
  std::printf("\nresult: %s (rate_ratio %.3f vs %s floor %.2f, Σ Ai %s on "
              "both ends)\n",
              pass ? "PASS" : "FAIL", ratio,
              can_pipeline ? "pipelined" : "serial", min_ratio,
              exact ? "exact" : "DIVERGED");
  std::printf("\nship-on CPU seconds by thread name\n");
  std::string cpu_json;
  for (const auto& [name, secs] : on.cpu_s) {
    std::printf("%s\t%.3f\n", name.c_str(), secs);
    cpu_json += ",\"cpu_s_" + name + "_ref\":" + std::to_string(secs);
  }
  std::printf("BENCH_JSON {\"bench\":\"replication\",\"clients\":%zu,"
              "\"sets\":%zu,\"set_size\":%zu,\"rate_ratio\":%.6f,"
              "\"exact_ratio\":%.1f,\"baseline_rate_ref\":%.1f,"
              "\"shipped_rate_ref\":%.1f,\"min_rate_ratio_ref\":%.2f,"
              "\"hw_threads_ref\":%u%s,\"pass\":%s}\n",
              clients, sets, set_size, ratio, exact ? 1.0 : 0.0, off.rate,
              on.rate, min_ratio, hw, cpu_json.c_str(),
              pass ? "true" : "false");
  return pass ? 0 : 1;
}

#else  // !__linux__

int main() {
  std::printf("bench_replication: the epoll ingest server is Linux-only\n");
  return 0;
}

#endif
