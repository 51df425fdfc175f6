// cluster/worker_pool.hpp — worker processes for the N-primary router
// (Linux only).
//
// A cluster "worker" is nothing new: it is the PR-6 ingest stack —
// InstanceArray → ParallelStream → MemoryGovernor → IngestServer —
// configured with exactly ONE lane. One lane per worker is the
// bit-identity contract: the router forwards worker w precisely the
// sub-batches InstanceArray(N)::update_rows would hand instance w, in
// order, so worker w's single HierMatrix replays the identical fold
// history as that instance and every stitched read matches the
// single-process oracle bitwise.
//
// Two packagings of the same stack:
//
//   * LocalWorker — in-process bundle (tests run router + N workers +
//     clients in one process, where failpoints and TSan reach them);
//
//   * spawn_worker_process — fork a real worker process with the pipe
//     port-handoff idiom of examples/repl_pair.cpp (demo and bench run
//     true multi-process clusters). Fork happens in the caller's
//     single-threaded prologue — fork+threads don't mix, so spawn ALL
//     workers before starting any router or client thread.
#pragma once

#ifdef __linux__

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "gbx/error.hpp"
#include "hier/cut_policy.hpp"
#include "hier/instance_array.hpp"
#include "hier/memory_governor.hpp"
#include "hier/parallel_stream.hpp"
#include "cluster/partition_map.hpp"
#include "net/server.hpp"

namespace cluster {

/// Shape of one worker's matrix + server knobs (every worker in a
/// cluster gets the same config; placement does the sharding).
struct WorkerConfig {
  gbx::Index nrows = 0;
  gbx::Index ncols = 0;
  hier::CutPolicy cuts = hier::CutPolicy::geometric(3, 2048, 8);
  net::IngestServer::Options server = net::IngestServer::Options();
};

/// One in-process worker: the single-lane ingest stack, started on
/// construction, torn down in the right order (server, then stream).
class LocalWorker {
 public:
  explicit LocalWorker(const WorkerConfig& cfg)
      : array_(1, cfg.nrows, cfg.ncols, cfg.cuts),
        stream_(array_),
        governor_(stream_) {
    stream_.start();
    net::IngestServer::Options sopt = cfg.server;
    sopt.port = 0;  // always ephemeral; the map records the real port
    server_ = std::make_unique<net::IngestServer>(stream_, governor_, sopt);
    server_->start();
  }

  ~LocalWorker() {
    if (server_ && server_->running()) server_->stop();
    if (stream_.running()) stream_.stop();
  }

  LocalWorker(const LocalWorker&) = delete;
  LocalWorker& operator=(const LocalWorker&) = delete;

  std::uint16_t port() const { return server_->port(); }
  WorkerEndpoint endpoint() const { return WorkerEndpoint{"127.0.0.1", port()}; }
  net::IngestServer& server() { return *server_; }

 private:
  hier::InstanceArray<double> array_;
  hier::ParallelStream<double> stream_;
  hier::MemoryGovernor<hier::ParallelStream<double>> governor_;
  std::unique_ptr<net::IngestServer> server_;
};

/// Spin up N in-process workers and the map over them.
class LocalWorkerPool {
 public:
  LocalWorkerPool(std::size_t n, const WorkerConfig& cfg) {
    GBX_CHECK_VALUE(n > 0, "worker pool needs >= 1 worker");
    for (std::size_t w = 0; w < n; ++w)
      workers_.push_back(std::make_unique<LocalWorker>(cfg));
  }

  std::size_t size() const { return workers_.size(); }
  LocalWorker& worker(std::size_t w) { return *workers_[w]; }

  PartitionMap map(std::uint64_t version = 1) const {
    std::vector<WorkerEndpoint> eps;
    for (const auto& w : workers_) eps.push_back(w->endpoint());
    return PartitionMap(std::move(eps), version);
  }

 private:
  std::vector<std::unique_ptr<LocalWorker>> workers_;
};

/// A forked worker process (demo/bench): pid + the port it reported.
struct SpawnedWorker {
  pid_t pid = -1;
  std::uint16_t port = 0;
  WorkerEndpoint endpoint() const { return WorkerEndpoint{"127.0.0.1", port}; }
};

/// Fork one worker process. MUST be called while the parent is still
/// single-threaded (before any router/client starts). The child builds
/// a LocalWorker, reports its port through a pipe, and pauses until the
/// parent kills it — examples/repl_pair.cpp's handoff idiom.
inline SpawnedWorker spawn_worker_process(const WorkerConfig& cfg) {
  int pipefd[2];
  GBX_CHECK(::pipe(pipefd) == 0, "spawn_worker_process: pipe() failed");
  const pid_t pid = ::fork();
  GBX_CHECK(pid >= 0, "spawn_worker_process: fork() failed");
  if (pid == 0) {
    ::close(pipefd[0]);
    {
      LocalWorker worker(cfg);
      const std::uint16_t port = worker.port();
      if (::write(pipefd[1], &port, sizeof port) !=
          static_cast<ssize_t>(sizeof port))
        ::_exit(3);
      ::close(pipefd[1]);
      for (;;) ::pause();  // the parent's SIGKILL is the only exit
    }
  }
  ::close(pipefd[1]);
  SpawnedWorker w;
  w.pid = pid;
  const bool got = ::read(pipefd[0], &w.port, sizeof w.port) ==
                   static_cast<ssize_t>(sizeof w.port);
  ::close(pipefd[0]);
  if (!got) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    GBX_CHECK(false, "spawn_worker_process: worker never reported a port");
  }
  return w;
}

/// SIGKILL a spawned worker and reap it (idempotent on pid < 0).
inline void kill_worker(SpawnedWorker& w) {
  if (w.pid < 0) return;
  ::kill(w.pid, SIGKILL);
  ::waitpid(w.pid, nullptr, 0);
  w.pid = -1;
}

inline PartitionMap map_of(const std::vector<SpawnedWorker>& workers,
                           std::uint64_t version = 1) {
  std::vector<WorkerEndpoint> eps;
  for (const auto& w : workers) eps.push_back(w.endpoint());
  return PartitionMap(std::move(eps), version);
}

}  // namespace cluster

#endif  // __linux__
