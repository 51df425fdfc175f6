// bench/e2e/hhbench.cpp — one round of an end-to-end streaming workload.
//
// The load generator and probe of the end-to-end benchmark. It drives the
// stack only through public calls (net::Client / cluster::RouterClient on
// the wire; gbx::Matrix, HierMatrix and ParallelStream in the ledger) and
// reads only public counters after the work is done. One invocation does
// one piece of fixed work and prints one JSON object of raw samples and
// counters on stdout; bench/e2e/run.py owns the workload table, repeats
// rounds, and turns the samples into metrics.
//
//   --mode round   Build the system under test — an IngestServer, a Router
//                  over two forked worker processes, or an IngestServer
//                  whose PrimaryReplicator ships to an in-process
//                  ReplicaServer — connect two closed-loop writers and one
//                  open-loop analyst, stream the fixed work, check
//                  exactness, stop everything.
//   --mode ledger  Replay the workload's first batches through gbx::Matrix
//                  (append + materialize), HierMatrix::update and a 2-lane
//                  ParallelStream, in process.
//   --mode direct  Send the same batches through a Router at one worker,
//                  then straight to a worker, one closed-loop client each.
//   --mode digest  Print the digest of the generated input only.
//
// Load model. Writer w sends batch j (insert), then flush()es; the flush
// ack is the batch's ack. Every batch ends with one marker entry at
// (2^17 + w, 2^17), outside the generated key space, so the served value
// of that coordinate counts writer w's applied batches: the analyst's
// element probe of the two markers tells which batches a query can see,
// on a server and through the router alike. The analyst ticks on a fixed
// schedule (open loop); each tick probes the markers and, when the
// workload asks for it, then calls query_sum(). Query latency is timed
// from the tick's due time, so a stalled query also delays later ticks.
// Every value is 1.0, so an exact Σ Ai is the number of entries applied.
//
// Keys. Writer w's batches come from a pool of Kronecker batches (scale
// 17) generated from the seed. Bounded keys cycle the pool, so the state
// stops growing once every pool batch has been applied. Growing keys
// XOR-remap the vertex ids with a fresh pair of masks on every pass over
// the pool, so almost every pass lands on new coordinates.
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.hpp"
#include "cluster/router_client.hpp"
#include "cluster/worker_pool.hpp"
#include "gbx/matrix.hpp"
#include "gbx/reduce.hpp"
#include "gen/kronecker.hpp"
#include "gen/rng.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/instance_array.hpp"
#include "hier/memory_governor.hpp"
#include "hier/parallel_stream.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "repl/replica.hpp"
#include "repl/wal_shipper.hpp"

namespace {

constexpr int kScale = 17;
constexpr gbx::Index kKeys = gbx::Index{1} << kScale;  ///< generated key space
constexpr gbx::Index kDim = gbx::Index{1} << 18;       ///< matrix dimension
constexpr std::size_t kWriters = 2;
/// Reply timeout on every client: a dead or wedged stack fails the call
/// (counted in `failed`) instead of hanging the benchmark.
constexpr int kRecvTimeoutMs = 20000;

hier::CutPolicy sut_cuts() { return hier::CutPolicy::geometric(4, 4096, 8); }

const auto kStart = std::chrono::steady_clock::now();

/// Seconds since process start (steady clock).
double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

double ms(double seconds) { return seconds * 1e3; }

/// Batches are numbered in the order the two writers interleave them, so
/// the ledger's "first K batches" are ids 0..K-1.
std::int64_t batch_id(std::size_t writer, std::size_t j) {
  return static_cast<std::int64_t>(j * kWriters + writer);
}

// --- arguments ---------------------------------------------------------

enum class Stack { kServer, kRouter, kReplicated };

struct Args {
  std::string mode = "round";
  Stack stack = Stack::kServer;
  bool growing = false;      ///< growing keys (fresh masks per pool pass)
  bool sum_query = false;    ///< analyst calls query_sum() after its probe
  std::uint64_t seed = 1;
  std::size_t batches = 100;     ///< per writer
  std::size_t batch_size = 50000;
  std::size_t pool = 64;         ///< distinct generated batches per writer
  std::size_t ledger_batches = 200;
  std::size_t setup_reps = 10;   ///< set-ups timed per round
  bool query_idle = false;       ///< time query_sum on the quiesced stack
  std::string trace;             ///< span file (Chrome trace events)
  std::string wal_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hhbench: %s\n"
               "usage: hhbench --mode round|ledger|direct|digest "
               "--stack server|router|replicated --keys bounded|growing "
               "[--sum-query 0|1] [--seed N] [--batches N] [--batch-size N] "
               "[--pool N] [--ledger-batches N] "
               "[--setup-reps N] [--query-idle 0|1] [--trace FILE] "
               "[--wal-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage("bad value for " + flag + ": " + v);
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--stack") {
      if (v == "server") a.stack = Stack::kServer;
      else if (v == "router") a.stack = Stack::kRouter;
      else if (v == "replicated") a.stack = Stack::kReplicated;
      else usage("unknown stack " + v);
    } else if (flag == "--keys") {
      if (v != "bounded" && v != "growing") usage("unknown keys " + v);
      a.growing = v == "growing";
    } else if (flag == "--sum-query") {
      a.sum_query = parse_u64(flag, v) != 0;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--batches") {
      a.batches = parse_u64(flag, v);
    } else if (flag == "--batch-size") {
      a.batch_size = parse_u64(flag, v);
    } else if (flag == "--pool") {
      a.pool = parse_u64(flag, v);
    } else if (flag == "--ledger-batches") {
      a.ledger_batches = parse_u64(flag, v);
    } else if (flag == "--setup-reps") {
      a.setup_reps = parse_u64(flag, v);
    } else if (flag == "--query-idle") {
      a.query_idle = parse_u64(flag, v) != 0;
    } else if (flag == "--trace") {
      a.trace = v;
    } else if (flag == "--wal-dir") {
      a.wal_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.mode != "round" && a.mode != "ledger" && a.mode != "direct" &&
      a.mode != "digest")
    usage("unknown mode " + a.mode);
  if (a.batches == 0 || a.batch_size == 0 || a.pool == 0 || a.setup_reps == 0)
    usage("--batches, --batch-size, --pool and --setup-reps must be positive");
  return a;
}

// --- JSON output -------------------------------------------------------

/// Flat JSON object builder for the one result line.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return raw(key, buf);
  }
  Json& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  Json& nums(const char* key, const std::vector<double>& vs) {
    std::string s = "[";
    char buf[48];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", vs[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  Json& raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }

  std::string body_;
};

// --- spans -------------------------------------------------------------

/// Spans of one thread, kept in memory and written out when the round
/// ends. Disabled logs record nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double t0, t1;
    std::int64_t batch;  ///< batch id, or -1 for spans not about one batch
  };

  explicit SpanLog(bool on) : on_(on) {}
  void add(const char* name, double t0, double t1, std::int64_t batch) {
    if (on_) spans_.push_back(Span{name, t0, t1, batch});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Chrome trace-event file: one complete ("X") event per span, tid = the
/// log's index, timestamps in microseconds since process start.
void write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  GBX_CHECK(out.good(), "cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    for (const auto& s : logs[tid]->spans()) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":0,\"tid\":%zu,\"args\":{\"batch\":%lld}}",
                    first ? "" : ",", s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                    tid, static_cast<long long>(s.batch));
      out << buf;
      first = false;
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  GBX_CHECK(out.good(), "trace write failed: " + path);
}

// --- /proc readers -----------------------------------------------------

/// A "Key:   123 kB"-style field of a /proc status file, or 0.
double proc_status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':')
      return std::atof(line.c_str() + key.size() + 1);
  }
  return 0;
}

double self_kb(const char* key) {
  return proc_status_field("/proc/self/status", key);
}

double cpu_seconds(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
}

double ctx_switches(const rusage& r) {
  return static_cast<double>(r.ru_nvcsw + r.ru_nivcsw);
}

// --- workload ----------------------------------------------------------

/// The generated input of one workload: per-writer batch pools plus, for
/// growing keys, one XOR mask pair per pass. Everything derives from the
/// seed; digest() hashes every generated byte.
class Workload {
 public:
  explicit Workload(const Args& a)
      : growing_(a.growing), batches_(a.batches), batch_size_(a.batch_size) {
    const std::size_t pool = std::min(a.pool, a.batches);
    pool_.assign(kWriters, std::vector<gbx::Tuples<double>>(pool));
    masks_.resize(kWriters);
    // Every pool batch has its own generator seed, so the threads that
    // share the generation out cannot change what is generated.
    const std::size_t nthreads =
        std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    std::vector<std::thread> gens;  // joined before the constructor returns
    for (std::size_t t = 0; t < nthreads; ++t)
      gens.emplace_back([this, &a, t, nthreads, pool] {
        for (std::size_t i = t; i < kWriters * pool; i += nthreads)
          generate(a.seed, i % kWriters, i / kWriters, a.batch_size);
      });
    for (auto& t : gens) t.join();
    if (growing_) {
      for (std::size_t w = 0; w < kWriters; ++w) {
        gen::Xoshiro256 rng(gen::mix64(a.seed * kWriters + w + 1));
        for (std::size_t p = 0; p < (a.batches + pool - 1) / pool; ++p)
          masks_[w].push_back(
              {rng.next() & (kKeys - 1), rng.next() & (kKeys - 1)});
      }
    }
    digest_ = hash();
  }

  /// Entries per batch, marker included.
  std::size_t batch_entries() const { return batch_size_ + 1; }
  std::size_t batches() const { return batches_; }
  std::uint64_t digest() const { return digest_; }

  /// Writer w's batch j. Growing keys remap into `scratch`.
  const gbx::Tuples<double>& batch(std::size_t w, std::size_t j,
                                   gbx::Tuples<double>& scratch) const {
    const auto& src = pool_[w][j % pool_[w].size()];
    if (!growing_) return src;
    const auto [mr, mc] = masks_[w][j / pool_[w].size()];
    auto& out = scratch.entries();
    out.assign(src.entries().begin(), src.entries().end());
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {  // not the marker
      out[i].row ^= mr;
      out[i].col ^= mc;
    }
    return scratch;
  }

 private:
  /// Pool batch k of writer w: Kronecker edges, then the writer's marker.
  void generate(std::uint64_t seed, std::size_t w, std::size_t k,
                std::size_t size) {
    std::uint64_t sm = seed;
    gen::KroneckerParams kp;
    kp.scale = kScale;
    kp.seed = gen::mix64(gen::splitmix64(sm) ^ (k * kWriters + w));
    gen::KroneckerGenerator g(kp);
    auto& b = pool_[w][k];
    g.batch(size, b);
    b.push_back(kKeys + w, kKeys, 1.0);
  }

  std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ull; };
    mix(batches_);
    mix(batch_size_);
    mix(growing_ ? 1 : 0);
    for (std::size_t w = 0; w < kWriters; ++w) {
      for (const auto& b : pool_[w]) {
        for (const auto& e : b) {
          std::uint64_t bits = 0;
          std::memcpy(&bits, &e.val, sizeof bits);
          mix(e.row);
          mix(e.col);
          mix(bits);
        }
      }
      for (const auto& [mr, mc] : masks_[w]) {
        mix(mr);
        mix(mc);
      }
    }
    return h;
  }

  bool growing_;
  std::size_t batches_, batch_size_;
  std::vector<std::vector<gbx::Tuples<double>>> pool_;  ///< [writer][k]
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> masks_;
  std::uint64_t digest_ = 0;
};

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

// --- forked workers ----------------------------------------------------

/// Forked worker processes, SIGKILLed and reaped on scope exit.
struct Workers {
  std::vector<cluster::SpawnedWorker> procs;

  Workers() = default;
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  ~Workers() { kill_all(); }

  void spawn(std::size_t n) {
    cluster::WorkerConfig wc;
    wc.nrows = kDim;
    wc.ncols = kDim;
    wc.cuts = sut_cuts();
    for (std::size_t i = 0; i < n; ++i)
      procs.push_back(cluster::spawn_worker_process(wc));
  }
  /// Σ VmHWM of the live workers, MB (read before they are killed).
  double peak_rss_mb() const {
    double kb = 0;
    for (const auto& p : procs)
      if (p.pid > 0)
        kb += proc_status_field("/proc/" + std::to_string(p.pid) + "/status",
                                "VmHWM");
    return kb / 1024.0;
  }
  void kill_all() {
    for (auto& p : procs) cluster::kill_worker(p);
  }
};

// --- the systems under test --------------------------------------------

/// One stack behind a port. The constructor is the set-up; finish() stops
/// everything and reports the stack's public counters.
class Sut {
 public:
  virtual ~Sut() = default;
  virtual std::uint16_t port() const = 0;
  /// Lane hint for writer w's inserts (kAnyLane: let the router hash).
  virtual std::uint64_t lane_of(std::size_t w) const = 0;
  /// Replication lag in batches (logged − acked); 0 without replication.
  virtual double lag_batches() const { return 0; }
  /// Stop the stack; `expected_sum` is the served Σ Ai the replica, if
  /// any, must also hold. Returns false on an exactness failure.
  virtual bool finish(Json& out, double expected_sum, double work_s) = 0;
};

/// IngestServer over a 2-lane ParallelStream, optionally shipping every
/// accepted batch to an in-process ReplicaServer.
class ServerSut final : public Sut {
 public:
  ServerSut(bool replicated, const std::string& wal_dir)
      : replicated_(replicated),
        primary_wal_(wal_dir + "/primary-" + std::to_string(::getpid()) +
                     ".wal"),
        replica_wal_(wal_dir + "/replica-" + std::to_string(::getpid()) +
                     ".wal"),
        array_(kWriters, kDim, kDim, sut_cuts()),
        stream_(array_),
        governor_(stream_) {
    net::IngestServer::Options sopt;
    if (replicated_) {
      std::filesystem::remove(replica_wal_);
      repl::ReplicaOptions ropt;
      ropt.wal_path = replica_wal_;
      ropt.lanes = kWriters;
      ropt.nrows = kDim;
      ropt.ncols = kDim;
      ropt.cuts = sut_cuts();
      ropt.auto_promote = false;  // the primary lives; no failover here
      replica_ = std::make_unique<repl::ReplicaServer>(ropt);
      replica_->start();
    }
    stream_.start();
    if (replicated_) {
      repl::ShipperOptions shop;
      shop.port = replica_->port();
      shop.wal_path = primary_wal_;
      replicator_ = std::make_unique<repl::PrimaryReplicator>(stream_, shop);
      replicator_->start();
      sopt.replication = replicator_.get();
    }
    server_ = std::make_unique<net::IngestServer>(stream_, governor_, sopt);
    server_->start();
  }

  ~ServerSut() override {
    // finish() normally ran; this is the exception path.
    if (server_ && server_->running()) server_->stop();
    if (replicator_) replicator_.reset();
    if (stream_.running()) stream_.stop();
    if (replica_) replica_.reset();
    remove_wals();
  }

  std::uint16_t port() const override { return server_->port(); }
  std::uint64_t lane_of(std::size_t w) const override { return w; }
  double lag_batches() const override {
    if (!replicator_) return 0;
    const std::uint64_t logged = replicator_->logged();
    const std::uint64_t acked = replicator_->acked();
    return logged > acked ? static_cast<double>(logged - acked) : 0.0;
  }

  bool finish(Json& out, double expected_sum, double work_s) override {
    const auto& ss = server_->stats();
    out.count("server_parks", ss.parks.load());
    out.count("server_out_throttles", ss.out_throttles.load());
    server_->stop();
    std::uint64_t wal_bytes = 0;
    if (replicator_) {
      replicator_->stop();
      wal_bytes = std::filesystem::file_size(primary_wal_);
    }
    const auto report = stream_.stop();
    double busy = 0;
    std::uint64_t failed_batches = 0;
    for (const auto& lc : report.lane) {
      busy += lc.busy_seconds;
      failed_batches += lc.failed_batches;
    }
    out.num("lane_apply_rate", report.aggregate_rate /
                                   static_cast<double>(report.instances));
    out.num("lane_busy_frac",
            work_s > 0 ? busy / (static_cast<double>(report.instances) * work_s)
                       : 0);
    std::uint64_t appended = 0, freezes = 0;
    std::array<std::uint64_t, 3> folded{};
    for (std::size_t p = 0; p < array_.size(); ++p) {
      const auto& st = array_.instance(p).stats();
      appended += st.entries_appended;
      freezes += st.queries;
      for (std::size_t k = 0; k < folded.size() && k < st.level.size(); ++k)
        folded[k] += st.level[k].entries_folded;
    }
    for (std::size_t k = 0; k < folded.size(); ++k) {
      const std::string key = "fold_ratio_l" + std::to_string(k);
      out.num(key.c_str(), appended ? static_cast<double>(folded[k]) /
                                          static_cast<double>(appended)
                                    : 0);
    }
    out.count("lane_freezes", freezes);
    out.num("governor_peak_pinned_mb",
            static_cast<double>(governor_.stats().peak_pinned_bytes) /
                (1024.0 * 1024.0));
    bool exact = failed_batches == 0;
    if (replicated_) {
      replica_->stop();
      double replica_sum = 0;
      for (std::size_t p = 0; p < kWriters; ++p)
        replica_sum += replica_->array().instance(p).freeze().reduce();
      out.num("replica_sum", replica_sum);
      out.count("repl_wal_bytes", wal_bytes);
      exact = exact && replica_sum == expected_sum;
    }
    remove_wals();
    return exact;
  }

 private:
  void remove_wals() {
    std::error_code ec;
    std::filesystem::remove(primary_wal_, ec);
    std::filesystem::remove(replica_wal_, ec);
  }

  bool replicated_;
  std::string primary_wal_, replica_wal_;
  std::unique_ptr<repl::ReplicaServer> replica_;
  hier::InstanceArray<double> array_;
  hier::ParallelStream<double> stream_;
  hier::MemoryGovernor<hier::ParallelStream<double>> governor_;
  std::unique_ptr<repl::PrimaryReplicator> replicator_;
  std::unique_ptr<net::IngestServer> server_;
};

/// cluster::Router over the already-forked worker processes.
class RouterSut final : public Sut {
 public:
  explicit RouterSut(Workers& workers)
      : workers_(&workers), router_(cluster::map_of(workers.procs), options()) {
    router_.start();
  }

  std::uint16_t port() const override { return router_.port(); }
  std::uint64_t lane_of(std::size_t) const override { return net::kAnyLane; }

  bool finish(Json& out, double, double) override {
    const auto& rs = router_.stats();
    out.count("router_batches", rs.batches_routed.load());
    out.count("router_subbatches", rs.subbatches_forwarded.load());
    out.count("router_stitched_freezes", rs.stitched_freezes.load());
    out.count("router_worker_failures", rs.worker_failures.load());
    router_.stop();
    out.num("workers_peak_rss_mb", workers_->peak_rss_mb());
    workers_->kill_all();
    rusage ch{};
    ::getrusage(RUSAGE_CHILDREN, &ch);
    out.num("workers_cpu_s", cpu_seconds(ch));
    out.num("workers_ctx_switches", ctx_switches(ch));
    return rs.worker_failures.load() == 0;
  }

 private:
  static cluster::Router::Options options() {
    cluster::Router::Options o;
    o.nrows = kDim;
    o.ncols = kDim;
    return o;
  }

  Workers* workers_;
  cluster::Router router_;
};

// --- load --------------------------------------------------------------

/// Send times of every batch, written by its writer before the insert and
/// read by the analyst once a marker shows the batch applied.
class SendTimes {
 public:
  explicit SendTimes(std::size_t batches) {
    for (auto& t : times_) t = std::make_unique<std::atomic<double>[]>(batches);
  }
  void set(std::size_t w, std::size_t j, double t) {
    times_[w][j].store(t, std::memory_order_release);
  }
  double get(std::size_t w, std::size_t j) const {
    return times_[w][j].load(std::memory_order_acquire);
  }

 private:
  std::array<std::unique_ptr<std::atomic<double>[]>, kWriters> times_;
};

struct WriterOut {
  std::vector<double> ack_ms, send_ms, flush_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t inserted = 0;  ///< insert() calls that returned
  double first_send = -1, last_ack = -1;
  std::string error;
};

/// Closed loop: insert batch j, flush, then batch j+1. The first failed
/// call ends the writer.
void run_writer(net::Client& cli, const Workload& wl, std::size_t w,
                std::uint64_t lane, SendTimes& sends,
                std::atomic<std::uint64_t>& acked, SpanLog& log,
                WriterOut& out) {
  gbx::Tuples<double> scratch;
  for (std::size_t j = 0; j < wl.batches(); ++j) {
    const auto& b = wl.batch(w, j, scratch);
    const double t0 = now_s();
    sends.set(w, j, t0);
    if (out.first_send < 0) out.first_send = t0;
    try {
      ++out.attempted;
      cli.insert(b, lane);
      ++out.inserted;
      const double t1 = now_s();
      ++out.attempted;
      cli.flush();
      const double t2 = now_s();
      log.add("net.insert", t0, t1, batch_id(w, j));
      log.add("net.flush", t1, t2, batch_id(w, j));
      out.send_ms.push_back(ms(t1 - t0));
      out.flush_ms.push_back(ms(t2 - t1));
      out.ack_ms.push_back(ms(t2 - t0));
      out.last_ack = t2;
      acked.store(j + 1, std::memory_order_release);
    } catch (const std::exception& e) {
      ++out.failed;
      out.error = e.what();
      return;
    }
  }
}

struct AnalystOut {
  std::vector<double> visible_ms, probe_ms, query_ms, late_ms, lag;
  std::uint64_t attempted = 0, failed = 0;
  std::string error;
};

/// Open loop at 5 Hz: tick k is due at t_start + k / 5 s whatever the
/// previous tick cost. Each tick probes both markers; every batch a probe
/// reveals gets its visibility latency (send → that reply). With
/// `sum_query` the tick then calls query_sum(). Query latency runs from
/// the due time to the tick's last reply. While waiting for the next tick
/// the analyst samples the stack's replication lag every 10 ms (the
/// third load thread doubles as the lag sampler). Ticks continue after the
/// writers finish until one probe has seen every acked batch.
void run_analyst(net::Client& cli, const Args& a, double t_start,
                 const SendTimes& sends,
                 const std::array<std::atomic<std::uint64_t>, kWriters>& acked,
                 const std::atomic<bool>& writers_done, const Sut& sut,
                 SpanLog& log, AnalystOut& out) {
  const std::vector<net::ElementQuery> markers = {{kKeys + 0, kKeys},
                                                  {kKeys + 1, kKeys}};
  std::array<std::size_t, kWriters> seen{};
  const double period = 0.2;
  std::size_t after_done = 0;
  for (std::size_t k = 1;; ++k) {
    const double due = t_start + static_cast<double>(k) * period;
    for (double t = now_s(); t < due; t = now_s()) {
      out.lag.push_back(sut.lag_batches());
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(0.01, due - t)));
    }
    const bool done = writers_done.load(std::memory_order_acquire);
    const double start = now_s();
    out.late_ms.push_back(ms(start - due));
    try {
      ++out.attempted;
      const auto rs = cli.query_elements(markers);
      const double t1 = now_s();
      log.add("net.marker_probe", start, t1, -1);
      out.probe_ms.push_back(ms(t1 - start));
      for (std::size_t w = 0; w < kWriters; ++w) {
        const auto applied = static_cast<std::size_t>(
            rs[w].present ? rs[w].value : 0.0);
        for (; seen[w] < applied && seen[w] < a.batches; ++seen[w]) {
          out.visible_ms.push_back(ms(t1 - sends.get(w, seen[w])));
          log.add("net.marker_probe", start, t1, batch_id(w, seen[w]));
        }
      }
      double t_end = t1;
      if (a.sum_query) {
        ++out.attempted;
        (void)cli.query_sum();
        t_end = now_s();
        log.add("net.query_sum", t1, t_end, -1);
      }
      if (!done) out.query_ms.push_back(ms(t_end - due));
    } catch (const std::exception& e) {
      ++out.failed;
      out.error = e.what();
      return;
    }
    if (done) {
      bool all = true;
      for (std::size_t w = 0; w < kWriters; ++w)
        all = all && seen[w] >= acked[w].load(std::memory_order_acquire);
      // Ten more ticks is far past any lane's drain; stop regardless.
      if (all || ++after_done >= 10) return;
    }
  }
}

std::unique_ptr<net::Client> connect_client(bool router, std::uint16_t port) {
  net::Client::Options o;
  o.recv_timeout_ms = kRecvTimeoutMs;
  std::unique_ptr<net::Client> c;
  if (router)
    c = std::make_unique<cluster::RouterClient>(o);
  else
    c = std::make_unique<net::Client>(o);
  c->connect("127.0.0.1", port);
  return c;
}

/// The round's three connections: two writers and the analyst.
struct Clients {
  Clients(bool router, std::uint16_t port) {
    for (std::size_t w = 0; w < kWriters; ++w)
      writers.push_back(connect_client(router, port));
    analyst = connect_client(router, port);
  }
  std::vector<std::unique_ptr<net::Client>> writers;
  std::unique_ptr<net::Client> analyst;
};

std::unique_ptr<Sut> make_sut(const Args& a, Workers& workers) {
  if (a.stack == Stack::kRouter) return std::make_unique<RouterSut>(workers);
  return std::make_unique<ServerSut>(a.stack == Stack::kReplicated, a.wal_dir);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --- modes -------------------------------------------------------------

int run_round(const Args& a) {
  const bool router = a.stack == Stack::kRouter;
  const bool tracing = !a.trace.empty();

  // Set-up is sub-millisecond to tens of milliseconds, so it is timed
  // several times: setup_reps - 1 stacks are built, connected and torn
  // down with no work before the round's own.
  std::vector<double> setups;
  for (std::size_t r = 1; r < a.setup_reps; ++r) {
    Workers workers;
    const double s0 = now_s();
    if (router) workers.spawn(kWriters);
    auto sut = make_sut(a, workers);
    const Clients clients(router, sut->port());
    setups.push_back(now_s() - s0);
  }

  // Fork before any thread exists (and before the pool, so the workers
  // do not inherit it); the fork is part of the set-up, generation not.
  Workers workers;
  double fork_s = 0;
  if (router) {
    const double f0 = now_s();
    workers.spawn(kWriters);
    fork_s = now_s() - f0;
  }
  const Workload wl(a);
  const double rss_base_kb = self_kb("VmRSS");
  rusage ru0{};
  ::getrusage(RUSAGE_SELF, &ru0);

  const double s0 = now_s();
  auto sut = make_sut(a, workers);
  Clients clients(router, sut->port());
  setups.push_back(fork_s + now_s() - s0);
  auto& writers = clients.writers;
  auto& analyst = clients.analyst;

  SendTimes sends(a.batches);
  std::array<std::atomic<std::uint64_t>, kWriters> acked{};
  std::atomic<bool> writers_done{false};
  std::vector<SpanLog> logs(kWriters + 1, SpanLog(tracing));
  std::vector<WriterOut> wout(kWriters);
  AnalystOut aout;

  const double t_start = now_s();
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      run_writer(*writers[w], wl, w, sut->lane_of(w), sends, acked[w], logs[w],
                 wout[w]);
    });
  std::thread analyst_thread([&] {
    run_analyst(*analyst, a, t_start, sends, acked, writers_done, *sut,
                logs[kWriters], aout);
  });
  for (auto& t : threads) t.join();
  writers_done.store(true, std::memory_order_release);
  analyst_thread.join();

  rusage ru1{};
  ::getrusage(RUSAGE_SELF, &ru1);
  const double peak_rss_mb = (self_kb("VmHWM") - rss_base_kb) / 1024.0;

  std::uint64_t attempted = aout.attempted, failed = aout.failed;
  std::uint64_t acked_entries = 0;
  double first = -1, last = -1;
  std::vector<double> ack_ms, send_ms, flush_ms;
  std::string errors = aout.error;
  for (const auto& o : wout) {
    attempted += o.attempted;
    failed += o.failed;
    ack_ms.insert(ack_ms.end(), o.ack_ms.begin(), o.ack_ms.end());
    send_ms.insert(send_ms.end(), o.send_ms.begin(), o.send_ms.end());
    flush_ms.insert(flush_ms.end(), o.flush_ms.begin(), o.flush_ms.end());
    acked_entries += o.ack_ms.size() * wl.batch_entries();
    if (o.first_send >= 0 && (first < 0 || o.first_send < first))
      first = o.first_send;
    last = std::max(last, o.last_ack);
    if (!o.error.empty()) errors += (errors.empty() ? "" : "; ") + o.error;
  }
  const double work_s = last > first ? last - first : 0;

  // Exactness on the quiesced stack: each marker counts its writer's
  // applied batches, and Σ Ai is exactly those batches' entries.
  Json out;
  bool exact = true;
  double served_sum = 0;
  double query_idle_ms = 0;
  try {
    for (auto& c : writers) c->bye();
    attempted += 3;
    const auto rs = analyst->query_elements(
        {{kKeys + 0, kKeys}, {kKeys + 1, kKeys}});
    const auto sum = analyst->query_sum();
    served_sum = sum.sum;
    double expected = 0;
    for (std::size_t w = 0; w < kWriters; ++w) {
      const double m = rs[w].present ? rs[w].value : 0.0;
      const auto ok = static_cast<double>(wout[w].ack_ms.size());
      const auto hi = static_cast<double>(wout[w].inserted);
      exact = exact && (wout[w].failed == 0 ? m == ok : (m >= ok && m <= hi));
      expected += m * static_cast<double>(wl.batch_entries());
    }
    exact = exact && served_sum == expected;
    if (a.query_idle) {
      std::vector<double> q;
      for (int i = 0; i < 5; ++i) {
        const double q0 = now_s();
        (void)analyst->query_sum();
        q.push_back(ms(now_s() - q0));
      }
      attempted += 5;
      query_idle_ms = median(q);
    }
    analyst->bye();
  } catch (const std::exception& e) {
    ++failed;
    exact = false;
    errors += (errors.empty() ? "" : "; ") + std::string(e.what());
  }
  exact = sut->finish(out, served_sum, work_s) && exact;

  std::vector<const SpanLog*> lp;
  for (const auto& l : logs) lp.push_back(&l);
  write_trace(a.trace, lp);

  out.str("digest", hex(wl.digest()))
      .flag("exact", exact)
      .count("attempted", attempted)
      .count("failed", failed)
      .str("errors", errors)
      .count("entries", acked_entries)
      .count("batches", ack_ms.size())
      .num("setup_s", median(setups))
      .nums("setups_s", setups)
      .num("work_s", work_s)
      .num("ingest_rate",
           work_s > 0 ? static_cast<double>(acked_entries) / work_s : 0)
      .num("peak_rss_mb", peak_rss_mb)
      .num("cpu_s", cpu_seconds(ru1) - cpu_seconds(ru0))
      .num("ctx_switches", ctx_switches(ru1) - ctx_switches(ru0))
      .num("served_sum", served_sum)
      .num("query_idle_ms", query_idle_ms)
      .nums("ack_ms", ack_ms)
      .nums("send_ms", send_ms)
      .nums("flush_ms", flush_ms)
      .nums("visible_ms", aout.visible_ms)
      .nums("probe_ms", aout.probe_ms)
      .nums("query_ms", aout.query_ms)
      .nums("late_ms", aout.late_ms)
      .nums("lag_batches", aout.lag);
  std::printf("%s\n", out.done().c_str());
  return exact ? 0 : 1;
}

/// The workload's first `ledger_batches` batches, in id order.
std::vector<gbx::Tuples<double>> first_batches(const Args& a,
                                               const Workload& wl) {
  std::vector<gbx::Tuples<double>> out;
  gbx::Tuples<double> scratch;
  for (std::size_t id = 0; id < a.ledger_batches; ++id) {
    const std::size_t w = id % kWriters, j = id / kWriters;
    if (j >= wl.batches()) break;
    out.push_back(wl.batch(w, j, scratch));
  }
  return out;
}

int run_ledger(const Args& a) {
  const Workload wl(a);
  auto batches = first_batches(a, wl);
  const double entries =
      static_cast<double>(batches.size() * wl.batch_entries());
  SpanLog log(true);

  // gbx: the fold kernel alone, one calling thread.
  gbx::Matrix<double> m(kDim, kDim);
  double fold_s = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const double t0 = now_s();
    m.append(batches[i]);
    m.materialize();
    const double t1 = now_s();
    log.add("gbx.fold", t0, t1, static_cast<std::int64_t>(i));
    fold_s += t1 - t0;
  }
  const double fold_sum = gbx::reduce_scalar<gbx::PlusMonoid<double>>(m);

  // hier: the cascade, one calling thread.
  hier::HierMatrix<double> h(kDim, kDim, sut_cuts());
  double update_s = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const double t0 = now_s();
    h.update(batches[i]);
    const double t1 = now_s();
    log.add("hier.update", t0, t1, static_cast<std::int64_t>(i));
    update_s += t1 - t0;
  }
  const double update_sum = h.freeze().reduce();

  // hier: two lanes, batch i on lane i % 2 (its writer's lane).
  hier::InstanceArray<double> array(kWriters, kDim, kDim, sut_cuts());
  double stream_sum = 0, stream_s = 0;
  {
    hier::ParallelStream<double> stream(array);
    stream.start();
    const double t0 = now_s();
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const double s0 = now_s();
      stream.submit(i % kWriters, std::move(batches[i]));
      log.add("hier.stream", s0, now_s(), static_cast<std::int64_t>(i));
    }
    const double d0 = now_s();
    stream.drain();
    const double t1 = now_s();
    log.add("hier.stream", d0, t1, -1);
    stream_s = t1 - t0;
    stream.stop();
    for (std::size_t p = 0; p < array.size(); ++p)
      stream_sum += array.instance(p).freeze().reduce();
  }
  write_trace(a.trace, {&log});

  const bool exact =
      fold_sum == entries && update_sum == entries && stream_sum == entries;
  Json out;
  out.str("digest", hex(wl.digest()))
      .flag("exact", exact)
      .count("batches", batches.size())
      .num("fold_rate", fold_s > 0 ? entries / fold_s : 0)
      .num("update_rate", update_s > 0 ? entries / update_s : 0)
      .num("stream_rate", stream_s > 0 ? entries / stream_s : 0);
  std::printf("%s\n", out.done().c_str());
  return exact ? 0 : 1;
}

/// One closed-loop client: insert + flush per batch. Returns entries/s
/// and checks the served Σ Ai.
double closed_loop_rate(net::Client& cli, std::uint64_t lane,
                        const std::vector<gbx::Tuples<double>>& batches,
                        double entries, bool& exact) {
  const double t0 = now_s();
  for (const auto& b : batches) {
    cli.insert(b, lane);
    cli.flush();
  }
  const double t1 = now_s();
  exact = exact && cli.query_sum().sum == entries;
  cli.bye();
  return t1 > t0 ? entries / (t1 - t0) : 0;
}

int run_direct(const Args& a) {
  Workers workers;  // [0] behind the router, [1] dialled directly
  workers.spawn(2);
  const Workload wl(a);
  const auto batches = first_batches(a, wl);
  const double entries =
      static_cast<double>(batches.size() * wl.batch_entries());
  bool exact = true;

  double router_rate = 0;
  {
    cluster::Router::Options o;
    o.nrows = kDim;
    o.ncols = kDim;
    cluster::Router router(cluster::map_of({workers.procs[0]}), o);
    router.start();
    auto cli = connect_client(true, router.port());
    router_rate =
        closed_loop_rate(*cli, net::kAnyLane, batches, entries, exact);
    router.stop();
  }
  auto cli = connect_client(false, workers.procs[1].port);
  const double direct_rate = closed_loop_rate(*cli, 0, batches, entries, exact);
  workers.kill_all();

  Json out;
  out.str("digest", hex(wl.digest()))
      .flag("exact", exact)
      .count("batches", batches.size())
      .num("router_rate", router_rate)
      .num("direct_rate", direct_rate);
  std::printf("%s\n", out.done().c_str());
  return exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.mode == "digest") {
      const Workload wl(a);
      const std::string out = Json().str("digest", hex(wl.digest())).done();
      std::printf("%s\n", out.c_str());
      return 0;
    }
    if (a.mode == "ledger") return run_ledger(a);
    if (a.mode == "direct") return run_direct(a);
    return run_round(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hhbench: %s\n", e.what());
    return 3;
  }
}
