// Tests for the N-primary cluster router (cluster/router.hpp). The
// central oracle is the tentpole claim itself: batches streamed by
// concurrent clients through the router into N worker servers must
// produce epoch-stitched reads IDENTICAL to a single-process
// hier::InstanceArray with the same part count fed the same batches
// through update_rows and frozen through an unstarted ParallelStream —
// same Σ Ai (bit-identical for a deterministic single client, exactly
// equal for concurrent integer-valued clients), same nvals, same
// per-coordinate element probes, same stitched traffic summary. On top
// of that: placement must agree with hier::split_rows coordinate-for-
// coordinate, stitched snapshots must never observe a torn client
// batch, a dead or hung worker must surface as a loud kReplyError
// (never a silent partial sum or a hang), a client's flush must be acked
// while another client streams, and a stale placement hint must be
// redirected.
//
// Workers here are in-process LocalWorkers (real sockets, same code
// path as forked processes — examples/cluster_demo.cpp covers the
// fork topology; this suite keeps everything where TSan can see it).
#include <gtest/gtest.h>

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "hier/hier.hpp"
#include "net/net.hpp"
#include "prop_util.hpp"

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;

constexpr Index kDim = 512;

CutPolicy cuts() { return CutPolicy::geometric(2, 1024, 6); }

/// Router + N in-process workers, started and torn down in order.
struct ClusterHarness {
  explicit ClusterHarness(std::size_t workers)
      : pool(workers, config()), router(pool.map(), router_options()) {
    router.start();
  }

  ~ClusterHarness() { router.stop(); }

  static cluster::WorkerConfig config() {
    cluster::WorkerConfig c;
    c.nrows = kDim;
    c.ncols = kDim;
    c.cuts = cuts();
    return c;
  }

  static cluster::Router::Options router_options() {
    cluster::Router::Options o;
    o.nrows = kDim;
    o.ncols = kDim;
    o.worker_recv_timeout_ms = 5000;
    return o;
  }

  cluster::RouterClient client() {
    cluster::RouterClient cli;
    cli.connect("127.0.0.1", router.port());
    return cli;
  }

  cluster::LocalWorkerPool pool;
  cluster::Router router;
};

/// The single-process oracle: `parts` row-split instances fed `plan`
/// through update_rows, frozen part-major by an unstarted stream.
hier::SnapshotSet<double> oracle_freeze(
    std::size_t parts, const std::vector<Tuples<double>>& plan) {
  hier::InstanceArray<double> oracle(parts, kDim, kDim, cuts());
  for (const auto& b : plan) oracle.update_rows(b);
  return hier::ParallelStream<double>(oracle).freeze();
}

std::vector<Tuples<double>> integer_batches(std::uint64_t seed,
                                            std::size_t batches,
                                            std::size_t batch_size) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> coord(0, kDim - 1);
  std::uniform_int_distribution<int> val(1, 9);
  std::vector<Tuples<double>> plan(batches);
  for (auto& b : plan)
    for (std::size_t i = 0; i < batch_size; ++i)
      b.push_back(coord(rng), coord(rng), static_cast<double>(val(rng)));
  return plan;
}

// --- placement: the cluster map IS the in-process row split.

TEST(ClusterRouter, PartitionAgreesWithSplitRows) {
  const std::uint64_t kPinned = 0x9a17ed5eed5ULL;
  const std::uint64_t seed = proptest::seed_or_env(kPinned);
  std::cout << proptest::seed_banner(seed, kPinned) << "\n";
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> row(0, Index{1} << 48);

  for (std::size_t parts : {1u, 2u, 3u, 4u, 7u, 16u}) {
    std::vector<cluster::WorkerEndpoint> eps(parts);
    cluster::PartitionMap map(eps);
    // Every entry lands in split_rows(...)[map.part_of(row)], and each
    // part keeps the batch's order (the column is the batch position).
    std::vector<gbx::Entry<double>> batch;
    for (Index k = 0; k < 2000; ++k) batch.push_back({row(rng), k, 1.0});
    const auto split = hier::split_rows(batch, parts);
    ASSERT_EQ(split.size(), parts);
    std::vector<std::size_t> next(parts, 0);
    for (const auto& e : batch) {
      const std::size_t p = map.part_of(e.row);
      ASSERT_LT(next[p], split[p].size());
      EXPECT_EQ(split[p][next[p]].row, e.row);
      EXPECT_EQ(split[p][next[p]].col, e.col);
      ++next[p];
    }
    for (std::size_t p = 0; p < parts; ++p)
      EXPECT_EQ(next[p], split[p].size()) << "part " << p;
    // And against actual placement: a single-row update_rows must land
    // in the instance the map names (observed via per-part nvals).
    const Index r = row(rng) % kDim;
    Tuples<double> one;
    one.push_back(r, 0, 1.0);
    auto snap = oracle_freeze(parts, {one});
    for (std::size_t p = 0; p < parts; ++p)
      EXPECT_EQ(hier::SnapshotSet<double>({snap.part(p)}).nvals(),
                p == map.part_of(r) ? 1u : 0u);
  }
}

// --- the tentpole: stitched reads == single-process oracle.

TEST(ClusterRouter, ConcurrentClientsMatchShardedOracleExactly) {
  const std::size_t workers = 3, clients = 4, batches = 8, batch_size = 1500;
  ClusterHarness h(workers);

  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < clients; ++c) {
    senders.emplace_back([&h, c] {
      auto plan = integer_batches(0xBEEF + c, 8, 1500);
      auto cli = h.client();
      for (const auto& b : plan) cli.insert(b);
      cli.flush();
      cli.bye();
    });
  }
  for (auto& t : senders) t.join();

  // The oracle sees the same batches; integer values make Σ exact
  // under any interleaving (the repo's standing convention).
  std::vector<Tuples<double>> all;
  for (std::size_t c = 0; c < clients; ++c)
    for (auto& b : integer_batches(0xBEEF + c, batches, batch_size))
      all.push_back(std::move(b));
  auto truth = oracle_freeze(workers, all);

  auto cli = h.client();
  net::ReplyProvenance prov;
  const auto sum = cli.query_sum(&prov);
  EXPECT_EQ(sum.sum, truth.reduce());
  EXPECT_EQ(sum.nvals, truth.nvals());
  ASSERT_EQ(prov.part_epochs.size(), workers);
  EXPECT_EQ(prov.map_version, 1u);

  // Element probes route to single owners and fold identically.
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<Index> coord(0, kDim - 1);
  std::vector<net::ElementQuery> qs(128);
  for (auto& q : qs) q = net::ElementQuery{coord(rng), coord(rng)};
  const auto rs = cli.query_elements(qs);
  ASSERT_EQ(rs.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto want = truth.extract_element(qs[i].row, qs[i].col);
    EXPECT_EQ(rs[i].present != 0, want.has_value());
    if (want) {
      EXPECT_EQ(rs[i].value, *want);
    }
  }

  // The stitched summary: additive fields, max over workers, and the
  // destination count from the column-set union.
  const auto summary = cli.query_summary();
  EXPECT_EQ(summary.packets, truth.reduce());
  EXPECT_EQ(summary.links, truth.nvals());
  auto m = truth.to_matrix();
  EXPECT_EQ(summary.destinations,
            gbx::reduce_cols<gbx::PlusMonoid<double>>(m.view()).nvals());
  double max_link = 0;
  m.for_each([&](Index, Index, double v) {
    if (v > max_link) max_link = v;
  });
  EXPECT_EQ(summary.max_link, max_link);
  cli.bye();
}

TEST(ClusterRouter, SingleClientStitchIsBitIdenticalOnArbitraryDoubles) {
  // One client, sequential batches: the router's forwarding order is
  // fully deterministic, so even non-associative double values must
  // fold BIT-identically to the oracle — the strongest form of the
  // stitched-read claim.
  const std::uint64_t kPinned = 0x0DDC0FFEEULL;
  const std::uint64_t seed = proptest::seed_or_env(kPinned);
  std::cout << proptest::seed_banner(seed, kPinned) << "\n";

  const std::size_t workers = 4, batches = 10, batch_size = 2000;
  ClusterHarness h(workers);

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> coord(0, kDim - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<Tuples<double>> plan(batches);
  for (auto& b : plan)
    for (std::size_t i = 0; i < batch_size; ++i)
      b.push_back(coord(rng), coord(rng), val(rng));

  auto cli = h.client();
  for (const auto& b : plan) cli.insert(b);
  cli.flush();

  auto truth = oracle_freeze(workers, plan);

  const auto snap = cli.freeze();
  EXPECT_EQ(snap.reduce(), truth.reduce());  // bitwise: == on doubles
  EXPECT_EQ(snap.nvals(), truth.nvals());

  std::vector<net::ElementQuery> qs(256);
  for (auto& q : qs) q = net::ElementQuery{coord(rng), coord(rng)};
  const auto rs = cli.query_elements(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto want = truth.extract_element(qs[i].row, qs[i].col);
    EXPECT_EQ(rs[i].present != 0, want.has_value());
    if (want) {
      EXPECT_EQ(rs[i].value, *want);  // bit-identical fold
    }
  }
  cli.bye();
}

// --- stitched snapshots under fire: whole batches, monotone epochs.

TEST(ClusterRouter, StitchNeverObservesATornClientBatch) {
  // Every batch sums to exactly kBatchSum, so ANY stitched Σ must be a
  // multiple of it — a half-forwarded batch would break divisibility.
  // Queries hammer the router concurrently with the writers.
  const std::size_t workers = 2, writers = 3, batches = 30;
  const std::size_t batch_size = 400;
  ClusterHarness h(workers);

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < writers; ++c) {
    threads.emplace_back([&h, c] {
      std::mt19937_64 rng(77 + c);
      std::uniform_int_distribution<Index> coord(0, kDim - 1);
      auto cli = h.client();
      for (std::size_t b = 0; b < 30; ++b) {
        Tuples<double> batch;
        for (std::size_t i = 0; i < 400; ++i)
          batch.push_back(coord(rng), coord(rng), 1.0);
        cli.insert(batch);
      }
      cli.flush();
      cli.bye();
    });
  }

  std::uint64_t last_epoch = 0;
  auto reader = h.client();
  for (int i = 0; i < 25; ++i) {
    const auto snap = reader.freeze();
    // Value-1 entries: the sum is an integer count of entries, and
    // whole-batch atomicity makes it a multiple of the batch size.
    EXPECT_EQ(static_cast<std::uint64_t>(snap.reduce()) % batch_size, 0u)
        << "stitched sum " << snap.reduce() << " is not a whole number of "
        << "batches - a torn batch leaked into the cut";
    EXPECT_GE(snap.epoch(), last_epoch) << "stitched epochs went backwards";
    last_epoch = snap.epoch();
  }
  reader.bye();
  for (auto& t : threads) t.join();

  const auto final_snap = h.client().freeze();
  EXPECT_EQ(final_snap.reduce(),
            static_cast<double>(writers * batches * batch_size));
}

// --- failure semantics: loud, never silently partial.

TEST(ClusterRouter, DeadWorkerFailsStitchedQueriesLoudly) {
  const std::size_t workers = 3;
  ClusterHarness h(workers);

  auto cli = h.client();
  auto plan = integer_batches(0xDEAD, 4, 1000);
  for (const auto& b : plan) cli.insert(b);
  cli.flush();
  const double before = cli.query_sum().sum;
  EXPECT_GT(before, 0.0);

  // Kill one worker server out from under the router (in-process stand-
  // in for SIGKILL: sockets close, the router's next RPC sees EOF).
  h.pool.worker(1).server().stop();

  // Every stitched query must now fail loudly — a silent partial sum
  // from the two survivors is exactly the bug this pins.
  auto probe = h.client();
  EXPECT_THROW(probe.query_sum(), gbx::Error);

  // And the failure is sticky: the worker is marked dead, so later
  // queries on fresh sessions fail too (no flapping half-answers).
  auto probe2 = h.client();
  EXPECT_THROW(probe2.query_summary(), gbx::Error);
  EXPECT_THROW(h.client().query_refresh(), gbx::Error);
}

TEST(ClusterRouter, HungWorkerFailsLoudlyAndSticky) {
  // Worker 1 is a black hole: a listening socket that completes the
  // handshake in the kernel but is never accepted or read. Requests to
  // it are never answered, so only the router's recv timeout can turn
  // the hang into an error.
  const int hole = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(hole, 0);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(hole, reinterpret_cast<::sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(hole, 8), 0);
  ::socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(hole, reinterpret_cast<::sockaddr*>(&addr), &len),
            0);

  cluster::LocalWorker real(ClusterHarness::config());
  cluster::PartitionMap map(
      {real.endpoint(),
       cluster::WorkerEndpoint{"127.0.0.1", ntohs(addr.sin_port)}});
  auto ropt = ClusterHarness::router_options();
  ropt.worker_recv_timeout_ms = 300;
  cluster::Router router(map, ropt);
  router.start();

  // Every reply must come within a bound well above the router's
  // timeout: a client-side timeout here means the router hung.
  net::Client::Options copt;
  copt.recv_timeout_ms = 10000;
  const auto bounded = [](auto&& call) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(call(), gbx::Error);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(8));
  };

  cluster::RouterClient cli(copt);
  cli.connect("127.0.0.1", router.port());
  cli.insert(integer_batches(0x4A96, 1, 200)[0]);  // rows on both workers
  bounded([&] { cli.flush(); });
  bounded([&] { cli.query_sum(); });

  // Sticky: a fresh session's stitched query fails too.
  cluster::RouterClient fresh(copt);
  fresh.connect("127.0.0.1", router.port());
  bounded([&] { fresh.query_summary(); });
  EXPECT_GE(router.stats().worker_failures.load(), 1u);

  router.stop();
  ::close(hole);
}

TEST(ClusterRouter, FlushIsAckedWhileAnotherClientStreams) {
  // Client B streams open-loop (never flushing) twice as fast as the
  // lanes apply — every apply is slowed by a failpoint — so the lanes
  // never go idle while B streams. A worker acks kFlush once the batches
  // the router sent before it are done, so B's batches flowing in behind
  // A's flush must not put the ack off: it arrives well inside the
  // worker timeout, and no healthy worker is declared dead.
  constexpr int kApplyMs = 20, kOfferMs = 10, kTimeoutMs = 1500;
  constexpr std::size_t kBatch = 100;
  cluster::LocalWorkerPool pool(2, ClusterHarness::config());
  auto ropt = ClusterHarness::router_options();
  ropt.worker_recv_timeout_ms = kTimeoutMs;
  cluster::Router router(pool.map(), ropt);
  router.start();

  gbx::FailpointSpec slow;
  slow.action = gbx::FailAction::kDelay;
  slow.probability = 1.0;
  slow.delay_ms = kApplyMs;
  slow.max_fires = ~std::uint64_t{0};
  gbx::failpoints().arm("hier.stream.apply", slow);

  const auto ones = [](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<Index> coord(0, kDim - 1);
    Tuples<double> b;
    for (std::size_t i = 0; i < kBatch; ++i)
      b.push_back(coord(rng), coord(rng), 1.0);  // rows on both workers
    return b;
  };

  std::atomic<bool> stop{false};
  std::size_t streamed = 0;
  cluster::RouterClient b;
  b.connect("127.0.0.1", router.port());
  std::thread stream([&] {
    while (!stop.load()) {
      b.insert(ones(streamed++));
      std::this_thread::sleep_for(std::chrono::milliseconds(kOfferMs));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // backlog

  cluster::RouterClient a;
  a.connect("127.0.0.1", router.port());
  a.insert(ones(~std::uint64_t{0}));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(a.flush());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(kTimeoutMs));
  stop.store(true);
  stream.join();
  gbx::failpoints().clear();
  EXPECT_EQ(router.stats().worker_failures.load(), 0u);

  // Every batch of both clients is applied exactly once.
  EXPECT_NO_THROW(b.flush());
  EXPECT_EQ(a.query_sum().sum, static_cast<double>((streamed + 1) * kBatch));
  router.stop();
}

TEST(ClusterRouter, StaleHintIsRedirectedLoudly) {
  const std::size_t workers = 3;
  ClusterHarness h(workers);

  auto cli = h.client();
  const auto& map = cli.map();  // kQueryMap round trip
  EXPECT_EQ(map.parts, workers);
  EXPECT_EQ(map.version, 1u);
  EXPECT_EQ(map.nrows, kDim);

  // A correct explicit hint is accepted (flush proves it applied).
  const Index row = 123;
  const std::uint64_t owner = cli.worker_of(row);
  Tuples<double> good;
  good.push_back(row, 7, 2.0);
  cli.insert(good, owner);
  cli.flush();
  EXPECT_EQ(cli.query_sum().sum, 2.0);

  // A WRONG hint — what a client with a stale map would assert — must
  // bounce with a diagnostic naming the redirect protocol, and must
  // not be silently rerouted (the batch is NOT applied).
  auto stale = h.client();
  Tuples<double> bad;
  bad.push_back(row, 8, 5.0);
  stale.insert(bad, (owner + 1) % workers);
  const auto reply = stale.read_reply();
  EXPECT_EQ(net::tag_type(reply.epoch), net::MsgType::kReplyError);
  const std::string what(reinterpret_cast<const char*>(reply.payload.data()),
                         reply.payload.size());
  EXPECT_NE(what.find("stale partition map"), std::string::npos) << what;
  EXPECT_EQ(cli.query_sum().sum, 2.0);  // the bad batch never landed
  cli.bye();
}

TEST(ClusterRouter, OutOfRangeInsertIsRejectedAtTheRouter) {
  ClusterHarness h(2);
  auto cli = h.client();
  Tuples<double> bad;
  bad.push_back(kDim + 5, 0, 1.0);  // beyond the cluster's nrows
  cli.insert(bad);
  const auto reply = cli.read_reply();
  EXPECT_EQ(net::tag_type(reply.epoch), net::MsgType::kReplyError);
  // The bad coordinate never reached a worker: the cluster stays empty.
  EXPECT_EQ(h.client().query_sum().sum, 0.0);
}

}  // namespace

#else  // !__linux__

TEST(ClusterRouter, LinuxOnly) {
  GTEST_SKIP() << "the cluster router is Linux-only";
}

#endif
