// Tests for the epoll streaming ingest server (net/). The central
// oracle is end-to-end exactness: batches streamed through sockets by
// concurrent clients must produce a logical matrix IDENTICAL to direct
// in-process ingest of the same batches — same Σ Ai (value-1 inserts
// sum exactly in double regardless of arrival order), same nnz, same
// per-coordinate counts. On top of that: lane back-pressure must
// throttle only the connection feeding the full lane, a flush must wait
// only for what its session sent before it (lane work and replication
// alike), and stop() must come back cleanly with sessions still in
// flight. Malformed and
// truncated frames are test_frontend_hardening.cpp's, for every front
// end.
//
// The server is Linux-only (epoll); elsewhere this suite compiles to a
// single trivially-passing placeholder.
#include <gtest/gtest.h>

#ifdef __linux__

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gen/kronecker.hpp"
#include "hier/hier.hpp"
#include "hier/memory_governor.hpp"
#include "net/net.hpp"

// The reply-backlog test asserts that a fast producer OUTRUNS the
// server (the reply backlog hits its cap). Under TSan the ~10x slowdown
// plus OpenMP-region barriers shift those relative speeds
// unpredictably, so the race-to-saturate premise itself is unsound
// there; the path stays exercised by the normal and ASan CI legs. (The
// lane back-pressure test needs no such skip: a failpoint stalls the
// lane.)
#if defined(__SANITIZE_THREAD__)
#define GBX_SKIP_SATURATION_TIMING() \
  GTEST_SKIP() << "saturation timing is not meaningful under TSan"
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GBX_SKIP_SATURATION_TIMING() \
  GTEST_SKIP() << "saturation timing is not meaningful under TSan"
#endif
#endif
#ifndef GBX_SKIP_SATURATION_TIMING
#define GBX_SKIP_SATURATION_TIMING() \
  do {                               \
  } while (0)
#endif

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;
using hier::InstanceArray;
using hier::MemoryGovernor;
using hier::ParallelStream;

constexpr int kScale = 16;
constexpr Index kDim = Index{1} << kScale;

gen::KroneckerGenerator kron(std::uint64_t seed) {
  gen::KroneckerParams kp;
  kp.scale = kScale;
  kp.seed = seed;
  return gen::KroneckerGenerator(kp);
}

/// Server fixture: lanes + governor + server, started and torn down in
/// the right order (server first, then stream).
struct ServerHarness {
  explicit ServerHarness(std::size_t lanes,
                         hier::ParallelStream<double>::Options popt = {},
                         net::IngestServer::Options sopt = {})
      : array(lanes, kDim, kDim, CutPolicy::geometric(3, 2048, 8)),
        stream(array, popt),
        governor(stream) {
    stream.start();
    server.emplace(stream, governor, sopt);
    server->start();
  }

  ~ServerHarness() {
    if (server->running()) server->stop();
    if (stream.running()) stream.stop();
  }

  InstanceArray<double> array;
  ParallelStream<double> stream;
  MemoryGovernor<ParallelStream<double>> governor;
  std::optional<net::IngestServer> server;
};

TEST(NetServer, ConcurrentClientsMatchDirectIngestExactly) {
  const std::size_t clients = 4, batches = 12, batch_size = 4000;
  ServerHarness h(clients);

  // Pre-generate every batch so the oracle ingests the identical data.
  std::vector<std::vector<Tuples<double>>> work(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    auto g = kron(101 + c);
    for (std::size_t b = 0; b < batches; ++b)
      work[c].push_back(g.batch<double>(batch_size));
  }

  // Direct in-process oracle: the same batches split by row over eight
  // instances, frozen through an unstarted stream.
  InstanceArray<double> oracle(8, kDim, kDim, CutPolicy::geometric(3, 2048, 8));
  for (const auto& cw : work)
    for (const auto& b : cw) oracle.update_rows(b);
  auto oracle_snap = ParallelStream<double>(oracle).freeze();
  const double oracle_sum = oracle_snap.reduce();
  const std::size_t oracle_nvals = oracle_snap.nvals();
  ASSERT_EQ(oracle_sum, static_cast<double>(clients * batches * batch_size));

  // N client threads stream concurrently, one lane each.
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client cl;
      cl.connect("127.0.0.1", h.server->port());
      for (const auto& b : work[c]) cl.insert(b, c);
      cl.flush();
      cl.bye();
    });
  }
  for (auto& t : threads) t.join();

  net::Client q;
  q.connect("127.0.0.1", h.server->port());

  auto sum = q.query_sum();
  EXPECT_EQ(sum.sum, oracle_sum) << "socket ingest diverged from direct";
  EXPECT_EQ(sum.nvals, oracle_nvals);
  EXPECT_GT(sum.epoch, 0u);

  // Per-coordinate probes: counts are integers, equality is exact.
  std::vector<net::ElementQuery> probes;
  for (std::size_t c = 0; c < clients; ++c)
    for (std::size_t i = 0; i < 25; ++i) {
      const auto& e = work[c][0].entries()[i * 7];
      probes.push_back({e.row, e.col});
    }
  probes.push_back({kDim - 1, kDim - 1});  // likely absent
  auto replies = q.query_elements(probes);
  ASSERT_EQ(replies.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    auto want = oracle_snap.extract_element(probes[i].row, probes[i].col);
    EXPECT_EQ(replies[i].present != 0, want.has_value()) << "probe " << i;
    if (want) {
      EXPECT_EQ(replies[i].value, *want) << "probe " << i;
    }
  }

  // Analytics RPCs over the same logical matrix: structural counts are
  // exact; packets is a sum of integer-valued doubles, also exact.
  auto summary = q.query_summary();
  EXPECT_EQ(summary.links, oracle_nvals);
  EXPECT_EQ(summary.packets, oracle_sum);
  EXPECT_GT(summary.sources, 0u);
  EXPECT_GT(summary.destinations, 0u);

  auto refresh = q.query_refresh();
  EXPECT_EQ(refresh.sum, oracle_sum);
  EXPECT_EQ(refresh.epoch, summary.epoch);
  q.bye();

  EXPECT_EQ(h.server->stats().insert_frames.load(), clients * batches);
  EXPECT_EQ(h.server->stats().entries_ingested.load(),
            clients * batches * batch_size);
  EXPECT_EQ(h.server->stats().rejected_frames.load(), 0u);
}

TEST(NetServer, PipelinedFlushesEachGetTheirOwnAck) {
  ServerHarness h(1);
  net::Client cl;
  cl.connect("127.0.0.1", h.server->port());
  auto g = kron(9);
  cl.insert(g.batch<double>(2000), 0);

  // Two kFlush frames back-to-back before reading any reply: the
  // barrier clears once but BOTH must be acknowledged (a client
  // blocking one recv per flush would otherwise hang forever).
  std::string frames;
  net::append_frame(frames, net::MsgType::kFlush);
  net::append_frame(frames, net::MsgType::kFlush);
  cl.send_raw(frames.data(), frames.size());
  for (int i = 0; i < 2; ++i) {
    auto rec = cl.read_reply();
    EXPECT_EQ(net::tag_type(rec.epoch), net::MsgType::kReplyOk) << "ack " << i;
    EXPECT_EQ(net::tag_arg(rec.epoch),
              static_cast<std::uint64_t>(net::MsgType::kFlush))
        << "ack " << i;
  }

  EXPECT_EQ(cl.query_sum().sum, 2000.0);
  cl.bye();
}

TEST(NetServer, FlushIsAckedWhileAnotherSessionFeedsTheSameLane) {
  // Every apply is slowed, and session B offers batches to lane 0 twice
  // as fast as the lane applies them, so the lane never goes idle while
  // B streams. Session A's flush covers only A's batch, queued behind
  // B's backlog: it must be acked long before B stops streaming.
  constexpr int kApplyMs = 20, kOfferMs = 10;
  constexpr auto kBound = std::chrono::milliseconds(2500);
  constexpr auto kStreamFor = std::chrono::seconds(5);
  hier::ParallelStream<double>::Options popt;
  popt.queue_capacity = 1024;  // B's backlog queues; nobody parks
  ServerHarness h(1, popt);

  gbx::FailpointSpec slow;
  slow.action = gbx::FailAction::kDelay;
  slow.probability = 1.0;
  slow.delay_ms = kApplyMs;
  slow.max_fires = ~std::uint64_t{0};
  gbx::failpoints().arm("hier.stream.apply", slow);

  std::atomic<bool> stop{false};
  std::atomic<bool> streaming{true};
  std::size_t streamed = 0;
  std::thread feeder([&] {
    net::Client b;
    b.connect("127.0.0.1", h.server->port());
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<Index> coord(0, kDim - 2);  // not A's cell
    const auto until = std::chrono::steady_clock::now() + kStreamFor;
    while (!stop.load() && std::chrono::steady_clock::now() < until) {
      Tuples<double> t;
      for (int i = 0; i < 100; ++i) t.push_back(coord(rng), coord(rng), 1.0);
      b.insert(t, 0);
      ++streamed;
      std::this_thread::sleep_for(std::chrono::milliseconds(kOfferMs));
    }
    streaming.store(false);
    b.flush();
    b.bye();
  });
  // Let B's backlog build on the lane first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (h.server->stats().insert_frames.load() < 20 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  net::Client a;
  a.connect("127.0.0.1", h.server->port());
  Tuples<double> mine;
  mine.push_back(kDim - 1, kDim - 1, 7.0);
  a.insert(mine, 0);
  const auto t0 = std::chrono::steady_clock::now();
  a.flush();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(streaming.load()) << "A's flush waited for B to stop";
  EXPECT_LT(waited, kBound);
  const auto rs = a.query_elements({net::ElementQuery{kDim - 1, kDim - 1}});
  EXPECT_EQ(rs[0].present, 1u) << "flush acked before A's batch applied";
  EXPECT_EQ(rs[0].value, 7.0);

  stop.store(true);
  feeder.join();
  gbx::failpoints().clear();
  EXPECT_EQ(a.query_sum().sum, static_cast<double>(streamed * 100) + 7.0);
  a.bye();
}

TEST(NetServer, FlushIsAckedBeforeTheCascade) {
  // The batch's cascade is held for 2 s. Its flush is acked once the
  // batch is staged in level 1, and a query sees it there, both well
  // before the cascade runs.
  constexpr auto kCascade = std::chrono::milliseconds(2000);
  ServerHarness h(1);
  gbx::FailpointSpec stall;
  stall.action = gbx::FailAction::kDelay;
  stall.at_op = 1;
  stall.delay_ms = static_cast<int>(kCascade.count());
  gbx::failpoints().arm("hier.stream.cascade", stall);

  net::Client cl;
  cl.connect("127.0.0.1", h.server->port());
  auto batch = kron(51).batch<double>(4000);  // over the first cut
  batch.push_back(kDim - 1, kDim - 1, 7.0);   // the marker
  const auto t0 = std::chrono::steady_clock::now();
  cl.insert(batch, 0);
  cl.flush();
  const auto acked = std::chrono::steady_clock::now() - t0;
  const auto rs = cl.query_elements({net::ElementQuery{kDim - 1, kDim - 1}});
  const auto seen = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(rs[0].present, 1u) << "the acked batch is not in the value";
  EXPECT_EQ(rs[0].value, 7.0);
  EXPECT_LT(acked, kCascade / 2);
  EXPECT_LT(seen, kCascade / 2);

  h.stream.drain();  // returns once the held cascade has run
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kCascade)
      << "the cascade was never held";
  gbx::failpoints().clear();
  EXPECT_EQ(cl.query_sum().sum, 4007.0);
  cl.bye();
}

/// A test-local replication sink: numbers batches 1, 2, ... and calls a
/// batch durable once the test's watermark reaches it.
class WatermarkSink final : public net::ReplicationSink {
 public:
  std::uint64_t on_batch(std::size_t, std::span<const std::byte>) override {
    return ++logged;
  }
  bool durable(std::uint64_t seq) override { return seq <= watermark.load(); }

  std::atomic<std::uint64_t> logged{0};
  std::atomic<std::uint64_t> watermark{0};
};

/// The next reply on `cl` if one arrives within `ms`, else nullopt
/// (`cl` reads with a short recv timeout, retried to the deadline).
std::optional<store::LogRecord> reply_within(net::Client& cl, int ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < until) {
    try {
      return cl.read_reply();
    } catch (const gbx::Error&) {
      // recv timed out; keep waiting
    }
  }
  return std::nullopt;
}

TEST(NetServer, FlushWaitsForItsOwnSessionsDurability) {
  // A's batch is the sink's seq 1 and B's is seq 2. Each flush is acked
  // only once the sink calls its own session's last batch durable: never
  // before (acked ⊆ replicated), and never later because of the other.
  WatermarkSink sink;
  net::IngestServer::Options sopt;
  sopt.replication = &sink;
  ServerHarness h(2, {}, sopt);

  net::Client::Options copt;
  copt.recv_timeout_ms = 20;
  net::Client a(copt), b(copt);
  a.connect("127.0.0.1", h.server->port());
  b.connect("127.0.0.1", h.server->port());
  const auto logged = [&](std::uint64_t n) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (sink.logged.load() < n && std::chrono::steady_clock::now() < until)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return sink.logged.load() == n;
  };
  auto g = kron(51);
  a.insert(g.batch<double>(500), 0);
  ASSERT_TRUE(logged(1));
  b.insert(g.batch<double>(500), 1);
  ASSERT_TRUE(logged(2));

  std::string flush;
  net::append_frame(flush, net::MsgType::kFlush);
  a.send_raw(flush.data(), flush.size());
  b.send_raw(flush.data(), flush.size());
  h.stream.drain();  // both batches applied: only durability is missing

  const auto acked = [](const std::optional<store::LogRecord>& rec) {
    return rec && net::tag_type(rec->epoch) == net::MsgType::kReplyOk &&
           net::tag_arg(rec->epoch) ==
               static_cast<std::uint64_t>(net::MsgType::kFlush);
  };
  EXPECT_FALSE(reply_within(a, 300)) << "acked before A's batch was durable";
  EXPECT_FALSE(reply_within(b, 300)) << "acked before B's batch was durable";

  sink.watermark.store(1);
  EXPECT_TRUE(acked(reply_within(a, 10000))) << "A's flush waited for B's";
  EXPECT_FALSE(reply_within(b, 300)) << "acked before B's batch was durable";

  sink.watermark.store(2);
  EXPECT_TRUE(acked(reply_within(b, 10000)));
}

TEST(NetServer, ReplyBacklogIsBoundedAndEveryPipelinedQueryAnswered) {
  GBX_SKIP_SATURATION_TIMING();
  net::IngestServer::Options sopt;
  sopt.max_outbound_bytes = 64u << 10;  // small cap: throttle engages
  ServerHarness h(1, {}, sopt);

  net::Client cl;
  cl.connect("127.0.0.1", h.server->port());
  cl.insert(kron(10).batch<double>(1000), 0);
  cl.flush();

  // Pipeline element queries with fat replies while nobody reads: the
  // server must stop reading the connection once its reply backlog
  // passes the cap (bounded memory) yet eventually answer every query
  // once the client drains. Send from a second thread — the sender may
  // block in send() exactly because the server stopped reading.
  // ~33 MB of replies: far beyond what loopback socket buffers can
  // absorb (~4 MB sndbuf + ~128 KB unread rcvbuf), so send() must hit
  // EAGAIN and the backlog must cross the 64 KB cap.
  const std::size_t kQueries = 2048, kProbes = 1024;
  std::vector<net::ElementQuery> probes(kProbes);  // all {0,0}: cheap
  std::string frame;
  net::append_frame(frame, net::MsgType::kQueryElements, 0, probes.data(),
                    probes.size() * sizeof(net::ElementQuery));
  std::thread sender([&] {
    for (std::size_t i = 0; i < kQueries; ++i)
      cl.send_raw(frame.data(), frame.size());
  });

  // Drain no reply until the backlog has hit the cap: the replies far
  // outgrow the socket buffers, so the throttle must engage however
  // slowly a loaded host serves the queries.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (h.server->stats().out_throttles.load() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<net::ElementReply> want(kProbes);
  for (std::size_t i = 0; i < kQueries; ++i) {
    auto rec = cl.read_reply();
    ASSERT_EQ(net::tag_type(rec.epoch), net::MsgType::kReplyOk) << i;
    ASSERT_TRUE(net::payload_as(rec.payload, want)) << i;
    ASSERT_EQ(want.size(), kProbes) << i;
  }
  sender.join();

  EXPECT_GT(h.server->stats().out_throttles.load(), 0u)
      << "reply backlog never hit the cap: throttle path unexercised "
         "(kernel buffers absorbed everything; raise kQueries)";
  EXPECT_EQ(h.server->stats().queries.load(), kQueries);
  cl.bye();
}

TEST(NetServer, BackPressureThrottlesOnlyTheSaturatedLane) {
  hier::ParallelStream<double>::Options popt;
  popt.queue_capacity = 1;  // park at the first busy overlap
  ServerHarness h(2, popt);

  // Lane 0 saturates deterministically: its first batch stalls in
  // apply, the second fills its one queue slot, the third parks.
  constexpr int kStallMs = 3000;
  gbx::FailpointSpec stall;
  stall.action = gbx::FailAction::kStall;
  stall.at_op = 1;
  stall.delay_ms = kStallMs;
  gbx::failpoints().arm("hier.stream.apply", stall);

  const std::size_t slow_batches = 6, slow_size = 1000;
  const std::size_t small_batches = 20, small_size = 1000;

  std::atomic<bool> a_done{false};
  std::thread slow([&] {
    net::Client cl;
    cl.connect("127.0.0.1", h.server->port());
    auto g = kron(21);
    for (std::size_t b = 0; b < slow_batches; ++b)
      cl.insert(g.batch<double>(slow_size), 0);  // lane 0
    cl.flush();
    a_done.store(true);
    cl.bye();
  });

  // Wait until lane 0 actually parked (back-pressure engaged) AND its
  // worker took the stall. A park alone is not enough: a lane-0 worker
  // slow to wake (a loaded host) leaves batch 1 queued and parks batch
  // 2, and lane 1's first apply would then be the one to stall. The
  // failpoint disarms itself when it fires, and only lane 0 has work.
  const auto engaged = [&] {
    return h.server->stats().parks.load(std::memory_order_relaxed) > 0 &&
           !gbx::failpoints().armed();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!engaged() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (!engaged()) {
    slow.join();  // let the stream finish before tearing the harness down
    gbx::failpoints().clear();
    FAIL() << "lane 0 never saturated; back-pressure path unexercised";
  }

  // With lane 0 stalled and its connection unread, a second client on
  // lane 1 must stream and flush unimpeded — well inside the stall.
  const auto t0 = std::chrono::steady_clock::now();
  net::Client fast;
  fast.connect("127.0.0.1", h.server->port());
  auto g = kron(22);
  for (std::size_t b = 0; b < small_batches; ++b)
    fast.insert(g.batch<double>(small_size), 1);
  fast.flush();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(kStallMs));
  EXPECT_FALSE(a_done.load()) << "slow client flushed through a stalled lane";
  auto sum = fast.query_sum();
  EXPECT_GE(sum.sum, static_cast<double>(small_batches * small_size));
  fast.bye();

  slow.join();
  gbx::failpoints().clear();

  // Everything parked was eventually applied exactly once.
  net::Client q;
  q.connect("127.0.0.1", h.server->port());
  q.flush();
  EXPECT_EQ(q.query_sum().sum, static_cast<double>(slow_batches * slow_size +
                                                   small_batches * small_size));
  q.bye();
}

TEST(NetServer, StopWithInFlightSessionsComesBackClean) {
  auto h = std::make_unique<ServerHarness>(2);

  // Clients stream until the server goes away; the contract is that
  // they see a send/recv failure (gbx::Error), never a hang.
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client cl;
        cl.connect("127.0.0.1", h->server->port());
        auto g = kron(31 + c);
        while (go.load(std::memory_order_relaxed))
          cl.insert(g.batch<double>(2000), c % 2);
      } catch (const gbx::Error&) {
        // expected once the server stops
      }
    });
  }

  // Let the sessions get properly in flight, then pull the plug.
  const auto t0 = std::chrono::steady_clock::now();
  while (h->server->stats().insert_frames.load(std::memory_order_relaxed) <
             10 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  h->server->stop();
  go.store(false);
  for (auto& t : threads) t.join();

  // Every accepted batch is applied exactly once: after draining the
  // lanes, the engine total equals the server's accepted-entry count.
  const auto accepted =
      h->server->stats().entries_ingested.load(std::memory_order_relaxed);
  h->stream.drain();
  auto snap = h->stream.freeze();
  EXPECT_EQ(snap.reduce(), static_cast<double>(accepted));
  h.reset();  // harness teardown after an explicit stop must be a no-op
}

}  // namespace

#else  // !__linux__

TEST(NetServer, SkippedOnNonLinux) { SUCCEED(); }

#endif
