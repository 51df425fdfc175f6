// The same hardening suite for every front end. net::IngestServer, a
// promoted repl::ReplicaServer, and cluster::Router all speak the frame
// protocol to clients, and each must meet a malformed request the same
// way: one kReplyError carrying the shared diagnostic, then a close
// (or, for a frame cut off by the peer's close, a counted torn tail),
// with nothing applied and well-formed sessions served as before.
//
// Then the regression the shared session core fixed: a client that
// pipelines queries without reading the replies must not stall the
// other sessions of any front end. The replica used to reply with
// blocking sends on its loop thread, so one such client froze it, and
// the router had no reply-backlog cap at all.
//
// All three front ends run on the net/frame_loop.hpp session core.
#include <gtest/gtest.h>

#ifdef __linux__

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "gbx/error.hpp"
#include "hier/hier.hpp"
#include "hier/memory_governor.hpp"
#include "legacy_frame.hpp"
#include "net/net.hpp"
#include "repl/repl.hpp"

// Filling a reply backlog takes ~75k pipelined queries; under TSan's
// slowdown that race-to-saturate premise is not meaningful (the same
// rule as the saturation tests in test_net_server.cpp).
#if defined(__SANITIZE_THREAD__)
#define GBX_SKIP_UNDER_TSAN() GTEST_SKIP() << "saturation timing under TSan"
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GBX_SKIP_UNDER_TSAN() GTEST_SKIP() << "saturation timing under TSan"
#endif
#endif
#ifndef GBX_SKIP_UNDER_TSAN
#define GBX_SKIP_UNDER_TSAN() \
  do {                        \
  } while (0)
#endif

namespace {

using gbx::Index;
using gbx::Tuples;

constexpr Index kDim = 512;
constexpr std::size_t kLanes = 2;

hier::CutPolicy cuts() { return hier::CutPolicy::geometric(3, 2048, 8); }

/// One running front end behind a loopback port.
class FrontEnd {
 public:
  virtual ~FrontEnd() = default;
  virtual std::uint16_t port() const = 0;
  /// Frames answered with kReplyError, plus torn tails.
  virtual std::uint64_t rejected() const = 0;
  /// Sessions whose reply backlog passed the cap.
  virtual std::uint64_t out_throttles() const = 0;
};

class ServerFrontEnd final : public FrontEnd {
 public:
  ServerFrontEnd()
      : array_(kLanes, kDim, kDim, cuts()), stream_(array_), governor_(stream_) {
    stream_.start();
    server_ = std::make_unique<net::IngestServer>(stream_, governor_);
    server_->start();
  }
  ~ServerFrontEnd() override {
    server_->stop();
    stream_.stop();
  }
  std::uint16_t port() const override { return server_->port(); }
  std::uint64_t rejected() const override {
    return server_->stats().rejected_frames.load();
  }
  std::uint64_t out_throttles() const override {
    return server_->stats().out_throttles.load();
  }

 private:
  hier::InstanceArray<double> array_;
  hier::ParallelStream<double> stream_;
  hier::MemoryGovernor<hier::ParallelStream<double>> governor_;
  std::unique_ptr<net::IngestServer> server_;
};

/// A replica promoted without ever having a real primary: one hello
/// marks a primary as seen, the shipper goes silent, the lease lapses.
class ReplicaFrontEnd final : public FrontEnd {
 public:
  ReplicaFrontEnd()
      : wal_((std::filesystem::temp_directory_path() /
              ("hardening_replica_" + std::to_string(::getpid()) + ".wal"))
                 .string()) {
    std::filesystem::remove(wal_);
    repl::ReplicaOptions ropt;
    ropt.wal_path = wal_;
    ropt.lanes = kLanes;
    ropt.nrows = kDim;
    ropt.ncols = kDim;
    ropt.cuts = cuts();
    ropt.lease_ms = 20;
    replica_ = std::make_unique<repl::ReplicaServer>(ropt);
    replica_->start();

    net::Client::Options copt;
    copt.recv_timeout_ms = 5000;
    net::Client shipper(copt);
    shipper.connect("127.0.0.1", replica_->port());
    repl::ShipHello hello;
    hello.lanes = kLanes;
    hello.nrows = kDim;
    hello.ncols = kDim;
    std::string frame;
    net::append_frame(frame, net::MsgType::kShipHello, 0, &hello,
                      sizeof hello);
    shipper.send_raw(frame.data(), frame.size());
    const auto reply = shipper.read_reply();
    EXPECT_EQ(net::tag_type(reply.epoch), net::MsgType::kReplyOk);
    shipper.close();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!replica_->promoted() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(replica_->promoted());
  }
  ~ReplicaFrontEnd() override {
    replica_->stop();
    std::filesystem::remove(wal_);
  }
  std::uint16_t port() const override { return replica_->port(); }
  std::uint64_t rejected() const override {
    return replica_->stats().rejected_frames.load();
  }
  std::uint64_t out_throttles() const override {
    return replica_->stats().out_throttles.load();
  }

 private:
  std::string wal_;
  std::unique_ptr<repl::ReplicaServer> replica_;
};

class RouterFrontEnd final : public FrontEnd {
 public:
  RouterFrontEnd() : pool_(2, config()), router_(pool_.map(), options()) {
    router_.start();
  }
  ~RouterFrontEnd() override { router_.stop(); }
  std::uint16_t port() const override { return router_.port(); }
  std::uint64_t rejected() const override {
    return router_.stats().rejected_frames.load();
  }
  std::uint64_t out_throttles() const override {
    return router_.stats().out_throttles.load();
  }

 private:
  static cluster::WorkerConfig config() {
    cluster::WorkerConfig c;
    c.nrows = kDim;
    c.ncols = kDim;
    c.cuts = cuts();
    return c;
  }
  static cluster::Router::Options options() {
    cluster::Router::Options o;
    o.nrows = kDim;
    o.ncols = kDim;
    o.worker_recv_timeout_ms = 5000;
    return o;
  }

  cluster::LocalWorkerPool pool_;
  cluster::Router router_;
};

std::unique_ptr<FrontEnd> make_front_end(const std::string& kind) {
  if (kind == "server") return std::make_unique<ServerFrontEnd>();
  if (kind == "replica") return std::make_unique<ReplicaFrontEnd>();
  return std::make_unique<RouterFrontEnd>();
}

net::Client connect(const FrontEnd& fe) {
  net::Client::Options copt;
  copt.recv_timeout_ms = 5000;  // a hang fails the test instead
  net::Client cl(copt);
  cl.connect("127.0.0.1", fe.port());
  return cl;
}

Tuples<double> unit_batch(std::size_t n, std::uint64_t salt) {
  Tuples<double> b;
  for (std::size_t i = 0; i < n; ++i)
    b.push_back((i * 7 + salt) % kDim, (i * 13 + salt) % kDim, 1.0);
  return b;
}

std::string insert_frame(const std::vector<gbx::Entry<double>>& es) {
  std::string frame;
  net::append_frame(frame, net::MsgType::kInsert, net::kAnyLane, es.data(),
                    es.size() * sizeof(es[0]));
  return frame;
}

class FrontEndHardening : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { fe_ = make_front_end(GetParam()); }
  void TearDown() override { fe_.reset(); }

  /// Send `bytes` on a fresh session: the reply must be one kReplyError
  /// whose diagnostic contains `needle`, and then the session closes.
  void expect_rejected(const std::string& bytes, const std::string& needle) {
    const auto before = fe_->rejected();
    auto cl = connect(*fe_);
    cl.send_raw(bytes.data(), bytes.size());
    const auto rec = cl.read_reply();
    ASSERT_EQ(net::tag_type(rec.epoch), net::MsgType::kReplyError);
    const std::string what(reinterpret_cast<const char*>(rec.payload.data()),
                           rec.payload.size());
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_THROW(cl.read_reply(), gbx::Error);  // the front end closed
    EXPECT_EQ(fe_->rejected(), before + 1);
  }

  /// A well-formed session still works, and sees only its own entries.
  void expect_serving() {
    auto cl = connect(*fe_);
    cl.insert(unit_batch(300, 1));
    cl.flush();
    EXPECT_EQ(cl.query_sum().sum, 300.0);
    cl.bye();
  }

  std::unique_ptr<FrontEnd> fe_;
};

TEST_P(FrontEndHardening, BadMagic) {
  expect_rejected(std::string(32, '\xAB'), "magic");
  expect_serving();
}

TEST_P(FrontEndHardening, PreviousFrameFormatIsRejectedByMagic) {
  // A well-formed insert from a peer still on the "HHWAL001" format.
  const auto es = unit_batch(64, 9).entries();
  expect_rejected(
      legacy::v1_frame(net::make_tag(net::MsgType::kInsert, net::kAnyLane),
                       es.data(), es.size() * sizeof(es[0])),
      "bad record magic");
  expect_serving();
}

TEST_P(FrontEndHardening, FlippedPayloadBit) {
  std::string frame = insert_frame(unit_batch(64, 5).entries());
  frame[40] ^= 0x1;
  expect_rejected(frame, "checksum");
  expect_serving();
}

TEST_P(FrontEndHardening, PayloadNotAWholeNumberOfEntries) {
  std::string frame;
  const char odd[7] = {0};
  net::append_frame(frame, net::MsgType::kInsert, net::kAnyLane, odd,
                    sizeof odd);
  expect_rejected(frame, "insert payload is not a whole number of entries");
  expect_serving();
}

TEST_P(FrontEndHardening, OutOfRangeInsertCoordinate) {
  // The in-range first entry must not be applied either: the whole
  // batch is rejected before it reaches a lane or a worker.
  expect_rejected(insert_frame({{0, 0, 1.0}, {kDim, 0, 1.0}}),
                  "insert coordinate out of range: (512, 0) vs 512 x 512");
  expect_serving();
}

TEST_P(FrontEndHardening, OutOfRangeProbe) {
  const std::vector<net::ElementQuery> probes = {{0, 0}, {3, kDim + 9}};
  std::string frame;
  net::append_frame(frame, net::MsgType::kQueryElements, 0, probes.data(),
                    probes.size() * sizeof(probes[0]));
  expect_rejected(frame, "element probe out of range: (3, 521) vs 512 x 512");
  expect_serving();
}

TEST_P(FrontEndHardening, UnknownVerb) {
  std::string frame;
  net::append_frame(frame, static_cast<net::MsgType>(77));
  expect_rejected(frame, "unknown message type");
  expect_serving();
}

TEST_P(FrontEndHardening, TornTailIsCountedAndDropped) {
  const auto before = fe_->rejected();
  {
    auto cl = connect(*fe_);
    const std::string frame = insert_frame(unit_batch(64, 6).entries());
    cl.send_raw(frame.data(), frame.size() / 2);
    cl.close();  // mid-frame EOF
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fe_->rejected() == before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(fe_->rejected(), before + 1);
  expect_serving();  // the half frame was never applied
}

// Every front end answers queries through the session core's
// nonblocking outbound queue: client A pipelines kQuerySum without ever
// reading, its backlog passes the cap and its reads are throttled, and
// client B's whole ingest round trip still completes.
TEST_P(FrontEndHardening, SlowReaderStallsNoOtherSession) {
  GBX_SKIP_UNDER_TSAN();
  const FrontEnd& fe = *fe_;

  // Client A: a small receive buffer, so the replies pile up in the
  // replica's outbound queue rather than in the kernel.
  const int a = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(a, 0);
  const int rcvbuf = 4096;
  ::setsockopt(a, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(fe.port());
  ASSERT_EQ(::connect(a, reinterpret_cast<::sockaddr*>(&addr), sizeof addr),
            0);
  std::string burst;
  for (int i = 0; i < 256; ++i)
    net::append_frame(burst, net::MsgType::kQuerySum, net::kWantProvenance);
  std::thread sender([&] {
    // Blocks once the replica stops reading A; ends when A is shut down.
    while (net::send_all(a, burst.data(), burst.size())) {
    }
  });

  // A's backlog passes the 4 MB cap after ~75k queries: seconds on an
  // idle host, minutes on a loaded one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (fe.out_throttles() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(fe.out_throttles(), 0u)
      << "A's reply backlog never reached the cap";

  // Client B: insert, flush, query, each reply within 5 s.
  try {
    auto b = connect(fe);
    b.insert(unit_batch(300, 2));
    b.flush();
    EXPECT_EQ(b.query_sum().sum, 300.0);
    b.bye();
  } catch (const gbx::Error& e) {
    ADD_FAILURE() << "client B stalled behind A: " << e.what();
  }

  ::shutdown(a, SHUT_RDWR);
  sender.join();
  ::close(a);
}

INSTANTIATE_TEST_SUITE_P(AllFrontEnds, FrontEndHardening,
                         ::testing::Values("server", "replica", "router"),
                         [](const auto& info) { return info.param; });

}  // namespace

#else  // !__linux__

TEST(FrontEndHardening, LinuxOnly) {
  GTEST_SKIP() << "the front ends are Linux-only";
}

#endif
