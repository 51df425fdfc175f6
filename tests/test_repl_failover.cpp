// Replication failover torture (the PR 9 tentpole gate): a primary
// IngestServer with WAL shipping enabled is killed at a random point
// under concurrent client load; the replica self-promotes; the clients
// fail over and finish their planned streams. End state, per lane:
// the promoted replica's matrix must be BIT-IDENTICAL to an oracle
// that applied the client's batch list directly in order — acked work
// is never lost, shipped-but-unacked work is never double-applied.
//
// Why bit-exactness is attainable with doubles: each lane has exactly
// one writer, so the replica's per-lane apply order (shipped prefix in
// sequence order + the client's post-failover resend from the
// replica's applied count) is precisely the client's send order — the
// same floating-point fold the oracle performs.
//
// Modes (same invariant, different failure geometry):
//   * kill mid-stream            — the base case
//   * kill mid-ack               — "repl.replica.ack" kDelay failpoint
//     keeps acks slow, so the kill lands with a wide shipped-unacked gap
//   * kill mid-promotion         — short lease, kill early: clients
//     race the promotion itself
//   * partition (primary alive)  — "repl.shipper.heartbeat" kStall
//     silences the shipper long enough for the lease to lapse; the
//     replica promotes and FENCES the live primary's shipper
//
// Alongside: the shipper resumes exactly once across a replica restart,
// its catch-up crosses between the WAL file and memory without landing a
// batch twice, the primary's WAL holds every accepted batch, gap-free,
// a primary WAL that cannot be written fails loudly, and the replica
// refuses a bad shipped payload before logging it.
//
// Runs under the 3-seed property matrix (HHGBX_SEED) and the TSan/ASan
// concurrency legs.
#include <gtest/gtest.h>

#ifdef __linux__

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "hier/hier.hpp"
#include "hier/memory_governor.hpp"
#include "net/net.hpp"
#include "prop_util.hpp"
#include "repl/repl.hpp"
#include "store/wal.hpp"

namespace {

using gbx::Index;
using gbx::Tuples;
using hier::CutPolicy;
using hier::InstanceArray;
using hier::MemoryGovernor;
using hier::ParallelStream;

constexpr Index kDim = 512;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kBatches = 48;     // per client
constexpr std::size_t kBatchSize = 64;   // entries per batch
constexpr std::uint64_t kPinnedSeed = 0x9E11'AB4F'22C7'D031ull;

CutPolicy cuts() { return CutPolicy::geometric(3, 2048, 8); }

std::string tmp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

/// Pre-generate each lane-owner's batch list (random coordinates,
/// random small-integer values — exact in double under any fold).
std::vector<std::vector<Tuples<double>>> make_work(std::mt19937_64& rng) {
  std::uniform_int_distribution<Index> coord(0, kDim - 1);
  std::uniform_int_distribution<int> val(1, 8);
  std::vector<std::vector<Tuples<double>>> work(kLanes);
  for (std::size_t c = 0; c < kLanes; ++c)
    for (std::size_t b = 0; b < kBatches; ++b) {
      Tuples<double> t;
      for (std::size_t i = 0; i < kBatchSize; ++i)
        t.push_back(coord(rng), coord(rng), static_cast<double>(val(rng)));
      work[c].push_back(std::move(t));
    }
  return work;
}

/// The primary rig: lanes + governor + replicator + server.
struct PrimaryRig {
  PrimaryRig(std::uint16_t replica_port, const std::string& wal)
      : array(kLanes, kDim, kDim, cuts()), stream(array), governor(stream) {
    stream.start();
    repl::ShipperOptions ropt;
    ropt.port = replica_port;
    ropt.wal_path = wal;
    ropt.heartbeat_ms = 10;
    replicator.emplace(stream, ropt);
    replicator->start();
    net::IngestServer::Options sopt;
    sopt.replication = &*replicator;
    server.emplace(stream, governor, sopt);
    server->start();
  }

  ~PrimaryRig() { kill_now(); }

  /// The crash: server torn down abruptly, shipper abandoned mid-frame.
  void kill_now() {
    if (server && server->running()) server->stop();
    if (replicator) replicator->kill();
    if (stream.running()) stream.stop();
  }

  InstanceArray<double> array;
  ParallelStream<double> stream;
  MemoryGovernor<ParallelStream<double>> governor;
  std::optional<repl::PrimaryReplicator> replicator;
  std::optional<net::IngestServer> server;
};

struct TortureResult {
  std::vector<repl::FailoverReport> reports;
  std::size_t failed_over = 0;
};

/// Run one full torture round: stream under load, kill (or partition)
/// at `kill_after_ms`, let clients finish against whoever survives,
/// then verify the replica bit-exactly against per-lane oracles.
/// Void-returning (with an out-param) so ASSERT_* can fail fast.
void torture_round(std::mt19937_64& rng, int kill_after_ms, bool partition,
                   const std::string& tag, TortureResult& result) {
  gbx::failpoints().clear();
  const std::string primary_wal = tmp_path("repl_primary_wal_" + tag);
  const std::string replica_wal = tmp_path("repl_replica_wal_" + tag);
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);

  const auto work = make_work(rng);

  repl::ReplicaOptions ropt;
  ropt.wal_path = replica_wal;
  ropt.lanes = kLanes;
  ropt.nrows = kDim;
  ropt.ncols = kDim;
  ropt.cuts = cuts();
  ropt.lease_ms = 250;
  repl::ReplicaServer replica(ropt);
  replica.start();

  auto rig = std::make_unique<PrimaryRig>(replica.port(), primary_wal);

  if (partition) {
    // Stall heartbeats well past the lease: the replica promotes while
    // the primary is still alive, then fences it.
    gbx::FailpointSpec spec;
    spec.action = gbx::FailAction::kStall;
    spec.delay_ms = ropt.lease_ms * 3;
    spec.at_op = 1;
    spec.max_fires = 1;
    gbx::failpoints().arm("repl.shipper.heartbeat", spec);
  }

  result.reports.resize(kLanes);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kLanes; ++c) {
    clients.emplace_back([&, c] {
      repl::FailoverOptions fopt;
      fopt.primary_port = rig->server->port();
      fopt.replica_port = replica.port();
      fopt.lane = c;
      fopt.recv_timeout_ms = 4000;
      fopt.flush_every = 6;
      fopt.pace_us = 2500;
      repl::FailoverSender sender(fopt);
      result.reports[c] = sender.run(work[c]);
    });
  }

  if (!partition) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
    rig->kill_now();
  }
  for (auto& t : clients) t.join();
  if (partition) {
    // The promotion must have FENCED the still-alive primary: its
    // shipper reconnects after the stall, gets its hello rejected, and
    // permanently retires.
    for (int a = 0; a < 400 && !rig->replicator->fenced(); ++a)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(rig->replicator->fenced())
        << "live primary was never fenced after the replica promoted";
    rig->kill_now();
  }
  rig.reset();
  replica.stop();
  gbx::failpoints().clear();

  // --- verification: replica lane p == oracle of client p's batches.
  auto& arr = replica.array();
  const auto counts = replica.lane_batches();
  for (std::size_t p = 0; p < kLanes; ++p) {
    ASSERT_EQ(counts[p], kBatches)
        << "lane " << p << ": replica applied " << counts[p] << " of "
        << kBatches << " batches (lost or doubled)";
    hier::HierMatrix<double> oracle(kDim, kDim, cuts());
    for (const auto& b : work[p]) oracle.update(b);
    auto osnap = oracle.freeze();
    auto rsnap = arr.instance(p).freeze();
    ASSERT_EQ(rsnap.reduce(), osnap.reduce()) << "lane " << p << " sum";
    ASSERT_EQ(rsnap.nvals(), osnap.nvals()) << "lane " << p << " nvals";
    // Probe a sample of exact coordinates.
    std::uniform_int_distribution<std::size_t> pick(0, work[p].size() - 1);
    for (int probe = 0; probe < 64; ++probe) {
      const auto& batch = work[p][pick(rng)];
      const auto& e = batch.entries()[probe % batch.size()];
      auto ov = osnap.extract_element(e.row, e.col);
      auto rv = rsnap.extract_element(e.row, e.col);
      ASSERT_TRUE(ov.has_value() && rv.has_value());
      ASSERT_EQ(*rv, *ov) << "lane " << p << " (" << e.row << "," << e.col
                          << ")";
    }
  }
  for (const auto& r : result.reports) {
    if (r.failed_over) {
      ++result.failed_over;
      EXPECT_GE(r.resumed_from, r.watermark_at_failover)
          << "acked batches lost across failover";
    }
  }

  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
}

class ReplFailover : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = proptest::seed_or_env(kPinnedSeed);
    std::cout << proptest::seed_banner(seed_, kPinnedSeed) << "\n";
    rng_.seed(seed_);
  }
  void TearDown() override { gbx::failpoints().clear(); }
  std::uint64_t seed_ = 0;
  std::mt19937_64 rng_;
};

TEST_F(ReplFailover, KillMidStream) {
  std::uniform_int_distribution<int> when(10, 100);
  TortureResult r;
  torture_round(rng_, when(rng_), /*partition=*/false, "midstream", r);
  EXPECT_GE(r.failed_over, 1u) << "kill landed after all clients finished — "
                                  "shrink kill_after_ms";
}

TEST_F(ReplFailover, KillMidAckWithDelayedAcks) {
  gbx::FailpointSpec spec;
  spec.action = gbx::FailAction::kDelay;
  spec.probability = 0.25;
  spec.seed = rng_();
  spec.delay_ms = 3;
  spec.max_fires = 100000;
  gbx::failpoints().arm("repl.replica.ack", spec);
  std::uniform_int_distribution<int> when(20, 100);
  TortureResult r;
  torture_round(rng_, when(rng_), /*partition=*/false, "midack", r);
  EXPECT_GE(r.failed_over, 1u);
}

TEST_F(ReplFailover, KillMidPromotion) {
  // Kill very early: promotion and the first failover dials overlap.
  std::uniform_int_distribution<int> when(1, 25);
  TortureResult r;
  torture_round(rng_, when(rng_), /*partition=*/false, "midpromo", r);
  // exactness assertions inside torture_round are the gate
}

TEST_F(ReplFailover, PartitionFencesLivePrimary) {
  TortureResult r;
  torture_round(rng_, 0, /*partition=*/true, "partition", r);
  EXPECT_GE(r.failed_over, 1u)
      << "partition never forced a failover — stall window too short?";
}

// A promoted replica answers kQuerySum as the primary does: the lane-
// order sum, and nvals = distinct coordinates of Σ Ai. Every batch goes
// to two lanes, so each coordinate lives in both and must count once.
TEST_F(ReplFailover, PromotedReplicaSumMatchesPrimaryOnLaneOverlap) {
  const std::string primary_wal = tmp_path("repl_overlap_primary_wal");
  const std::string replica_wal = tmp_path("repl_overlap_replica_wal");
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
  const auto work = make_work(rng_);

  repl::ReplicaOptions ropt;
  ropt.wal_path = replica_wal;
  ropt.lanes = kLanes;
  ropt.nrows = kDim;
  ropt.ncols = kDim;
  ropt.cuts = cuts();
  ropt.lease_ms = 100;
  repl::ReplicaServer replica(ropt);
  replica.start();
  auto rig = std::make_unique<PrimaryRig>(replica.port(), primary_wal);

  proptest::DenseRef<double> ref;
  net::Client::Options copt;
  copt.recv_timeout_ms = 5000;
  net::Client cli(copt);
  cli.connect("127.0.0.1", rig->server->port());
  for (std::size_t b = 0; b < 8; ++b) {
    for (const std::uint64_t lane : {0u, 1u}) {
      cli.insert(work[0][b], lane);
      ref.apply(work[0][b]);
    }
  }
  cli.flush();  // applied on the primary and durable on the replica
  const net::SumReply primary = cli.query_sum();
  rig->kill_now();
  for (int a = 0; a < 500 && !replica.promoted(); ++a)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(replica.promoted());
  net::Client rcli(copt);
  rcli.connect("127.0.0.1", replica.port());
  const net::SumReply promoted = rcli.query_sum();

  // Small-integer values: every fold order gives the same sum exactly.
  EXPECT_EQ(primary.sum, ref.reduce());
  EXPECT_EQ(primary.nvals, ref.nvals());
  EXPECT_EQ(promoted.sum, primary.sum);
  EXPECT_EQ(promoted.nvals, primary.nvals);
  rig.reset();
  replica.stop();
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
}

repl::ReplicaOptions steady_replica(const std::string& wal) {
  repl::ReplicaOptions ropt;
  ropt.wal_path = wal;
  ropt.lanes = kLanes;
  ropt.nrows = kDim;
  ropt.ncols = kDim;
  ropt.cuts = cuts();
  ropt.auto_promote = false;
  return ropt;
}

// Batch b of the plan: lane b % kLanes, that lane's b-th batch.
const Tuples<double>& plan_batch(
    const std::vector<std::vector<Tuples<double>>>& work, std::size_t b) {
  return work[b % kLanes][b];
}

// The replica goes away and comes back over its own WAL on the same
// port: the shipper redials, resumes at the replica's next_seq, and
// every batch, including those streamed while it was down, lands once.
TEST_F(ReplFailover, ShipperResumesAfterReplicaRestart) {
  constexpr std::size_t kBefore = 16, kWhileDown = 16;  // N, M
  const std::string primary_wal = tmp_path("repl_resume_primary_wal");
  const std::string replica_wal = tmp_path("repl_resume_replica_wal");
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
  const auto work = make_work(rng_);

  repl::ReplicaOptions ropt = steady_replica(replica_wal);
  std::optional<repl::ReplicaServer> replica(std::in_place, ropt);
  replica->start();
  ropt.port = replica->port();  // the restart binds the same port
  PrimaryRig rig(replica->port(), primary_wal);

  proptest::DenseRef<double> ref;
  std::vector<std::uint64_t> lane_count(kLanes, 0);
  net::Client::Options copt;
  copt.recv_timeout_ms = 5000;
  net::Client cli(copt);
  cli.connect("127.0.0.1", rig.server->port());
  auto stream = [&](std::size_t from, std::size_t to) {
    for (std::size_t b = from; b < to; ++b) {
      cli.insert(plan_batch(work, b), b % kLanes);
      ref.apply(plan_batch(work, b));
      ++lane_count[b % kLanes];
    }
  };

  stream(0, kBefore);
  cli.flush();  // durable on the replica
  replica->stop();
  replica.reset();
  stream(kBefore, kBefore + kWhileDown);
  replica.emplace(ropt);
  ASSERT_EQ(replica->applied_seq(), kBefore);
  replica->start();
  cli.flush();  // acked only once the shipper resumed on the new replica
  EXPECT_EQ(rig.replicator->acked(), kBefore + kWhileDown);
  rig.kill_now();
  replica->stop();

  EXPECT_EQ(replica->applied_seq(), kBefore + kWhileDown);
  EXPECT_EQ(replica->lane_batches(), lane_count);
  double sum = 0;
  for (std::size_t p = 0; p < kLanes; ++p)
    sum += replica->array().instance(p).freeze().reduce();
  EXPECT_EQ(sum, ref.reduce());  // small integers: exact in any fold order
  replica.reset();
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
}

// The primary's replication WAL is the ship source. After stop() it holds
// every accepted batch as seq 1..n, each record the lane and entries the
// server accepted; after kill() it holds a gap-free prefix of them.
TEST_F(ReplFailover, PrimaryWalHoldsAcceptedBatchesGapFree) {
  const auto work = make_work(rng_);
  for (const bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "kill" : "stop");
    const std::string primary_wal = tmp_path("repl_pin_primary_wal");
    const std::string replica_wal = tmp_path("repl_pin_replica_wal");
    std::filesystem::remove(primary_wal);
    std::filesystem::remove(replica_wal);
    repl::ReplicaServer replica(steady_replica(replica_wal));
    replica.start();
    std::uint64_t accepted = 0;
    {
      PrimaryRig rig(replica.port(), primary_wal);
      net::Client::Options copt;
      copt.recv_timeout_ms = 5000;
      net::Client cli(copt);
      cli.connect("127.0.0.1", rig.server->port());
      // Half flushed (in the WAL for certain), half possibly still queued.
      for (std::size_t b = 0; b < kBatches; ++b) {
        cli.insert(plan_batch(work, b), b % kLanes);
        if (b + 1 == kBatches / 2) cli.flush();
      }
      rig.server->stop();
      accepted = rig.replicator->logged();
      if (crash)
        rig.replicator->kill();
      else
        rig.replicator->stop();
    }
    replica.stop();
    ASSERT_GE(accepted, kBatches / 2);

    std::ifstream in(primary_wal, std::ios::binary);
    store::RecordLogReader reader(in);
    std::uint64_t seq = 0;
    while (auto rec = reader.next()) {
      ASSERT_EQ(rec->epoch, ++seq) << "gap or reorder in the primary WAL";
      std::uint64_t lane = 0;
      Tuples<double> batch;
      ASSERT_TRUE(repl::decode_batch_payload(rec->payload, lane, batch));
      const auto& want = plan_batch(work, seq - 1);
      ASSERT_EQ(lane, (seq - 1) % kLanes);
      ASSERT_EQ(batch.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const auto& got = batch.entries()[i];
        const auto& exp = want.entries()[i];
        ASSERT_TRUE(got.row == exp.row && got.col == exp.col &&
                    got.val == exp.val)
            << "seq " << seq << " entry " << i;
      }
    }
    if (crash) {
      EXPECT_GE(seq, kBatches / 2) << "a flushed batch is missing";
      EXPECT_LE(seq, accepted);
    } else {
      EXPECT_EQ(seq, accepted) << "stop() left accepted batches unlogged";
    }
    std::filesystem::remove(primary_wal);
    std::filesystem::remove(replica_wal);
  }
}

// A replication WAL that cannot be written is loud: the insert that hit
// the failure is applied but its flush is never acked, every later
// insert earns kReplyError before a lane takes it, and durable() never
// turns true again, so not even a flush behind no batch is acked.
TEST_F(ReplFailover, PrimaryWalWriteFailureIsLoud) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string replica_wal = tmp_path("repl_full_replica_wal");
  std::filesystem::remove(replica_wal);
  repl::ReplicaServer replica(steady_replica(replica_wal));
  replica.start();
  PrimaryRig rig(replica.port(), "/dev/full");  // every write: ENOSPC
  // Larger than the stream's buffer, so its write fails at once.
  Tuples<double> batch;
  for (Index i = 0; i < 1024; ++i) batch.push_back(i % kDim, i * 7 % kDim, 1);
  net::Client::Options copt;
  copt.recv_timeout_ms = 2000;
  for (int insert = 0; insert < 2; ++insert) {
    net::Client cli(copt);
    cli.connect("127.0.0.1", rig.server->port());
    cli.insert(batch, 0);
    try {
      cli.flush();
      ADD_FAILURE() << "insert " << insert << " was acked";
    } catch (const gbx::Error& e) {
      if (insert == 1)  // refused, not timed out
        EXPECT_NE(std::string(e.what()).find("cannot log"), std::string::npos)
            << e.what();
    }
  }
  EXPECT_EQ(rig.server->stats().insert_frames.load(), 1u)
      << "a lane took a batch the WAL could not log";
  copt.recv_timeout_ms = 300;
  net::Client idle(copt);
  idle.connect("127.0.0.1", rig.server->port());
  EXPECT_THROW(idle.flush(), gbx::Error) << "a flush was acked";
  EXPECT_EQ(rig.replicator->acked(), 0u);
  rig.kill_now();
  replica.stop();
  EXPECT_EQ(replica.applied_seq(), 0u);
  std::filesystem::remove(replica_wal);
}

// Batch b of a long stream (up to kLanes * kBatches): lane b % kLanes,
// that lane's (b / kLanes)-th batch.
const Tuples<double>& stream_batch(
    const std::vector<std::vector<Tuples<double>>>& work, std::size_t b) {
  return work[b % kLanes][b / kLanes];
}

std::string shipped_payload(std::size_t lane, const Tuples<double>& batch) {
  return repl::encode_batch_payload(lane,
                                    std::as_bytes(std::span(batch.entries())));
}

// The replica's WAL holds seq 1..n once each and in order, each record
// the lane and entries of stream batch seq - 1.
void expect_wal_holds_stream(
    const std::string& wal,
    const std::vector<std::vector<Tuples<double>>>& work, std::uint64_t n) {
  std::ifstream in(wal, std::ios::binary);
  store::RecordLogReader reader(in);
  std::uint64_t seq = 0;
  while (auto rec = reader.next()) {
    ASSERT_EQ(rec->epoch, ++seq) << "a batch landed twice or out of order";
    const std::string want =
        shipped_payload((seq - 1) % kLanes, stream_batch(work, seq - 1));
    ASSERT_TRUE(rec->payload.size() == want.size() &&
                std::memcmp(rec->payload.data(), want.data(), want.size()) ==
                    0)
        << "seq " << seq << " is not the batch the primary accepted";
  }
  EXPECT_EQ(seq, n) << "a batch never landed";
}

// A window's worth of flushed batches ships from memory. Then acks are
// held: the next kWindow frames still ship from memory, the rest is left
// to the WAL file; once acks return, the link catches up from the file,
// reading back exactly the frames past the window. Every batch lands
// once, in sequence order.
TEST_F(ReplFailover, CatchUpCrossesFromMemoryToTheFileWhileAcksAreHeld) {
  constexpr std::uint64_t kWindow = repl::PrimaryReplicator::kWindow;
  constexpr std::uint64_t kTotal = 2 * kWindow + 48;
  constexpr std::uint64_t kWarm = 1 + kWindow;  // flushed one by one
  static_assert(kTotal <= kLanes * kBatches);
  const std::string primary_wal = tmp_path("repl_window_primary_wal");
  const std::string replica_wal = tmp_path("repl_window_replica_wal");
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
  const auto work = make_work(rng_);

  repl::ReplicaServer replica(steady_replica(replica_wal));
  replica.start();
  PrimaryRig rig(replica.port(), primary_wal);
  net::Client::Options copt;
  copt.recv_timeout_ms = 10000;
  net::Client cli(copt);
  cli.connect("127.0.0.1", rig.server->port());
  cli.insert(stream_batch(work, 0), 0);
  cli.flush();  // the link is up and has acked seq 1
  const std::uint64_t read_back = rig.replicator->read_back();
  for (std::size_t b = 1; b < kWarm; ++b) {
    cli.insert(stream_batch(work, b), b % kLanes);
    cli.flush();
  }
  EXPECT_EQ(rig.replicator->read_back(), read_back)
      << "a caught-up link read its WAL back";

  gbx::FailpointSpec hold;
  hold.action = gbx::FailAction::kStall;
  hold.probability = 1.0;
  hold.max_fires = ~std::uint64_t{0};
  gbx::failpoints().arm("repl.replica.ack", hold);
  for (std::size_t b = kWarm; b < kTotal; ++b)
    cli.insert(stream_batch(work, b), b % kLanes);
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((rig.replicator->logged() < kTotal ||
          replica.applied_seq() < kWarm + kWindow) &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(rig.replicator->logged(), kTotal);
  ASSERT_EQ(replica.applied_seq(), kWarm + kWindow)
      << "the window did not hold";
  EXPECT_EQ(rig.replicator->acked(), kWarm) << "an ack got through the stall";
  EXPECT_EQ(rig.replicator->read_back(), read_back)
      << "a frame inside the window was read back";

  gbx::failpoints().clear();
  cli.flush();  // acks return: the link catches up from the file
  EXPECT_EQ(rig.replicator->acked(), kTotal);
  EXPECT_EQ(rig.replicator->read_back() - read_back,
            kTotal - kWarm - kWindow)
      << "catch-up read more than the frames past the window";
  rig.kill_now();
  replica.stop();
  EXPECT_EQ(replica.applied_seq(), kTotal);
  expect_wal_holds_stream(replica_wal, work, kTotal);
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
}

// The replica restarts mid-stream: batches accepted while it is down
// exist only in the WAL file, which the new link tails from the hello's
// next_seq while more batches arrive; a batch accepted once the link has
// caught up ships from memory. Every batch lands once, in sequence order.
TEST_F(ReplFailover, CatchUpAfterAReplicaRestartMidStream) {
  constexpr std::size_t kTotal = kLanes * kBatches;
  constexpr std::size_t kBefore = kTotal / 4, kWhileDown = kTotal / 2;
  const std::string primary_wal = tmp_path("repl_restart_primary_wal");
  const std::string replica_wal = tmp_path("repl_restart_replica_wal");
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
  const auto work = make_work(rng_);

  repl::ReplicaOptions ropt = steady_replica(replica_wal);
  std::optional<repl::ReplicaServer> replica(std::in_place, ropt);
  replica->start();
  ropt.port = replica->port();  // the restart binds the same port
  PrimaryRig rig(replica->port(), primary_wal);
  net::Client::Options copt;
  copt.recv_timeout_ms = 10000;
  net::Client cli(copt);
  cli.connect("127.0.0.1", rig.server->port());
  const auto stream = [&](std::size_t from, std::size_t to) {
    for (std::size_t b = from; b < to; ++b)
      cli.insert(stream_batch(work, b), b % kLanes);
  };

  stream(0, kBefore);
  cli.flush();
  replica->stop();
  replica.reset();
  stream(kBefore, kBefore + kWhileDown);
  replica.emplace(ropt);
  ASSERT_EQ(replica->applied_seq(), kBefore);
  replica->start();
  stream(kBefore + kWhileDown, kTotal);
  cli.flush();
  EXPECT_EQ(rig.replicator->acked(), kTotal);
  rig.kill_now();
  replica->stop();

  EXPECT_EQ(replica->applied_seq(), kTotal);
  EXPECT_EQ(replica->lane_batches(),
            std::vector<std::uint64_t>(kLanes, kTotal / kLanes));
  expect_wal_holds_stream(replica_wal, work, kTotal);
  replica.reset();
  std::filesystem::remove(primary_wal);
  std::filesystem::remove(replica_wal);
}

// A shipped payload is checked in place before the replica logs, counts
// or acks it. A coordinate out of range, a lane past the topology and a
// fractional entry array each earn kReplyError and a close, and leave the
// WAL, applied_seq() and lane_batches() as they were; no kShipAck covers
// the bad frame.
TEST_F(ReplFailover, ReplicaRefusesABadShippedPayloadBeforeLoggingIt) {
  const std::string wal = tmp_path("repl_bad_payload_wal");
  std::filesystem::remove(wal);
  const auto work = make_work(rng_);
  repl::ReplicaServer replica(steady_replica(wal));
  replica.start();

  net::Client::Options copt;
  copt.recv_timeout_ms = 5000;
  // A fresh shipper session; returns the hello's next_seq.
  const auto hello = [&](net::Client& cli) {
    cli.connect("127.0.0.1", replica.port());
    repl::ShipHello h;
    h.lanes = kLanes;
    h.nrows = kDim;
    h.ncols = kDim;
    std::string f;
    net::append_frame(f, net::MsgType::kShipHello, 0, &h, sizeof h);
    cli.send_raw(f.data(), f.size());
    return net::reply_as<repl::ShipHelloReply>(cli.read_reply()).next_seq;
  };
  const auto ship = [](net::Client& cli, std::uint64_t seq,
                       const std::string& payload) {
    std::string f;
    net::append_frame(f, net::MsgType::kShipBatch, seq, payload.data(),
                      payload.size());
    cli.send_raw(f.data(), f.size());
  };

  {
    net::Client cli(copt);
    ASSERT_EQ(hello(cli), 1u);
    for (std::uint64_t seq = 1; seq <= 2; ++seq) {
      ship(cli, seq, shipped_payload(seq, work[0][seq]));
      const auto ack = cli.read_reply();
      ASSERT_EQ(net::tag_type(ack.epoch), net::MsgType::kShipAck);
      ASSERT_EQ(net::tag_arg(ack.epoch), seq);
    }
  }
  const auto wal_bytes = std::filesystem::file_size(wal);

  Tuples<double> outside;
  outside.push_back(1, kDim, 1.0);  // column kDim: out of range
  std::string fractional = shipped_payload(0, work[0][3]);
  fractional.pop_back();
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"coordinate out of range", shipped_payload(0, outside)},
      {"lane out of range", shipped_payload(kLanes, work[0][3])},
      {"fractional entry array", fractional}};
  for (const auto& [what, payload] : bad) {
    SCOPED_TRACE(what);
    net::Client cli(copt);
    ASSERT_EQ(hello(cli), 3u);
    ship(cli, 3, payload);
    bool refused = false;
    try {
      for (;;) {  // every reply until the replica closes the session
        const auto r = cli.read_reply();
        refused |= net::tag_type(r.epoch) == net::MsgType::kReplyError;
        if (net::tag_type(r.epoch) == net::MsgType::kShipAck) {
          EXPECT_LT(net::tag_arg(r.epoch), 3u) << "an ack covers the bad frame";
        }
      }
    } catch (const gbx::Error&) {
      // closed
    }
    EXPECT_TRUE(refused);
    EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);
    EXPECT_EQ(replica.applied_seq(), 2u);
  }
  replica.stop();
  EXPECT_EQ(replica.applied_seq(), 2u);
  EXPECT_EQ(replica.lane_batches(), (std::vector<std::uint64_t>{0, 1, 1, 0}));
  EXPECT_EQ(std::filesystem::file_size(wal), wal_bytes);
  std::filesystem::remove(wal);
}

// Cold-restart of the replica: its own WAL replays to the exact state.
TEST_F(ReplFailover, ReplicaColdRestartReplaysItsWal) {
  const std::string wal = tmp_path("repl_cold_wal");
  std::filesystem::remove(wal);
  const auto work = make_work(rng_);

  repl::ReplicaOptions ropt;
  ropt.wal_path = wal;
  ropt.lanes = kLanes;
  ropt.nrows = kDim;
  ropt.ncols = kDim;
  ropt.cuts = cuts();
  ropt.auto_promote = false;

  double sum_before = 0;
  {
    repl::ReplicaServer replica(ropt);
    replica.start();
    net::Client::Options copt;
    copt.recv_timeout_ms = 5000;
    net::Client cli(copt);
    cli.connect("127.0.0.1", replica.port());
    repl::ShipHello hello;
    hello.lanes = kLanes;
    hello.nrows = kDim;
    hello.ncols = kDim;
    std::string frame;
    net::append_frame(frame, net::MsgType::kShipHello, 0, &hello,
                      sizeof hello);
    cli.send_raw(frame.data(), frame.size());
    auto hr = cli.read_reply();
    ASSERT_EQ(net::tag_type(hr.epoch), net::MsgType::kReplyOk);
    std::uint64_t seq = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      const std::string payload = shipped_payload(b % kLanes, work[0][b]);
      std::string f;
      net::append_frame(f, net::MsgType::kShipBatch, ++seq, payload.data(),
                        payload.size());
      cli.send_raw(f.data(), f.size());
      auto ack = cli.read_reply();
      ASSERT_EQ(net::tag_type(ack.epoch), net::MsgType::kShipAck);
    }
    replica.stop();
    double s = 0;
    for (std::size_t p = 0; p < kLanes; ++p)
      s += replica.array().instance(p).freeze().reduce();
    sum_before = s;
  }

  // Restart over the same WAL: identical state, sequence continues.
  repl::ReplicaServer reborn(ropt);
  ASSERT_EQ(reborn.applied_seq(), 8u);
  reborn.start();
  reborn.stop();
  double s = 0;
  for (std::size_t p = 0; p < kLanes; ++p)
    s += reborn.array().instance(p).freeze().reduce();
  EXPECT_EQ(s, sum_before);
  std::filesystem::remove(wal);
}

}  // namespace

#else
TEST(ReplFailover, LinuxOnly) { GTEST_SKIP() << "epoll server is Linux-only"; }
#endif  // __linux__
