// repl/wal_shipper.hpp — the primary half of WAL shipping.
//
// PrimaryReplicator implements net::ReplicationSink: the ingest
// server's event loop hands it every ACCEPTED insert batch in
// acceptance order, and it (a) appends the batch to a replication WAL
// on disk (record epoch = sequence number 1, 2, 3, ...; payload =
// repl::encode_batch_payload) and (b) tails that WAL and streams the
// records to a repl::ReplicaServer.
//
// Durability contract (what durable(seq) means): a batch is durable
// once the replica's cumulative kShipAck covers its sequence number —
// the replica has appended it to its own WAL and flushed that, and
// submitted it to a lane (persist-before-ack, replica.hpp); a lane
// worker may not have applied it yet. The ingest server holds each
// flush ack until durable() covers its session's batches before it, so
// a client that got its flush ack can lose the primary wholesale and
// find every acked batch on the promoted replica: acked ⊆ replicated,
// never lost. The converse
// (replicated but never acked) is legal and harmless — failover
// clients resume from the replica's applied watermark, so nothing is
// double-applied either.
//
// Threading: the replicator is a net::FrameHandler on its own
// net::FrameLoop, which listens nowhere; the connection to the replica
// is an outbound session, and the loop thread does all the work.
// on_batch() and durable() run on the ingest loop thread: on_batch()
// only seq-stamps the batch, queues it and wakes the loop (the queue is
// bounded; a full queue blocks on_batch, which is the back-pressure).
// Each loop pass then
//   1. appends every queued batch to the WAL and flushes ONCE (group
//      commit);
//   2. tails the WAL file and sends kShipBatch frames while fewer than
//      kWindow are unacked and the session's unsent backlog is under the
//      loop's cap. The file is the only ship source, so live shipping and
//      catch-up after a reconnect are one path, and the tailer only ever
//      sees flushed frames;
//   3. checks its deadlines: the heartbeat, and the redial backoff.
// kShipAck, the hello reply and a fence arrive through on_frame(). The
// loop never sleeps. durable() reads acked_; logged_ is the last
// sequence number QUEUED.
//
// Crash shape: kill() abandons the queue and the socket mid-frame (the
// torture suite dies at arbitrary points this way; unlogged batches were
// never acked, so losing them is legal), while stop() is the orderly
// exit and drains the queue to the WAL. A redial re-handshakes
// (kShipHello), learns the replica's next-expected sequence, and re-tails
// the WAL from the top; a fenced hello (the replica promoted meanwhile)
// permanently retires the shipper, because a promoted replica must never
// accept frames from a deposed primary.
#pragma once

#ifdef __linux__

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gbx/thread_annotations.hpp"
#include "net/event_loop.hpp"
#include "net/frame_loop.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "repl/protocol.hpp"
#include "store/wal.hpp"

namespace repl {

struct ShipperOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Replication WAL path (created/truncated by the replicator).
  std::string wal_path;
  int heartbeat_ms = 20;
};

class PrimaryReplicator final : public net::ReplicationSink,
                                private net::FrameHandler {
 public:
  PrimaryReplicator(const net::IngestServer::Stream& stream,
                    ShipperOptions opt)
      : opt_(std::move(opt)),
        lanes_(stream.instances()),
        nrows_(stream.nrows()),
        ncols_(stream.ncols()),
        wal_out_(opt_.wal_path,
                 std::ios::binary | std::ios::out | std::ios::trunc),
        writer_(wal_out_),
        loop_(*this, stats_, max_out_) {
    GBX_CHECK(wal_out_.good(),
              "replicator: cannot open replication WAL " + opt_.wal_path);
  }

  ~PrimaryReplicator() override {
    if (loop_.running()) stop();
  }

  void start() {
    GBX_CHECK(!loop_.running(), "replicator already started");
    {
      gbx::ScopedLock lk(log_mu_);
      halting_ = false;
    }
    loop_.start();
  }

  /// Orderly exit: join the loop, then drain the queue to the WAL.
  /// Already-shipped unacked frames are re-sent on the next
  /// incarnation's handshake — resume is idempotent by sequence.
  void stop() {
    GBX_CHECK(loop_.running(), "replicator not started");
    halt(/*drain=*/true);
  }

  /// Crash: abandon the socket mid-frame AND the queued batches. The
  /// replica learns of the death from silence (lease lapse), exactly as
  /// from SIGKILL; queued-but-unlogged batches were never acked, so
  /// dropping them is the legal crash shape.
  void kill() {
    if (loop_.running()) halt(/*drain=*/false);
  }

  // --- net::ReplicationSink (ingest event-loop thread) ---------------------
  /// Seq-stamp, queue, wake the loop; the loop does the expensive part
  /// (encode + WAL append + flush) off the accept path. Blocks only
  /// while kLogQueueCapacity batches wait for the WAL — that stall IS
  /// the replication back-pressure reaching the ingest front end.
  std::uint64_t on_batch(std::size_t lane,
                         gbx::Tuples<double> batch) override {
    bool was_empty = false;
    std::uint64_t seq = 0;
    {
      gbx::ScopedLock lk(log_mu_);
      seq = logged_.load(std::memory_order_relaxed) + 1;
      GBX_CHECK(seq < (std::uint64_t{1} << 48),
                "replicator: sequence space exhausted");
      while (seq - 1 - wal_seq_ >= kLogQueueCapacity && !halting_)
        log_space_.wait(log_mu_);
      // Dying: the batch is dropped, so a flush behind it is never acked.
      if (halting_) return ~std::uint64_t{0};
      was_empty = log_q_.empty();
      log_q_.push_back(Pending{seq, lane, std::move(batch)});
      logged_.store(seq, std::memory_order_release);
    }
    // A non-empty queue already has a wake on its way.
    if (was_empty) loop_.wake();
    return seq;
  }

  bool durable(std::uint64_t seq) override { return acked() >= seq; }

  // --- watermarks ----------------------------------------------------------
  std::uint64_t logged() const {
    return logged_.load(std::memory_order_acquire);
  }
  std::uint64_t acked() const { return acked_.load(std::memory_order_acquire); }
  /// True once a hello was rejected: the replica promoted and this
  /// primary is deposed. The shipper has retired.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kWindow = 64;  ///< unacked frames in flight
  static constexpr int kReconnectBackoffMs = 10, kMaxBackoffMs = 500;
  /// Batches stamped but not yet in the WAL before on_batch blocks the
  /// accept path (the replication back-pressure bound).
  static constexpr std::size_t kLogQueueCapacity = 256;
  /// Hello generation. A promoted replica fences EVERY hello regardless,
  /// so it is diagnostic, not protocol.
  static constexpr std::uint64_t kGeneration = 1;

  struct Pending {
    std::uint64_t seq = 0;
    std::size_t lane = 0;
    gbx::Tuples<double> batch;
  };

  /// The connection to the replica, with its own read cursor on the WAL.
  struct Link : net::FrameSession {
    Link(net::Fd f, const std::string& wal)
        : FrameSession(std::move(f)),
          wal_in(wal, std::ios::binary | std::ios::in),
          tailer(wal_in, net::kMaxFrameBytes) {
      GBX_CHECK(wal_in.good(), "shipper: cannot re-open replication WAL");
    }
    std::ifstream wal_in;
    store::RecordLogTailer tailer;
    bool ready = false;           ///< the hello is answered
    std::uint64_t last_sent = 0;  ///< highest seq sent (or applied there)
  };

  // --- net::FrameHandler (loop-thread entry points) ------------------------

  /// Never called: the loop has no listener.
  std::unique_ptr<net::FrameSession> open(net::Fd) override { return {}; }

  void on_tick() override {
    gbx::ScopedThreadRole role(loop_role_);
    log_queued();
    const auto now = Clock::now();
    if (fenced() || now < quiet_until_) return;
    if (link_ == nullptr) {
      if (now >= redial_at_) dial(now);
      return;
    }
    if (!link_->ready || link_->closing || link_->dead) return;
    if (now >= next_beat_ && !beat(now)) return;
    ship(*link_);
  }

  void on_frame(net::FrameSession& s, store::LogRecord& rec) override {
    gbx::ScopedThreadRole role(loop_role_);
    auto& link = static_cast<Link&>(s);
    const net::MsgType type = net::tag_type(rec.epoch);
    if (link.ready) {
      GBX_CHECK(type == net::MsgType::kShipAck,
                "shipper: unexpected frame from replica");
      raise_acked(net::tag_arg(rec.epoch));
      return;
    }
    if (type == net::MsgType::kReplyError) {
      fenced_.store(true, std::memory_order_release);
      link.close();  // deposed: retire quietly, never reconnect
      return;
    }
    GBX_CHECK(type == net::MsgType::kReplyOk &&
                  net::tag_arg(rec.epoch) ==
                      static_cast<std::uint64_t>(net::MsgType::kShipHello),
              "shipper: unexpected handshake reply");
    ShipHelloReply hr;
    GBX_CHECK(net::payload_as(rec.payload, hr) && hr.next_seq > 0,
              "shipper: malformed handshake reply");
    // Everything below next_seq is durably applied over there already.
    raise_acked(hr.next_seq - 1);
    link.last_sent = hr.next_seq - 1;
    link.ready = true;
    backoff_ms_ = kReconnectBackoffMs;
    next_beat_ = Clock::now() + std::chrono::milliseconds(opt_.heartbeat_ms);
  }

  void on_close(net::FrameSession&) override {
    gbx::ScopedThreadRole role(loop_role_);
    link_ = nullptr;
    if (!fenced()) redial_later(Clock::now());
  }

  // --- the loop's work -------------------------------------------------------

  /// Group commit: append every queued batch, then flush once. The flush
  /// publishes the frames to ship(), which never reads past it.
  void log_queued() GBX_REQUIRES(loop_role_) {
    std::deque<Pending> batches;
    {
      gbx::ScopedLock lk(log_mu_);
      batches.swap(log_q_);
    }
    if (batches.empty()) return;
    for (const Pending& p : batches) {
      const std::string payload = encode_batch_payload(p.lane, p.batch);
      writer_.append(p.seq, payload.data(), payload.size());
    }
    wal_out_.flush();
    GBX_CHECK(wal_out_.good(), "replicator: replication WAL write failed");
    {
      gbx::ScopedLock lk(log_mu_);
      wal_seq_ = batches.back().seq;
    }
    log_space_.notify_all();
  }

  /// Connect and say hello; the reply arrives through on_frame().
  void dial(Clock::time_point now) GBX_REQUIRES(loop_role_) {
    net::Fd fd = net::dial(opt_.host, opt_.port);
    if (!fd.valid()) return redial_later(now);
    auto link = std::make_unique<Link>(std::move(fd), opt_.wal_path);
    link_ = link.get();
    loop_.adopt(std::move(link));
    const ShipHello hello{lanes_, nrows_, ncols_, kGeneration};
    link_->send(net::MsgType::kShipHello, 0, &hello, sizeof hello);
  }

  void redial_later(Clock::time_point now) GBX_REQUIRES(loop_role_) {
    redial_at_ = now + std::chrono::milliseconds(backoff_ms_);
    backoff_ms_ = std::min(backoff_ms_ * 2, kMaxBackoffMs);
  }

  /// Send the due heartbeat. False when the "repl.shipper.heartbeat"
  /// kStall failpoint fires instead: a simulated partition, silent (no
  /// heartbeats, no batches) long enough for the replica's lease to lapse.
  bool beat(Clock::time_point now) GBX_REQUIRES(loop_role_) {
    next_beat_ = now + std::chrono::milliseconds(opt_.heartbeat_ms);
    if (gbx::failpoints().armed()) {
      if (auto fp = gbx::failpoints().hit("repl.shipper.heartbeat")) {
        if (fp->action == gbx::FailAction::kStall) {
          quiet_until_ = now + std::chrono::milliseconds(fp->delay_ms);
          return false;
        }
      }
    }
    link_->send(net::MsgType::kHeartbeat, 0, "", 0);
    return true;
  }

  /// Tail the WAL onto the socket, inside the window and the backlog cap.
  void ship(Link& link) {
    while (!link.dead && link.backlog() < max_out_ &&
           link.last_sent < acked() + kWindow) {
      auto rec = link.tailer.next();
      if (!rec) return;  // caught up with the flushed tail
      if (rec->epoch <= link.last_sent) continue;  // applied over there
      link.send(net::MsgType::kShipBatch, rec->epoch, rec->payload.data(),
                rec->payload.size());
      link.last_sent = rec->epoch;
    }
  }

  /// Only the loop thread writes acked_.
  void raise_acked(std::uint64_t a) {
    if (a > acked_.load(std::memory_order_relaxed))
      acked_.store(a, std::memory_order_release);
  }

  void halt(bool drain) {
    {
      gbx::ScopedLock lk(log_mu_);
      halting_ = true;
    }
    log_space_.notify_all();
    loop_.stop();
    gbx::ScopedThreadRole role(loop_role_);  // the loop thread is gone
    if (drain) log_queued();
    link_ = nullptr;
    redial_at_ = quiet_until_ = {};
    backoff_ms_ = kReconnectBackoffMs;
  }

  ShipperOptions opt_;
  std::uint64_t lanes_, nrows_, ncols_;
  /// Unsent bytes the link may hold before ship() waits for the socket.
  const std::size_t max_out_ = net::IngestOptions().max_outbound_bytes;

  /// logged_ counts batches QUEUED for logging (seq-stamped in acceptance
  /// order); acked_ trails it through WAL → ship → replica → ack, and
  /// durable(seq) asks whether it has reached seq.
  std::atomic<std::uint64_t> logged_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<bool> fenced_{false};

  gbx::Mutex log_mu_;
  gbx::CondVar log_space_;  ///< the WAL caught up with the queue
  std::deque<Pending> log_q_ GBX_GUARDED_BY(log_mu_);
  std::uint64_t wal_seq_ GBX_GUARDED_BY(log_mu_) = 0;  ///< last seq in the WAL
  bool halting_ GBX_GUARDED_BY(log_mu_) = false;

  /// Single-thread discipline: every hook is a loop-thread entry point
  /// and claims the role; halt() claims it after the loop joins.
  gbx::ThreadRole loop_role_;
  std::ofstream wal_out_ GBX_GUARDED_BY(loop_role_);
  store::RecordLogWriter writer_ GBX_GUARDED_BY(loop_role_);
  Link* link_ GBX_GUARDED_BY(loop_role_) = nullptr;  ///< owned by loop_
  int backoff_ms_ GBX_GUARDED_BY(loop_role_) = kReconnectBackoffMs;
  Clock::time_point redial_at_ GBX_GUARDED_BY(loop_role_){};
  Clock::time_point next_beat_ GBX_GUARDED_BY(loop_role_){};
  Clock::time_point quiet_until_ GBX_GUARDED_BY(loop_role_){};
  net::SessionStats stats_;
  net::FrameLoop loop_;  ///< last: its thread runs the hooks above
};

}  // namespace repl

#endif  // __linux__
