// repl/wal_shipper.hpp — the primary half of WAL shipping.
//
// PrimaryReplicator implements net::ReplicationSink: the ingest
// server's event loop hands it every ACCEPTED insert batch in
// acceptance order, and it (a) appends the batch to a replication WAL
// on disk (record epoch = sequence number 1, 2, 3, ...; payload =
// repl::encode_batch_payload) and (b) lets a background shipper thread
// tail that WAL and stream the records to a repl::ReplicaServer.
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
// The shipper thread is crash-shaped on purpose: kill() abandons the
// socket mid-frame without draining anything — the torture suite uses
// it to die at arbitrary points — while stop() is the orderly exit.
// Reconnection re-handshakes (kShipHello), learns the replica's
// next-expected sequence, and re-tails the WAL from there; a fenced
// hello (the replica promoted meanwhile) permanently retires the
// shipper, because a promoted replica must never accept frames from a
// deposed primary.
//
// Threading: on_batch()/durable() run on the ingest event-loop
// thread, and on_batch() only seq-stamps the batch and enqueues it —
// encoding, the WAL append, and the flush all happen on a dedicated
// logger thread so replication never serializes the accept path (the
// queue is bounded; a full queue blocks on_batch, which is the
// back-pressure). ship() runs on the shipper thread and tails the WAL
// file, so it only ever sees flushed frames; durable() reads acked_,
// and logged_ is the last sequence number ENQUEUED. A torn tail the
// tailer catches mid-append reads as "caught up"; retry next poll.
// stop() drains the queue; kill() abandons it (crash-shaped: unlogged
// batches were never acked, so losing them is legal).
#pragma once

#ifdef __linux__

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gbx/thread_annotations.hpp"
#include "net/event_loop.hpp"
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
  std::uint64_t generation = 1;
};

class PrimaryReplicator final : public net::ReplicationSink {
 public:
  PrimaryReplicator(const net::IngestServer::Stream& stream,
                    ShipperOptions opt)
      : opt_(std::move(opt)),
        lanes_(stream.instances()),
        nrows_(stream.nrows()),
        ncols_(stream.ncols()),
        wal_out_(opt_.wal_path,
                 std::ios::binary | std::ios::out | std::ios::trunc),
        writer_(wal_out_) {
    GBX_CHECK(wal_out_.good(),
              "replicator: cannot open replication WAL " + opt_.wal_path);
  }

  ~PrimaryReplicator() override {
    if (running_) stop();
  }

  void start() {
    GBX_CHECK(!running_, "replicator already started");
    stop_.store(false, std::memory_order_relaxed);
    abandon_.store(false, std::memory_order_relaxed);
    running_ = true;
    logger_ = std::thread([this] { log_loop(); });
    thread_ = std::thread([this] { ship(); });
  }

  /// Orderly exit: drain the logger queue to the WAL, close the socket
  /// politely, and join. Already-shipped unacked frames are re-sent on
  /// the next incarnation's handshake — resume is idempotent by
  /// sequence.
  void stop() {
    GBX_CHECK(running_, "replicator not started");
    stop_.store(true, std::memory_order_relaxed);
    wake_logger();
    poke_socket();
    logger_.join();
    thread_.join();
    running_ = false;
  }

  /// Crash: abandon the socket mid-whatever AND the logger queue
  /// mid-drain. The replica learns of the death from silence (lease
  /// lapse), exactly as from SIGKILL; queued-but-unlogged batches were
  /// never acked, so dropping them is the legal crash shape.
  void kill() {
    if (!running_) return;
    abandon_.store(true, std::memory_order_relaxed);
    stop();
  }

  // --- net::ReplicationSink (ingest event-loop thread) ---------------------
  /// Seq-stamp and enqueue; the logger thread does the expensive part
  /// (encode + WAL append + flush) off the accept path. Blocks only
  /// when the queue is full — that stall IS the replication
  /// back-pressure reaching the ingest front end.
  std::uint64_t on_batch(std::size_t lane,
                         gbx::Tuples<double> batch) override {
    gbx::ScopedLock lk(log_mu_);
    const std::uint64_t seq = logged_.load(std::memory_order_relaxed) + 1;
    GBX_CHECK(seq < (std::uint64_t{1} << 48),
              "replicator: sequence space exhausted");
    while (log_q_.size() >= kLogQueueCapacity && !stopping())
      log_space_.wait(log_mu_);
    // Dying: the batch is dropped, so a flush behind it is never acked.
    if (stopping()) return ~std::uint64_t{0};
    log_q_.push_back(Pending{seq, lane, std::move(batch)});
    logged_.store(seq, std::memory_order_release);
    log_cv_.notify_one();
    return seq;
  }

  bool durable(std::uint64_t seq) override {
    return acked_.load(std::memory_order_acquire) >= seq;
  }

  // --- watermarks ----------------------------------------------------------
  std::uint64_t logged() const {
    return logged_.load(std::memory_order_acquire);
  }
  std::uint64_t acked() const { return acked_.load(std::memory_order_acquire); }
  /// True once a hello was rejected: the replica promoted and this
  /// primary is deposed. The shipper thread has retired.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }

 private:
  static constexpr std::uint64_t kWindow = 64;  ///< unacked frames in flight
  static constexpr int kReconnectBackoffMs = 10, kMaxBackoffMs = 500;
  /// Batches queued for the logger before on_batch blocks the accept
  /// path (the replication back-pressure bound).
  static constexpr std::size_t kLogQueueCapacity = 256;

  struct Pending {
    std::uint64_t seq = 0;
    std::size_t lane = 0;
    gbx::Tuples<double> batch;
  };

  void wake_logger() {
    gbx::ScopedLock lk(log_mu_);
    log_cv_.notify_all();
    log_space_.notify_all();
  }

  /// Logger thread: drain the queue into the replication WAL. The
  /// flush after every record is what publishes the frame to the
  /// tailing shipper thread (it never reads past the flushed tail).
  void log_loop() {
    for (;;) {
      Pending p;
      {
        gbx::ScopedLock lk(log_mu_);
        while (log_q_.empty() && !stopping()) log_cv_.wait(log_mu_);
        if (abandon_.load(std::memory_order_relaxed)) return;
        if (log_q_.empty()) return;  // stopping and fully drained
        p = std::move(log_q_.front());
        log_q_.pop_front();
        log_space_.notify_one();
      }
      const std::string payload = encode_batch_payload(p.lane, p.batch);
      writer_.append(p.seq, payload.data(), payload.size());
      wal_out_.flush();
      GBX_CHECK(wal_out_.good(), "replicator: replication WAL write failed");
    }
  }

  // Interrupt a blocked poll/recv on the shipper thread.
  void poke_socket() {
    gbx::ScopedLock lk(fd_mu_);
    if (ship_fd_ >= 0) ::shutdown(ship_fd_, SHUT_RDWR);
  }

  void set_ship_fd(int fd) {
    gbx::ScopedLock lk(fd_mu_);
    ship_fd_ = fd;
  }

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  void ship() {
    int backoff = kReconnectBackoffMs;
    while (!stopping() && !fenced_.load(std::memory_order_relaxed)) {
      net::Fd fd = net::dial(opt_.host, opt_.port);
      if (!fd.valid()) {
        sleep_backoff(backoff);
        continue;
      }
      set_ship_fd(fd.get());
      try {
        run_session(fd);
        backoff = kReconnectBackoffMs;  // made progress; reset
      } catch (const gbx::Error&) {
        // Socket died (peer reset, torn reply, injected EPIPE): fall
        // through to reconnect. The WAL has everything; the next
        // handshake resumes precisely.
      }
      set_ship_fd(-1);
      if (!stopping() && !fenced_.load(std::memory_order_relaxed))
        sleep_backoff(backoff);
    }
  }

  void sleep_backoff(int& backoff) {
    // Sliced sleep so stop()/kill() never waits a whole backoff.
    for (int slept = 0; slept < backoff && !stopping(); slept += 5)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    backoff = std::min(backoff * 2, kMaxBackoffMs);
  }

  /// One connected incarnation: handshake, then tail-and-stream until
  /// the socket dies or we are stopped. Throws gbx::Error on any I/O
  /// trouble (caller reconnects).
  void run_session(net::Fd& fd) {
    store::RecordFrameDecoder dec(net::kMaxFrameBytes);

    // Handshake: who we are, where to resume.
    ShipHello hello;
    hello.lanes = lanes_;
    hello.nrows = nrows_;
    hello.ncols = ncols_;
    hello.generation = opt_.generation;
    std::string out;
    net::append_frame(out, net::MsgType::kShipHello, 0, &hello, sizeof hello);
    send_all(fd, out.data(), out.size());
    const store::LogRecord rec = *next_frame(fd, dec, /*timeout_ms=*/-1);
    if (net::tag_type(rec.epoch) == net::MsgType::kReplyError) {
      fenced_.store(true, std::memory_order_release);
      return;  // deposed: retire quietly, never reconnect
    }
    GBX_CHECK(net::tag_type(rec.epoch) == net::MsgType::kReplyOk &&
                  net::tag_arg(rec.epoch) ==
                      static_cast<std::uint64_t>(net::MsgType::kShipHello),
              "shipper: unexpected handshake reply");
    ShipHelloReply hr;
    GBX_CHECK(net::payload_as(rec.payload, hr),
              "shipper: malformed handshake reply");
    const std::uint64_t next = hr.next_seq;
    // Everything below next is durably applied over there already.
    if (next > 0 && next - 1 > acked_.load(std::memory_order_relaxed))
      acked_.store(next - 1, std::memory_order_release);

    // Tail the WAL from the top, skipping already-applied records.
    std::ifstream wal_in(opt_.wal_path, std::ios::binary | std::ios::in);
    GBX_CHECK(wal_in.good(), "shipper: cannot re-open replication WAL");
    store::RecordLogTailer tailer(wal_in, net::kMaxFrameBytes);

    std::uint64_t last_sent = next - 1;
    auto last_beat = std::chrono::steady_clock::now();
    while (!stopping()) {
      // Absorb every pending cumulative kShipAck without blocking.
      while (auto ack = next_frame(fd, dec, 0)) {
        GBX_CHECK(net::tag_type(ack->epoch) == net::MsgType::kShipAck,
                  "shipper: unexpected frame from replica");
        const std::uint64_t a = net::tag_arg(ack->epoch);
        if (a > acked_.load(std::memory_order_relaxed))
          acked_.store(a, std::memory_order_release);
      }

      const std::uint64_t inflight =
          last_sent - acked_.load(std::memory_order_relaxed);
      bool sent = false;
      if (inflight < kWindow) {
        if (auto wrec = tailer.next()) {
          if (wrec->epoch >= next && wrec->epoch > last_sent) {
            out.clear();
            net::append_frame(out, net::MsgType::kShipBatch, wrec->epoch,
                              wrec->payload.data(), wrec->payload.size());
            send_all(fd, out.data(), out.size());
            last_sent = wrec->epoch;
          }
          sent = true;  // made WAL progress even when skipping
        }
      }

      const auto now = std::chrono::steady_clock::now();
      if (now - last_beat >=
          std::chrono::milliseconds(opt_.heartbeat_ms)) {
        bool beat = true;
        if (gbx::failpoints().armed()) {
          if (auto fp = gbx::failpoints().hit("repl.shipper.heartbeat")) {
            if (fp->action == gbx::FailAction::kStall) {
              // Simulated partition: go silent (no heartbeats, no
              // batches) long enough for the replica's lease to lapse.
              for (int ms = 0; ms < fp->delay_ms && !stopping(); ms += 5)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
              beat = false;
            }
          }
        }
        if (beat) {
          out.clear();
          net::append_frame(out, net::MsgType::kHeartbeat);
          send_all(fd, out.data(), out.size());
        }
        last_beat = std::chrono::steady_clock::now();
      }

      if (!sent) {
        // Caught up (or window full): sleep on the socket for acks.
        ::pollfd pfd{fd.get(), POLLIN, 0};
        (void)::poll(&pfd, 1, 1);
      }
    }
  }

  /// Next frame from the replica, waiting up to `timeout_ms` (-1 =
  /// forever) for bytes; nullopt when none arrive in time.
  std::optional<store::LogRecord> next_frame(net::Fd& fd,
                                             store::RecordFrameDecoder& dec,
                                             int timeout_ms) {
    store::LogRecord rec;
    for (;;) {
      const auto st = dec.next(rec);
      if (st == store::RecordFrameDecoder::Status::kFrame) return rec;
      GBX_CHECK(st == store::RecordFrameDecoder::Status::kNeedMore,
                "shipper: " + dec.error());
      ::pollfd pfd{fd.get(), POLLIN, 0};
      const int r = ::poll(&pfd, 1, timeout_ms);
      if (r < 0 && errno == EINTR) continue;
      GBX_CHECK(r >= 0, "shipper: poll() failed");
      if (r == 0) return std::nullopt;  // timed out (never with -1)
      char buf[1u << 16];
      const auto n = ::recv(fd.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
        continue;
      GBX_CHECK(n > 0, "shipper: replica closed the connection");
      dec.feed(buf, static_cast<std::size_t>(n));
    }
  }

  void send_all(net::Fd& fd, const char* p, std::size_t n) {
    GBX_CHECK(net::send_all(fd.get(), p, n),
              "shipper: connection lost during send");
  }

  ShipperOptions opt_;
  std::uint64_t lanes_, nrows_, ncols_;

  std::ofstream wal_out_;
  store::RecordLogWriter writer_;  // logger thread only

  /// logged_ counts batches ENQUEUED for logging (seq-stamped in
  /// acceptance order); acked_ trails it through logger → shipper →
  /// replica → ack, and durable(seq) asks whether it has reached seq.
  std::atomic<std::uint64_t> logged_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<bool> fenced_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> abandon_{false};

  gbx::Mutex log_mu_;
  gbx::CondVar log_cv_;     ///< queue gained work (or we are stopping)
  gbx::CondVar log_space_;  ///< queue shrank below capacity
  std::deque<Pending> log_q_ GBX_GUARDED_BY(log_mu_);

  gbx::Mutex fd_mu_;
  int ship_fd_ GBX_GUARDED_BY(fd_mu_) = -1;

  std::thread thread_;
  std::thread logger_;
  bool running_ = false;
};

}  // namespace repl

#endif  // __linux__
