// repl/wal_shipper.hpp — the primary half of WAL shipping.
//
// PrimaryReplicator is the ingest loop's net::ReplicationSink, with no
// loop, thread or lock of its own. For each ACCEPTED insert, in
// acceptance order, on_batch() stamps the next sequence number, frames
// the payload (lane word + entries) once as a kShipBatch, logs it in a
// replication WAL (record epoch = seq) and, when the link to the
// repl::ReplicaServer is caught up and fewer than kWindow frames are
// unacked, moves the frame into the link. Otherwise the WAL file has it:
// after a (re)connect, from the hello's next_seq, and past the window the
// link catches up by reading each frame at its offset (read_back()), so
// at most kWindow frames are held in memory. durable(seq) once the
// replica's cumulative kShipAck covers seq (it logged seq and may apply
// it later), so a flush the server acks is replicated; replicated but
// unacked is harmless: failover clients resume from the replica's counts.
//
// start() it, then the IngestServer, which attaches it to its loop and
// detaches it at stop(); then stop() or kill() it. The link is an
// outbound session of that loop, so an ack settles its flush in the pass
// that reads it. tick() sends the heartbeats from that loop, so the
// replica's lease tracks the loop that serves clients, and redials
// without blocking (the connect completes on EPOLLOUT). A WAL write
// failure is loud: can_log() and durable() turn false for good. After
// stop() the WAL holds every accepted batch, after kill() a gap-free
// prefix. A fenced hello (the replica promoted) retires the shipper.
#pragma once

#ifdef __linux__

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

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
        wal_in_(opt_.wal_path, std::ios::binary | std::ios::in) {
    GBX_CHECK(wal_out_.good() && wal_in_.good(),
              "replicator: cannot open replication WAL " + opt_.wal_path);
  }

  /// Open shipping, before the server starts (which attaches it).
  void start() {
    gbx::ScopedThreadRole role(loop_role_);  // no loop runs the hooks
    GBX_CHECK(loop_ == nullptr, "replicator: start it before the server");
    started_ = true;
  }

  /// Orderly exit, once the server stopped: the WAL then holds every
  /// accepted batch. Frames shipped but unacked are re-sent to the next
  /// incarnation after its handshake — resume is idempotent by sequence.
  void stop() {
    kill();
    gbx::ScopedThreadRole role(loop_role_);
    wal_out_.flush();
    GBX_CHECK(wal_out_.good(), "replicator: replication WAL write failed");
  }

  /// Crash, once the server stopped: no flush. The replica learns of it
  /// from silence (lease lapse), as from SIGKILL.
  void kill() {
    gbx::ScopedThreadRole role(loop_role_);
    GBX_CHECK(loop_ == nullptr, "replicator: stop the server first");
    started_ = false;
  }

  // --- net::ReplicationSink (the ingest loop thread) -----------------------
  bool can_log() override {
    gbx::ScopedThreadRole role(loop_role_);
    return started_ && wal_out_.good() &&
           logged() + 1 < (std::uint64_t{1} << 48);  // the tag's seq space
  }

  std::uint64_t on_batch(std::size_t lane,
                         std::span<const std::byte> entries) override {
    gbx::ScopedThreadRole role(loop_role_);
    const std::uint64_t seq = logged() + 1, lane64 = lane;
    const std::size_t size = sizeof lane64 + entries.size();
    std::string frame;
    const std::size_t at = store::append_frame(
        frame, net::make_tag(net::MsgType::kShipBatch, seq),
        std::as_bytes(std::span(&lane64, 1)), entries);
    try {
      writer_.append(seq, frame.data() + at, size);
    } catch (const gbx::Error&) {
      return seq;  // the lane took it: can_log(), durable() turn false
    }
    wal_ends_.push_back(wal_ends_.back() + store::frame_bytes(size));
    logged_.store(seq, std::memory_order_release);
    if (sent_ + 1 == seq && sendable()) {
      link_->send_frame(std::move(frame));
      sent_ = seq;
    }
    pump();  // catch-up, if the link is behind
    return seq;
  }

  bool durable(std::uint64_t seq) override {
    gbx::ScopedThreadRole role(loop_role_);
    return wal_out_.good() && acked() >= seq;
  }

  // --- watermarks ----------------------------------------------------------
  /// The last sequence number appended to the WAL.
  std::uint64_t logged() const {
    return logged_.load(std::memory_order_acquire);
  }
  std::uint64_t acked() const { return acked_.load(std::memory_order_acquire); }
  /// Frames the link has read back from the WAL file to catch up.
  std::uint64_t read_back() const {
    return read_back_.load(std::memory_order_relaxed);
  }
  /// True once a hello was rejected: the replica promoted, this primary
  /// is deposed and the shipper retired.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }

  static constexpr std::uint64_t kWindow = 64;  ///< unacked frames in flight

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr int kReconnectBackoffMs = 10, kMaxBackoffMs = 500;
  /// Hello generation. A promoted replica fences EVERY hello regardless,
  /// so it is diagnostic, not protocol.
  static constexpr std::uint64_t kGeneration = 1;

  // --- the sink's loop hooks ------------------------------------------------
  /// Before the loop runs, or after it stopped and destroyed the link
  /// without an on_close().
  void attach(net::FrameLoop* loop) override {
    gbx::ScopedThreadRole role(loop_role_);
    loop_ = loop;
    drop_link();
    redial_at_ = quiet_until_ = {};
    backoff_ms_ = kReconnectBackoffMs;
  }

  void tick() override {
    gbx::ScopedThreadRole role(loop_role_);
    const auto now = Clock::now();
    if (!started_ || fenced() || now < quiet_until_) return;
    if (link_ == nullptr) {
      if (now >= redial_at_) dial(now);
    } else if (ready_ && !link_->closing && !link_->dead && now >= next_beat_) {
      beat(now);
    }
  }

  // --- net::FrameHandler: the link's hooks (the link is the one session) ----
  /// Never called: the replicator accepts nothing.
  std::unique_ptr<net::FrameSession> open(net::Fd) override { return {}; }

  void on_frame(net::FrameSession& link, store::LogRecord& rec) override {
    gbx::ScopedThreadRole role(loop_role_);
    const net::MsgType type = net::tag_type(rec.epoch);
    if (ready_) {
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
    // Everything below next_seq is durably logged over there already.
    raise_acked(hr.next_seq - 1);
    sent_ = hr.next_seq - 1;
    ready_ = true;
    backoff_ms_ = kReconnectBackoffMs;
    next_beat_ = Clock::now() + std::chrono::milliseconds(opt_.heartbeat_ms);
  }

  /// Every loop pass: ship what an ack or a drained socket let through.
  void on_pass(net::FrameSession&) override {
    gbx::ScopedThreadRole role(loop_role_);
    pump();
  }

  void on_close(net::FrameSession&) override {
    gbx::ScopedThreadRole role(loop_role_);
    drop_link();
    if (!fenced()) redial_later(Clock::now());
  }

  // --- shipping --------------------------------------------------------------
  /// Whether the link may take its next frame: answered, open, not held
  /// quiet, inside kWindow unacked frames and under the backlog cap.
  bool sendable() GBX_REQUIRES(loop_role_) {
    return link_ != nullptr && ready_ && !link_->closing && !link_->dead &&
           Clock::now() >= quiet_until_ && link_->backlog() < max_out_ &&
           sent_ < acked() + kWindow;
  }

  /// Catch up from the WAL file while the link is sendable(), reading
  /// each frame at its offset: no frame that went from memory is read.
  void pump() GBX_REQUIRES(loop_role_) {
    while (sent_ < logged() && sendable()) {
      const std::uint64_t next = sent_ + 1, at = wal_ends_[next - 1];
      std::string bytes(wal_ends_[next] - at, '\0');
      wal_out_.flush();
      wal_in_.clear();
      if (!wal_in_.seekg(static_cast<std::streamoff>(at))
               .read(bytes.data(), static_cast<std::streamsize>(bytes.size())))
        break;  // the flush failed
      const auto f = store::parse_frame(
          reinterpret_cast<const std::byte*>(bytes.data()), bytes.size(),
          bytes.size());
      GBX_CHECK(f.status == store::FrameStatus::kFrame && f.epoch == next,
                "shipper: replication WAL corrupt");
      read_back_.fetch_add(1, std::memory_order_relaxed);
      link_->send(net::MsgType::kShipBatch, next, f.payload.data(),
                  f.payload.size());
      sent_ = next;
    }
  }

  /// Connect without blocking and queue the hello; its reply arrives
  /// through on_frame().
  void dial(Clock::time_point now) GBX_REQUIRES(loop_role_) {
    net::Fd fd = net::dial(opt_.host, opt_.port, 1, 0, /*block=*/false);
    if (!fd.valid()) return redial_later(now);
    auto link = std::make_unique<net::FrameSession>(std::move(fd));
    link_ = link.get();
    loop_->adopt(std::move(link), this);
    const ShipHello hello{lanes_, nrows_, ncols_, kGeneration};
    link_->send(net::MsgType::kShipHello, 0, &hello, sizeof hello);
  }

  void redial_later(Clock::time_point now) GBX_REQUIRES(loop_role_) {
    redial_at_ = now + std::chrono::milliseconds(backoff_ms_);
    backoff_ms_ = std::min(backoff_ms_ * 2, kMaxBackoffMs);
  }

  void drop_link() GBX_REQUIRES(loop_role_) {
    link_ = nullptr;
    ready_ = false;
  }

  /// Send the due heartbeat — unless the "repl.shipper.heartbeat" kStall
  /// failpoint fires instead: a simulated partition, silent (no
  /// heartbeats, no batches) long enough for the replica's lease to lapse.
  void beat(Clock::time_point now) GBX_REQUIRES(loop_role_) {
    next_beat_ = now + std::chrono::milliseconds(opt_.heartbeat_ms);
    const auto fp = gbx::failpoints().armed()
                        ? gbx::failpoints().hit("repl.shipper.heartbeat")
                        : std::nullopt;
    if (fp && fp->action == gbx::FailAction::kStall)
      quiet_until_ = now + std::chrono::milliseconds(fp->delay_ms);
    else
      link_->send(net::MsgType::kHeartbeat, 0, "", 0);
  }

  void raise_acked(std::uint64_t a) {
    acked_.store(std::max(acked(), a), std::memory_order_release);
  }

  ShipperOptions opt_;
  std::uint64_t lanes_, nrows_, ncols_;
  /// Unsent bytes the link may hold before pump() waits for the socket.
  const std::size_t max_out_ = net::IngestOptions().max_outbound_bytes;

  /// logged_ is the last batch in the WAL; acked_ trails it through ship
  /// → replica → ack, and durable(seq) asks whether it has reached seq.
  /// Only the loop thread writes them.
  std::atomic<std::uint64_t> logged_{0};
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> read_back_{0};
  std::atomic<bool> fenced_{false};

  /// Single-thread discipline: every hook runs on the ingest loop thread
  /// and claims the role; start(), stop(), kill() and attach() claim it
  /// while no loop runs the hooks.
  gbx::ThreadRole loop_role_;
  bool started_ GBX_GUARDED_BY(loop_role_) = false;
  std::ofstream wal_out_ GBX_GUARDED_BY(loop_role_);
  store::RecordLogWriter writer_ GBX_GUARDED_BY(loop_role_);
  std::ifstream wal_in_ GBX_GUARDED_BY(loop_role_);  ///< for catch-up
  /// WAL bytes through each seq (wal_ends_[0] = 0): where catch-up reads
  /// a frame. 8 bytes per logged batch.
  std::vector<std::uint64_t> wal_ends_ GBX_GUARDED_BY(loop_role_){0};
  net::FrameLoop* loop_ GBX_GUARDED_BY(loop_role_) = nullptr;  ///< attached
  /// The link to the replica, owned by *loop_; ready_ once the hello is
  /// answered; sent_ its last frame (or the last the replica had before).
  net::FrameSession* link_ GBX_GUARDED_BY(loop_role_) = nullptr;
  bool ready_ GBX_GUARDED_BY(loop_role_) = false;
  std::uint64_t sent_ GBX_GUARDED_BY(loop_role_) = 0;
  int backoff_ms_ GBX_GUARDED_BY(loop_role_) = kReconnectBackoffMs;
  Clock::time_point redial_at_ GBX_GUARDED_BY(loop_role_){};
  Clock::time_point next_beat_ GBX_GUARDED_BY(loop_role_){};
  Clock::time_point quiet_until_ GBX_GUARDED_BY(loop_role_){};
};

}  // namespace repl

#endif  // __linux__
