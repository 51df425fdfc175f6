// repl/replica.hpp — the replica half of WAL shipping: check, log,
// ack, then apply; self-promote when the primary's lease lapses.
//
// A ReplicaServer owns a hier::InstanceArray<double> shaped like the
// primary's (same lanes, dimensions, cut schedule) behind a
// hier::ParallelStream and a hier::MemoryGovernor, and runs on the
// session core (net/frame_loop.hpp). The loop thread checks, logs and
// sequences each shipped batch and acks it, then SUBMITS it to the lane
// workers, so lanes apply in parallel while the loop stays on the
// socket. The replica's own verbs:
//
//   kShipHello   check topology; once promoted, fence the caller (a
//                deposed primary must never write); else reply
//                ShipHelloReply{next_seq}, where the shipper resumes
//   kShipBatch   admit via hier::ReplayCursor (gaps and overlaps are
//                rejected loudly), check in place, log as received,
//                count. A read pass ends with ONE WAL flush and ONE
//                cumulative kShipAck (persist-before-ack: an acked batch
//                survives a replica crash via cold replay), then applies.
//   kHeartbeat   refresh the primary's lease
//   kQueryLaneEpochs  [promoted][applied_seq][per-lane batch counts],
//                all u64 — a failover client's resume point
//
// Every other verb is a client verb, served once promoted by the same
// net::IngestHandlers an IngestServer runs, over the replica's stream
// and governor. The replica is its own net::ReplicationSink: on_batch
// logs each accepted client batch to its WAL and counts it on its lane;
// durable(seq) flushes the WAL, so a flush ack is a durability promise.
//
// Promotion: after lease_ms without shipper traffic (once a primary was
// seen), the replica applies every logged batch (as stop() does), then
// enables client verbs, severs shipper sessions, and fences every later
// hello. Lane counts are log-time counts over shipped and client batches
// alike, so a per-lane-exclusive writer resumes without doubling or
// dropping any.
//
// Cold start: an existing WAL at wal_path is replayed through the same
// ReplayCursor before the socket opens, then appended to.
#pragma once

#ifdef __linux__

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gbx/thread_annotations.hpp"
#include "hier/checkpoint.hpp"
#include "hier/instance_array.hpp"
#include "hier/parallel_stream.hpp"
#include "net/frame_loop.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "repl/protocol.hpp"
#include "store/wal.hpp"

namespace repl {

struct ReplicaOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  /// Primary lease: promote after this much shipper silence (only once
  /// a primary has been seen at all).
  int lease_ms = 200;
  /// The replica's own WAL (replayed on cold start, appended to).
  std::string wal_path;
  /// Topology — must match the primary's hello.
  std::size_t lanes = 1;
  std::uint64_t nrows = 0;
  std::uint64_t ncols = 0;
  hier::CutPolicy cuts = hier::CutPolicy::geometric(3, 2048, 8);
  bool auto_promote = true;
};

class ReplicaServer final : private net::FrameHandler,
                            private net::ReplicationSink {
 public:
  explicit ReplicaServer(ReplicaOptions opt)
      : opt_(std::move(opt)),
        array_(opt_.lanes, static_cast<gbx::Index>(opt_.nrows),
               static_cast<gbx::Index>(opt_.ncols), opt_.cuts),
        stream_(array_),
        governor_(stream_),
        clients_(stream_, governor_, net::IngestOptions{.replication = this},
                 stats_),
        lane_batches_(opt_.lanes, 0),
        loop_(*this, stats_, net::IngestOptions().max_outbound_bytes) {
    GBX_CHECK(!opt_.wal_path.empty(), "replica: wal_path required");
    // The loop thread does not exist yet; the constructing thread holds
    // the role for the cold replay.
    gbx::ScopedThreadRole role(loop_role_);
    cold_replay();
    wal_out_.open(opt_.wal_path,
                  std::ios::binary | std::ios::out | std::ios::app);
    GBX_CHECK(wal_out_.good(),
              "replica: cannot open WAL " + opt_.wal_path);
    writer_ = std::make_unique<store::RecordLogWriter>(wal_out_);
  }

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  ~ReplicaServer() override {
    if (running()) stop();
  }

  void start() {
    GBX_CHECK(!running(), "ReplicaServer already started");
    stream_.start();
    loop_.start(opt_.port, "hh-replica");
  }

  void stop() {
    GBX_CHECK(running(), "ReplicaServer not started");
    loop_.stop();
    gbx::ScopedThreadRole role(loop_role_);  // the loop thread is gone
    // Submit and drain: the post-stop array()/lane_batches() reads see
    // exactly the acked state. A failed apply is silent divergence —
    // refuse to pretend the replica is intact.
    if (stream_.running()) {
      apply_taken();
      const auto report = stream_.stop();
      std::uint64_t failed = 0;
      for (const auto& lc : report.lane) failed += lc.failed_batches;
      GBX_CHECK(failed == 0, "replica: shipped batch failed to apply");
    }
    wal_out_.flush();
  }

  std::uint16_t port() const { return loop_.port(); }
  bool running() const { return loop_.running(); }
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  std::uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }
  const net::ServerStats& stats() const { return stats_; }

  /// In-process state reads — only meaningful after stop() (the loop
  /// thread owns these while running).
  hier::InstanceArray<double>& array() {
    GBX_CHECK(!running(), "replica array() while running");
    return array_;
  }
  std::vector<std::uint64_t> lane_batches() const {
    GBX_CHECK(!running(), "replica lane_batches() while running");
    return lane_batches_;
  }

 private:
  struct Session : net::IngestHandlers::Session {
    using net::IngestHandlers::Session::Session;
    /// Hello generation this session shipped under (0 = not a shipper).
    std::uint64_t shipper = 0;
    std::uint64_t acked = 0;  ///< the last seq acked on this session
  };

  // --- cold start ----------------------------------------------------------
  void cold_replay() GBX_REQUIRES(loop_role_) {
    std::error_code ec;
    if (!std::filesystem::exists(opt_.wal_path, ec)) return;
    std::ifstream in(opt_.wal_path, std::ios::binary | std::ios::in);
    if (!in.good()) return;
    store::RecordLogReader reader(in);
    hier::ReplayCursor cursor(0, "replica cold start");
    while (auto rec = reader.next()) {
      GBX_CHECK(cursor.admit(rec->epoch),
                "replica cold start: record below base");
      take(rec->epoch, rec->payload, /*log=*/false);
      apply_taken();
      cursor.mark_applied(rec->epoch);
    }
  }

  // --- net::FrameHandler (loop-thread entry points) -------------------------
  std::unique_ptr<net::FrameSession> open(net::Fd fd) override {
    return clients_.open_as<Session>(std::move(fd));
  }

  void on_frame(net::FrameSession& fs, store::LogRecord& rec) override {
    gbx::ScopedThreadRole role(loop_role_);
    auto& s = static_cast<Session&>(fs);
    const net::MsgType type = net::tag_type(rec.epoch);
    switch (type) {
      case net::MsgType::kShipHello:
        handle_hello(s, rec);
        return;
      case net::MsgType::kShipBatch:
        handle_ship_batch(s, net::tag_arg(rec.epoch), rec);
        return;
      case net::MsgType::kHeartbeat:
        if (is_shipper(s)) touch_lease();
        return;
      case net::MsgType::kQueryLaneEpochs: {
        // Failover clients resume from these counts and never re-send
        // below them — flush first so the reported boundary survives a
        // replica crash-restart.
        flush_wal();
        std::vector<std::uint64_t> out{
            promoted_.load(std::memory_order_relaxed) ? 1u : 0u,
            applied_seq_.load(std::memory_order_relaxed)};
        out.insert(out.end(), lane_batches_.begin(), lane_batches_.end());
        s.reply_ok(type, out.data(), out.size() * sizeof(out[0]));
        return;
      }
      default:
        if (!promoted_.load(std::memory_order_relaxed))
          throw gbx::Error("replica not promoted");
        clients_.on_frame(s, rec);
    }
  }

  /// End of a read pass: everything logged above is persisted by ONE
  /// flush and covered by ONE cumulative ack, then applied — the
  /// primary's flush waits for the ack, not the apply. The
  /// "repl.replica.ack" failpoint delays the ack (kDelay) or withholds it
  /// (kStall: the flush barrier holds until a later pass re-covers it).
  void on_read_pass(net::FrameSession& fs) override {
    gbx::ScopedThreadRole role(loop_role_);
    auto& s = static_cast<Session&>(fs);
    const std::uint64_t seq = applied_seq_.load(std::memory_order_relaxed);
    if (s.shipper != 0 && seq > s.acked) {
      const auto fp = gbx::failpoints().armed()
                          ? gbx::failpoints().hit("repl.replica.ack")
                          : std::nullopt;
      if (fp && fp->action == gbx::FailAction::kDelay)
        std::this_thread::sleep_for(std::chrono::milliseconds(fp->delay_ms));
      if (!fp || fp->action != gbx::FailAction::kStall) {
        flush_wal();
        s.send(net::MsgType::kShipAck, seq, "", 0);
        s.acked = seq;
      }
    }
    apply_taken();
  }

  void on_tick() override {
    gbx::ScopedThreadRole role(loop_role_);
    apply_taken();  // a shipper that died mid-pass left its batches
    check_lease();
  }

  void on_pass(net::FrameSession& fs) override {
    gbx::ScopedThreadRole role(loop_role_);
    auto& s = static_cast<Session&>(fs);
    // Sever a superseded shipper, and every shipper once promoted: if the
    // primary is in fact alive, its reconnect hello meets the fence.
    if (s.shipper != 0 &&
        (promoted_.load(std::memory_order_relaxed) || !is_shipper(s)))
      s.close();
    clients_.on_pass(fs);
  }

  bool pending(const net::FrameSession& s) const override {
    return clients_.pending(s);
  }

  // --- shipping verbs --------------------------------------------------------
  bool is_shipper(const Session& s) const GBX_REQUIRES(loop_role_) {
    return s.shipper != 0 && s.shipper == shipper_;
  }

  void handle_hello(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    ShipHello hello;
    if (!net::payload_as(rec.payload, hello))
      throw gbx::Error("replica: malformed hello");
    // The fence: a deposed primary (or its reconnecting shipper) is
    // turned away for good.
    if (promoted_.load(std::memory_order_relaxed))
      throw gbx::Error("replica promoted: primary is fenced");
    GBX_CHECK(hello.lanes == opt_.lanes && hello.nrows == opt_.nrows &&
                  hello.ncols == opt_.ncols,
              "replica: primary topology mismatch");
    // One shipper at a time: a re-handshake supersedes the old session
    // (on_pass severs it; its frames are rejected meanwhile).
    s.shipper = ++shipper_;
    seen_primary_ = true;
    touch_lease();
    cursor_ = std::make_unique<hier::ReplayCursor>(
        applied_seq_.load(std::memory_order_relaxed), "replica");
    // next_seq tells the shipper what it may treat as acked — make the
    // boundary durable before promising it.
    flush_wal();
    ShipHelloReply r;
    r.next_seq = applied_seq_.load(std::memory_order_relaxed) + 1;
    s.reply_ok(net::MsgType::kShipHello, &r, sizeof r);
  }

  void handle_ship_batch(Session& s, std::uint64_t seq,
                         store::LogRecord& rec) GBX_REQUIRES(loop_role_) {
    GBX_CHECK(is_shipper(s), "replica: ship batch from no current shipper");
    GBX_CHECK(!promoted_.load(std::memory_order_relaxed),
              "replica promoted: primary is fenced");
    touch_lease();
    // ReplayCursor admission: <= base is a benign duplicate (resend
    // across a reconnect), a gap or regression throws — gapped and
    // overlapping suffixes are rejected loudly, exactly as recover()
    // rejects them on a crash log.
    if (!cursor_->admit(seq)) return;
    take(seq, rec.payload, /*log=*/true);
    cursor_->mark_applied(seq);
  }

  /// Check a batch record in place (a lane word below lanes, then whole
  /// entries inside the matrix), then log it unless it comes from the
  /// WAL, count it and keep it for apply_taken().
  void take(std::uint64_t seq, std::vector<std::byte>& payload, bool log)
      GBX_REQUIRES(loop_role_) {
    using Entry = gbx::Entry<double>;
    std::uint64_t lane = 0;
    GBX_CHECK(payload.size() >= sizeof lane &&
                  (payload.size() - sizeof lane) % sizeof(Entry) == 0,
              "replica: shipped batch is not a lane word and whole entries");
    std::memcpy(&lane, payload.data(), sizeof lane);
    GBX_CHECK(lane < opt_.lanes, "replica: shipped lane out of range");
    for (std::size_t at = sizeof lane; at < payload.size();
         at += sizeof(Entry)) {
      Entry e;
      std::memcpy(&e, payload.data() + at, sizeof e);
      GBX_CHECK(e.row < opt_.nrows && e.col < opt_.ncols,
                "replica: shipped coordinate out of range");
    }
    if (log) append_wal(seq, payload.data(), payload.size());
    count_batch(seq, lane);
    taken_.push_back(std::move(payload));
  }

  /// Decode and apply the taken batches in log order: submitted to their
  /// lanes (this thread is the only submitter), or folded in directly
  /// during the cold replay, before the lanes run.
  void apply_taken() GBX_REQUIRES(loop_role_) {
    for (const auto& payload : taken_) {
      std::uint64_t lane = 0;
      gbx::Tuples<double> batch;
      decode_batch_payload(payload, lane, batch);  // checked by take()
      if (stream_.running())
        stream_.submit(lane, std::move(batch));
      else
        array_.instance(lane).update(batch);
    }
    taken_.clear();
  }

  // --- net::ReplicationSink: post-promotion client batches ----------------
  /// A lane accepted a client batch: log it under the next sequence
  /// number (flushed at the kFlush barrier — the only point an insert's
  /// durability is promised) and count it.
  std::uint64_t on_batch(std::size_t lane,
                         std::span<const std::byte> entries) override {
    gbx::ScopedThreadRole role(loop_role_);  // called on the loop thread
    const std::uint64_t seq = applied_seq_.load(std::memory_order_relaxed) + 1;
    const std::string payload = encode_batch_payload(lane, entries);
    append_wal(seq, payload.data(), payload.size());
    count_batch(seq, lane);
    return seq;
  }

  bool durable(std::uint64_t) override {
    gbx::ScopedThreadRole role(loop_role_);
    flush_wal();
    return true;
  }

  // --- WAL -----------------------------------------------------------------
  void append_wal(std::uint64_t seq, const void* data, std::size_t size)
      GBX_REQUIRES(loop_role_) {
    writer_->append(seq, data, size);
    GBX_CHECK(wal_out_.good(), "replica: WAL write failed");
  }

  void count_batch(std::uint64_t seq, std::size_t lane)
      GBX_REQUIRES(loop_role_) {
    ++lane_batches_[lane];
    applied_seq_.store(seq, std::memory_order_release);
  }

  /// One flush covers every append since the last — called before any
  /// ack, durability promise, or reported resume boundary leaves the
  /// process.
  void flush_wal() GBX_REQUIRES(loop_role_) {
    wal_out_.flush();
    GBX_CHECK(wal_out_.good(), "replica: WAL flush failed");
  }

  // --- lease / promotion ---------------------------------------------------
  void touch_lease() GBX_REQUIRES(loop_role_) {
    last_activity_ = std::chrono::steady_clock::now();
  }

  void check_lease() GBX_REQUIRES(loop_role_) {
    if (!opt_.auto_promote || !seen_primary_ ||
        promoted_.load(std::memory_order_relaxed))
      return;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_activity_ < std::chrono::milliseconds(opt_.lease_ms))
      return;
    // Apply every shipped batch before client verbs see the lanes: this
    // thread is the only submitter, so drain() terminates.
    apply_taken();
    stream_.drain();
    promoted_.store(true, std::memory_order_release);
  }

  ReplicaOptions opt_;

  /// Written by stream_'s lane workers while running (the loop thread
  /// only touches it through the stream, or directly during the cold
  /// replay and after stop() — both single-threaded by construction).
  /// The stream starts before the loop thread and stops after it, so
  /// the loop's stream_.running() reads need no synchronization.
  hier::InstanceArray<double> array_;
  hier::ParallelStream<double> stream_;
  net::IngestHandlers::Governor governor_;
  net::ServerStats stats_;
  /// The client verbs, enabled at promotion.
  net::IngestHandlers clients_;

  /// Single-thread discipline: every hook is a loop-thread entry point
  /// and claims the role (the constructor holds it for the cold replay).
  gbx::ThreadRole loop_role_;
  std::vector<std::uint64_t> lane_batches_ GBX_GUARDED_BY(loop_role_);
  std::ofstream wal_out_ GBX_GUARDED_BY(loop_role_);
  std::unique_ptr<store::RecordLogWriter> writer_ GBX_GUARDED_BY(loop_role_);
  std::unique_ptr<hier::ReplayCursor> cursor_ GBX_GUARDED_BY(loop_role_);
  /// Logged and counted, not yet applied.
  std::vector<std::vector<std::byte>> taken_ GBX_GUARDED_BY(loop_role_);

  std::atomic<std::uint64_t> applied_seq_{0};
  std::atomic<bool> promoted_{false};
  bool seen_primary_ GBX_GUARDED_BY(loop_role_) = false;
  std::uint64_t shipper_ GBX_GUARDED_BY(loop_role_) = 0;  ///< hello generation
  std::chrono::steady_clock::time_point last_activity_
      GBX_GUARDED_BY(loop_role_){};
  net::FrameLoop loop_;  ///< last: its thread runs the hooks above
};

}  // namespace repl

#endif  // __linux__
