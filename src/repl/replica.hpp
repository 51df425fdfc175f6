// repl/replica.hpp — the replica half of WAL shipping: validate,
// persist, apply, ack; self-promote when the primary's lease lapses.
//
// A ReplicaServer owns a full hier::InstanceArray<double> shaped like
// the primary's (same lanes, dimensions, cut schedule) behind a
// hier::ParallelStream: the event-loop thread validates, persists, and
// sequences every shipped batch, then SUBMITS it to the stream's lane
// workers instead of applying inline — the loop thread stays on the
// socket while lanes apply in parallel, which is what keeps a
// replicated primary within a few percent of unreplicated ingest:
//
//   kShipHello   validate topology; if promoted, fence the caller with
//                kReplyError (a deposed primary must never write);
//                else reply ShipHelloReply{next_seq} so the shipper
//                resumes exactly where the replica's durable state ends
//   kShipBatch   admit via hier::ReplayCursor (gapped / overlapping /
//                torn suffixes are rejected LOUDLY — the connection is
//                errored and closed, never partially applied), append
//                the record to the replica's own WAL, submit to the
//                lane. Acks are batched: after each socket read pass
//                drains, the WAL is flushed ONCE and ONE cumulative
//                kShipAck covers everything the pass admitted.
//                Persist-before-ack is the durability edge
//                all_durable() leans on — an acked batch is in the
//                flushed WAL, so it survives a replica crash-restart
//                via cold replay even if a lane had not applied it yet.
//   kHeartbeat   refresh the primary's lease
//
// Queries and flush barriers drain the stream first (the loop thread is
// the only submitter, so drain() terminates), which preserves the
// applied-barrier semantics the failover exactness probes rely on; the
// per-lane batch counts served by kQueryLaneEpochs are submit-time
// counts, which are correct resume indices because every submitted
// batch is applied before any drain-gated read can observe the lane.
//
// Promotion: when no shipper traffic (hello/batch/heartbeat) arrives
// for lease_ms after a primary was first seen, the replica promotes
// itself: it starts accepting the client-facing subset of the ingest
// protocol (kInsert / kFlush / queries) and fences every later hello.
// Failover clients find their resume point via kQueryLaneEpochs, whose
// reply is [promoted u64][applied_seq u64][per-lane applied batch
// counts u64 × lanes] — counts include both shipped and post-promotion
// batches, so a per-lane-exclusive writer resumes without double-
// applying or dropping anything.
//
// Cold start: an existing WAL at wal_path is replayed through the same
// ReplayCursor before the socket opens (crash-restart of the replica
// itself), then appended to.
#pragma once

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gbx/reduce.hpp"
#include "gbx/thread_annotations.hpp"
#include "hier/checkpoint.hpp"
#include "hier/instance_array.hpp"
#include "hier/parallel_stream.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "repl/protocol.hpp"
#include "store/wal.hpp"

namespace repl {

struct ReplicaOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  int backlog = 16;
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
  std::uint64_t max_frame_bytes = 64u << 20;
};

class ReplicaServer {
 public:
  explicit ReplicaServer(ReplicaOptions opt)
      : opt_(std::move(opt)),
        array_(opt_.lanes, static_cast<gbx::Index>(opt_.nrows),
               static_cast<gbx::Index>(opt_.ncols), opt_.cuts),
        stream_(array_),
        lane_batches_(opt_.lanes, 0) {
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

  ~ReplicaServer() {
    if (running_) stop();
  }

  void start() {
    GBX_CHECK(!running_, "ReplicaServer already started");
    listen_ = net::Fd(
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
    GBX_CHECK(listen_.valid(), "replica: socket() failed");
    const int one = 1;
    ::setsockopt(listen_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.port);
    GBX_CHECK(::bind(listen_.get(), reinterpret_cast<::sockaddr*>(&addr),
                     sizeof addr) == 0,
              "replica: bind() failed");
    GBX_CHECK(::listen(listen_.get(), opt_.backlog) == 0,
              "replica: listen() failed");
    ::socklen_t len = sizeof addr;
    GBX_CHECK(::getsockname(listen_.get(),
                            reinterpret_cast<::sockaddr*>(&addr), &len) == 0,
              "replica: getsockname() failed");
    port_ = ntohs(addr.sin_port);

    loop_ = std::make_unique<net::EventLoop>();
    wake_ = std::make_unique<net::WakeFd>();
    loop_->add(listen_.get(), EPOLLIN);
    loop_->add(wake_->get(), EPOLLIN);
    stream_.start();
    streaming_ = true;
    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    thread_ = std::thread([this] { run(); });
  }

  void stop() {
    GBX_CHECK(running_, "ReplicaServer not started");
    stop_.store(true, std::memory_order_relaxed);
    wake_->wake();
    thread_.join();
    {
      gbx::ScopedThreadRole role(loop_role_);
      sessions_.clear();
    }
    loop_.reset();
    wake_.reset();
    listen_.reset();
    // Drain the lane workers: every submitted batch is applied before
    // stop() returns, so the post-stop array()/lane_batches() reads see
    // exactly the acked state. A failed apply is silent divergence —
    // refuse to pretend the replica is intact.
    if (streaming_) {
      const auto report = stream_.stop();
      streaming_ = false;
      std::uint64_t failed = 0;
      for (const auto& lc : report.lane) failed += lc.failed_batches;
      GBX_CHECK(failed == 0, "replica: shipped batch failed to apply");
    }
    wal_out_.flush();
    running_ = false;
  }

  std::uint16_t port() const { return port_; }
  bool running() const { return running_; }
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  std::uint64_t applied_seq() const {
    return applied_seq_.load(std::memory_order_acquire);
  }

  /// In-process state reads — only meaningful after stop() (the loop
  /// thread owns these while running).
  hier::InstanceArray<double>& array() {
    GBX_CHECK(!running_, "replica array() while running");
    return array_;
  }
  std::vector<std::uint64_t> lane_batches() const {
    GBX_CHECK(!running_, "replica lane_batches() while running");
    return lane_batches_;
  }

 private:
  struct Session {
    explicit Session(net::Fd f, std::uint64_t cap, std::size_t home)
        : fd(std::move(f)), dec(cap), home_lane(home) {}
    net::Fd fd;
    store::RecordFrameDecoder dec;
    std::size_t home_lane;
    bool is_shipper = false;
    bool dead = false;
    /// Batched acks: ship frames admitted this read pass; one cumulative
    /// kShipAck (preceded by a WAL flush) is sent when the pass drains.
    bool ack_pending = false;
    /// A kStall failpoint swallowed this pass's ack (the primary's
    /// flush barrier must hold until a later pass re-covers it).
    bool suppress_ack = false;
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
      apply_payload(rec->epoch, rec->payload, /*log=*/false);
      cursor.mark_applied(rec->epoch);
    }
  }

  // --- event loop ----------------------------------------------------------
  void run() {
    gbx::ScopedThreadRole role(loop_role_);
    while (!stop_.load(std::memory_order_relaxed)) {
      for (const auto& ev : loop_->wait(10)) {
        if (stop_.load(std::memory_order_relaxed)) break;
        if (ev.data.fd == wake_->get()) {
          wake_->clear();
        } else if (ev.data.fd == listen_.get()) {
          accept_all();
        } else {
          auto it = sessions_.find(ev.data.fd);
          if (it != sessions_.end()) read_session(*it->second);
        }
      }
      check_lease();
      reap();
    }
  }

  void accept_all() GBX_REQUIRES(loop_role_) {
    for (;;) {
      // Blocking accepted sockets: recv uses MSG_DONTWAIT, sends are
      // small and synchronous (acks, replies) — a replica pair has few
      // well-behaved peers, unlike the hardened ingest front end.
      net::Fd fd(::accept4(listen_.get(), nullptr, nullptr, SOCK_CLOEXEC));
      if (!fd.valid()) return;
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const int raw = fd.get();
      auto s = std::make_unique<Session>(std::move(fd), opt_.max_frame_bytes,
                                         next_home_lane_++ % opt_.lanes);
      loop_->add(raw, EPOLLIN);
      sessions_.emplace(raw, std::move(s));
    }
  }

  void read_session(Session& s) GBX_REQUIRES(loop_role_) {
    pump_session(s);
    // End of the read pass: everything admitted above is persisted by
    // ONE flush and covered by ONE cumulative ack — the write+fsync
    // amortization that keeps replication off the ingest critical path.
    if (s.ack_pending) {
      s.ack_pending = false;
      if (!s.suppress_ack && !s.dead) {
        flush_wal();
        std::string out;
        net::append_frame(out, net::MsgType::kShipAck,
                          applied_seq_.load(std::memory_order_relaxed));
        send_all(s, out);
      }
      s.suppress_ack = false;
    }
  }

  void pump_session(Session& s) GBX_REQUIRES(loop_role_) {
    // Bounded pass: a shipper that streams faster than the lanes apply
    // would otherwise keep this loop fed forever and the pass-end
    // ack/flush would never run — acks must flow DURING a sustained
    // stream, or the primary's flush barrier stalls against the ship
    // window. Level-triggered epoll re-reports the fd immediately, so
    // leftover bytes are picked up by the next pass (after the ack).
    char buf[1u << 16];
    for (int burst = 0; burst < 64; ++burst) {
      const auto n = ::recv(s.fd.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        s.dec.feed(buf, static_cast<std::size_t>(n));
        if (!process_frames(s)) return;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      s.dead = true;  // EOF or error
      return;
    }
  }

  bool process_frames(Session& s) GBX_REQUIRES(loop_role_) {
    store::LogRecord rec;
    for (;;) {
      switch (s.dec.next(rec)) {
        case store::RecordFrameDecoder::Status::kNeedMore:
          return true;
        case store::RecordFrameDecoder::Status::kCorrupt:
          // Loud: a corrupted shipped stream must never decay into a
          // partial apply. The shipper reconnects and resumes cleanly.
          reply_error(s, net::MsgType::kShipBatch,
                      "replica: " + s.dec.error());
          s.dead = true;
          return false;
        case store::RecordFrameDecoder::Status::kFrame:
          try {
            if (!handle_frame(s, rec)) return false;
          } catch (const gbx::Error& e) {
            reply_error(s, net::tag_type(rec.epoch), e.what());
            s.dead = true;
            return false;
          }
          break;
      }
    }
  }

  bool handle_frame(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    const net::MsgType type = net::tag_type(rec.epoch);
    const std::uint64_t arg = net::tag_arg(rec.epoch);
    switch (type) {
      case net::MsgType::kShipHello:
        return handle_hello(s, rec);
      case net::MsgType::kShipBatch:
        return handle_ship_batch(s, arg, rec);
      case net::MsgType::kHeartbeat:
        if (s.is_shipper) touch_lease();
        return true;
      case net::MsgType::kQueryLaneEpochs: {
        // Failover clients resume from these counts and never re-send
        // below them — flush first so the reported boundary survives a
        // replica crash-restart.
        flush_wal();
        std::vector<std::uint64_t> out;
        out.reserve(2 + lane_batches_.size());
        out.push_back(promoted_.load(std::memory_order_relaxed) ? 1 : 0);
        out.push_back(applied_seq_.load(std::memory_order_relaxed));
        out.insert(out.end(), lane_batches_.begin(), lane_batches_.end());
        reply_ok(s, type, out.data(), out.size() * sizeof(out[0]));
        return true;
      }
      case net::MsgType::kQuerySum: {
        // Per-lane reduce folded in lane order: deterministic, and
        // bit-identical to the same fold over any equally-ordered
        // per-lane state (the failover exactness probe). nvals counts
        // the union over lanes, as IngestServer does: a coordinate fed
        // to several lanes is one coordinate of Σ Ai.
        const auto img = freeze_lanes();
        net::SumReply reply;
        reply.sum = img.reduce();
        reply.epoch = applied_seq_.load(std::memory_order_relaxed);
        reply.nvals = img.nvals();
        reply_ok(s, type, &reply, sizeof reply);
        return true;
      }
      case net::MsgType::kInsert:
        return handle_insert(s, arg, rec);
      case net::MsgType::kFlush:
        if (!promoted_.load(std::memory_order_relaxed)) {
          reply_error(s, type, "replica not promoted");
          s.dead = true;
          return false;
        }
        // The barrier: applied (drain the lane workers) AND durable
        // (flush the WAL) before the ack goes out.
        if (streaming_) stream_.drain();
        flush_wal();
        reply_ok(s, type, "", 0);
        return true;
      case net::MsgType::kBye:
        reply_ok(s, type, "", 0);
        s.dead = true;
        return false;
      default:
        reply_error(s, type, "replica: unsupported message type");
        s.dead = true;
        return false;
    }
  }

  bool handle_hello(Session& s, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    ShipHello hello;
    if (!net::payload_as(rec.payload, hello)) {
      reply_error(s, net::MsgType::kShipHello, "replica: malformed hello");
      s.dead = true;
      return false;
    }
    if (promoted_.load(std::memory_order_relaxed)) {
      // The fence: a deposed primary (or its reconnecting shipper) is
      // turned away for good.
      reply_error(s, net::MsgType::kShipHello,
                  "replica promoted: primary is fenced");
      s.dead = true;
      return false;
    }
    GBX_CHECK(hello.lanes == opt_.lanes && hello.nrows == opt_.nrows &&
                  hello.ncols == opt_.ncols,
              "replica: primary topology mismatch");
    // One shipper at a time: a re-handshake supersedes the old session.
    for (auto& [fd, sp] : sessions_)
      if (sp.get() != &s && sp->is_shipper) sp->dead = true;
    s.is_shipper = true;
    seen_primary_ = true;
    touch_lease();
    cursor_ = std::make_unique<hier::ReplayCursor>(
        applied_seq_.load(std::memory_order_relaxed), "replica");
    // next_seq tells the shipper what it may treat as acked — make the
    // boundary durable before promising it.
    flush_wal();
    ShipHelloReply r;
    r.next_seq = applied_seq_.load(std::memory_order_relaxed) + 1;
    reply_ok(s, net::MsgType::kShipHello, &r, sizeof r);
    return true;
  }

  bool handle_ship_batch(Session& s, std::uint64_t seq,
                         store::LogRecord& rec) GBX_REQUIRES(loop_role_) {
    GBX_CHECK(s.is_shipper, "replica: ship batch before hello");
    GBX_CHECK(!promoted_.load(std::memory_order_relaxed),
              "replica promoted: primary is fenced");
    touch_lease();
    // Any ship frame — including a benign duplicate — earns the pass's
    // cumulative ack (idempotent: it only ever re-states applied_seq_).
    s.ack_pending = true;
    // ReplayCursor admission: <= base is a benign duplicate (resend
    // across a reconnect), a gap or regression throws — gapped and
    // overlapping suffixes are rejected loudly, exactly as recover()
    // rejects them on a crash log.
    if (!cursor_->admit(seq)) return true;
    apply_payload(seq, rec.payload, /*log=*/true);
    cursor_->mark_applied(seq);

    if (gbx::failpoints().armed()) {
      if (auto fp = gbx::failpoints().hit("repl.replica.ack")) {
        if (fp->action == gbx::FailAction::kDelay)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fp->delay_ms));
        if (fp->action == gbx::FailAction::kStall)
          s.suppress_ack = true;  // ack withheld: flush barrier holds
      }
    }
    return !s.dead;
  }

  bool handle_insert(Session& s, std::uint64_t arg, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    if (!promoted_.load(std::memory_order_relaxed)) {
      reply_error(s, net::MsgType::kInsert, "replica not promoted");
      s.dead = true;
      return false;
    }
    std::size_t lane = s.home_lane;
    if (arg != net::kAnyLane) {
      GBX_CHECK(arg < opt_.lanes, "replica: insert lane out of range");
      lane = static_cast<std::size_t>(arg);
    }
    gbx::Tuples<double> batch;
    std::vector<gbx::Entry<double>> entries;
    GBX_CHECK(net::payload_as(rec.payload, entries),
              "replica: insert payload is not a whole number of entries");
    for (const auto& e : entries)
      GBX_CHECK(e.row < opt_.nrows && e.col < opt_.ncols,
                "replica: insert coordinate out of range");
    batch.entries() = std::move(entries);
    const std::uint64_t seq =
        applied_seq_.load(std::memory_order_relaxed) + 1;
    const std::string payload = encode_batch_payload(lane, batch);
    writer_->append(seq, payload.data(), payload.size());
    GBX_CHECK(wal_out_.good(), "replica: WAL write failed");
    wal_dirty_ = true;  // flushed at the kFlush barrier — the only
                        // point an insert's durability is promised
    if (streaming_)
      stream_.submit(lane, std::move(batch));
    else
      array_.instance(lane).update(batch);
    ++lane_batches_[lane];
    applied_seq_.store(seq, std::memory_order_release);
    return true;
  }

  /// Decode, optionally persist, and hand one sequenced batch record to
  /// its lane. Persist (WAL append) happens BEFORE the submit, and the
  /// caller's pass-end flush happens BEFORE its ack — an acked batch is
  /// always recoverable from the WAL even if a lane worker had not
  /// applied it when the replica died. Cold replay (log=false) applies
  /// directly: the stream is not running yet.
  void apply_payload(std::uint64_t seq, const std::vector<std::byte>& payload,
                     bool log) GBX_REQUIRES(loop_role_) {
    std::uint64_t lane = 0;
    gbx::Tuples<double> batch;
    GBX_CHECK(decode_batch_payload(payload, lane, batch),
              "replica: malformed shipped batch payload");
    GBX_CHECK(lane < opt_.lanes, "replica: shipped lane out of range");
    for (const auto& e : batch.entries())
      GBX_CHECK(e.row < opt_.nrows && e.col < opt_.ncols,
                "replica: shipped coordinate out of range");
    if (log) {
      writer_->append(seq, payload.data(), payload.size());
      GBX_CHECK(wal_out_.good(), "replica: WAL write failed");
      wal_dirty_ = true;
    }
    if (streaming_)
      stream_.submit(static_cast<std::size_t>(lane), std::move(batch));
    else
      array_.instance(static_cast<std::size_t>(lane)).update(batch);
    ++lane_batches_[lane];
    applied_seq_.store(seq, std::memory_order_release);
  }

  /// One flush covers every append since the last — called before any
  /// ack, durability promise, or reported resume boundary leaves the
  /// process.
  void flush_wal() GBX_REQUIRES(loop_role_) {
    if (!wal_dirty_) return;
    wal_out_.flush();
    GBX_CHECK(wal_out_.good(), "replica: WAL flush failed");
    wal_dirty_ = false;
  }

  /// All lanes frozen as one image, parts in lane order.
  hier::SnapshotSet<double> freeze_lanes() GBX_REQUIRES(loop_role_) {
    // Quiesce the lane workers: this thread is the only submitter, so
    // drain() terminates, and its lane handshake orders every applied
    // batch before the freezes below.
    if (streaming_) stream_.drain();
    std::vector<hier::HierSnapshot<double>> parts;
    parts.reserve(opt_.lanes);
    for (std::size_t p = 0; p < opt_.lanes; ++p)
      parts.push_back(array_.instance(p).freeze());
    return hier::SnapshotSet<double>(
        std::move(parts), std::vector<hier::SnapshotWatermark>(opt_.lanes), 0);
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
    promoted_.store(true, std::memory_order_release);
    // Sever the (dead or partitioned) shipper: if the primary is in
    // fact alive, its reconnect hello meets the fence above.
    for (auto& [fd, sp] : sessions_)
      if (sp->is_shipper) sp->dead = true;
  }

  // --- plumbing ------------------------------------------------------------
  void reply_ok(Session& s, net::MsgType request, const void* payload,
                std::size_t size) GBX_REQUIRES(loop_role_) {
    std::string out;
    net::append_frame(out, net::MsgType::kReplyOk,
                      static_cast<std::uint64_t>(request), payload, size);
    send_all(s, out);
  }

  void reply_error(Session& s, net::MsgType request, const std::string& what)
      GBX_REQUIRES(loop_role_) {
    std::string out;
    net::append_frame(out, net::MsgType::kReplyError,
                      static_cast<std::uint64_t>(request), what.data(),
                      what.size());
    send_all(s, out);
  }

  void send_all(Session& s, const std::string& bytes)
      GBX_REQUIRES(loop_role_) {
    const char* p = bytes.data();
    std::size_t n = bytes.size();
    while (n > 0 && !s.dead) {
      const auto w = ::send(s.fd.get(), p, n, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        s.dead = true;
        return;
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }

  void reap() GBX_REQUIRES(loop_role_) {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->dead) {
        loop_->del(it->first);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }

  ReplicaOptions opt_;

  /// Written by stream_'s lane workers while running (the loop thread
  /// only touches it through submit/drain, or directly during the cold
  /// replay and after stop() — both single-threaded by construction).
  hier::InstanceArray<double> array_;
  hier::ParallelStream<double> stream_;
  std::vector<std::uint64_t> lane_batches_ GBX_GUARDED_BY(loop_role_);
  std::ofstream wal_out_ GBX_GUARDED_BY(loop_role_);
  bool wal_dirty_ GBX_GUARDED_BY(loop_role_) = false;
  std::unique_ptr<store::RecordLogWriter> writer_ GBX_GUARDED_BY(loop_role_);
  std::unique_ptr<hier::ReplayCursor> cursor_ GBX_GUARDED_BY(loop_role_);

  std::atomic<std::uint64_t> applied_seq_{0};
  std::atomic<bool> promoted_{false};
  bool seen_primary_ GBX_GUARDED_BY(loop_role_) = false;
  std::chrono::steady_clock::time_point last_activity_
      GBX_GUARDED_BY(loop_role_){};

  net::Fd listen_;
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<net::WakeFd> wake_;
  std::unordered_map<int, std::unique_ptr<Session>> sessions_
      GBX_GUARDED_BY(loop_role_);
  std::size_t next_home_lane_ GBX_GUARDED_BY(loop_role_) = 0;

  gbx::ThreadRole loop_role_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  bool running_ = false;
  /// True between stream_.start() and stream_.stop(): toggled only
  /// while the loop thread does not exist (thread create/join orders
  /// the loop thread's reads), so a plain bool suffices.
  bool streaming_ = false;
  std::uint16_t port_ = 0;
};

}  // namespace repl

#endif  // __linux__
