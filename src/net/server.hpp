// net/server.hpp — epoll streaming ingest/query server (Linux only).
//
// Puts the streaming engine behind a socket: clients stream kInsert
// frames (net/protocol.hpp) into hier::ParallelStream lanes and issue
// query RPCs answered from hier::MemoryGovernor snapshot epochs —
// ingest never pauses for analysis, the paper's operating point.
// IngestHandlers is that client verb set; IngestServer runs it on the
// session core (net/frame_loop.hpp), and a promoted repl::ReplicaServer
// runs the very same handlers over its own stream and governor.
//
//   * Each session has a home lane assigned round-robin at accept; a
//     kInsert may pin another lane in the low 48 tag bits.
//   * Back-pressure maps lane queues onto socket reads: inserts go
//     through ParallelStream::try_submit, never the blocking submit().
//     When the target lane is full the batch is PARKED and the session
//     paused, so TCP flow control pushes back on that client while every
//     other session streams on. The park is retried each loop pass.
//   * kFlush is the session barrier: acknowledged once every batch the
//     session submitted before it is done on its lane, i.e. staged into
//     level 1 and so in the lane matrix's value, its cascade possibly
//     still running (and durable, when replicating). A client that
//     flushes then queries observes its own writes; later batches, from
//     any client, never delay it. Pipelined flushes are each
//     acknowledged, in order. IngestServer hooks the lanes' done event
//     to FrameLoop::wake(), so an ack does not wait for the loop's poll.
//   * Queries never block writers: they read a governed snapshot
//     (freeze waits per lane for at most the in-flight cascade plus one
//     stage) through the handle's pin. kQuerySummary / kQueryRefresh
//     run the incremental analytics engine on the loop thread (the
//     single-analyst model).
//   * A malformed request (checked_insert / checked_probes, the
//     validator every front end shares) throws; the core answers
//     kReplyError and closes, so it never reaches a lane.
//
// The stream/governor are the caller's — the server never starts or
// stops them.
#pragma once

#ifdef __linux__

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analytics/incremental.hpp"
#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/reduce.hpp"
#include "gbx/thread_annotations.hpp"
#include "hier/memory_governor.hpp"
#include "hier/parallel_stream.hpp"
#include "net/frame_loop.hpp"
#include "net/protocol.hpp"

namespace net {

/// Observer of every insert batch the server accepts, in acceptance
/// order — the primary half of WAL shipping (repl::PrimaryReplicator
/// implements it; a promoted repl::ReplicaServer implements it for its
/// own WAL; the interface lives here so net never depends on repl).
/// IngestServer attaches it to its loop (nullptr once the loop stopped),
/// where it may adopt sessions; the rest runs on the loop thread, tick()
/// once per pass:
///   * on_batch() fires immediately after a lane accepts the batch, in
///     the single loop thread's total order, with the insert's payload
///     bytes, and returns the batch's sequence number (1, 2, ...) in it:
///     the sink's log order IS the per-lane apply order, which makes a
///     replica's replay bit-exact. An insert is refused, before a lane
///     takes it, while can_log() is false.
///   * durable(seq) gates the flush barrier: kFlush is only acked once
///     the session's last batch before it is durably replicated, so an
///     acked batch can never be lost by a primary crash (acked ⊆
///     replicated). seq 0 (the session logged nothing) is durable.
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual void attach(FrameLoop*) {}
  virtual void tick() {}
  virtual bool can_log() { return true; }
  virtual std::uint64_t on_batch(std::size_t lane,
                                 std::span<const std::byte> entries) = 0;
  virtual bool durable(std::uint64_t seq) = 0;
};

/// IngestServer knobs (IngestServer::Options).
struct IngestOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  /// Reply-backlog cap: once a session's unsent outbound bytes exceed
  /// this, the server stops reading that connection until the backlog
  /// drains below half the cap (see out_throttles). Bounds the memory a
  /// client can pin by pipelining queries without reading replies.
  std::size_t max_outbound_bytes = 4u << 20;
  /// Optional replication sink (primary-side WAL shipping). When set,
  /// every accepted insert batch is handed to the sink in acceptance
  /// order and flush acks additionally wait for durable(). Must
  /// outlive the server.
  ReplicationSink* replication = nullptr;
};

/// The client verb set — kInsert, kFlush, kQuery*, kBye — over one
/// stream and governor, as FrameLoop handlers.
class IngestHandlers final : public FrameHandler {
 public:
  using Stream = hier::ParallelStream<double>;
  using Governor = hier::MemoryGovernor<Stream>;
  using Analytics = analytics::IncrementalEngine<Governor>;

  /// What the refresh/summary RPCs run: PageRank and triangle counting
  /// are off, as both are superlinear in the snapshot and would stall
  /// the event loop on big graphs.
  inline static const analytics::IncrementalOptions kAnalytics = [] {
    analytics::IncrementalOptions a;
    a.enable_pagerank = false;
    a.enable_triangles = false;
    return a;
  }();

  /// What a kFlush waits for: the session's last lane tickets and seq.
  struct FlushMark {
    std::vector<std::uint64_t> tickets;
    std::uint64_t sink_seq = 0;
  };

  /// Per-session ingest state; a front end that runs these handlers
  /// next to its own verbs derives its sessions from this.
  struct Session : FrameSession {
    using FrameSession::FrameSession;
    std::size_t home_lane = 0;
    std::size_t parked_lane = 0;
    gbx::Tuples<double> parked_batch;  ///< insert waiting for lane space
    std::vector<std::byte> parked_payload;  ///< its bytes, for the sink
    FlushMark last;                    ///< where the session's batches reach
    std::deque<FlushMark> pending_flushes;  ///< kFlush frames awaiting acks
  };

  IngestHandlers(Stream& stream, Governor& governor, const IngestOptions& opt,
                 ServerStats& stats)
      : stream_(&stream),
        governor_(&governor),
        sink_(opt.replication),
        stats_(&stats),
        analytics_(governor, kAnalytics),
        nrows_(stream.nrows()),
        ncols_(stream.ncols()) {}
  IngestHandlers(const IngestHandlers&) = delete;
  IngestHandlers& operator=(const IngestHandlers&) = delete;

  /// A session of type S (Session or a front end's extension of it),
  /// homed on the next lane round-robin.
  template <class S>
  std::unique_ptr<FrameSession> open_as(Fd fd) {
    gbx::ScopedThreadRole role(loop_role_);  // a loop-thread entry point
    auto s = std::make_unique<S>(std::move(fd));
    s->home_lane = next_lane_++ % stream_->instances();
    s->last.tickets.assign(stream_->instances(), 0);
    return s;
  }

  std::unique_ptr<FrameSession> open(Fd fd) override {
    return open_as<Session>(std::move(fd));
  }

  /// Dispatch one client verb.
  void on_frame(FrameSession& fs, store::LogRecord& rec) override {
    gbx::ScopedThreadRole role(loop_role_);
    auto& s = static_cast<Session&>(fs);
    const MsgType type = tag_type(rec.epoch);
    const std::uint64_t arg = tag_arg(rec.epoch);
    switch (type) {
      case MsgType::kInsert:
        handle_insert(s, arg, rec);
        return;
      case MsgType::kFlush:
        // One mark per flush: pipelined flushes each get their own ack
        // (a client blocking per-flush would otherwise hang).
        s.pending_flushes.push_back(s.last);
        check_flush(s);
        return;
      case MsgType::kQuerySum: {
        stats_->queries.fetch_add(1, std::memory_order_relaxed);
        auto handle = governor_->freeze();
        auto img = handle.pin();
        SumReply r;
        r.sum = img.reduce();
        r.epoch = handle.epoch();
        r.nvals = img.nvals();
        s.answer(type, arg, &r, sizeof r, part_epochs(img), handle.epoch());
        return;
      }
      case MsgType::kQueryElements: {
        stats_->queries.fetch_add(1, std::memory_order_relaxed);
        const auto qs = checked_probes(rec.payload, nrows_, ncols_);
        auto handle = governor_->freeze();
        auto img = handle.pin();  // one pin, batched probes
        std::vector<ElementReply> rs(qs.size());
        for (std::size_t i = 0; i < qs.size(); ++i) {
          if (auto v = img.extract_element(qs[i].row, qs[i].col)) {
            rs[i].present = 1;
            rs[i].value = *v;
          }
        }
        s.answer(type, arg, rs.data(), rs.size() * sizeof(ElementReply),
               part_epochs(img), handle.epoch());
        return;
      }
      case MsgType::kQueryColumns: {
        stats_->queries.fetch_add(1, std::memory_order_relaxed);
        // Sorted distinct columns of Σ Ai: the destination set. Heavy
        // (materializes the snapshot) — exists so a router can stitch
        // exact destination counts across row-disjoint workers.
        auto handle = governor_->freeze();
        auto img = handle.pin();
        const auto m = img.to_matrix();
        const auto colv = gbx::reduce_cols<gbx::PlusMonoid<double>>(m.view());
        const auto idx = colv.indices();
        static_assert(sizeof(gbx::Index) == sizeof(std::uint64_t));
        s.answer(type, arg, idx.data(), idx.size() * sizeof(std::uint64_t),
               part_epochs(img), handle.epoch());
        return;
      }
      case MsgType::kQueryMap: {
        // Standalone server: version 0 (placement never changes),
        // parts = lane count.
        MapReply r;
        r.version = 0;
        r.parts = stream_->instances();
        r.nrows = nrows_;
        r.ncols = ncols_;
        s.reply_ok(type, &r, sizeof r);
        return;
      }
      case MsgType::kQuerySummary: {
        stats_->queries.fetch_add(1, std::memory_order_relaxed);
        analytics_.refresh();
        const auto& sum = analytics_.summary();
        SummaryReply r;
        r.epoch = analytics_.last_report().epoch;
        r.links = sum.links;
        r.packets = sum.packets;
        r.sources = sum.sources;
        r.destinations = sum.destinations;
        r.max_link = sum.max_link;
        r.mean_link = sum.mean_link;
        // The analytics engine answers from its own maintained image; no
        // per-part vector to report, just the epoch it describes.
        s.answer(type, arg, &r, sizeof r, {}, r.epoch);
        return;
      }
      case MsgType::kQueryRefresh: {
        stats_->queries.fetch_add(1, std::memory_order_relaxed);
        const auto& rep = analytics_.refresh();
        RefreshReply r;
        r.epoch = rep.epoch;
        r.full_recompute = rep.full_recompute ? 1 : 0;
        r.added = rep.added;
        r.changed = rep.changed;
        r.triangles = analytics_.triangles();
        r.sum = gbx::reduce_scalar<gbx::PlusMonoid<double>>(analytics_.sum());
        s.answer(type, arg, &r, sizeof r, {}, r.epoch);
        return;
      }
      case MsgType::kBye:
        s.reply_ok(type, "", 0);
        s.close();
        return;
      default:
        throw gbx::Error("unknown message type");
    }
  }

  void on_tick() override {
    if (sink_ != nullptr) sink_->tick();
  }

  /// Retry a parked batch; settle flush barriers.
  void on_pass(FrameSession& fs) override {
    gbx::ScopedThreadRole role(loop_role_);
    auto& s = static_cast<Session&>(fs);
    if (s.paused) {
      switch (try_submit(s, s.parked_lane, s.parked_batch, s.parked_payload)) {
        case hier::SubmitResult::kAccepted:
          s.parked_batch.clear();
          s.parked_payload.clear();
          s.unpause();
          break;
        case hier::SubmitResult::kLaneFull:
          break;  // stay parked, retry next pass
        case hier::SubmitResult::kStopped:
          s.paused = false;
          s.close();
          break;
      }
    }
    check_flush(s);
  }

  bool pending(const FrameSession& fs) const override {
    const auto& s = static_cast<const Session&>(fs);
    return s.paused || !s.pending_flushes.empty();
  }

 private:
  void handle_insert(Session& s, std::uint64_t arg, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    std::size_t lane = s.home_lane;
    if (arg != kAnyLane) {
      if (arg >= stream_->instances())
        throw gbx::Error("insert lane out of range");
      lane = static_cast<std::size_t>(arg);
    }
    gbx::Tuples<double> batch(checked_insert(rec.payload, nrows_, ncols_));
    switch (try_submit(s, lane, batch, rec.payload)) {
      case hier::SubmitResult::kAccepted:
        return;
      case hier::SubmitResult::kLaneFull:
        // The back-pressure pivot: stop reading THIS connection only.
        s.parked_lane = lane;
        s.parked_batch = std::move(batch);
        s.parked_payload = std::move(rec.payload);
        s.pause();
        stats_->parks.fetch_add(1, std::memory_order_relaxed);
        return;
      case hier::SubmitResult::kStopped:
        throw gbx::Error("ingest engine is stopped or cannot log");
    }
  }

  /// try_submit plus the accounting of an accepted batch. The
  /// replication sink must only see batches that were actually accepted
  /// (a parked batch dropped by a dying session must never reach the
  /// replica), so it is handed the insert's bytes after the lane took
  /// the batch; a sink that cannot log stops the insert before.
  hier::SubmitResult try_submit(Session& s, std::size_t lane,
                                gbx::Tuples<double>& batch,
                                std::span<const std::byte> payload)
      GBX_REQUIRES(loop_role_) {
    if (sink_ != nullptr && !sink_->can_log())
      return hier::SubmitResult::kStopped;
    const std::size_t n = batch.size();
    const auto r = stream_->try_submit(lane, batch, &s.last.tickets[lane]);
    if (r == hier::SubmitResult::kAccepted) {
      if (sink_ != nullptr) s.last.sink_seq = sink_->on_batch(lane, payload);
      stats_->insert_frames.fetch_add(1, std::memory_order_relaxed);
      stats_->entries_ingested.fetch_add(n, std::memory_order_relaxed);
    }
    return r;
  }

  /// Flush barrier: ack each flush, oldest first, once its mark is done
  /// and durable. A parked batch came after every pending flush, so it
  /// holds none of them. The loop polls at 1ms while flushes pend; under
  /// IngestServer a lane's done hook also wakes it, and a replica's ack
  /// arrives on this loop, settling its flush in the pass that reads it.
  void check_flush(Session& s) GBX_REQUIRES(loop_role_) {
    while (!s.pending_flushes.empty()) {
      const FlushMark& m = s.pending_flushes.front();
      for (std::size_t p = 0; p < m.tickets.size(); ++p)
        if (m.tickets[p] > 0 && stream_->lane_done(p) < m.tickets[p]) return;
      if (sink_ != nullptr && !sink_->durable(m.sink_seq)) return;
      s.pending_flushes.pop_front();
      s.reply_ok(MsgType::kFlush, "", 0);
    }
  }

  /// Per-lane epoch vector of a pinned stream snapshot (provenance).
  template <class Img>
  static std::vector<std::uint64_t> part_epochs(const Img& img) {
    std::vector<std::uint64_t> es(img.size());
    for (std::size_t p = 0; p < es.size(); ++p) es[p] = img.part(p).epoch();
    return es;
  }

  Stream* stream_;
  Governor* governor_;
  ReplicationSink* sink_;
  ServerStats* stats_;
  /// Single-thread discipline: every hook is a loop-thread entry point
  /// and claims the role; members marked GBX_GUARDED_BY(loop_role_) are
  /// loop-thread state.
  gbx::ThreadRole loop_role_;
  Analytics analytics_ GBX_GUARDED_BY(loop_role_);
  gbx::Index nrows_;  ///< matrix dims, cached for request validation
  gbx::Index ncols_;
  std::size_t next_lane_ GBX_GUARDED_BY(loop_role_) = 0;  ///< round-robin
};

/// The ingest front end: IngestHandlers on their own session core.
class IngestServer {
 public:
  using Stream = IngestHandlers::Stream;
  using Governor = IngestHandlers::Governor;
  using Options = IngestOptions;

  IngestServer(Stream& stream, Governor& governor, Options opt = {})
      : opt_(opt),
        stream_(&stream),
        handlers_(stream, governor, opt_, stats_),
        loop_(handlers_, stats_, opt_.max_outbound_bytes) {}
  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  ~IngestServer() {
    if (running()) stop();
  }

  /// Attach the replication sink, bind, listen, spawn the loop thread.
  /// The stream must already be start()ed (inserts would otherwise
  /// bounce as kStopped). Each batch a lane marks done wakes the loop,
  /// so flush barriers settle at once.
  void start() {
    if (opt_.replication != nullptr) opt_.replication->attach(&loop_);
    loop_.start(opt_.port, "hh-ingest");
    stream_->set_done_hook([this] { loop_.wake(); });
  }

  /// Unhook the lanes, then wake the loop, join it and close every
  /// socket (see FrameLoop::stop); then detach the sink.
  void stop() {
    stream_->set_done_hook({});
    loop_.stop();
    if (opt_.replication != nullptr) opt_.replication->attach(nullptr);
  }

  /// Bound port (valid after start()).
  std::uint16_t port() const { return loop_.port(); }
  bool running() const { return loop_.running(); }
  const ServerStats& stats() const { return stats_; }

 private:
  Options opt_;
  Stream* stream_;
  ServerStats stats_;
  IngestHandlers handlers_;
  FrameLoop loop_;
};

}  // namespace net

#endif  // __linux__
