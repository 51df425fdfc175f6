// cluster/router.hpp — N-primary router: one process front end over N
// worker IngestServer processes (Linux only).
//
// It speaks the net/protocol.hpp frame protocol to clients, exactly like
// one IngestServer, and to each worker. Inserts fan out by the row split
// (hier::split_rows), so worker w holds exactly the rows of part w: rows
// are DISJOINT across workers, which makes stitched reads exact (a probe
// has one owner, nvals adds, Σ Ai folds part-major).
//
// The router is a FrameHandler on the net/frame_loop.hpp session core:
// client sessions and worker connections share one loop thread, and no
// worker RPC blocks.
//
//   * A client batch is split by part and each sub-batch queued one-way
//     on its worker connection; client batches are held while a worker's
//     unsent backlog is over the cap (the full-lane park, one hop up).
//     A worker acks a kFlush once the batches sent before it on the
//     connection are done, so batches fed in behind it never delay it.
//   * kFlush and queries are continuations: each worker connection keeps
//     a FIFO of the replies it owes, and the asking client pauses until
//     its last one is in.
//   * A query is an epoch-stitched snapshot: kFlush to every worker, then
//     (all acked: "admitted" == "applied" everywhere) the read verb(s) to
//     every worker, folded in canonical part order, with the per-worker
//     epochs as the reply's provenance trailer.
//   * The cut is loop order: while a stitch is in flight no client frame
//     is acted on, so one stitch runs at a time and per-connection FIFO
//     puts every client batch on the same side of the read on every
//     worker: no stitch sees a torn batch. (A read never follows an
//     unacked flush: a worker acks a connection's flushes in order, and
//     it answers a query before a pending flush ack.)
//   * Failure is LOUD and sticky: a worker whose connection fails, that
//     answers kReplyError, or that owes a reply past
//     worker_recv_timeout_ms is dead; its waiting clients get kReplyError
//     and are closed, as is every later request that needs it.
#pragma once

#ifdef __linux__

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/thread_annotations.hpp"
#include "cluster/partition_map.hpp"
#include "net/event_loop.hpp"
#include "net/frame_loop.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"

namespace cluster {

/// Monotone router counters (relaxed atomics): the core's, plus its own.
struct RouterStats : net::SessionStats {
  std::atomic<std::uint64_t> batches_routed{0};     ///< client batches split
  std::atomic<std::uint64_t> subbatches_forwarded{0};
  std::atomic<std::uint64_t> entries_routed{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> stitched_freezes{0};
  std::atomic<std::uint64_t> worker_failures{0};
  std::atomic<std::uint64_t> redirects{0};  ///< stale-map placement hints
};

class Router final : private net::FrameHandler {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    /// Matrix dimensions, for insert validation HERE: a bad coordinate
    /// reaching a worker would fail the router's shared connection.
    gbx::Index nrows = 0;
    gbx::Index ncols = 0;
    /// Worker-side failure detection: a worker that owes a reply this
    /// long is declared dead (→ loud errors, never a hang).
    int worker_recv_timeout_ms = 10000;
  };

  // No `opt = {}` default argument: GCC parses default arguments before
  // nested-class member initializers (same workaround as IngestServer).
  explicit Router(PartitionMap map) : Router(std::move(map), Options()) {}
  Router(PartitionMap map, Options opt)
      : map_(std::move(map)), opt_(opt), loop_(*this, stats_, max_out_) {
    GBX_CHECK_VALUE(opt_.nrows > 0 && opt_.ncols > 0,
                    "router needs matrix dimensions for insert validation");
  }

  ~Router() override {
    if (running()) stop();
  }

  /// Dial every worker, bind, listen, spawn the loop thread.
  void start() {
    GBX_CHECK(!running(), "Router already started");
    std::vector<std::unique_ptr<Worker>> links;
    for (std::size_t w = 0; w < map_.parts(); ++w) {
      // Workers may still be binding when the router dials them.
      net::Fd fd = net::dial(map_.worker(w).host, map_.worker(w).port,
                             /*attempts=*/50);
      GBX_CHECK(fd.valid(), "router: cannot reach " + name(w));
      links.push_back(std::make_unique<Worker>(std::move(fd), w));
    }
    {
      gbx::ScopedThreadRole role(loop_role_);  // no loop thread yet
      workers_.clear();
      for (auto& link : links) {
        workers_.push_back(link.get());
        loop_.adopt(std::move(link));
      }
    }
    loop_.start(opt_.port, "hh-router");
  }

  /// Join the loop and close every socket: clients and workers see EOF.
  void stop() {
    loop_.stop();
    gbx::ScopedThreadRole role(loop_role_);  // the loop thread is gone
    workers_.clear();
    stitch_.reset();
  }

  std::uint16_t port() const { return loop_.port(); }
  bool running() const { return loop_.running(); }
  const RouterStats& stats() const { return stats_; }
  const PartitionMap& map() const { return map_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Session : net::FrameSession {
    Session(net::Fd f, std::size_t nworkers)
        : FrameSession(std::move(f)), used_workers(nworkers, false) {}
    std::vector<bool> used_workers;        ///< workers this session fed
    std::optional<store::LogRecord> held;  ///< frame waiting for admission
    std::size_t awaiting = 0;              ///< worker replies it waits for
  };

  /// One reply a worker owes, in request order.
  struct Owed {
    net::MsgType verb;  ///< the request; its reply echoes it
    Session* client;    ///< who waits for it; null once nobody does
    Clock::time_point sent;
  };

  struct Worker : net::FrameSession {
    Worker(net::Fd f, std::size_t w) : FrameSession(std::move(f)), index(w) {}
    std::size_t index;
    std::deque<Owed> owed;
  };

  /// The one stitched query in flight. Its owner's `awaiting` counts the
  /// replies the current round (flushes, then reads) still needs.
  struct Stitch {
    Session* owner = nullptr;
    net::MsgType verb = net::MsgType::kQuerySum;
    std::uint64_t arg = 0;  ///< the query's tag argument
    bool reading = false;   ///< flushes acked, read round sent
    std::vector<net::ElementQuery> probes;               ///< kQueryElements
    std::vector<std::vector<store::LogRecord>> replies;  ///< per worker
    std::vector<std::uint64_t> epochs;                   ///< per worker
  };

  // --- net::FrameHandler (loop-thread entry points) ------------------------

  std::unique_ptr<net::FrameSession> open(net::Fd fd) override {
    return std::make_unique<Session>(std::move(fd), map_.parts());
  }

  void on_frame(net::FrameSession& fs, store::LogRecord& rec) override {
    gbx::ScopedThreadRole role(loop_role_);
    if (fs.outbound()) {
      on_worker_reply(static_cast<Worker&>(fs), rec);
      return;
    }
    auto& s = static_cast<Session&>(fs);
    s.held = std::move(rec);
    s.pause();
    admit(s);  // a gbx::Error here is the core's to answer
  }

  void on_tick() override {
    gbx::ScopedThreadRole role(loop_role_);
    const auto limit = std::chrono::milliseconds(opt_.worker_recv_timeout_ms);
    for (Worker* wk : workers_)
      if (wk != nullptr && !wk->owed.empty() &&
          Clock::now() - wk->owed.front().sent > limit)
        fail_worker(wk->index, "no reply within " +
                                   std::to_string(limit.count()) + " ms");
  }

  void on_pass(net::FrameSession& fs) override {
    gbx::ScopedThreadRole role(loop_role_);
    if (fs.outbound()) return;
    auto& s = static_cast<Session&>(fs);
    if (!s.held) return;
    const net::MsgType type = net::tag_type(s.held->epoch);
    try {
      admit(s);
    } catch (const gbx::Error& e) {
      s.fail(type, e.what());
    }
  }

  bool pending(const net::FrameSession& fs) const override { return fs.paused; }

  void on_close(net::FrameSession& fs) override {
    gbx::ScopedThreadRole role(loop_role_);
    if (fs.outbound())
      fail_worker(static_cast<Worker&>(fs).index, "connection lost");
    else
      forget(static_cast<Session&>(fs));
  }

  // --- client verbs --------------------------------------------------------

  static bool stitched(net::MsgType t) {  // the five query verbs
    return (t >= net::MsgType::kQuerySum && t <= net::MsgType::kQueryRefresh) ||
           t == net::MsgType::kQueryColumns;
  }

  /// Act on the session's held frame once the cut allows: nothing moves
  /// while a stitch is in flight (its read round included, which keeps
  /// batch work off the loop while the replies come in). Batches also
  /// wait while a worker's unsent backlog is over the cap.
  void admit(Session& s) GBX_REQUIRES(loop_role_) {
    const net::MsgType t = net::tag_type(s.held->epoch);
    if (stitch_ ||
        (t == net::MsgType::kInsert &&
         std::any_of(workers_.begin(), workers_.end(), [this](Worker* w) {
           return w != nullptr && w->backlog() > max_out_;
         })))
      return;
    store::LogRecord rec = std::move(*s.held);
    s.held.reset();
    s.unpause();
    dispatch(s, rec);
  }

  /// Act on one client frame; throws gbx::Error to reject it.
  void dispatch(Session& s, store::LogRecord& rec) GBX_REQUIRES(loop_role_) {
    const net::MsgType type = net::tag_type(rec.epoch);
    const std::uint64_t arg = net::tag_arg(rec.epoch);
    if (stitched(type)) {
      start_stitch(s, type, arg, rec);
      return;
    }
    switch (type) {
      case net::MsgType::kInsert:
        handle_insert(s, arg, rec);
        return;
      case net::MsgType::kFlush:
        // Barrier over every worker this session fed: a worker's flush
        // covers all the router forwarded to it, this client's included.
        for (std::size_t w = 0; w < s.used_workers.size(); ++w)
          if (s.used_workers[w]) live(w);
        for (std::size_t w = 0; w < s.used_workers.size(); ++w)
          if (s.used_workers[w]) ask(w, net::MsgType::kFlush, false, s);
        if (s.awaiting > 0)
          s.pause();
        else
          s.reply_ok(type, "", 0);  // fed no worker: nothing to wait for
        return;
      case net::MsgType::kQueryMap: {
        net::MapReply r;
        r.version = map_.version();
        r.parts = map_.parts();
        r.nrows = opt_.nrows;
        r.ncols = opt_.ncols;
        s.reply_ok(type, &r, sizeof r);
        return;
      }
      case net::MsgType::kBye:
        s.reply_ok(type, "", 0);
        s.close();
        return;
      default:
        throw gbx::Error("unknown message type");
    }
  }

  void handle_insert(Session& s, std::uint64_t arg, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    const auto entries = net::checked_insert(rec.payload, opt_.nrows,
                                             opt_.ncols);
    // An explicit placement hint is the client asserting its partition
    // map: every row must land on that worker under the CURRENT map,
    // otherwise the map changed under the client — redirect.
    if (arg != net::kAnyLane &&
        (arg >= map_.parts() ||
         std::any_of(entries.begin(), entries.end(), [&](const auto& e) {
           return map_.part_of(e.row) != arg;
         }))) {
      stats_.redirects.fetch_add(1, std::memory_order_relaxed);
      throw gbx::Error("stale partition map: placement hint " +
                       std::to_string(arg) + " does not own this batch "
                       "(current map version " +
                       std::to_string(map_.version()) +
                       "); re-fetch kQueryMap and reconnect");
    }

    // Split part-major — the one split InstanceArray::update_rows also
    // uses, preserving within-batch order inside every sub-batch.
    const auto parts = hier::split_rows(entries, map_.parts());
    for (std::size_t w = 0; w < parts.size(); ++w)
      if (!parts[w].empty()) live(w);  // all targets, before any is fed
    // Lane 0 on every worker: one lane per worker keeps its part
    // bit-identical to the matching update_rows instance (sub-batches
    // apply in forwarding order to one HierMatrix).
    for (std::size_t w = 0; w < parts.size(); ++w) {
      if (parts[w].empty()) continue;
      workers_[w]->send(net::MsgType::kInsert, 0, parts[w].data(),
                        parts[w].size() * sizeof(parts[w][0]));
      s.used_workers[w] = true;
      stats_.subbatches_forwarded.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.batches_routed.fetch_add(1, std::memory_order_relaxed);
    stats_.entries_routed.fetch_add(entries.size(),
                                    std::memory_order_relaxed);
  }

  // --- the stitched freeze -------------------------------------------------

  void start_stitch(Session& s, net::MsgType verb, std::uint64_t arg,
                    store::LogRecord& rec) GBX_REQUIRES(loop_role_) {
    std::vector<net::ElementQuery> probes;
    if (verb == net::MsgType::kQueryElements)
      probes = net::checked_probes(rec.payload, opt_.nrows, opt_.ncols);
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    stats_.stitched_freezes.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = workers_.size();
    for (std::size_t w = 0; w < n; ++w) live(w);
    stitch_ = Stitch{&s, verb, arg, false, std::move(probes),
                     std::vector<std::vector<store::LogRecord>>(n),
                     std::vector<std::uint64_t>(n)};
    // Flush first: "admitted" is "applied" everywhere before any read.
    for (std::size_t w = 0; w < n; ++w) ask(w, net::MsgType::kFlush, false, s);
    s.pause();
  }

  /// Every flush is acked: send the read round. A probe goes to its owner;
  /// an unprobed worker still pins its epoch with an empty probe batch.
  void send_reads(Stitch& st) GBX_REQUIRES(loop_role_) {
    std::vector<std::vector<net::ElementQuery>> per(workers_.size());
    for (const auto& q : st.probes) per[map_.part_of(q.row)].push_back(q);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      ask(w, st.verb, true, *st.owner, per[w].data(),
          per[w].size() * sizeof(net::ElementQuery));
      // Destinations (distinct columns) need the column sets.
      if (st.verb == net::MsgType::kQuerySummary)
        ask(w, net::MsgType::kQueryColumns, false, *st.owner);
    }
    st.reading = true;
  }

  /// Answer with the fold and the cut: per-worker epochs and their sum.
  void finish_stitch() GBX_REQUIRES(loop_role_) {
    const Stitch st = std::move(*stitch_);
    stitch_.reset();
    st.owner->unpause();
    try {
      const std::string body = fold(st);
      st.owner->answer(st.verb, st.arg, body.data(), body.size(), st.epochs,
                       sum(st.epochs),
                       static_cast<std::uint32_t>(map_.version()));
    } catch (const gbx::Error& e) {
      st.owner->fail(st.verb, e.what());
    }
  }

  /// The read round folded in map order — the canonical SnapshotSet
  /// order, so a stitched Σ is bit-identical to an update_rows-fed
  /// InstanceArray's reduce().
  std::string fold(const Stitch& st) const {
    const std::size_t n = st.replies.size();
    switch (st.verb) {
      case net::MsgType::kQuerySum: {
        net::SumReply r;
        for (std::size_t w = 0; w < n; ++w) {
          const auto wr = net::reply_as<net::SumReply>(st.replies[w][0]);
          r.sum += wr.sum;
          r.nvals += wr.nvals;  // row-disjoint workers: distinct counts add
        }
        r.epoch = sum(st.epochs);
        return bytes(&r, 1);
      }
      case net::MsgType::kQueryElements: {
        // Reply order = probe order: each owner's answers in turn.
        std::vector<std::vector<net::ElementReply>> per;
        for (std::size_t w = 0; w < n; ++w)
          per.push_back(
              net::reply_as<std::vector<net::ElementReply>>(st.replies[w][0]));
        std::vector<std::size_t> next(n, 0);
        std::vector<net::ElementReply> out;
        for (const auto& q : st.probes) {
          const std::size_t w = map_.part_of(q.row);
          GBX_CHECK(next[w] < per[w].size(),
                    "router: short element reply from " + name(w));
          out.push_back(per[w][next[w]++]);
        }
        return bytes(out.data(), out.size());
      }
      case net::MsgType::kQuerySummary: {
        net::SummaryReply r;
        for (std::size_t w = 0; w < n; ++w) {
          const auto wr = net::reply_as<net::SummaryReply>(st.replies[w][0]);
          // Row-disjoint: links, sources and packets add; max_link is a
          // per-coordinate value, so the max over workers is global.
          r.links += wr.links;
          r.packets += wr.packets;
          r.sources += wr.sources;
          r.max_link = std::max(r.max_link, wr.max_link);
        }
        r.epoch = sum(st.epochs);
        r.destinations = columns(st, 1).size();
        // Same formula as analytics::summarize — identical operands give
        // an identical quotient.
        if (r.links > 0) r.mean_link = r.packets / static_cast<double>(r.links);
        return bytes(&r, 1);
      }
      case net::MsgType::kQueryRefresh: {
        net::RefreshReply r;
        for (std::size_t w = 0; w < n; ++w) {
          const auto wr = net::reply_as<net::RefreshReply>(st.replies[w][0]);
          r.full_recompute |= wr.full_recompute;
          r.added += wr.added;
          r.changed += wr.changed;
          // Caveat (README): triangle counts only stitch because the
          // workers never count them (IngestHandlers::kAnalytics, every
          // count 0) — a triangle can span workers, so a nonzero sum
          // would undercount.
          r.triangles += wr.triangles;
          r.sum += wr.sum;
        }
        r.epoch = sum(st.epochs);
        return bytes(&r, 1);
      }
      default: {  // kQueryColumns
        const auto cols = columns(st, 0);
        const std::vector<std::uint64_t> sorted(cols.begin(), cols.end());
        return bytes(sorted.data(), sorted.size());
      }
    }
  }

  /// Union of the workers' column sets (columns are NOT disjoint).
  static std::set<std::uint64_t> columns(const Stitch& st, std::size_t k) {
    std::set<std::uint64_t> cols;
    for (const auto& rs : st.replies) {
      const auto wc = net::reply_as<std::vector<std::uint64_t>>(rs[k]);
      cols.insert(wc.begin(), wc.end());
    }
    return cols;
  }

  // --- worker connections --------------------------------------------------

  /// Queue one request on worker `w`; `client` waits for its reply.
  void ask(std::size_t w, net::MsgType verb, bool prov, Session& client,
           const void* payload = "", std::size_t size = 0)
      GBX_REQUIRES(loop_role_) {
    workers_[w]->send(verb, prov ? net::kWantProvenance : 0, payload, size);
    workers_[w]->owed.push_back(Owed{verb, &client, Clock::now()});
    ++client.awaiting;
  }

  void on_worker_reply(Worker& wk, store::LogRecord& rec)
      GBX_REQUIRES(loop_role_) {
    const std::size_t w = wk.index;
    if (workers_[w] != &wk) return;  // already failed
    const std::uint64_t arg = net::tag_arg(rec.epoch);
    const bool prov = (arg & net::kWantProvenance) != 0;
    net::ReplyProvenance p;
    if (net::tag_type(rec.epoch) != net::MsgType::kReplyOk ||
        wk.owed.empty() ||
        (arg & ~net::kWantProvenance) !=
            static_cast<std::uint64_t>(wk.owed.front().verb) ||
        (prov && !net::split_provenance(rec.payload, p)))
      return fail_worker(w, "unexpected reply: " + bytes(rec.payload.data(),
                                                          rec.payload.size()));
    const Owed o = wk.owed.front();
    wk.owed.pop_front();
    if (o.client == nullptr) return;  // nobody waits for it any more
    Session& s = *o.client;
    const bool last = --s.awaiting == 0;
    if (!stitch_ || stitch_->owner != &s) {
      if (last) {  // the session's kFlush
        s.reply_ok(net::MsgType::kFlush, "", 0);
        s.unpause();
      }
      return;
    }
    Stitch& st = *stitch_;
    if (st.reading) {
      if (prov) st.epochs[w] = p.snapshot_epoch;
      st.replies[w].push_back(std::move(rec));
    }
    if (!last) return;
    if (st.reading)
      finish_stitch();
    else
      send_reads(st);
  }

  /// Throws a loud error naming worker `w` when it is dead.
  void live(std::size_t w) GBX_REQUIRES(loop_role_) {
    if (workers_[w] != nullptr && workers_[w]->dead)
      fail_worker(w, "connection lost");
    GBX_CHECK(workers_[w] != nullptr,
              name(w) + " is dead; stitched reads are unavailable");
  }

  /// Mark worker `w` dead for good and fail every client waiting on it.
  void fail_worker(std::size_t w, const std::string& why)
      GBX_REQUIRES(loop_role_) {
    Worker* wk = workers_[w];
    if (wk == nullptr) return;
    workers_[w] = nullptr;
    wk->dead = true;  // the loop destroys the connection
    stats_.worker_failures.fetch_add(1, std::memory_order_relaxed);
    const std::string what = name(w) + " failed: " + why;
    // Every stitch needs every worker. A failed client waits for nothing
    // more, which also skips its other entries below.
    if (stitch_) fail_client(*stitch_->owner, stitch_->verb, what);
    for (const Owed& o : wk->owed)
      if (o.client != nullptr && o.client->awaiting > 0)
        fail_client(*o.client, net::MsgType::kFlush, what);
  }

  void fail_client(Session& s, net::MsgType request, const std::string& what)
      GBX_REQUIRES(loop_role_) {
    forget(s);
    s.held.reset();
    s.unpause();
    s.fail(request, what);
  }

  /// Drop every reference to `s`: replies owed to it are discarded on
  /// arrival, and a stitch it asked for is abandoned.
  void forget(Session& s) GBX_REQUIRES(loop_role_) {
    for (Worker* wk : workers_) {
      if (wk == nullptr) continue;
      for (Owed& o : wk->owed)
        if (o.client == &s) o.client = nullptr;
    }
    if (stitch_ && stitch_->owner == &s) stitch_.reset();
    s.awaiting = 0;
  }

  std::string name(std::size_t w) const {
    return "worker " + std::to_string(w) + " (" + map_.worker(w).host + ":" +
           std::to_string(map_.worker(w).port) + ")";
  }

  static std::uint64_t sum(const std::vector<std::uint64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  }

  template <class Pod>
  static std::string bytes(const Pod* p, std::size_t n) {
    return std::string(reinterpret_cast<const char*>(p), n * sizeof(Pod));
  }

  PartitionMap map_;
  Options opt_;
  RouterStats stats_;
  /// Unsent bytes a connection may hold before its reads (a client) or
  /// the client batches bound for it (a worker) are held back.
  const std::size_t max_out_ = net::IngestOptions().max_outbound_bytes;
  /// Single-thread discipline: every hook is a loop-thread entry point
  /// and claims the role; start()/stop() claim it around the loop's life.
  gbx::ThreadRole loop_role_;
  /// Worker connections by part; null once a worker is dead (sticky).
  std::vector<Worker*> workers_ GBX_GUARDED_BY(loop_role_);
  std::optional<Stitch> stitch_ GBX_GUARDED_BY(loop_role_);
  net::FrameLoop loop_;  ///< last: its thread runs the hooks above
};

}  // namespace cluster

#endif  // __linux__
