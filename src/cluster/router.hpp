// cluster/router.hpp — N-primary router: one process front end over N
// worker IngestServer processes (Linux only).
//
// The router speaks the net/protocol.hpp frame protocol on BOTH sides:
// clients connect to it exactly as they would to a single IngestServer,
// and it holds one upstream net::Client connection per worker process.
// Inserts are fanned out by the shared row-hash partition
// (hier/partition.hpp — the same function ShardedHier uses), so a
// multi-process cluster places every coordinate on the worker that a
// single-process ShardedHier with the same part count would place it
// in. Workers are therefore row-DISJOINT, which is what makes stitched
// reads exact: an element probe has exactly one owner, nvals adds, and
// Σ Ai folds part-major in the canonical order.
//
// Concurrency design — a distributed ShardedHier, one blocking thread
// per client session, not the net/frame_loop.hpp epoll core. A router
// session spends its time blocked on worker RPCs, and a blocked thread
// reads nothing more from its client until its reply is sent: it
// back-pressures only that client and needs no outbound cap. The router
// shares the core's listener and the request validator, and reuses the
// proven freeze/writer-slot structure verbatim:
//
//   * An insert session splits its batch by part and forwards every
//     non-empty sub-batch while holding a SHARED slot on `snap_mu_` —
//     ShardedHier::update's whole-batch atomicity, across processes.
//     Per-worker order is serialized by that worker's connection mutex.
//
//   * Every query is an epoch-stitched distributed snapshot: the
//     EXCLUSIVE slot (writers back off via freeze_pending_, as in
//     ShardedHier::freeze), a flush barrier through every worker (so
//     "admitted" == "applied" everywhere and no client batch is
//     half-forwarded), one revision-2 provenance epoch per worker, the
//     answer from that cut. The epoch vector rides back as the reply's
//     provenance trailer, so a stitched answer is auditable.
//
//   * Partial failure is LOUD. A worker I/O error (EPIPE after a SIGKILL,
//     recv timeout on a hang, EOF on a crash) marks that worker dead: the
//     triggering request and every later stitched query get kReplyError.
//     The router never answers from a subset of workers.
//
//   * Placement hints double as the redirect primitive: a client that
//     pins a worker index on kInsert asserts its map; if the current map
//     disagrees, the reply is kReplyError naming the current version and
//     the client re-fetches kQueryMap. kAnyLane routes by hash.
#pragma once

#ifdef __linux__

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/thread_annotations.hpp"
#include "cluster/partition_map.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/frame_loop.hpp"
#include "net/protocol.hpp"

namespace cluster {

/// Monotone router counters (relaxed atomics; readable from any thread).
struct RouterStats {
  std::atomic<std::uint64_t> sessions_accepted{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> batches_routed{0};     ///< client batches split
  std::atomic<std::uint64_t> subbatches_forwarded{0};
  std::atomic<std::uint64_t> entries_routed{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> stitched_freezes{0};
  std::atomic<std::uint64_t> worker_failures{0};
  std::atomic<std::uint64_t> rejected_frames{0};
  std::atomic<std::uint64_t> redirects{0};  ///< stale-map placement hints
};

class Router {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
    /// Matrix dimensions (insert validation happens HERE: a bad
    /// coordinate must never reach a worker, where the resulting
    /// kReplyError would poison the router's shared connection).
    gbx::Index nrows = 0;
    gbx::Index ncols = 0;
    /// Worker-side failure detection: a worker that stays silent this
    /// long mid-RPC is declared dead (→ loud errors, never a hang).
    int worker_recv_timeout_ms = 10000;
  };

  // No `opt = {}` default argument: GCC parses default arguments before
  // nested-class member initializers (same workaround as IngestServer).
  explicit Router(PartitionMap map) : Router(std::move(map), Options()) {}
  Router(PartitionMap map, Options opt) : map_(std::move(map)), opt_(opt) {
    GBX_CHECK_VALUE(opt_.nrows > 0 && opt_.ncols > 0,
                    "router needs matrix dimensions for insert validation");
  }

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  ~Router() {
    if (running_) stop();
  }

  /// Dial every worker, bind, listen, spawn the accept thread.
  void start() {
    GBX_CHECK(!running_, "Router already started");
    workers_.clear();
    for (std::size_t w = 0; w < map_.parts(); ++w) {
      auto wk = std::make_unique<Worker>();
      net::Client::Options copt;
      copt.recv_timeout_ms = opt_.worker_recv_timeout_ms;
      // Workers may still be binding when the router dials them.
      copt.connect_attempts = 50;
      copt.connect_backoff_ms = 20;
      {
        gbx::ScopedLock lk(wk->mu);
        wk->cli = net::Client(copt);
        wk->cli.connect(map_.worker(w).host, map_.worker(w).port);
      }
      workers_.push_back(std::move(wk));
    }

    // Blocking listener: the accept thread sleeps in accept(), and
    // stop() wakes it by shutting the socket down.
    listen_ = net::listen_loopback(opt_.port, /*nonblocking=*/false, port_);
    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  /// Unblock and join every thread, close every socket. In-flight
  /// client sessions see EOF; worker connections get an orderly bye.
  void stop() {
    GBX_CHECK(running_, "Router not started");
    stop_.store(true, std::memory_order_relaxed);
    ::shutdown(listen_.get(), SHUT_RDWR);  // accept() returns
    accept_thread_.join();
    std::vector<std::unique_ptr<RouterSession>> sessions;
    {
      // The accept thread is gone, so nothing adds sessions any more.
      gbx::ScopedLock lk(sessions_mu_);
      for (auto& s : sessions_)
        ::shutdown(s->fd.get(), SHUT_RDWR);  // blocking recv returns
      sessions.swap(sessions_);
    }
    for (auto& s : sessions)
      if (s->th.joinable()) s->th.join();
    for (auto& wk : workers_) {
      gbx::ScopedLock lk(wk->mu);
      if (!wk->dead && wk->cli.connected()) {
        try {
          wk->cli.bye();
        } catch (const gbx::Error&) {
          // Teardown is best-effort; a worker that died first is fine.
        }
      }
      wk->cli.close();
    }
    listen_.reset();
    running_ = false;
  }

  std::uint16_t port() const { return port_; }
  bool running() const { return running_; }
  const RouterStats& stats() const { return stats_; }
  const PartitionMap& map() const { return map_; }

 private:
  struct Worker {
    gbx::Mutex mu;
    net::Client cli GBX_GUARDED_BY(mu);
    bool dead GBX_GUARDED_BY(mu) = false;
  };

  struct RouterSession {
    RouterSession(net::Fd f, std::size_t nworkers)
        : fd(std::move(f)), dec(net::kMaxFrameBytes),
          used_workers(nworkers, false) {}
    net::Fd fd;
    store::RecordFrameDecoder dec;
    std::vector<bool> used_workers;  ///< workers this session ever fed
    std::thread th;
    std::atomic<bool> done{false};
  };

  // --- accept / session lifecycle.

  void accept_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      net::Fd c = net::accept_client(listen_.get(), /*nonblocking=*/false);
      if (!c.valid()) {
        if (stop_.load(std::memory_order_relaxed)) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listen socket gone
      }
      auto s = std::make_unique<RouterSession>(std::move(c), workers_.size());
      RouterSession* raw = s.get();
      stats_.sessions_accepted.fetch_add(1, std::memory_order_relaxed);
      {
        gbx::ScopedLock lk(sessions_mu_);
        sessions_.push_back(std::move(s));
        sessions_.back()->th = std::thread([this, raw] {
          session_loop(*raw);
          raw->done.store(true, std::memory_order_release);
        });
      }
      reap_finished();
    }
  }

  /// Join and drop sessions whose threads have finished (bounds the
  /// session list on long-lived routers; stop() drains the rest).
  void reap_finished() {
    std::vector<std::unique_ptr<RouterSession>> finished;
    {
      gbx::ScopedLock lk(sessions_mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& s : finished) {
      if (s->th.joinable()) s->th.join();
      stats_.sessions_closed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void session_loop(RouterSession& s) {
    char buf[1u << 16];
    store::LogRecord rec;
    bool open = true;
    while (open && !stop_.load(std::memory_order_relaxed)) {
      const auto n = ::recv(s.fd.get(), buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) {
        // EOF; a partial frame here is the torn-tail case: count, drop.
        if (s.dec.buffered() > 0 && !s.dec.corrupt())
          stats_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      s.dec.feed(buf, static_cast<std::size_t>(n));
      while (open) {
        const auto st = s.dec.next(rec);
        if (st == store::RecordFrameDecoder::Status::kNeedMore) break;
        if (st == store::RecordFrameDecoder::Status::kCorrupt) {
          stats_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
          reply_error(s, net::MsgType::kInsert, s.dec.error());
          open = false;
        } else {
          open = handle_frame(s, rec);
        }
      }
    }
    // The client sees EOF now, not when the session is reaped.
    ::shutdown(s.fd.get(), SHUT_RDWR);
  }

  // --- frame dispatch (session threads).

  /// Returns false when the session must close.
  bool handle_frame(RouterSession& s, store::LogRecord& rec) {
    const net::MsgType type = net::tag_type(rec.epoch);
    const std::uint64_t arg = net::tag_arg(rec.epoch);
    const bool want_prov = type != net::MsgType::kInsert &&
                           (arg & net::kWantProvenance) != 0;
    try {
      switch (type) {
        case net::MsgType::kInsert:
          handle_insert(s, arg, rec);
          return true;
        case net::MsgType::kFlush:
          handle_client_flush(s);
          return true;
        case net::MsgType::kQuerySum:
          handle_query_sum(s, want_prov);
          return true;
        case net::MsgType::kQueryElements:
          handle_query_elements(s, want_prov, rec);
          return true;
        case net::MsgType::kQuerySummary:
          handle_query_summary(s, want_prov);
          return true;
        case net::MsgType::kQueryRefresh:
          handle_query_refresh(s, want_prov);
          return true;
        case net::MsgType::kQueryColumns:
          handle_query_columns(s, want_prov);
          return true;
        case net::MsgType::kQueryMap: {
          net::MapReply r;
          r.version = map_.version();
          r.parts = map_.parts();
          r.nrows = opt_.nrows;
          r.ncols = opt_.ncols;
          reply_ok(s, type, &r, sizeof r);
          return true;
        }
        case net::MsgType::kBye:
          reply_ok(s, type, "", 0);
          return false;
        default:
          throw gbx::Error("unknown message type");
      }
    } catch (const gbx::Error& e) {
      // A rejected request, or a worker that failed (or timed out)
      // mid-request: the LOUD path. The requester gets the diagnostic;
      // the session closes so no later one-way insert can be silently
      // half-routed.
      stats_.rejected_frames.fetch_add(1, std::memory_order_relaxed);
      reply_error(s, type, e.what());
      return false;
    }
  }

  void handle_insert(RouterSession& s, std::uint64_t arg,
                     store::LogRecord& rec) {
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

    // Split part-major — the same per-entry walk as ShardedHier::update,
    // preserving within-batch order inside every sub-batch.
    std::vector<gbx::Tuples<double>> parts(workers_.size());
    for (const auto& e : entries)
      parts[map_.part_of(e.row)].push_back(e.row, e.col, e.val);

    // Whole-batch atomicity across processes: hold a shared slot for
    // the full fan-out so no stitched freeze can observe half a batch.
    gbx::ScopedReadLock batch_guard(writer_slot());
    for (std::size_t w = 0; w < parts.size(); ++w) {
      if (parts[w].empty()) continue;
      worker_insert(w, parts[w]);  // throws on a dead worker → loud close
      s.used_workers[w] = true;
      stats_.subbatches_forwarded.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.batches_routed.fetch_add(1, std::memory_order_relaxed);
    stats_.entries_routed.fetch_add(entries.size(),
                                    std::memory_order_relaxed);
  }

  void handle_client_flush(RouterSession& s) {
    // Barrier over every worker this session ever fed: each worker's
    // own flush barrier covers the router's upstream session, which
    // includes everything forwarded on behalf of this client.
    for (std::size_t w = 0; w < s.used_workers.size(); ++w)
      if (s.used_workers[w]) worker_flush(w);
    reply_ok(s, net::MsgType::kFlush, "", 0);
  }

  void handle_query_sum(RouterSession& s, bool want_prov) {
    net::SumReply r;
    // Part-major fold in map order — the canonical SnapshotSet order, so
    // the stitched Σ is bit-identical to ShardedHier's reduce().
    const Cut cut = stitch([&r](std::size_t, net::Client& c) {
      net::ReplyProvenance wp;
      const net::SumReply wr = c.query_sum(&wp);
      r.sum += wr.sum;
      r.nvals += wr.nvals;  // row-disjoint workers: distinct counts add
      return wp.snapshot_epoch;
    });
    r.epoch = cut.epoch;
    reply_stitched(s, net::MsgType::kQuerySum, want_prov, &r, sizeof r, cut);
  }

  void handle_query_elements(RouterSession& s, bool want_prov,
                             store::LogRecord& rec) {
    const auto qs = net::checked_probes(rec.payload, opt_.nrows, opt_.ncols);
    // Route each probe to its single owner (row-disjoint placement),
    // keeping reply order = probe order.
    std::vector<std::vector<net::ElementQuery>> per(workers_.size());
    std::vector<std::vector<std::size_t>> origin(workers_.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const std::size_t w = map_.part_of(qs[i].row);
      per[w].push_back(qs[i]);
      origin[w].push_back(i);
    }
    std::vector<net::ElementReply> rs(qs.size());
    // Unprobed workers still contribute their epoch to the stitched cut
    // via an empty probe batch (a pin, no reads).
    const Cut cut = stitch([&](std::size_t w, net::Client& c) {
      net::ReplyProvenance wp;
      const auto wr = c.query_elements(per[w], &wp);
      for (std::size_t k = 0; k < wr.size(); ++k) rs[origin[w][k]] = wr[k];
      return wp.snapshot_epoch;
    });
    reply_stitched(s, net::MsgType::kQueryElements, want_prov, rs.data(),
                   rs.size() * sizeof(net::ElementReply), cut);
  }

  void handle_query_summary(RouterSession& s, bool want_prov) {
    net::SummaryReply r;
    std::set<std::uint64_t> destinations;  // columns are NOT disjoint
    const Cut cut = stitch([&](std::size_t, net::Client& c) {
      net::ReplyProvenance wp;
      const net::SummaryReply wr = c.query_summary(&wp);
      // Row-disjoint stitches: links (distinct coords), sources (distinct
      // rows) and packets add; max_link is a per-coordinate value, so max
      // over workers is the global max.
      r.links += wr.links;
      r.packets += wr.packets;
      r.sources += wr.sources;
      if (wr.max_link > r.max_link) r.max_link = wr.max_link;
      // Destinations (distinct columns) need the actual sets.
      const auto cols = c.query_columns();
      destinations.insert(cols.begin(), cols.end());
      return wp.snapshot_epoch;
    });
    r.epoch = cut.epoch;
    r.destinations = destinations.size();
    // Same formula as analytics::summarize — identical operands give an
    // identical quotient.
    if (r.links > 0) r.mean_link = r.packets / static_cast<double>(r.links);
    reply_stitched(s, net::MsgType::kQuerySummary, want_prov, &r, sizeof r,
                   cut);
  }

  void handle_query_refresh(RouterSession& s, bool want_prov) {
    net::RefreshReply r;
    const Cut cut = stitch([&r](std::size_t, net::Client& c) {
      const net::RefreshReply wr = c.query_refresh();
      r.full_recompute |= wr.full_recompute;
      r.added += wr.added;
      r.changed += wr.changed;
      // Caveat, documented in the README: per-worker triangle counts
      // only stitch when triangles are disabled (the worker default,
      // where every count is 0) — a triangle can span workers, so a
      // nonzero sum would undercount and we refuse to fake it.
      r.triangles += wr.triangles;
      r.sum += wr.sum;
      return wr.epoch;
    });
    r.epoch = cut.epoch;
    reply_stitched(s, net::MsgType::kQueryRefresh, want_prov, &r, sizeof r,
                   cut);
  }

  void handle_query_columns(RouterSession& s, bool want_prov) {
    std::set<std::uint64_t> cols;
    const Cut cut = stitch([&cols](std::size_t, net::Client& c) {
      net::ReplyProvenance wp;
      const auto wc = c.query_columns(&wp);
      cols.insert(wc.begin(), wc.end());
      return wp.snapshot_epoch;
    });
    std::vector<std::uint64_t> sorted(cols.begin(), cols.end());
    reply_stitched(s, net::MsgType::kQueryColumns, want_prov, sorted.data(),
                   sorted.size() * sizeof(std::uint64_t), cut);
  }

  // --- the stitched freeze.

  /// The cut a stitched reply describes: per-worker snapshot epochs and
  /// their sum (SnapshotSet's rule).
  struct Cut {
    std::vector<std::uint64_t> epochs;
    std::uint64_t epoch = 0;
  };

  /// One stitched read: `read(w, client)` runs once per worker, in map
  /// order, and returns that worker's snapshot epoch. It runs inside the
  /// cut: an exclusive slot on `snap_mu_` (no insert fan-out in flight —
  /// whole-batch atomicity across processes) plus a flush barrier through
  /// every worker ("admitted" becomes "applied" everywhere before any
  /// epoch is read). A dead worker throws — the whole query fails loudly
  /// instead of stitching a subset.
  template <class Read>
  Cut stitch(Read&& read) {
    stats_.queries.fetch_add(1, std::memory_order_relaxed);
    stats_.stitched_freezes.fetch_add(1, std::memory_order_relaxed);
    freeze_pending_.fetch_add(1, std::memory_order_relaxed);
    gbx::ScopedWriteLock lock(snap_mu_);
    freeze_pending_.fetch_sub(1, std::memory_order_relaxed);
    for (std::size_t w = 0; w < workers_.size(); ++w) worker_flush(w);
    Cut cut;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      cut.epochs.push_back(
          worker_call(w, [&](net::Client& c) { return read(w, c); }));
      cut.epoch += cut.epochs.back();
    }
    return cut;
  }

  /// Writers pass through here before taking their shared slot — the
  /// ShardedHier starvation-avoidance pattern, verbatim.
  gbx::SharedMutex& writer_slot() GBX_RETURN_CAPABILITY(snap_mu_) {
    while (freeze_pending_.load(std::memory_order_relaxed) > 0)
      std::this_thread::yield();
    return snap_mu_;
  }

  // --- worker I/O (each call-response pair under that worker's mutex).

  template <class F>
  auto worker_call(std::size_t w, F&& f) -> decltype(f(
      std::declval<net::Client&>())) {
    Worker& wk = *workers_[w];
    gbx::ScopedLock lk(wk.mu);
    GBX_CHECK(!wk.dead, "worker " + std::to_string(w) + " (" +
                            map_.worker(w).host + ":" +
                            std::to_string(map_.worker(w).port) +
                            ") is dead; stitched reads are unavailable");
    try {
      return f(wk.cli);
    } catch (const gbx::Error&) {
      wk.dead = true;
      wk.cli.close();
      stats_.worker_failures.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
  }

  void worker_insert(std::size_t w, const gbx::Tuples<double>& sub) {
    // Lane 0 on every worker: a cluster worker scales by process count,
    // and one lane per worker is what keeps its part bit-identical to
    // the corresponding ShardedHier shard (sub-batches apply in
    // forwarding order to one HierMatrix).
    worker_call(w, [&sub](net::Client& c) { c.insert(sub, 0); });
  }

  void worker_flush(std::size_t w) {
    worker_call(w, [](net::Client& c) { c.flush(); });
  }

  // --- client-side replies (blocking send on the session socket; a
  // client that is gone is noticed by the session loop's next recv).

  static void send_frame(RouterSession& s, net::MsgType type,
                         std::uint64_t arg, const void* payload,
                         std::size_t size) {
    std::string frame;
    net::append_frame(frame, type, arg, payload, size);
    (void)net::send_all(s.fd.get(), frame.data(), frame.size());
  }

  static void reply_ok(RouterSession& s, net::MsgType request,
                       const void* payload, std::size_t size) {
    send_frame(s, net::MsgType::kReplyOk, static_cast<std::uint64_t>(request),
               payload, size);
  }

  static void reply_error(RouterSession& s, net::MsgType request,
                          const std::string& what) {
    send_frame(s, net::MsgType::kReplyError,
               static_cast<std::uint64_t>(request), what.data(), what.size());
  }

  void reply_stitched(RouterSession& s, net::MsgType request, bool want_prov,
                      const void* payload, std::size_t size, const Cut& cut) {
    if (!want_prov) {
      reply_ok(s, request, payload, size);
      return;
    }
    std::string body(size > 0 ? static_cast<const char*>(payload) : "", size);
    net::append_provenance(body, cut.epochs, cut.epoch,
                           static_cast<std::uint32_t>(map_.version()));
    send_frame(s, net::MsgType::kReplyOk,
               static_cast<std::uint64_t>(request) | net::kWantProvenance,
               body.data(), body.size());
  }

  PartitionMap map_;
  Options opt_;
  RouterStats stats_;

  std::vector<std::unique_ptr<Worker>> workers_;

  // Writers (insert fan-out) shared, stitched queries exclusive: the
  // ShardedHier freeze discipline, spanning processes.
  gbx::SharedMutex snap_mu_;
  std::atomic<std::uint32_t> freeze_pending_{0};

  gbx::Mutex sessions_mu_;
  std::vector<std::unique_ptr<RouterSession>> sessions_
      GBX_GUARDED_BY(sessions_mu_);

  net::Fd listen_;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::uint16_t port_ = 0;
};

}  // namespace cluster

#endif  // __linux__
