// net/frame_loop.hpp — the one epoll session core under every front end
// (Linux only).
//
// net::IngestServer, repl::ReplicaServer and cluster::Router speak one
// frame protocol (net/protocol.hpp); a front end is just a FrameHandler,
// a set of verb handlers. The core owns everything else about a session:
//
//   * the loopback listener, accept with TCP_NODELAY, and outbound
//     sessions: sockets a front end connected itself and handed over
//     through adopt(), before start() (the router's workers) or from a
//     hook, with a handler of their own if need be (the WAL shipper, a
//     second handler on the ingest loop, adopts its link to the replica);
//   * a store::RecordFrameDecoder per session (the WAL frame codec is
//     the wire codec), capped at kMaxFrameBytes;
//   * bounded read passes: at most kReadBurst recvs per session per
//     wake-up (level-triggered epoll re-reports the rest), so no session
//     starves the others and the handler's end-of-pass work runs during
//     a sustained stream;
//   * a nonblocking outbound queue per session, throttled: past
//     max_outbound_bytes of unsent replies (a client pipelining requests
//     without reading) an accepted session is not read until the backlog
//     halves, so no reply blocks the loop and memory stays bounded per
//     session. An outbound session is always read (two peers that stop
//     reading each other deadlock); its handler bounds its backlog();
//   * pause/unpause of a parked session: TCP flow control then pushes
//     back on that one client;
//   * torn tails (a partial frame at peer EOF is counted and dropped —
//     the WAL torn-tail rule) and reaping: a closing session is destroyed
//     once its replies are sent and its handler has nothing pending; the
//     handler hears of every destroyed session through on_close();
//   * one error path: corrupt bytes, or a gbx::Error thrown by a handler,
//     earn one kReplyError with the diagnostic, then an orderly close;
//   * wake(): any thread can cut the loop's wait short, so work finished
//     elsewhere (IngestServer's lanes marking a batch done) is seen now.
//
// One loop thread, named for its front end, runs every hook. run() claims
// role_, which guards the session table (a session's methods need no
// role: it is reachable only through the table); each hook claims its
// handler's role.
#pragma once

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/thread_annotations.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "store/wal.hpp"

namespace net {

/// The session core's counters (relaxed atomics; readable from any
/// thread). A front end's outbound sessions are not counted.
struct SessionStats {
  std::atomic<std::uint64_t> sessions_accepted{0};
  std::atomic<std::uint64_t> sessions_closed{0};
  std::atomic<std::uint64_t> out_throttles{0};   ///< reply-backlog back-pressure events
  std::atomic<std::uint64_t> rejected_frames{0}; ///< corrupt/malformed/torn
};

/// Ingest front-end counters: the core's plus the ingest verbs'.
struct ServerStats : SessionStats {
  std::atomic<std::uint64_t> insert_frames{0};
  std::atomic<std::uint64_t> entries_ingested{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> parks{0};  ///< lane-full back-pressure events
};

class FrameHandler;
class FrameLoop;

/// One connection's core state. A front end derives its per-session
/// state from this (FrameHandler::open builds the derived object) and
/// answers through send()/fail(); the loop owns the socket I/O.
class FrameSession {
 public:
  explicit FrameSession(Fd f) : fd_(std::move(f)), dec_(kMaxFrameBytes) {}
  virtual ~FrameSession() = default;
  FrameSession(const FrameSession&) = delete;
  FrameSession& operator=(const FrameSession&) = delete;

  /// Queue one frame and send what the socket takes now. Write-side
  /// back-pressure: once the unsent backlog of an accepted session passes
  /// the cap the session stops being read, so the queue can never grow
  /// without bound; the loop resumes it when the backlog halves.
  void send(MsgType type, std::uint64_t arg, const void* payload,
            std::size_t size) {
    append_frame(out_, type, arg, payload, size);
    flush_out();
    if (dead || outbound_ || out_throttled_ || backlog() <= max_out_) return;
    out_throttled_ = true;
    reading_ = false;
    stats_->out_throttles.fetch_add(1, std::memory_order_relaxed);
    update_interest();
  }

  /// An outbound session's send() of an encoded frame (its handler
  /// bounds the backlog), moved in whole when nothing is queued.
  void send_frame(std::string&& frame) {
    if (backlog() == 0)
      out_.swap(frame);  // flush_out() emptied out_
    else
      out_.append(frame);
    flush_out();
  }

  void reply_ok(MsgType request, const void* payload, std::size_t size) {
    send(MsgType::kReplyOk, static_cast<std::uint64_t>(request), payload,
         size);
  }

  /// Query reply; revision 2 (body + provenance trailer, kWantProvenance
  /// echoed in the arg so the client knows to split the trailer) when
  /// the request's `arg` asked for it.
  void answer(MsgType request, std::uint64_t arg, const void* payload,
              std::size_t size, const std::vector<std::uint64_t>& epochs,
              std::uint64_t snapshot_epoch, std::uint32_t map_version = 0) {
    if (!(arg & kWantProvenance)) {
      reply_ok(request, payload, size);
      return;
    }
    std::string body(size > 0 ? static_cast<const char*>(payload) : "", size);
    append_provenance(body, epochs, snapshot_epoch, map_version);
    const std::uint64_t echo = static_cast<std::uint64_t>(request);
    send(MsgType::kReplyOk, echo | kWantProvenance, body.data(), body.size());
  }

  /// The error path: count the rejected frame, answer kReplyError with
  /// the diagnostic, close.
  void fail(MsgType request, const std::string& what) {
    stats_->rejected_frames.fetch_add(1, std::memory_order_relaxed);
    send(MsgType::kReplyError, static_cast<std::uint64_t>(request),
         what.data(), what.size());
    close();
  }

  /// Orderly close: stop reading; the loop destroys the session once its
  /// replies are sent and its handler reports no pending work.
  void close() {
    reading_ = false;
    closing = true;
  }

  /// Park: stop decoding and reading this connection until unpause().
  void pause() {
    paused = true;
    reading_ = false;
  }

  /// Resume a parked session; the loop works through the frames decoded
  /// before the park on this pass.
  void unpause() {
    paused = false;
    reading_ = !closing && !out_throttled_;
    backlog_ = true;
  }

  /// Unsent outbound bytes.
  std::size_t backlog() const { return out_.size() - out_off_; }
  /// Handed to FrameLoop::adopt() connected, rather than accepted.
  bool outbound() const { return outbound_; }

  bool paused = false;   ///< parked by the handler
  bool closing = false;  ///< destroy once replies drain and the handler settles
  bool dead = false;     ///< destroy now (I/O error)

 private:
  friend class FrameLoop;

  bool halted() const { return paused || closing || dead || out_throttled_; }

  /// Opportunistic nonblocking send; arms EPOLLOUT only on partials.
  void flush_out() {
    while (out_off_ < out_.size()) {
      const auto n = ::send(fd_.get(), out_.data() + out_off_,
                            out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead = true;  // peer reset mid-reply
      return;
    }
    if (out_off_ >= out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    update_interest();
  }

  void update_interest() {
    if (dead) return;
    std::uint32_t ev = EPOLLRDHUP;
    if (reading_ && !closing) ev |= EPOLLIN;
    if (out_off_ < out_.size()) ev |= EPOLLOUT;
    if (ev == events_) return;
    ep_->mod(fd_.get(), ev);
    events_ = ev;
  }

  Fd fd_;
  store::RecordFrameDecoder dec_;
  std::string out_;          ///< outbound bytes
  std::size_t out_off_ = 0;  ///< sent prefix of out_
  std::uint32_t events_ = 0;  ///< epoll interest currently armed
  bool reading_ = true;         ///< EPOLLIN wanted
  bool out_throttled_ = false;  ///< reply backlog over cap; reads paused
  bool backlog_ = false;        ///< decoded frames wait since an unpause
  bool outbound_ = false;       ///< see outbound()
  EventLoop* ep_ = nullptr;
  FrameHandler* handler_ = nullptr;  ///< runs this session's hooks
  SessionStats* stats_ = nullptr;
  std::size_t max_out_ = 0;
};

/// A front end's verb handlers. Every hook runs on the loop thread.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// Per-session state for a freshly accepted connection.
  virtual std::unique_ptr<FrameSession> open(Fd fd) = 0;
  /// `s` is about to be destroyed (closed, or its connection failed).
  virtual void on_close(FrameSession&) {}
  /// One decoded frame. To hold further frames, pause() or close() the
  /// session. Throwing gbx::Error rejects the frame: kReplyError, close.
  virtual void on_frame(FrameSession& s, store::LogRecord& rec) = 0;
  /// End of one bounded read pass over `s`.
  virtual void on_read_pass(FrameSession&) {}
  /// Once per loop pass, before the sessions' turn.
  virtual void on_tick() {}
  /// Once per loop pass per live session: retry parked work, settle
  /// barriers.
  virtual void on_pass(FrameSession&) {}
  /// Deferred work outstanding on `s`: the loop polls briskly and keeps
  /// a closing session open until it clears.
  virtual bool pending(const FrameSession&) const { return false; }
};

class FrameLoop {
 public:
  FrameLoop(FrameHandler& handler, SessionStats& stats,
            std::size_t max_outbound_bytes)
      : handler_(&handler), stats_(&stats), max_out_(max_outbound_bytes) {
    ep_.add(wake_.get(), EPOLLIN);
  }
  FrameLoop(const FrameLoop&) = delete;
  FrameLoop& operator=(const FrameLoop&) = delete;

  ~FrameLoop() {
    if (running_) stop();
  }

  /// Listen on `port` (0 = ephemeral); spawn the loop thread, `name`d
  /// (at most 15 characters).
  void start(std::uint16_t port, const char* name) {
    GBX_CHECK(!running_, "frame loop already started");
    listen_ = listen_loopback(port, port_);
    ep_.add(listen_.get(), EPOLLIN);
    stop_.store(false, std::memory_order_relaxed);
    running_ = true;
    thread_ = std::thread([this, name] { run(name); });
  }

  /// Add an outbound session (a socket the front end connected, or is
  /// connecting; it is made nonblocking here), served by `handler` if
  /// given, else the loop's. Call it before start() or from a hook on
  /// the loop thread — the only two places the session table is free.
  void adopt(std::unique_ptr<FrameSession> s,
             FrameHandler* handler = nullptr) {
    gbx::ScopedThreadRole role(role_);  // the loop thread, or none yet
    const int fd = s->fd_.get();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    s->outbound_ = true;
    s->handler_ = handler;
    add(std::move(s));
  }

  /// Cut the loop's current wait short (any thread): the next pass, and
  /// its on_tick(), run now.
  void wake() { wake_.wake(); }

  /// Wake the loop, join it, close every socket. In-flight sessions
  /// (parked batches, pending barriers) are dropped with an EOF — the
  /// clean-shutdown contract is "no hang, no crash, no partial frame
  /// applied", not "drain the world". No on_close() fires here: the
  /// front end resets its own loop state after stop().
  void stop() {
    GBX_CHECK(running_, "frame loop not started");
    stop_.store(true, std::memory_order_relaxed);
    wake_.wake();
    thread_.join();
    {
      // The loop thread is gone; join() hands its role to this thread
      // for the teardown.
      gbx::ScopedThreadRole role(role_);
      // The epoll set outlives this run; unregister explicitly (a forked
      // child may hold these sockets open past our close()).
      for (const auto& [fd, s] : sessions_) ep_.del(fd);
      sessions_.clear();
    }
    ep_.del(listen_.get());
    listen_.reset();
    running_ = false;
  }

  /// Bound port (valid after a listening start()).
  std::uint16_t port() const { return port_; }
  bool running() const { return running_; }

 private:
  static constexpr int kReadBurst = 64;

  /// Bind a TCP listener on 127.0.0.1:`port` (0 = ephemeral) and report
  /// the bound port through `bound`.
  static Fd listen_loopback(std::uint16_t port, std::uint16_t& bound) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
    GBX_CHECK(fd.valid(), "socket() failed");
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    ::sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    GBX_CHECK(::bind(fd.get(), reinterpret_cast<::sockaddr*>(&addr),
                     sizeof addr) == 0,
              "bind() failed");
    GBX_CHECK(::listen(fd.get(), 64) == 0, "listen() failed");
    ::socklen_t len = sizeof addr;
    GBX_CHECK(::getsockname(fd.get(), reinterpret_cast<::sockaddr*>(&addr),
                            &len) == 0,
              "getsockname() failed");
    bound = ntohs(addr.sin_port);
    return fd;
  }


  void run(const char* name) {
    // The loop thread's entry point claims the role; every loop-only
    // method below REQUIRES it.
    gbx::ScopedThreadRole role(role_);
    ::pthread_setname_np(::pthread_self(), name);
    while (!stop_.load(std::memory_order_relaxed)) {
      // Parked work and pending barriers may have no wake event of
      // their own (IngestServer's lanes wake the loop when a batch is
      // done; a parked batch and other front ends' barriers do not), so
      // poll them briskly.
      for (const auto& ev : ep_.wait(busy_ ? 1 : 10)) {
        if (stop_.load(std::memory_order_relaxed)) break;
        if (ev.data.fd == wake_.get()) {
          wake_.clear();
        } else if (ev.data.fd == listen_.get()) {
          accept_all();
        } else {
          auto it = sessions_.find(ev.data.fd);
          if (it == sessions_.end()) continue;
          FrameSession& s = *it->second;
          if (ev.events & EPOLLOUT) s.flush_out();
          if (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP))
            if (!s.dead) read_session(s);
        }
      }
      progress_pass();
    }
  }

  void accept_all() GBX_REQUIRES(role_) {
    for (;;) {
      Fd c(::accept4(listen_.get(), nullptr, nullptr,
                     SOCK_CLOEXEC | SOCK_NONBLOCK));
      if (!c.valid()) return;  // EAGAIN or transient error: next wave
      const int one = 1;
      ::setsockopt(c.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      add(handler_->open(std::move(c)));
      stats_->sessions_accepted.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void add(std::unique_ptr<FrameSession> s) GBX_REQUIRES(role_) {
    const int fd = s->fd_.get();
    s->ep_ = &ep_;
    if (s->handler_ == nullptr) s->handler_ = handler_;
    s->stats_ = stats_;
    s->max_out_ = max_out_;
    s->events_ = EPOLLIN | EPOLLRDHUP;
    ep_.add(fd, s->events_);
    sessions_.emplace(fd, std::move(s));
  }

  /// One bounded read pass: pull bytes until EAGAIN / EOF / a halt /
  /// the burst cap, decoding as we go.
  void read_session(FrameSession& s) GBX_REQUIRES(role_) {
    char buf[1u << 16];
    for (int burst = 0;
         burst < kReadBurst && s.reading_ && !s.closing && !s.dead; ++burst) {
      const auto n = ::recv(s.fd_.get(), buf, sizeof buf, 0);
      if (n > 0) {
        s.dec_.feed(buf, static_cast<std::size_t>(n));
        if (!process_frames(s)) break;  // parked, throttled or closing
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) s.dead = true;
        break;
      }
      // EOF. A partial frame at EOF is the torn-tail case: count it,
      // drop it. Pending work (parked batch, flush barrier, queued
      // replies) still completes before an accepted session is
      // destroyed; an outbound peer that hangs up is simply gone.
      if (s.dec_.buffered() > 0 && !s.dec_.corrupt())
        stats_->rejected_frames.fetch_add(1, std::memory_order_relaxed);
      if (s.outbound_)
        s.dead = true;
      else
        s.close();
      break;
    }
    if (!s.dead) s.handler_->on_read_pass(s);
    s.update_interest();
  }

  /// Decode and dispatch every complete frame buffered on the session.
  /// Returns false when processing must pause (parked, throttled,
  /// closing); the decoder keeps any backlog for later.
  bool process_frames(FrameSession& s) GBX_REQUIRES(role_) {
    store::LogRecord rec;
    while (!s.halted()) {
      switch (s.dec_.next(rec)) {
        case store::RecordFrameDecoder::Status::kNeedMore:
          return true;
        case store::RecordFrameDecoder::Status::kCorrupt:
          s.fail(MsgType::kInsert, s.dec_.error());
          break;
        case store::RecordFrameDecoder::Status::kFrame:
          try {
            s.handler_->on_frame(s, rec);
          } catch (const gbx::Error& e) {
            s.fail(tag_type(rec.epoch), e.what());
          }
          break;
      }
    }
    return false;
  }

  /// Per-pass housekeeping: the handler's tick and per-session work,
  /// throttle release, backlog drain, reaping.
  void progress_pass() GBX_REQUIRES(role_) {
    handler_->on_tick();
    busy_ = false;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      FrameSession& s = *it->second;
      if (!s.dead) s.handler_->on_pass(s);
      // Reply-backlog throttle release: EPOLLOUT drains the queue on its
      // own wake-ups; once below half the cap, resume reading.
      if (s.out_throttled_ && !s.dead && s.backlog() <= max_out_ / 2) {
        s.out_throttled_ = false;
        if (!s.paused) s.unpause();
      }
      // Work through frames decoded before a park or throttle lifted; a
      // second park here just re-enters the same state.
      if (s.backlog_ && !s.halted()) {
        s.backlog_ = false;
        if (process_frames(s) && s.reading_) read_session(s);
      }
      s.update_interest();
      const bool pending = !s.dead && s.handler_->pending(s);
      busy_ |= pending;
      if (s.dead || (s.closing && !pending && s.backlog() == 0)) {
        s.handler_->on_close(s);
        if (!s.outbound_)
          stats_->sessions_closed.fetch_add(1, std::memory_order_relaxed);
        ep_.del(it->first);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }

  FrameHandler* handler_;
  SessionStats* stats_;
  std::size_t max_out_;
  /// Single-thread discipline of the loop, checked at compile time: run()
  /// claims the role, loop-only methods REQUIRE it (stop() re-claims it
  /// after join() for the teardown).
  gbx::ThreadRole role_;

  EventLoop ep_;
  WakeFd wake_;
  Fd listen_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::uint16_t port_ = 0;
  bool busy_ GBX_GUARDED_BY(role_) = false;  ///< poll-timeout hint
  /// By fd. Ordered: adopt() from a hook may insert mid-walk, which
  /// leaves a std::map's iterators valid.
  std::map<int, std::unique_ptr<FrameSession>> sessions_
      GBX_GUARDED_BY(role_);
};

}  // namespace net

#endif  // __linux__
