// net/client.hpp — blocking client for the ingest server (Linux only).
//
// The deliberately boring half of the protocol: a connected TCP socket,
// frames built by net/protocol.hpp, replies decoded by the same
// store::RecordFrameDecoder the server uses. Inserts are one-way
// streaming (back-pressure arrives as a blocking send() once the server
// parks the session's lane); flush() and the queries are call-and-
// response. One thread per Client — it is a connection handle, not a
// pool.
#pragma once

#ifdef __linux__

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"

namespace net {

class Client {
 public:
  struct Options {
    /// Reply-read timeout, milliseconds; a blocked recv past this
    /// throws a clean gbx::Error instead of hanging on a dead or
    /// partitioned server — the failover-detection primitive. Negative
    /// means block forever (the historical behaviour).
    int recv_timeout_ms = -1;
    /// connect() attempts before giving up (reconnect-with-retry).
    int connect_attempts = 1;
    /// Backoff before the second attempt, milliseconds (see net::dial).
    int connect_backoff_ms = 20;
  };

  // No `opt = {}` default argument: GCC parses default arguments before
  // nested-class member initializers (same workaround as IngestServer).
  Client() = default;
  explicit Client(Options opt) : opt_(opt) {}
  // Virtual: cluster::RouterClient derives from Client, and callers own
  // either through a Client pointer.
  virtual ~Client() = default;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// Connect to a server (dotted-quad host, e.g. "127.0.0.1"), retrying
  /// per Options — so a failover client can reach a promoting replica.
  void connect(const std::string& host, std::uint16_t port) {
    const int attempts = std::max(opt_.connect_attempts, 1);
    fd_ = dial(host, port, attempts, opt_.connect_backoff_ms);
    GBX_CHECK(fd_.valid(), "client connect() to " + host + ":" +
                               std::to_string(port) + " failed after " +
                               std::to_string(attempts) + " attempt(s)");
    dec_ = store::RecordFrameDecoder(kMaxFrameBytes);  // fresh session
  }

  /// Stream one insert batch (no ack; see flush()). `lane` pins the
  /// batch to a server lane; kAnyLane uses the session's home lane.
  void insert(const gbx::Tuples<double>& batch,
              std::uint64_t lane = kAnyLane) {
    std::string frame;
    const auto& es = batch.entries();
    append_frame(frame, MsgType::kInsert, lane, es.data(),
                 es.size() * sizeof(es[0]));
    send_all(frame.data(), frame.size());
  }

  /// Barrier: returns once the server has APPLIED every batch this
  /// session submitted (not merely received it).
  void flush() { call(MsgType::kFlush); }

  // The queries. A single server and a cluster::RouterClient answer
  // them alike. Passing a non-null ReplyProvenance requests the
  // revision-2 provenance trailer (kWantProvenance arg bit); nullptr
  // keeps the revision-1 wire shape byte-for-byte.

  /// Σ Ai scalar reduce + nvals at one consistent snapshot.
  SumReply query_sum(ReplyProvenance* prov = nullptr) {
    return reply_as<SumReply>(call(MsgType::kQuerySum, prov));
  }

  /// Batched element probes of the logical Σ Ai; one reply per probe,
  /// in probe order.
  std::vector<ElementReply> query_elements(const std::vector<ElementQuery>& qs,
                                           ReplyProvenance* prov = nullptr) {
    auto rs = reply_as<std::vector<ElementReply>>(
        call(MsgType::kQueryElements, prov, qs.data(),
             qs.size() * sizeof(ElementQuery)));
    GBX_CHECK(rs.size() == qs.size(), "client: element reply count mismatch");
    return rs;
  }

  /// analytics::TrafficSummary of Σ Ai.
  SummaryReply query_summary(ReplyProvenance* prov = nullptr) {
    return reply_as<SummaryReply>(call(MsgType::kQuerySummary, prov));
  }

  /// Incremental-analytics refresh outcome.
  RefreshReply query_refresh() {
    return reply_as<RefreshReply>(call(MsgType::kQueryRefresh));
  }

  /// Sorted distinct column ids of Σ Ai (the destination set; the
  /// router's summary stitch unions these across workers).
  std::vector<std::uint64_t> query_columns(ReplyProvenance* prov = nullptr) {
    return reply_as<std::vector<std::uint64_t>>(
        call(MsgType::kQueryColumns, prov));
  }

  /// Partition-map metadata (version 0 from a standalone server).
  MapReply query_map() { return reply_as<MapReply>(call(MsgType::kQueryMap)); }

  /// Orderly goodbye: the server acks and closes its side.
  void bye() {
    call(MsgType::kBye);
    close();
  }

  void close() { fd_.reset(); }

  /// Raw byte escape hatch (tests: malformed/truncated frames).
  void send_raw(const void* data, std::size_t n) { send_all(data, n); }

  /// Half-close: the server sees EOF; its replies stay readable.
  void shutdown_send() { ::shutdown(fd_.get(), SHUT_WR); }

  /// Next reply frame, whatever it is (tests: observing kReplyError).
  store::LogRecord read_reply() { return next_frame(); }

  /// One request out, its reply back (see expect_ok).
  store::LogRecord call(MsgType type, ReplyProvenance* prov = nullptr,
                        const void* payload = "", std::size_t size = 0) {
    std::string frame;
    append_frame(frame, type, prov ? kWantProvenance : 0, payload, size);
    send_all(frame.data(), frame.size());
    return expect_ok(type, prov);
  }

 private:
  void send_all(const void* data, std::size_t n) {
    GBX_CHECK(fd_.valid(), "client not connected");
    const char* p = static_cast<const char*>(data);
    if (gbx::failpoints().armed()) {
      if (auto fp = gbx::failpoints().hit("net.client.send")) {
        if (fp->action == gbx::FailAction::kPartial) {
          // Transmit a prefix, then fail as if the peer reset us — the
          // server sees a torn frame, the caller sees a send error.
          std::size_t part = static_cast<std::size_t>(
              static_cast<double>(n) * fp->fraction);
          send_bytes(p, part);
          fd_.reset();
          GBX_CHECK(false, "client: connection lost during send (failpoint)");
        }
        if (fp->action == gbx::FailAction::kError) {
          fd_.reset();
          GBX_CHECK(false, "client: connection lost during send (failpoint)");
        }
        if (fp->action == gbx::FailAction::kDelay ||
            fp->action == gbx::FailAction::kStall)
          std::this_thread::sleep_for(std::chrono::milliseconds(fp->delay_ms));
      }
    }
    send_bytes(p, n);
  }

  void send_bytes(const char* p, std::size_t n) {
    GBX_CHECK(net::send_all(fd_.get(), p, n),
              "client: connection lost during send");
  }

  store::LogRecord next_frame() {
    store::LogRecord rec;
    for (;;) {
      switch (dec_.next(rec)) {
        case store::RecordFrameDecoder::Status::kFrame:
          return rec;
        case store::RecordFrameDecoder::Status::kCorrupt:
          GBX_CHECK(false, "client: " + dec_.error());
          break;
        case store::RecordFrameDecoder::Status::kNeedMore:
          break;
      }
      if (gbx::failpoints().armed()) {
        if (auto fp = gbx::failpoints().hit("net.client.recv")) {
          if (fp->action == gbx::FailAction::kError) {
            fd_.reset();
            GBX_CHECK(false, "client: connection closed by server (failpoint)");
          }
          if (fp->action == gbx::FailAction::kDelay ||
              fp->action == gbx::FailAction::kStall)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fp->delay_ms));
        }
      }
      if (opt_.recv_timeout_ms >= 0) {
        ::pollfd pfd{fd_.get(), POLLIN, 0};
        int r;
        do {
          r = ::poll(&pfd, 1, opt_.recv_timeout_ms);
        } while (r < 0 && errno == EINTR);
        GBX_CHECK(r >= 0, "client: poll() failed");
        GBX_CHECK(r > 0, "client: recv timed out after " +
                             std::to_string(opt_.recv_timeout_ms) + " ms");
      }
      char buf[1u << 16];
      const auto n = ::recv(fd_.get(), buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      GBX_CHECK(n > 0, "client: connection closed by server");
      dec_.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// Read one reply; kReplyOk echoing `request` returns the record,
  /// kReplyError throws with the server's diagnostic. When `prov` is
  /// non-null the request asked for provenance; the echoed arg carries
  /// kWantProvenance back and the trailer is split off the payload.
  store::LogRecord expect_ok(MsgType request, ReplyProvenance* prov = nullptr) {
    auto rec = next_frame();
    const MsgType type = tag_type(rec.epoch);
    if (type == MsgType::kReplyError) {
      std::string what(reinterpret_cast<const char*>(rec.payload.data()),
                       rec.payload.size());
      GBX_CHECK(false, "server error: " + what);
    }
    const std::uint64_t want = static_cast<std::uint64_t>(request) |
                               (prov != nullptr ? kWantProvenance : 0);
    GBX_CHECK(type == MsgType::kReplyOk && tag_arg(rec.epoch) == want,
              "client: out-of-order reply");
    if (prov != nullptr)
      GBX_CHECK(split_provenance(rec.payload, *prov),
                "client: malformed provenance trailer");
    return rec;
  }

  Options opt_{};
  Fd fd_;
  store::RecordFrameDecoder dec_{kMaxFrameBytes};
};

}  // namespace net

#endif  // __linux__
