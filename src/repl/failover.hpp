// repl/failover.hpp — a replication-aware ingest client: stream a
// planned sequence of batches into the primary, and when the primary
// dies mid-stream, fail over to the replica without double-applying or
// dropping anything.
//
// Preconditions that make exactness possible:
//   * The sender owns its lane exclusively (one writer per lane — the
//     sharding discipline the whole repo runs on). The replica's
//     per-lane applied batch COUNT is then exactly "how many of MY
//     batches arrived", which is the resume index.
//   * Flush acks are durability promises (the primary holds each one
//     until the replica acked every batch the session sent before it —
//     see net::ReplicationSink), so the watermark of flushed batches can
//     never exceed the replica's count.
//
// Failure detection is the satellite-1 primitive: every reply read
// uses net::Client's poll-based recv timeout, so a silently dead or
// partitioned primary surfaces as a clean gbx::Error instead of a hang.
// On error the sender dials the replica with connect retry/backoff,
// polls kQueryLaneEpochs until the replica reports itself promoted,
// reads its own lane's applied count c (asserting c >= the flush
// watermark — acked work must never be lost), and resumes sending at
// batch index c. Batches in (watermark, c) were shipped before the
// crash and are skipped — that is the never-doubled half.
#pragma once

#ifdef __linux__

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "repl/protocol.hpp"

namespace repl {

struct FailoverOptions {
  std::string primary_host = "127.0.0.1";
  std::uint16_t primary_port = 0;
  std::string replica_host = "127.0.0.1";
  std::uint16_t replica_port = 0;
  /// The lane this sender owns exclusively.
  std::size_t lane = 0;
  /// Reply-read timeout — the failure detector.
  int recv_timeout_ms = 2000;
  /// Flush (durability barrier) every this many batches.
  std::size_t flush_every = 8;
  /// Sleep this long after each batch (0 = full speed). Torture tests
  /// pace senders so a kill scheduled mid-window reliably lands while
  /// the stream is still in flight.
  int pace_us = 0;
};

struct FailoverReport {
  std::uint64_t sent_primary = 0;    ///< batches submitted to the primary
  std::uint64_t sent_replica = 0;    ///< batches submitted post-failover
  std::uint64_t watermark = 0;       ///< flushed (durable) batch count
  /// Watermark frozen at the moment the primary died — the never-lost
  /// bound resumed_from is checked against (`watermark` keeps
  /// advancing with post-failover flushes on the replica).
  std::uint64_t watermark_at_failover = 0;
  std::uint64_t resumed_from = 0;    ///< replica's count at failover
  bool failed_over = false;
};

class FailoverSender {
 public:
  explicit FailoverSender(FailoverOptions opt) : opt_(std::move(opt)) {}

  /// Stream `batches` in order; returns once every batch is applied and
  /// flushed on whichever server survived. Throws only when the replica
  /// also fails (nothing left to fail over to) or an invariant breaks.
  FailoverReport run(const std::vector<gbx::Tuples<double>>& batches) {
    FailoverReport rep;
    net::Client::Options copt;
    copt.recv_timeout_ms = opt_.recv_timeout_ms;
    net::Client client(copt);
    client.connect(opt_.primary_host, opt_.primary_port);

    std::size_t i = 0;
    bool on_primary = true;
    while (i < batches.size()) {
      try {
        client.insert(batches[i], opt_.lane);
        const bool barrier =
            (i + 1) % opt_.flush_every == 0 || i + 1 == batches.size();
        if (barrier) {
          client.flush();
          rep.watermark = i + 1;
        }
        ++i;
        (on_primary ? rep.sent_primary : rep.sent_replica) += 1;
        if (opt_.pace_us > 0)
          std::this_thread::sleep_for(std::chrono::microseconds(opt_.pace_us));
      } catch (const gbx::Error&) {
        GBX_CHECK(on_primary,
                  "failover: replica died too — nothing to fail over to");
        on_primary = false;
        rep.failed_over = true;
        rep.watermark_at_failover = rep.watermark;
        i = await_promotion(client, rep);
      }
    }
    return rep;
  }

 private:
  /// Polls of the replica for promotion before giving up, and the sleep
  /// between them.
  static constexpr int kPromotePollAttempts = 4000, kPromotePollMs = 5;

  /// Dial the replica until it reports promoted; returns the batch
  /// index to resume from (the replica's applied count for our lane).
  std::size_t await_promotion(net::Client& client, FailoverReport& rep) {
    net::Client::Options copt;
    copt.recv_timeout_ms = opt_.recv_timeout_ms;
    copt.connect_attempts = 20;
    copt.connect_backoff_ms = 10;
    for (int a = 0; a < kPromotePollAttempts; ++a) {
      try {
        client = net::Client(copt);
        client.connect(opt_.replica_host, opt_.replica_port);
        const auto words = net::reply_as<std::vector<std::uint64_t>>(
            client.call(net::MsgType::kQueryLaneEpochs));
        GBX_CHECK(words.size() >= 3, "failover: malformed lane-epoch reply");
        const bool promoted = words[0] != 0;
        if (!promoted) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(kPromotePollMs));
          continue;
        }
        GBX_CHECK(2 + opt_.lane < words.size(),
                  "failover: lane missing from lane-epoch reply");
        const std::uint64_t c = words[2 + opt_.lane];
        GBX_CHECK(c >= rep.watermark,
                  "failover: acked batches LOST (replica behind the "
                  "flush watermark)");
        rep.resumed_from = c;
        return static_cast<std::size_t>(c);
      } catch (const gbx::Error&) {
        // Replica not up / mid-promotion: back off and retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(kPromotePollMs));
      }
    }
    GBX_CHECK(false, "failover: replica never promoted");
    return 0;  // unreachable
  }

  FailoverOptions opt_;
};

}  // namespace repl

#endif  // __linux__
