// repl/protocol.hpp — payload PODs and codecs of the WAL-shipping
// protocol (message types kShipHello/kShipBatch/kShipAck/kHeartbeat in
// net/protocol.hpp; this header only defines what rides inside them).
//
// Shipping model: a repl::PrimaryReplicator stamps every batch the
// ingest loop accepts with the next sequence number (one loop thread
// accepts, so the order is total), logs it in a replication WAL whose
// record epoch IS the sequence number, and ships it as a kShipBatch frame
// (arg48 = seq, payload = the WAL record payload verbatim), windowed by
// the replica's cumulative kShipAck. The per-lane subsequences of the
// total order are the per-lane apply orders, so a replica replaying in
// sequence order reproduces every lane's matrix bit-for-bit.
//
// Batch payload layout (both the replication WAL record and the
// kShipBatch frame): [lane u64][gbx::Entry<double> array].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "net/protocol.hpp"

namespace repl {

/// kShipHello payload: the primary introduces itself and its topology.
/// The replica rejects a mismatched shape loudly (replicating lane 3 of
/// a 2-lane primary is configuration error, not data).
struct ShipHello {
  std::uint64_t lanes = 0;
  std::uint64_t nrows = 0;
  std::uint64_t ncols = 0;
  /// Primary incarnation; a promoted replica fences EVERY hello
  /// regardless, so this is diagnostic, not protocol.
  std::uint64_t generation = 0;
};

/// kReplyOk(kShipHello) payload: where to resume shipping.
struct ShipHelloReply {
  /// First sequence number the replica has NOT durably applied — the
  /// shipper skips everything below it (crash-resume without
  /// double-applying).
  std::uint64_t next_seq = 1;
};

/// A shipping payload: the lane word, then the batch's entry bytes.
inline std::string encode_batch_payload(std::size_t lane,
                                        std::span<const std::byte> entries) {
  std::string out;
  const std::uint64_t lane64 = lane;
  out.reserve(sizeof lane64 + entries.size());
  out.append(reinterpret_cast<const char*>(&lane64), sizeof lane64);
  if (!entries.empty())
    out.append(reinterpret_cast<const char*>(entries.data()), entries.size());
  return out;
}

/// Decode a shipping payload. False when malformed (short header or a
/// fractional entry array) — the receiver treats that as a rejected
/// frame, never a partial apply.
inline bool decode_batch_payload(const std::vector<std::byte>& payload,
                                 std::uint64_t& lane,
                                 gbx::Tuples<double>& batch) {
  if (payload.size() < sizeof lane) return false;
  const std::span<const std::byte> bytes(payload);
  std::vector<gbx::Entry<double>> entries;
  if (!store::payload_as(bytes.first(sizeof lane), lane) ||
      !store::payload_as(bytes.subspan(sizeof lane), entries))
    return false;
  batch = gbx::Tuples<double>(std::move(entries));
  return true;
}

}  // namespace repl
