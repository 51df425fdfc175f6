// net/protocol.hpp — framed binary wire protocol of the ingest server.
//
// Every message, in both directions, is one store::RecordLog record:
//
//   [magic u64 "HHWAL002"][tag u64][size u64][payload bytes][XXH64]
//
// reusing the WAL's frame verbatim — store::append_frame writes it and
// store::parse_frame reads it — so the server's session codec IS
// store::RecordFrameDecoder, and a capture of an ingest session replays
// through the same machinery as a crash log. The record's epoch field
// becomes the message `tag`: the high 16 bits carry the message type,
// the low 48 bits a type-specific argument (the insert lane hint, or
// the echoed request type in replies).
//
// Payloads are host-endian PODs (the repo's serialization convention:
// gbx/serialize, store::BatchWal both ship raw structs). Inserts carry
// a raw gbx::Entry<double> array — exactly the batch representation
// ParallelStream lanes apply, so the server deserializes by memcpy.
//
// Protocol flow (client view):
//   * kInsert frames stream one-way; no per-batch ack. Back-pressure is
//     TCP's: a server whose target lane is full simply stops reading.
//   * kFlush is the barrier: the server replies kReplyOk only once every
//     batch this session sent before it is done (applied or failed).
//   * Query frames get exactly one reply frame each (kReplyOk with the
//     request type echoed in the arg bits, payload the reply struct
//     below; or kReplyError with a diagnostic string payload).
//   * kBye asks for an orderly close; the server replies and closes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/sort.hpp"
#include "store/wal.hpp"

namespace net {

/// Decoder cap of every frame consumer (servers, router, client,
/// shipper): a frame claiming a larger payload is corrupt.
inline constexpr std::uint64_t kMaxFrameBytes = 64u << 20;

/// Message type, high 16 bits of the frame tag.
enum class MsgType : std::uint16_t {
  kInsert = 1,        ///< payload: gbx::Entry<double>[]; arg: lane hint
  kFlush = 2,         ///< barrier over the session's earlier batches
  kQuerySum = 3,      ///< reply payload: SumReply
  kQueryElements = 4, ///< payload: ElementQuery[]; reply: ElementReply[]
  kQuerySummary = 5,  ///< reply payload: SummaryReply
  kQueryRefresh = 6,  ///< reply payload: RefreshReply
  kBye = 7,           ///< orderly close
  kQueryLaneEpochs = 8,  ///< reply payload: u64[lanes] applied batch counts
  kQueryColumns = 9,  ///< reply payload: u64[] sorted distinct columns of Σ Ai
  kQueryMap = 10,     ///< reply payload: MapReply (partition-map metadata)
  kReplyOk = 32,      ///< arg echoes the request MsgType
  kReplyError = 33,   ///< payload: UTF-8 diagnostic; arg echoes request
  // --- replication (src/repl/): primary→replica WAL shipping. Same
  // frame layout, distinct type numbers; payload PODs live in
  // repl/protocol.hpp so the core protocol stays dependency-free.
  kShipHello = 16,  ///< payload: ShipHello; reply payload: ShipHelloReply
  kShipBatch = 17,  ///< arg: WAL seq (48-bit); payload: lane u64 + entries
  kShipAck = 18,    ///< arg: cumulative durably-applied seq (replica→primary)
  kHeartbeat = 19,  ///< primary lease refresh, one-way
};

/// Lane-hint sentinel: let the server pick (the session's home lane).
inline constexpr std::uint64_t kAnyLane = (std::uint64_t{1} << 48) - 1;

// --- protocol revision 2: versioned reply provenance.
//
// Revision 1 replies carried one `epoch`. Revision 2 lets a client ask
// (by setting kWantProvenance in the query's 48-bit arg) for a
// provenance TRAILER after the reply payload: the per-part epoch vector
// behind the answer — per-lane epochs from a single IngestServer,
// per-WORKER epochs from a stitched cluster::Router reply — plus the
// partition-map version, so a stitched answer is auditable down to the
// exact cut it was computed at. Compatibility is negotiated per query:
// a revision-1 client never sets the flag, the server never attaches
// the trailer, and the reply bytes are exactly the revision-1 shape —
// old clients keep decoding against new servers, and new clients
// against old servers simply get kReplyError-free plain replies (they
// only set the flag when they can parse the result).
inline constexpr std::uint32_t kProtocolRevision = 2;

/// Query-arg flag bit: "attach a provenance trailer to the reply". The
/// reply's arg echoes the flag so the client knows the trailer is
/// there. Bit 40 keeps the low 40 arg bits free (lane hints use the
/// full 48-bit space only via the kAnyLane sentinel, which has this bit
/// set too — inserts carry data, not provenance, so no ambiguity).
inline constexpr std::uint64_t kWantProvenance = std::uint64_t{1} << 40;

/// Fixed-size tail of a provenance trailer. The wire layout of a
/// provenance-carrying reply payload is
///
///   [reply POD(s)] [u64 part_epochs[parts]] [ProvenanceTail]
///
/// — tail LAST so a decoder can find it at a fixed offset from the end
/// whatever the body length (element replies are arrays).
struct ProvenanceTail {
  std::uint64_t snapshot_epoch = 0;  ///< source-wide epoch of the image
  std::uint32_t revision = kProtocolRevision;
  std::uint32_t parts = 0;        ///< length of the epoch vector
  std::uint32_t map_version = 0;  ///< partition-map version (0 = unmapped)
  std::uint32_t reserved = 0;
};

/// Decoded provenance trailer (host form).
struct ReplyProvenance {
  std::uint32_t revision = 0;
  std::uint32_t map_version = 0;
  std::uint64_t snapshot_epoch = 0;
  std::vector<std::uint64_t> part_epochs;
};

inline constexpr std::uint64_t make_tag(MsgType t, std::uint64_t arg48) {
  return (static_cast<std::uint64_t>(t) << 48) | (arg48 & kAnyLane);
}
inline constexpr MsgType tag_type(std::uint64_t tag) {
  return static_cast<MsgType>(tag >> 48);
}
inline constexpr std::uint64_t tag_arg(std::uint64_t tag) {
  return tag & kAnyLane;
}

// --- reply / query PODs (host-endian, trivially copyable).

/// Σ Ai scalar reduce at one snapshot epoch.
struct SumReply {
  double sum = 0;
  std::uint64_t epoch = 0;   ///< snapshot epoch the sum was taken at
  std::uint64_t nvals = 0;   ///< distinct coordinates in Σ Ai
};

/// One element probe of the logical matrix Σ Ai.
struct ElementQuery {
  std::uint64_t row = 0;
  std::uint64_t col = 0;
};

struct ElementReply {
  std::uint64_t present = 0;  ///< 0 = implicit zero (absent coordinate)
  double value = 0;
};

/// analytics::TrafficSummary plus the epoch it describes.
struct SummaryReply {
  std::uint64_t epoch = 0;
  std::uint64_t links = 0;
  double packets = 0;
  std::uint64_t sources = 0;
  std::uint64_t destinations = 0;
  double max_link = 0;
  double mean_link = 0;
};

/// kQueryMap reply: partition-map metadata. A plain IngestServer
/// reports version 0 (standalone — placement never changes) with
/// parts = its lane count; a cluster::Router reports its map version
/// and worker count. A client holding a stale map (its pinned
/// placement hint no longer matches) gets kReplyError from the router
/// and re-fetches this before reconnecting — the redirect primitive.
struct MapReply {
  std::uint64_t version = 0;
  std::uint64_t parts = 0;
  std::uint64_t nrows = 0;
  std::uint64_t ncols = 0;
};

/// analytics::IncrementalEngine::refresh() outcome.
struct RefreshReply {
  std::uint64_t epoch = 0;
  std::uint64_t full_recompute = 0;
  std::uint64_t added = 0;
  std::uint64_t changed = 0;
  std::uint64_t triangles = 0;
  double sum = 0;  ///< reduce over the maintained Σ Ai
};

/// Append one wire frame to `out` (the socket send buffer).
inline void append_frame(std::string& out, MsgType type,
                         std::uint64_t arg48 = 0, const void* payload = "",
                         std::size_t size = 0) {
  store::append_frame(out, make_tag(type, arg48), payload, size);
}

using store::payload_as;

/// A reply payload as a POD, or a vector of PODs; throws when malformed.
template <class Reply>
Reply reply_as(const store::LogRecord& rec) {
  Reply r;
  GBX_CHECK(payload_as(rec.payload, r), "malformed reply payload");
  return r;
}

// --- the one request validator every front end runs. A bad frame must
// be rejected on its session (gbx::Error → kReplyError, then close),
// never reach a lane worker, and read the same on every front end.

namespace detail {
/// A payload as a whole number of `Pod`s whose {row, col} all lie inside
/// nrows x ncols; throws `not_whole`, or `coord` + "out of range: ...".
template <class Pod>
std::vector<Pod> checked_coords(const std::vector<std::byte>& payload,
                                std::uint64_t nrows, std::uint64_t ncols,
                                const char* not_whole, const char* coord) {
  std::vector<Pod> out;
  if (!payload_as(payload, out)) throw gbx::Error(not_whole);
  for (const auto& e : out)
    if (e.row >= nrows || e.col >= ncols)
      throw gbx::Error(std::string(coord) + " out of range: (" +
                       std::to_string(e.row) + ", " + std::to_string(e.col) +
                       ") vs " + std::to_string(nrows) + " x " +
                       std::to_string(ncols));
  return out;
}
}  // namespace detail

/// Decode and check a kInsert payload.
inline std::vector<gbx::Entry<double>> checked_insert(
    const std::vector<std::byte>& payload, std::uint64_t nrows,
    std::uint64_t ncols) {
  return detail::checked_coords<gbx::Entry<double>>(
      payload, nrows, ncols, "insert payload is not a whole number of entries",
      "insert coordinate");
}

/// Decode and check a kQueryElements payload.
inline std::vector<ElementQuery> checked_probes(
    const std::vector<std::byte>& payload, std::uint64_t nrows,
    std::uint64_t ncols) {
  return detail::checked_coords<ElementQuery>(
      payload, nrows, ncols,
      "element query payload is not a whole number of {row, col} probes",
      "element probe");
}

/// Append a provenance trailer (epoch vector + tail) to reply payload
/// bytes under construction. The caller has already appended the reply
/// POD body to `payload`.
inline void append_provenance(std::string& payload,
                              const std::vector<std::uint64_t>& part_epochs,
                              std::uint64_t snapshot_epoch,
                              std::uint32_t map_version) {
  if (!part_epochs.empty())
    payload.append(reinterpret_cast<const char*>(part_epochs.data()),
                   part_epochs.size() * sizeof(std::uint64_t));
  ProvenanceTail tail;
  tail.snapshot_epoch = snapshot_epoch;
  tail.parts = static_cast<std::uint32_t>(part_epochs.size());
  tail.map_version = map_version;
  payload.append(reinterpret_cast<const char*>(&tail), sizeof tail);
}

/// Split a provenance trailer off a reply payload: fills `prov` and
/// shrinks `payload` back to the reply body. Only call when the reply
/// arg carried kWantProvenance. Returns false on a malformed trailer
/// (truncated, or an epoch vector that cannot fit) — the caller treats
/// that like any other malformed reply.
inline bool split_provenance(std::vector<std::byte>& payload,
                             ReplyProvenance& prov) {
  if (payload.size() < sizeof(ProvenanceTail)) return false;
  ProvenanceTail tail;
  std::memcpy(&tail, payload.data() + payload.size() - sizeof tail,
              sizeof tail);
  const std::size_t epochs_bytes =
      static_cast<std::size_t>(tail.parts) * sizeof(std::uint64_t);
  if (payload.size() < sizeof tail + epochs_bytes) return false;
  prov.revision = tail.revision;
  prov.map_version = tail.map_version;
  prov.snapshot_epoch = tail.snapshot_epoch;
  prov.part_epochs.resize(tail.parts);
  if (tail.parts > 0)
    std::memcpy(prov.part_epochs.data(),
                payload.data() + payload.size() - sizeof tail - epochs_bytes,
                epochs_bytes);
  payload.resize(payload.size() - sizeof tail - epochs_bytes);
  return true;
}

}  // namespace net
