// store/wal.hpp — write-ahead log model + replayable record log.
//
// WriteAheadLog: both database baselines pay a per-operation log append
// before touching their index, as Accumulo tablet servers and OLTP
// engines do. The log is an in-memory byte buffer (no fsync — we model
// the CPU/memory cost of the write path, not disk latency; the paper's
// comparison is against in-memory-buffered ingest too). The buffer
// recycles at `capacity` to bound footprint, counting total bytes logged.
//
// The record frame: the one byte format of the update stream — the
// replayable WAL (hier::recover), the wire protocol (net/protocol.hpp),
// the block file (store/block_store.hpp) and the checkpoint
// (hier/checkpoint.hpp) all carry it. Each frame is
//   [magic u64 "HHWAL002"][epoch u64][size u64][payload bytes]
//   [XXH64 of the payload, seeded with the epoch (frame_sum)]
// so a reader can (a) skip records by epoch without deserializing the
// payload, (b) detect a torn tail — a crash mid-append leaves a frame
// the checksum/size cannot complete — and (c) reject bit corruption
// anywhere past the magic word, header fields included. This header is
// the only code that knows the layout: detail::encode_frame writes it
// (append_frame into a buffer, RecordLogWriter into a stream),
// parse_frame reads it (RecordFrameDecoder and the stream readers on
// top of it, FileBackend::read in place), and payload_as maps a
// payload to PODs. Epoch semantics (which records may follow which)
// belong to the replayer, not the container.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "gbx/error.hpp"
#include "store/kv_types.hpp"

namespace store {

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::size_t capacity_bytes = 64u << 20)
      : cap_(capacity_bytes) {
    buf_.reserve(cap_);
  }

  /// Append one record (serialized key, value, record header).
  void append(const Key& k, Value v) {
    // 8-byte LSN header + key + value, the shape of a real log record.
    const std::uint64_t lsn = ++lsn_;
    write_raw(&lsn, sizeof lsn);
    write_raw(&k, sizeof k);
    write_raw(&v, sizeof v);
  }

  std::uint64_t records() const { return lsn_; }
  std::uint64_t bytes_logged() const { return total_; }

 private:
  void write_raw(const void* p, std::size_t n) {
    if (buf_.size() + n > cap_) buf_.clear();  // recycle (checkpoint model)
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
    total_ += n;
  }

  std::size_t cap_;
  std::vector<std::byte> buf_;
  std::uint64_t lsn_ = 0;
  std::uint64_t total_ = 0;
};

namespace detail {

inline constexpr std::uint64_t kRecordMagic = 0x48485741'4C303032ull;  // "HHWAL002"

namespace xxh {
inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint64_t read32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline std::uint64_t step(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}
inline std::uint64_t merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ step(0, lane)) * kP1 + kP4;
}
}  // namespace xxh

/// XXH64 (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md):
/// four independent multiply-rotate lanes over 32-byte stripes, so it
/// runs near memory speed where a byte-serial hash is bound by one
/// multiply chain. Input words are read host-endian; the spec's
/// little-endian vectors hold on the little-endian hosts this targets.
inline std::uint64_t xxh64(const void* data, std::size_t n,
                           std::uint64_t seed) {
  using namespace xxh;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t acc = seed + kP5;
  if (n >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed,
                  v4 = seed - kP1;
    for (const unsigned char* limit = end - 32; p <= limit; p += 32) {
      v1 = step(v1, read64(p));
      v2 = step(v2, read64(p + 8));
      v3 = step(v3, read64(p + 16));
      v4 = step(v4, read64(p + 24));
    }
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
    acc = merge(merge(merge(merge(acc, v1), v2), v3), v4);
  }
  acc += n;
  for (; end - p >= 8; p += 8)
    acc = std::rotl(acc ^ step(0, read64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    acc = std::rotl(acc ^ (read32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) acc = std::rotl(acc ^ (*p * kP5), 11) * kP1;
  acc ^= acc >> 33;
  acc *= kP2;
  acc ^= acc >> 29;
  acc *= kP3;
  return acc ^ (acc >> 32);
}

/// The frame checksum: XXH64 of the payload seeded with the epoch.
/// XXH64 mixes the seed into every lane and the length into the final
/// accumulator, so both header words are covered, not just the payload:
/// a bit flip in the epoch or size field of an otherwise-valid frame is
/// classified as corruption instead of silently decoding as a frame
/// that was never written — the "no phantom frames" property the
/// corruption suite asserts.
inline std::uint64_t frame_sum(std::uint64_t epoch, std::uint64_t size,
                               const void* payload) {
  return xxh64(payload, static_cast<std::size_t>(size), epoch);
}

/// The header every frame starts with; the payload and then its
/// frame_sum trailer follow it.
struct FrameHeader {
  std::uint64_t magic;
  std::uint64_t epoch;
  std::uint64_t size;  ///< payload bytes
};
static_assert(sizeof(FrameHeader) == 3 * sizeof(std::uint64_t));

/// The one frame encoder: hands the header, the payload (`head`, then
/// `body`) and the trailer to `put(bytes, n)` in that order. The
/// checksum needs the payload contiguous: `laid()` returns it once put()
/// has taken it (a one-piece payload is its own `head`).
template <class Put, class Laid>
void encode_frame(Put&& put, std::uint64_t epoch,
                  std::span<const std::byte> head,
                  std::span<const std::byte> body, Laid&& laid) {
  const std::uint64_t size = head.size() + body.size();
  const FrameHeader h{kRecordMagic, epoch, size};
  put(&h, sizeof h);
  for (const auto part : {head, body})
    if (!part.empty()) put(part.data(), part.size());  // data() may be null
  const std::uint64_t sum = frame_sum(epoch, size, laid());
  put(&sum, sizeof sum);
}

}  // namespace detail

/// Bytes of one frame carrying `size` payload bytes.
inline constexpr std::uint64_t frame_bytes(std::uint64_t size) {
  return sizeof(detail::FrameHeader) + size + sizeof(std::uint64_t);
}

/// Append one frame whose payload is `head` then `body` (a lane word
/// before a batch's entries) to a byte buffer (a socket send buffer):
/// the same bytes RecordLogWriter::append writes to a stream. The
/// payload is laid down once and hashed in place; returns its offset in
/// `out`.
inline std::size_t append_frame(std::string& out, std::uint64_t epoch,
                                std::span<const std::byte> head,
                                std::span<const std::byte> body = {}) {
  out.reserve(out.size() + frame_bytes(head.size() + body.size()));
  const std::size_t at = out.size() + sizeof(detail::FrameHeader);
  detail::encode_frame(
      [&out](const void* p, std::size_t n) {
        out.append(static_cast<const char*>(p), n);
      },
      epoch, head, body, [&out, at] { return out.data() + at; });
  return at;
}

inline void append_frame(std::string& out, std::uint64_t epoch,
                         const void* data, std::size_t size) {
  append_frame(out, epoch, {static_cast<const std::byte*>(data), size});
}

/// Appends framed, epoch-stamped, checksummed records to a stream (a
/// file in real deployments; tests use stringstreams). One writer per
/// stream; flush/fsync policy is the caller's.
class RecordLogWriter {
 public:
  explicit RecordLogWriter(std::ostream& os) : os_(&os) {}

  void append(std::uint64_t epoch, const void* data, std::size_t size) {
    detail::encode_frame(
        [this](const void* p, std::size_t n) {
          os_->write(static_cast<const char*>(p),
                     static_cast<std::streamsize>(n));
        },
        epoch, {static_cast<const std::byte*>(data), size}, {},
        [data] { return data; });
    GBX_CHECK(os_->good(), "record log: write failure");
    ++records_;
    bytes_ += frame_bytes(size);
  }

  std::uint64_t records() const { return records_; }
  std::uint64_t bytes_logged() const { return bytes_; }

 private:
  std::ostream* os_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

/// What parse_frame found at the front of a buffer:
///
///   kFrame    — one whole, checksum-verified frame.
///   kNeedMore — the bytes form a prefix of a valid frame (or nothing
///               at all): not an error, just not done arriving. Only
///               end-of-input turns a non-empty kNeedMore into a torn
///               tail — a judgment that belongs to the caller, because
///               only the caller knows the input ended.
///   kCorrupt  — the bytes can NEVER complete a valid frame: bad magic,
///               a size above the caller's limit, or a checksum
///               mismatch.
enum class FrameStatus { kNeedMore, kFrame, kCorrupt };

/// One frame parsed in place; `payload` points into the parsed buffer.
struct FrameView {
  FrameStatus status = FrameStatus::kNeedMore;
  std::uint64_t epoch = 0;
  std::span<const std::byte> payload;
  const char* error = nullptr;  ///< why, when kCorrupt
};

/// The one frame parser, over the contiguous bytes [p, p + n). The
/// magic is checked as soon as 8 bytes are present (not only once the
/// whole header is), so garbage is classified as corruption, not
/// mistaken for a frame that never finished arriving. A size field
/// above `max_payload` is corruption too, so no consumer buffers toward
/// an absurd frame.
inline FrameView parse_frame(const std::byte* p, std::size_t n,
                             std::uint64_t max_payload) {
  FrameView f;
  const auto corrupt = [&f](const char* why) {
    f.status = FrameStatus::kCorrupt;
    f.error = why;
    return f;
  };
  detail::FrameHeader h{};
  if (n < sizeof h.magic) return f;
  std::memcpy(&h.magic, p, sizeof h.magic);
  if (h.magic != detail::kRecordMagic)
    return corrupt("record log: bad record magic (corrupt or misaligned log)");
  if (n < sizeof h) return f;
  std::memcpy(&h, p, sizeof h);
  if (h.size > max_payload)
    return corrupt("record log: frame size exceeds decoder limit");
  // Compared without forming frame_bytes(h.size), which a corrupt size
  // field could overflow.
  const std::size_t body = n - sizeof h;
  if (body < sizeof(std::uint64_t) || h.size > body - sizeof(std::uint64_t))
    return f;
  const std::byte* payload = p + sizeof h;
  std::uint64_t sum = 0;
  std::memcpy(&sum, payload + h.size, sizeof sum);
  if (sum != detail::frame_sum(h.epoch, h.size, payload))
    return corrupt("record log: frame checksum mismatch (header or payload)");
  f.status = FrameStatus::kFrame;
  f.epoch = h.epoch;
  f.payload = {payload, static_cast<std::size_t>(h.size)};
  return f;
}

/// One record read back from a RecordLog stream.
struct LogRecord {
  std::uint64_t epoch = 0;
  std::vector<std::byte> payload;
};

/// Reinterpret a record payload as a POD array; false when the byte
/// count is not a whole number of elements (a malformed payload).
template <class Pod>
bool payload_as(std::span<const std::byte> payload, std::vector<Pod>& out) {
  static_assert(std::is_trivially_copyable_v<Pod>);
  if (payload.size() % sizeof(Pod) != 0) return false;
  out.resize(payload.size() / sizeof(Pod));
  // An empty payload (a zero-probe batch) has null data(): memcpy must
  // not see it even for zero bytes.
  if (!payload.empty())
    std::memcpy(out.data(), payload.data(), payload.size());
  return true;
}

/// Reinterpret a record payload as exactly one POD.
template <class Pod>
bool payload_as(std::span<const std::byte> payload, Pod& out) {
  static_assert(std::is_trivially_copyable_v<Pod>);
  if (payload.size() != sizeof(Pod)) return false;
  std::memcpy(&out, payload.data(), sizeof(Pod));
  return true;
}

/// Incremental (push-style) decoder of the frame layout. feed() appends
/// whatever bytes happen to be available — a short read from a
/// nonblocking socket, one stream chunk, a torn file tail — and next()
/// runs parse_frame over them, yielding complete frames as soon as the
/// buffer covers them (see FrameStatus). After kCorrupt the decoder is
/// poisoned; error() says why.
///
/// This is the shared core of the stream readers below and of the
/// network session codec (where kNeedMore means keep the connection
/// reading). Memory discipline: the buffer only ever holds bytes
/// actually fed, so a corrupted size field cannot trigger an enormous
/// up-front allocation.
class RecordFrameDecoder {
 public:
  using Status = FrameStatus;

  static constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

  /// `max_payload_bytes` rejects absurd frame sizes as corruption
  /// instead of buffering toward them forever — servers set a sane cap;
  /// file replay (RecordLogReader) keeps kNoLimit, where an oversized
  /// size field simply runs into end-of-input as a torn tail.
  explicit RecordFrameDecoder(std::uint64_t max_payload_bytes = kNoLimit)
      : max_payload_(max_payload_bytes) {}

  void feed(const void* data, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), b, b + n);
  }

  Status next(LogRecord& out) {
    if (corrupt_) return Status::kCorrupt;
    const FrameView f =
        parse_frame(buf_.data() + off_, buf_.size() - off_, max_payload_);
    if (f.status == Status::kCorrupt) {
      corrupt_ = true;
      error_ = f.error;
    }
    if (f.status != Status::kFrame) return f.status;
    out.epoch = f.epoch;
    out.payload.assign(f.payload.begin(), f.payload.end());
    off_ += static_cast<std::size_t>(frame_bytes(f.payload.size()));
    ++frames_;
    // Compact once the consumed prefix dominates, amortized O(1)/byte.
    if (off_ > buf_.size() / 2) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(off_));
      off_ = 0;
    }
    return Status::kFrame;
  }

  /// Undecoded bytes currently buffered. Non-zero after end-of-input
  /// means the input stopped mid-frame (a torn tail).
  std::size_t buffered() const { return buf_.size() - off_; }
  std::uint64_t frames_decoded() const { return frames_; }
  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t off_ = 0;  ///< consumed prefix of buf_
  std::uint64_t max_payload_;
  std::uint64_t frames_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

/// Tailing reader over a RecordLog stream that may still be growing.
/// It backs RecordLogReader and the block file's open() scan (which
/// keeps the frames before a torn tail); the replication shipper reads
/// its WAL frames at their offsets with parse_frame instead.
/// End-of-input is never a verdict here: a partial frame at the current
/// end just means the writer has not finished appending it yet, so
/// next() returns nullopt ("caught up, poll again") and a later call
/// resumes from the same byte. The stream's eofbit is cleared between
/// polls so an ifstream keeps picking up bytes appended after a
/// previous read hit EOF. Corruption throws — a bad frame in a live WAL
/// is a real fault, not a race.
class RecordLogTailer {
 public:
  explicit RecordLogTailer(std::istream& is,
                           std::uint64_t max_payload_bytes =
                               RecordFrameDecoder::kNoLimit)
      : is_(&is), dec_(max_payload_bytes) {}

  /// The next complete frame, or nullopt when the readable bytes stop
  /// mid-frame (or exactly at a boundary) — i.e. the tail is caught up.
  std::optional<LogRecord> next() {
    for (;;) {
      LogRecord rec;
      const FrameStatus st = dec_.next(rec);
      if (st == FrameStatus::kFrame) return rec;
      GBX_CHECK(st == FrameStatus::kNeedMore, dec_.error());
      if (is_->eof()) is_->clear();  // the file may have grown since
      char chunk[1u << 16];
      is_->read(chunk, sizeof chunk);
      const auto got = static_cast<std::size_t>(is_->gcount());
      if (got == 0) return std::nullopt;  // caught up (for now)
      dec_.feed(chunk, got);
    }
  }

  /// Bytes buffered past the last complete frame (a partial tail).
  std::size_t buffered() const { return dec_.buffered(); }

 private:
  std::istream* is_;
  RecordFrameDecoder dec_;
};

/// Sequential reader over a finished RecordLog stream: a RecordLogTailer
/// whose end-of-input is final. next() returns nullopt at a clean
/// end-of-log (stream exhausted exactly at a frame boundary) and throws
/// gbx::Error on a torn tail (bytes still buffered when the input ran
/// out), a corrupt frame magic, or a checksum mismatch.
class RecordLogReader {
 public:
  explicit RecordLogReader(std::istream& is) : tail_(is) {}

  std::optional<LogRecord> next() {
    auto rec = tail_.next();
    GBX_CHECK(rec || tail_.buffered() == 0,
              "record log: torn record (stream ended mid-frame)");
    return rec;
  }

 private:
  RecordLogTailer tail_;
};

}  // namespace store
