// Randomized corruption properties of store::RecordFrameDecoder — the
// codec under every WAL, every wire message, and (this PR) every
// shipped replication frame. The meta-property, everywhere:
//
//   A corrupted byte stream NEVER yields a phantom frame. Every frame
//   the decoder emits is bit-identical to a frame the writer produced;
//   everything else classifies as kNeedMore (plausibly-incomplete) or
//   kCorrupt (provably damaged), and a poisoned decoder stays poisoned.
//
// Sweeps: truncation at EVERY byte offset, single-byte flips at every
// offset (including the header — the frame checksum covers
// epoch|size|payload exactly so header damage is detected, not
// reinterpreted), random multi-byte splices, and random chunk
// re-feeding. Then the same corruptions are replayed against live
// consumers over a socket: a corrupt shipped stream must be rejected
// loudly by a repl::ReplicaServer with its applied watermark unchanged,
// and a mutated kInsert stream into net::IngestServer or
// cluster::Router must end loudly with exactly the intact prefix served.
#include <gtest/gtest.h>

#ifdef __linux__
#include <unistd.h>
#endif

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "hier/memory_governor.hpp"
#include "net/net.hpp"
#include "prop_util.hpp"
#include "repl/repl.hpp"
#include "store/wal.hpp"

namespace {

struct Frame {
  std::uint64_t epoch;
  std::string payload;
};

// A valid multi-frame stream plus its frame list (the oracle).
std::string build_stream(std::mt19937_64& rng, std::vector<Frame>& frames,
                         std::size_t count) {
  std::ostringstream os;
  store::RecordLogWriter w(os);
  frames.clear();
  std::uniform_int_distribution<std::size_t> len(0, 96);
  std::uniform_int_distribution<int> byte(0, 255);
  for (std::size_t i = 0; i < count; ++i) {
    Frame f;
    f.epoch = i + 1;
    f.payload.resize(len(rng));
    for (auto& c : f.payload) c = static_cast<char>(byte(rng));
    w.append(f.epoch, f.payload.data(), f.payload.size());
    frames.push_back(std::move(f));
  }
  return os.str();
}

struct DecodeResult {
  std::vector<Frame> frames;
  bool corrupt = false;
  std::string error;
  std::size_t buffered_tail = 0;
};

// Feed `bytes` in randomized chunk sizes and collect every verdict.
DecodeResult decode_all(const std::string& bytes, std::mt19937_64& rng,
                        bool random_chunks = true) {
  DecodeResult r;
  store::RecordFrameDecoder dec(1u << 20);
  std::size_t off = 0;
  std::uniform_int_distribution<std::size_t> chunk(1, 73);
  for (;;) {
    store::LogRecord rec;
    const auto st = dec.next(rec);
    if (st == store::RecordFrameDecoder::Status::kFrame) {
      Frame f;
      f.epoch = rec.epoch;
      f.payload.assign(reinterpret_cast<const char*>(rec.payload.data()),
                       rec.payload.size());
      r.frames.push_back(std::move(f));
      continue;
    }
    if (st == store::RecordFrameDecoder::Status::kCorrupt) {
      r.corrupt = true;
      r.error = dec.error();
      return r;
    }
    if (off >= bytes.size()) break;  // kNeedMore and nothing left
    const std::size_t n =
        std::min(random_chunks ? chunk(rng) : bytes.size(), bytes.size() - off);
    dec.feed(bytes.data() + off, n);
    off += n;
  }
  r.buffered_tail = dec.buffered();
  return r;
}

// The decoded prefix must be bit-identical to the oracle prefix —
// no phantom, no mutation, no reorder.
void expect_exact_prefix(const DecodeResult& got,
                         const std::vector<Frame>& oracle) {
  ASSERT_LE(got.frames.size(), oracle.size())
      << "decoder emitted MORE frames than were written (phantom frame)";
  for (std::size_t i = 0; i < got.frames.size(); ++i) {
    ASSERT_EQ(got.frames[i].epoch, oracle[i].epoch) << "frame " << i;
    ASSERT_EQ(got.frames[i].payload, oracle[i].payload)
        << "frame " << i << " payload mutated";
  }
}

constexpr std::uint64_t kPinnedSeed = 0xF0A2'11D7'0B5E'31C9ull;

class RecordFrameFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = proptest::seed_or_env(kPinnedSeed);
    std::cout << proptest::seed_banner(seed_, kPinnedSeed) << "\n";
    rng_.seed(seed_);
  }
  std::uint64_t seed_ = 0;
  std::mt19937_64 rng_;
};

// --- truncation at every offset: exact frame prefix + kNeedMore ------------

TEST_F(RecordFrameFuzz, TruncationAtEveryOffsetIsNeverCorrupt) {
  std::vector<Frame> oracle;
  const std::string bytes = build_stream(rng_, oracle, 8);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    auto got = decode_all(bytes.substr(0, cut), rng_);
    ASSERT_FALSE(got.corrupt)
        << "clean truncation at " << cut << " misclassified as corrupt: "
        << got.error;
    expect_exact_prefix(got, oracle);
    // Whole frames before the cut all decode; the partial tail buffers.
    std::size_t whole = 0, acc = 0;
    for (const auto& f : oracle) {
      const std::size_t sz = 8 + 8 + 8 + f.payload.size() + 8;
      if (acc + sz <= cut) {
        ++whole;
        acc += sz;
      } else {
        break;
      }
    }
    ASSERT_EQ(got.frames.size(), whole) << "cut at " << cut;
  }
}

// --- single-byte flips at every offset -------------------------------------

TEST_F(RecordFrameFuzz, ByteFlipAtEveryOffsetNeverYieldsPhantomFrames) {
  std::vector<Frame> oracle;
  const std::string bytes = build_stream(rng_, oracle, 6);
  std::uniform_int_distribution<int> bit(0, 7);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ (1u << bit(rng_)));
    auto got = decode_all(mutated, rng_);
    // Every decoded frame must be an exact original: the flip either
    // surfaced as kCorrupt, or hides in a frame not yet completed
    // (kNeedMore tail) — but can never mutate an emitted frame, since
    // the checksum covers epoch|size|payload.
    expect_exact_prefix(got, oracle);
    if (!got.corrupt) {
      // A flip that did not trip kCorrupt must have shortened the
      // decodable prefix (size-field damage turning the rest into one
      // giant pending frame, say) — it must NOT decode everything.
      ASSERT_LT(got.frames.size(), oracle.size())
          << "flip at offset " << at << " was silently swallowed";
    }
  }
}

// --- random splices ---------------------------------------------------------

TEST_F(RecordFrameFuzz, RandomSplicesNeverYieldPhantomFrames) {
  std::vector<Frame> oracle;
  const std::string bytes = build_stream(rng_, oracle, 8);
  std::uniform_int_distribution<std::size_t> pos(0, bytes.size() - 1);
  std::uniform_int_distribution<std::size_t> len(1, 64);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = bytes;
    const std::size_t at = pos(rng_);
    // Splice: overwrite, delete, or insert a random run.
    switch (round % 3) {
      case 0:
        for (std::size_t i = at; i < std::min(bytes.size(), at + len(rng_));
             ++i)
          mutated[i] = static_cast<char>(byte(rng_));
        break;
      case 1:
        mutated.erase(at, len(rng_));
        break;
      case 2: {
        std::string run(len(rng_), '\0');
        for (auto& c : run) c = static_cast<char>(byte(rng_));
        mutated.insert(at, run);
        break;
      }
    }
    auto got = decode_all(mutated, rng_);
    // Frames decoded before the splice point must be exact originals.
    std::size_t safe = 0, acc = 0;
    for (const auto& f : oracle) {
      const std::size_t sz = 8 + 8 + 8 + f.payload.size() + 8;
      if (acc + sz <= at) {
        ++safe;
        acc += sz;
      } else {
        break;
      }
    }
    ASSERT_GE(got.frames.size(), std::min(safe, got.frames.size()));
    for (std::size_t i = 0; i < std::min(safe, got.frames.size()); ++i) {
      ASSERT_EQ(got.frames[i].epoch, oracle[i].epoch);
      ASSERT_EQ(got.frames[i].payload, oracle[i].payload);
    }
    // And whatever else came out is an exact original too (a splice
    // can legitimately re-synchronize on a later whole frame only if
    // the bytes are identical — which expect_exact would catch).
    for (const auto& f : got.frames) {
      bool matches_an_original = false;
      for (const auto& o : oracle)
        if (f.epoch == o.epoch && f.payload == o.payload) {
          matches_an_original = true;
          break;
        }
      ASSERT_TRUE(matches_an_original)
          << "splice round " << round << " produced a phantom frame";
    }
  }
}

// --- poisoned decoder stays poisoned ---------------------------------------

TEST_F(RecordFrameFuzz, CorruptVerdictIsSticky) {
  std::vector<Frame> oracle;
  const std::string bytes = build_stream(rng_, oracle, 3);
  std::string mutated = bytes;
  mutated[9] = static_cast<char>(mutated[9] ^ 0x40);  // epoch field damage
  store::RecordFrameDecoder dec(1u << 20);
  dec.feed(mutated.data(), mutated.size());
  store::LogRecord rec;
  while (dec.next(rec) == store::RecordFrameDecoder::Status::kFrame) {
  }
  ASSERT_TRUE(dec.corrupt());
  // Feeding pristine bytes cannot un-poison it.
  dec.feed(bytes.data(), bytes.size());
  ASSERT_EQ(dec.next(rec), store::RecordFrameDecoder::Status::kCorrupt);
}

// --- the same corruption, shipped over a socket ----------------------------
//
// A replica receiving a corrupted kShipBatch stream must reject loudly
// (error reply, connection closed) and keep its applied watermark —
// never a partial or phantom apply.

#ifdef __linux__

TEST_F(RecordFrameFuzz, ReplicaRejectsCorruptedShipStreamLoudly) {
  const std::string wal =
      (std::filesystem::temp_directory_path() /
       ("fuzz_replica_wal_" + std::to_string(::getpid()) + ".bin"))
          .string();
  std::filesystem::remove(wal);

  repl::ReplicaOptions ropt;
  ropt.wal_path = wal;
  ropt.lanes = 2;
  ropt.nrows = 64;
  ropt.ncols = 64;
  ropt.cuts = hier::CutPolicy::geometric(3, 2048, 8);
  ropt.auto_promote = false;
  repl::ReplicaServer replica(ropt);
  replica.start();

  // Handshake + two valid batches.
  net::Client::Options copt;
  copt.recv_timeout_ms = 5000;
  net::Client cli(copt);
  cli.connect("127.0.0.1", replica.port());
  repl::ShipHello hello;
  hello.lanes = 2;
  hello.nrows = 64;
  hello.ncols = 64;
  std::string frame;
  net::append_frame(frame, net::MsgType::kShipHello, 0, &hello, sizeof hello);
  cli.send_raw(frame.data(), frame.size());
  auto hr = cli.read_reply();
  ASSERT_EQ(net::tag_type(hr.epoch), net::MsgType::kReplyOk);

  auto ship = [&](std::uint64_t seq) {
    gbx::Tuples<double> b;
    b.push_back(static_cast<gbx::Index>(seq % 64),
                static_cast<gbx::Index>((seq * 7) % 64), 1.0);
    const std::string payload = repl::encode_batch_payload(
        seq % 2, std::as_bytes(std::span(b.entries())));
    std::string f;
    net::append_frame(f, net::MsgType::kShipBatch, seq, payload.data(),
                      payload.size());
    return f;
  };
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    const std::string f = ship(seq);
    cli.send_raw(f.data(), f.size());
    auto ack = cli.read_reply();
    ASSERT_EQ(net::tag_type(ack.epoch), net::MsgType::kShipAck);
    ASSERT_EQ(net::tag_arg(ack.epoch), seq);
  }

  // Now a corrupted batch frame: flip one random byte per round.
  std::string f3 = ship(3);
  std::uniform_int_distribution<std::size_t> pos(8, f3.size() - 1);
  std::string mutated = f3;
  const std::size_t at = pos(rng_);
  mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
  cli.send_raw(mutated.data(), mutated.size());
  // Loud rejection: an error reply (then EOF) or a straight close.
  try {
    auto rep = cli.read_reply();
    EXPECT_EQ(net::tag_type(rep.epoch), net::MsgType::kReplyError)
        << "corrupt ship frame must never be acked";
  } catch (const gbx::Error&) {
    // Connection closed on us: equally loud.
  }

  replica.stop();
  EXPECT_EQ(replica.applied_seq(), 2u)
      << "corrupt frame must not advance the applied watermark";
  std::filesystem::remove(wal);
}

// --- the same mutator on kInsert streams into the ingest front ends --------
//
// A stream of value-1 insert frames, mutated at one seeded offset (a bit
// flip, or the stream cut short mid-frame), is sent on a fresh session
// that then half-closes. The session must end in kReplyError and a
// close, or in a counted torn tail — and the front end must serve
// exactly the frames that ended before the first mutated byte.

constexpr gbx::Index kFuzzDim = 256;
constexpr std::size_t kFuzzEntries = 8;  // per frame

struct InsertStream {
  std::string bytes;
  std::vector<std::size_t> ends;  ///< end offset of each frame
};

InsertStream build_insert_stream(std::mt19937_64& rng, std::size_t frames) {
  std::uniform_int_distribution<gbx::Index> coord(0, kFuzzDim - 1);
  InsertStream st;
  for (std::size_t f = 0; f < frames; ++f) {
    std::vector<gbx::Entry<double>> es(kFuzzEntries);
    for (auto& e : es) e = {coord(rng), coord(rng), 1.0};
    net::append_frame(st.bytes, net::MsgType::kInsert, net::kAnyLane,
                      es.data(), es.size() * sizeof(es[0]));
    st.ends.push_back(st.bytes.size());
  }
  return st;
}

/// Send `bytes` on a fresh connection, half-close, and collect every
/// reply frame until the front end closes (or 10 s pass).
std::vector<store::LogRecord> send_and_drain(std::uint16_t port,
                                             const std::string& bytes) {
  net::Client::Options copt;
  copt.recv_timeout_ms = 10000;
  net::Client cl(copt);
  cl.connect("127.0.0.1", port);
  cl.send_raw(bytes.data(), bytes.size());
  cl.shutdown_send();
  std::vector<store::LogRecord> replies;
  try {
    for (;;) replies.push_back(cl.read_reply());
  } catch (const gbx::Error&) {
    // closed by the front end (or timed out: the checks below fail)
  }
  return replies;
}

/// Fuzz one front end; `rejected` reads its rejected-frame counter.
template <class Rejected>
void fuzz_insert_streams(std::mt19937_64& rng, std::uint16_t port,
                         Rejected rejected) {
  double served = 0;
  for (int round = 0; round < 64; ++round) {
    const InsertStream st = build_insert_stream(rng, 6);
    std::string mutated = st.bytes;
    std::uniform_int_distribution<std::size_t> pos(1, st.bytes.size() - 1);
    std::size_t at = pos(rng);
    if (round % 2 == 0) {
      mutated[at] = static_cast<char>(mutated[at] ^ (1u << (rng() % 8)));
    } else {
      // Cut mid-frame: a cut on a frame boundary is a clean prefix.
      for (std::size_t end : st.ends)
        if (at == end) --at;
      mutated.resize(at);
    }
    const auto before = rejected();
    const auto replies = send_and_drain(port, mutated);
    ASSERT_LE(replies.size(), 1u) << "round " << round;
    if (!replies.empty()) {
      ASSERT_EQ(net::tag_type(replies[0].epoch), net::MsgType::kReplyError)
          << "round " << round;
    }
    // kReplyError or a torn tail: either way exactly one rejection.
    ASSERT_EQ(rejected(), before + 1) << "round " << round;

    std::size_t intact = 0;
    for (std::size_t end : st.ends)
      if (end <= at) ++intact;
    served += static_cast<double>(intact * kFuzzEntries);
    // One more value-1 entry and a flush: a barrier over everything the
    // mutated session got applied.
    net::Client probe;
    probe.connect("127.0.0.1", port);
    gbx::Tuples<double> one;
    one.push_back(0, 0, 1.0);
    probe.insert(one);
    probe.flush();
    served += 1;
    ASSERT_EQ(probe.query_sum().sum, served) << "round " << round;
    probe.bye();
  }
}

TEST_F(RecordFrameFuzz, MutatedInsertStreamsIntoIngestServer) {
  hier::InstanceArray<double> array(1, kFuzzDim, kFuzzDim,
                                    hier::CutPolicy::geometric(3, 2048, 8));
  hier::ParallelStream<double> stream(array);
  hier::MemoryGovernor<hier::ParallelStream<double>> governor(stream);
  stream.start();
  net::IngestServer server(stream, governor);
  server.start();
  fuzz_insert_streams(rng_, server.port(), [&] {
    return server.stats().rejected_frames.load();
  });
  server.stop();
  stream.stop();
}

TEST_F(RecordFrameFuzz, MutatedInsertStreamsIntoRouter) {
  cluster::WorkerConfig wc;
  wc.nrows = kFuzzDim;
  wc.ncols = kFuzzDim;
  cluster::LocalWorkerPool pool(2, wc);
  cluster::Router::Options ro;
  ro.nrows = kFuzzDim;
  ro.ncols = kFuzzDim;
  ro.worker_recv_timeout_ms = 10000;
  cluster::Router router(pool.map(), ro);
  router.start();
  fuzz_insert_streams(rng_, router.port(), [&] {
    return router.stats().rejected_frames.load();
  });
  router.stop();
}

#endif  // __linux__

}  // namespace
