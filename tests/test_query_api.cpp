// Tests for the query API surface: the revision-2 provenance trailer
// (negotiated per query, old wire shape untouched), net::Client's
// ownership contract (cluster::RouterClient is owned through a Client
// pointer), and the kQueryColumns/kQueryMap RPCs the router's stitches
// are built on.
//
// The protocol/provenance half is portable; the live-server RPC tests
// ride the Linux-only epoll stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gbx/coo.hpp"
#include "hier/hier.hpp"
#include "net/protocol.hpp"

#ifdef __linux__
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>

#include "net/net.hpp"
#endif

namespace {

using gbx::Index;
using gbx::Tuples;

// --- Revision-2 provenance trailer: encode/decode and compatibility.

TEST(Provenance, TrailerRoundTripsAndShrinksPayload) {
  net::SumReply body;
  body.sum = 8.5;
  body.epoch = 11;
  body.nvals = 4;
  std::string payload(reinterpret_cast<const char*>(&body), sizeof body);
  const std::vector<std::uint64_t> epochs{3, 0, 8};
  net::append_provenance(payload, epochs, 11, /*map_version=*/5);

  std::vector<std::byte> bytes(payload.size());
  std::memcpy(bytes.data(), payload.data(), payload.size());

  net::ReplyProvenance prov;
  ASSERT_TRUE(net::split_provenance(bytes, prov));
  EXPECT_EQ(prov.revision, net::kProtocolRevision);
  EXPECT_EQ(prov.map_version, 5u);
  EXPECT_EQ(prov.snapshot_epoch, 11u);
  EXPECT_EQ(prov.part_epochs, epochs);

  // The split must leave EXACTLY the revision-1 body: the strict
  // exact-size payload_as decode is the compatibility contract.
  net::SumReply decoded;
  ASSERT_TRUE(net::payload_as(bytes, decoded));
  EXPECT_EQ(decoded.sum, 8.5);
  EXPECT_EQ(decoded.nvals, 4u);
}

TEST(Provenance, TrailerWorksOnArrayBodies) {
  // The tail sits at a fixed offset from the END, so array replies
  // (element batches, column sets) carry it just as well as PODs.
  std::vector<net::ElementReply> rs(5);
  for (std::size_t i = 0; i < rs.size(); ++i) rs[i].value = double(i);
  std::string payload(reinterpret_cast<const char*>(rs.data()),
                      rs.size() * sizeof(net::ElementReply));
  net::append_provenance(payload, {2, 2}, 4, 1);

  std::vector<std::byte> bytes(payload.size());
  std::memcpy(bytes.data(), payload.data(), payload.size());
  net::ReplyProvenance prov;
  ASSERT_TRUE(net::split_provenance(bytes, prov));
  EXPECT_EQ(prov.part_epochs.size(), 2u);

  std::vector<net::ElementReply> decoded;
  ASSERT_TRUE(net::payload_as(bytes, decoded));
  ASSERT_EQ(decoded.size(), 5u);
  EXPECT_EQ(decoded[3].value, 3.0);
}

TEST(Provenance, MalformedTrailersAreRejected) {
  net::ReplyProvenance prov;
  // Too short for even the tail.
  std::vector<std::byte> tiny(4);
  EXPECT_FALSE(net::split_provenance(tiny, prov));

  // A parts count the byte length cannot hold.
  std::string payload;
  net::append_provenance(payload, {1, 2, 3}, 6, 1);
  std::vector<std::byte> bytes(payload.size());
  std::memcpy(bytes.data(), payload.data(), payload.size());
  // Truncate one epoch's worth: tail still parses, sizes no longer fit.
  std::vector<std::byte> torn(bytes.begin() + 8, bytes.end());
  EXPECT_FALSE(net::split_provenance(torn, prov));
}

TEST(Provenance, RevisionOneRepliesStayByteIdentical) {
  // A reply built WITHOUT the kWantProvenance negotiation is exactly
  // the old wire shape: the plain POD, nothing appended.
  net::SumReply body;
  body.sum = 1.0;
  std::string frame;
  net::append_frame(frame, net::MsgType::kReplyOk,
                    static_cast<std::uint64_t>(net::MsgType::kQuerySum),
                    &body, sizeof body);
  std::string frame_again;
  net::append_frame(frame_again, net::MsgType::kReplyOk,
                    static_cast<std::uint64_t>(net::MsgType::kQuerySum),
                    &body, sizeof body);
  EXPECT_EQ(frame, frame_again);
  // The flag bit is outside the lane mask's low 40 bits used by lanes
  // in practice, and a flagged arg differs from the unflagged one.
  EXPECT_NE(static_cast<std::uint64_t>(net::MsgType::kQuerySum) |
                net::kWantProvenance,
            static_cast<std::uint64_t>(net::MsgType::kQuerySum));
}

}  // namespace

#ifdef __linux__

namespace {

using hier::CutPolicy;

// cluster::RouterClient derives from net::Client and callers own either
// through std::unique_ptr<net::Client>: deleting through the base must
// run the derived destructor.
static_assert(std::has_virtual_destructor_v<net::Client>);

/// Minimal live-server fixture (2 lanes, small dim).
struct Harness {
  static constexpr Index kDim = 256;
  Harness()
      : array(2, kDim, kDim, CutPolicy::geometric(2, 512, 4)),
        stream(array),
        governor(stream) {
    stream.start();
    server.emplace(stream, governor);
    server->start();
  }
  ~Harness() {
    if (server->running()) server->stop();
    if (stream.running()) stream.stop();
  }
  hier::InstanceArray<double> array;
  hier::ParallelStream<double> stream;
  hier::MemoryGovernor<hier::ParallelStream<double>> governor;
  std::optional<net::IngestServer> server;
};

TEST(QueryApiLive, ColumnsReplyIsTheSortedDistinctColumnSet) {
  Harness h;
  net::Client cli;
  cli.connect("127.0.0.1", h.server->port());

  Tuples<double> batch;
  std::set<std::uint64_t> want;
  for (Index i = 0; i < 300; ++i) {
    const Index col = (i * 13) % 97;
    batch.push_back(i % Harness::kDim, col, 2.0);
    want.insert(col);
  }
  cli.insert(batch);
  cli.flush();

  const auto cols = cli.query_columns();
  EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
  EXPECT_EQ(std::vector<std::uint64_t>(want.begin(), want.end()), cols);
  cli.bye();
}

TEST(QueryApiLive, ProvenanceNegotiationPerQuery) {
  Harness h;
  net::Client cli;
  cli.connect("127.0.0.1", h.server->port());
  Tuples<double> batch;
  for (Index i = 0; i < 100; ++i) batch.push_back(i % 64, i % 64, 1.0);
  cli.insert(batch);
  cli.flush();

  // Old-style call: no provenance, revision-1 decode path.
  const auto plain = cli.query_sum();
  EXPECT_EQ(plain.sum, 100.0);

  // Same session, flagged call: trailer arrives and splits cleanly.
  net::ReplyProvenance prov;
  const auto flagged = cli.query_sum(&prov);
  EXPECT_EQ(flagged.sum, plain.sum);
  EXPECT_EQ(prov.revision, net::kProtocolRevision);
  EXPECT_EQ(prov.part_epochs.size(), 2u);  // one epoch per lane
  std::uint64_t total = 0;
  for (auto e : prov.part_epochs) total += e;
  EXPECT_EQ(total, prov.snapshot_epoch);

  // Element queries carry the trailer on an ARRAY body.
  net::ReplyProvenance eprov;
  const std::vector<net::ElementQuery> qs{{0, 0}, {63, 63}};
  const auto rs = cli.query_elements(qs, &eprov);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(eprov.part_epochs.size(), 2u);

  // And an EMPTY probe batch still pins an epoch — the router's
  // unprobed-worker primitive.
  net::ReplyProvenance pin;
  EXPECT_TRUE(cli.query_elements({}, &pin).empty());
  EXPECT_EQ(pin.snapshot_epoch, prov.snapshot_epoch);
  cli.bye();
}

TEST(QueryApiLive, MapReplyDescribesAStandaloneServer) {
  Harness h;
  net::Client cli;
  cli.connect("127.0.0.1", h.server->port());
  const auto map = cli.query_map();
  EXPECT_EQ(map.version, 0u);  // standalone: placement never changes
  EXPECT_EQ(map.parts, 2u);
  EXPECT_EQ(map.nrows, Harness::kDim);
  EXPECT_EQ(map.ncols, Harness::kDim);
  cli.bye();
}

}  // namespace

#endif  // __linux__
