// cluster/router_client.hpp — client-side view of a routed cluster
// (Linux only).
//
// A RouterClient IS a net::Client — the router speaks the exact wire
// protocol of a single IngestServer, so every net::Client verb works
// unchanged and RouterClient only adds the cluster-aware surface:
//
//   * the partition map (kQueryMap), cached so callers can pre-place
//     batches with explicit worker hints and recover from the stale-map
//     redirect by calling refresh_map();
//
//   * freeze() → ClusterSnapshot: one stitched read (kQuerySum with the
//     revision-2 provenance trailer) packaged as a snapshot image with
//     the epoch()/reduce()/nvals() reads of hier's snapshot types — the
//     same verb every in-process source spells, meaning "take an
//     epoch-stitched distributed snapshot".
//
// Code written against net::Client runs against a single server or a
// whole cluster without caring which.
#pragma once

#ifdef __linux__

#include <cstdint>
#include <utility>
#include <vector>

#include "gbx/error.hpp"
#include "hier/partition.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"

namespace cluster {

/// The stitched-snapshot image: scalar reads at one consistent cut
/// across every worker, plus the per-worker epoch vector that names the
/// cut. Offers the epoch()/reduce()/nvals() reads of hier's snapshots.
class ClusterSnapshot {
 public:
  ClusterSnapshot() = default;
  ClusterSnapshot(net::SumReply sum, net::ReplyProvenance prov)
      : sum_(sum), prov_(std::move(prov)) {}

  /// Stitched epoch: Σ of per-worker snapshot epochs — the same rule
  /// SnapshotSet::epoch() applies to in-process parts.
  std::uint64_t epoch() const { return prov_.snapshot_epoch; }
  /// Σ Ai folded part-major across workers (bit-identical to an
  /// InstanceArray fed the same batches through update_rows).
  double reduce() const { return sum_.sum; }
  /// Distinct coordinates across workers (rows are disjoint, so the
  /// per-worker counts add exactly).
  std::uint64_t nvals() const { return sum_.nvals; }

  /// Per-worker epochs at the cut, part-major (index = worker index).
  const std::vector<std::uint64_t>& part_epochs() const {
    return prov_.part_epochs;
  }
  std::uint32_t map_version() const { return prov_.map_version; }
  std::uint32_t revision() const { return prov_.revision; }

 private:
  net::SumReply sum_;
  net::ReplyProvenance prov_;
};

class RouterClient : public net::Client {
 public:
  RouterClient() = default;
  explicit RouterClient(net::Client::Options opt) : net::Client(opt) {}

  /// Fetch (and cache) the router's partition map. Call again after a
  /// stale-map redirect to pick up a membership change.
  const net::MapReply& refresh_map() {
    map_ = query_map();
    have_map_ = true;
    return map_;
  }

  const net::MapReply& map() {
    if (!have_map_) refresh_map();
    return map_;
  }

  /// Owning worker of `row` under the cached map — usable as an explicit
  /// kInsert placement hint (the router rejects it loudly if the map has
  /// since changed).
  std::uint64_t worker_of(std::uint64_t row) {
    const auto& m = map();
    GBX_CHECK(m.parts > 0, "router reported an empty partition map");
    return hier::row_partition(row, static_cast<std::size_t>(m.parts));
  }

  /// Take an epoch-stitched distributed snapshot. The router flushes
  /// every worker and forwards no client batch until it has answered,
  /// so the image is a consistent whole-batch cut of the entire cluster.
  ClusterSnapshot freeze() {
    net::ReplyProvenance prov;
    net::SumReply sum = query_sum(&prov);
    return ClusterSnapshot(sum, std::move(prov));
  }

 private:
  net::MapReply map_{};
  bool have_map_ = false;
};

}  // namespace cluster

#endif  // __linux__
