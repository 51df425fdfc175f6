// cluster/partition_map.hpp — membership + placement for the router.
//
// A PartitionMap is the router's view of the cluster: an ordered list
// of worker endpoints (part index = list position = the part-major
// order every stitched read folds in) and a version number that bumps
// whenever membership changes. Placement is hier::row_partition — the
// SAME function hier::split_rows splits by for the router and for
// InstanceArray::update_rows — so a row lands on worker w exactly when
// an InstanceArray with the same part count puts it in instance w.
// That agreement is the bit-identity contract of the stitched snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/types.hpp"
#include "hier/partition.hpp"

namespace cluster {

/// One worker process's ingest endpoint.
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class PartitionMap {
 public:
  PartitionMap() = default;
  PartitionMap(std::vector<WorkerEndpoint> workers, std::uint64_t version = 1)
      : workers_(std::move(workers)), version_(version) {
    GBX_CHECK_VALUE(!workers_.empty(), "partition map needs >= 1 worker");
  }

  std::size_t parts() const { return workers_.size(); }
  std::uint64_t version() const { return version_; }
  const WorkerEndpoint& worker(std::size_t p) const { return workers_[p]; }

  /// Owning part of `row` — the part hier::split_rows puts it in for
  /// the same part count (pinned by a randomized equivalence test).
  std::size_t part_of(gbx::Index row) const {
    return hier::row_partition(row, workers_.size());
  }

 private:
  std::vector<WorkerEndpoint> workers_;
  std::uint64_t version_ = 0;
};

}  // namespace cluster
