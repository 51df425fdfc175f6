// hier/partition.hpp — THE row-hash partition and THE row split.
//
// One definition, two deployments: `InstanceArray::update_rows` (parts
// in one process) and `cluster::Router` (worker processes behind the
// router, placed by `cluster::PartitionMap::part_of`) both split a batch
// with split_rows over row_partition, so a row lands on the same part
// index, in the same within-batch order, no matter how the parts are
// hosted. That agreement is what makes the router's stitched snapshot
// comparable — part-major, bit-for-bit — with a single-process
// InstanceArray fed the same batches through update_rows, and it is
// pinned by a randomized equivalence test (tests/test_cluster_router.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbx/sort.hpp"
#include "gbx/types.hpp"
#include "gen/rng.hpp"

namespace hier {

/// Part index owning `row` out of `parts` row-hash partitions. Hashing
/// (splitmix64 finalizer) spreads dense row ranges evenly — a row-block
/// partition would put one hot subnet entirely on one part.
inline std::size_t row_partition(gbx::Index row, std::size_t parts) {
  return static_cast<std::size_t>(gen::mix64(row) % parts);
}

/// Split a batch part-major: out[p] holds the entries whose row part p
/// owns, in their within-batch order. Parts no entry lands on stay empty.
template <class T>
std::vector<std::vector<gbx::Entry<T>>> split_rows(
    const std::vector<gbx::Entry<T>>& entries, std::size_t parts) {
  std::vector<std::vector<gbx::Entry<T>>> out(parts);
  for (const auto& e : entries) out[row_partition(e.row, parts)].push_back(e);
  return out;
}

}  // namespace hier
