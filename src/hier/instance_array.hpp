// hier/instance_array.hpp — arrays of independent hierarchical matrices.
//
// The paper's scaling experiment runs one hierarchical hypersparse matrix
// per *process* ("31,000 instances ... on 1,100 server nodes"), with no
// communication between instances. InstanceArray reproduces that shape on
// one node: P fully independent HierMatrix instances, fed either per
// instance (ParallelStream lanes, pump()) or by row (update_rows, the
// in-process mirror of the cluster router's placement). Aggregate
// throughput is the sum of per-instance rates, exactly the quantity
// Fig. 2 plots.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "gbx/error.hpp"
#include "hier/hier_matrix.hpp"
#include "hier/partition.hpp"

namespace hier {

template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class InstanceArray {
 public:
  using instance_type = HierMatrix<T, AddMonoid>;

  InstanceArray(std::size_t instances, gbx::Index nrows, gbx::Index ncols,
                const CutPolicy& cuts) {
    GBX_CHECK_VALUE(instances > 0, "need at least one instance");
    instances_.reserve(instances);
    for (std::size_t p = 0; p < instances; ++p)
      instances_.emplace_back(nrows, ncols, cuts);
  }

  std::size_t size() const { return instances_.size(); }
  instance_type& instance(std::size_t p) { return instances_[p]; }
  const instance_type& instance(std::size_t p) const { return instances_[p]; }

  /// Shared logical dimensions (every instance is constructed alike).
  gbx::Index nrows() const { return instances_.front().nrows(); }
  gbx::Index ncols() const { return instances_.front().ncols(); }

  /// Row-partitioned update, the same placement as the cluster router:
  /// split the batch with split_rows and apply one update() per touched
  /// instance, in part order. Instance p then holds exactly what worker p
  /// of an equally sized cluster holds after the same batches.
  void update_rows(const gbx::Tuples<T>& batch) {
    auto parts = split_rows(batch.entries(), instances_.size());
    for (std::size_t p = 0; p < parts.size(); ++p)
      if (!parts[p].empty())
        instances_[p].update(gbx::Tuples<T>(std::move(parts[p])));
  }

  /// Total raw entries appended across instances.
  std::uint64_t total_entries_appended() const {
    std::uint64_t n = 0;
    for (const auto& m : instances_) n += m.stats().entries_appended;
    return n;
  }

 private:
  std::vector<instance_type> instances_;
};

}  // namespace hier
