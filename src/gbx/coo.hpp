// gbx/coo.hpp — unsorted tuple (COO) buffers.
//
// Tuples is the gbx "pending updates" container: a flat append-only list
// of (row, col, value) entries with no ordering or uniqueness invariant.
// It is the fast-memory landing zone of the hierarchical cascade — an
// append costs one store, so streaming inserts never touch the compressed
// structure until a fold is forced.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/sort.hpp"
#include "gbx/types.hpp"

namespace gbx {

template <class T>
class Tuples {
 public:
  using value_type = T;
  using entry_type = Entry<T>;

  Tuples() = default;
  explicit Tuples(std::vector<entry_type> entries)
      : entries_(std::move(entries)) {}

  /// Number of buffered entries (duplicates counted; this is the paper's
  /// "number of entries in a level" that cut thresholds compare against).
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  /// Release capacity as well as contents (cascade resets use this so a
  /// cleared fast level really returns its memory).
  void reset() { std::vector<entry_type>().swap(entries_); }

  void push_back(Index row, Index col, T val) {
    entries_.push_back(entry_type{row, col, val});
  }

  /// Bulk append from parallel arrays (the GrB_Matrix_build-style API).
  void append(std::span<const Index> rows, std::span<const Index> cols,
              std::span<const T> vals) {
    GBX_CHECK_DIM(rows.size() == cols.size() && cols.size() == vals.size(),
                  "tuple arrays must have equal length");
    const std::size_t base = entries_.size();
    entries_.resize(base + rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
      entries_[base + i] = entry_type{rows[i], cols[i], vals[i]};
  }

  void append(const Tuples& other) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
  }

  /// Sort by (row, col) and fold duplicates with the monoid. After this
  /// the buffer is a valid input for Dcsr construction / merge.
  template <class MonoidT>
  void sort_dedup() {
    sort_entries(entries_);
    dedup_sorted_entries<MonoidT>(entries_);
  }

  std::vector<entry_type>& entries() { return entries_; }
  const std::vector<entry_type>& entries() const { return entries_; }

  const entry_type& operator[](std::size_t i) const { return entries_[i]; }
  entry_type& operator[](std::size_t i) { return entries_[i]; }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Bytes of heap memory currently held (fast-memory footprint metric).
  std::size_t memory_bytes() const {
    return entries_.capacity() * sizeof(entry_type);
  }

 private:
  std::vector<entry_type> entries_;
};

}  // namespace gbx
