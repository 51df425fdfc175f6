// gbx/vector.hpp — sparse vectors (GrB_Vector analogue).
//
// Stored as parallel sorted-unique (index, value) arrays. Vectors appear
// as the results of row/column reductions; they follow the same
// hypersparse discipline as matrices (storage ∝ nvals).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "gbx/error.hpp"
#include "gbx/monoid.hpp"
#include "gbx/types.hpp"

namespace gbx {

template <class T>
class SparseVector {
 public:
  using value_type = T;

  explicit SparseVector(Index size) : size_(size) {
    GBX_CHECK_VALUE(size > 0, "vector size must be > 0");
  }

  Index size() const { return size_; }
  std::size_t nvals() const { return idx_.size(); }
  bool empty() const { return idx_.empty(); }

  void clear() {
    idx_.clear();
    val_.clear();
  }

  /// Build from possibly-duplicated, unsorted tuples, folding duplicates
  /// with the monoid.
  template <class MonoidT = PlusMonoid<T>>
  void build(std::span<const Index> idx, std::span<const T> val) {
    GBX_CHECK_DIM(idx.size() == val.size(), "index/value length mismatch");
    clear();
    std::vector<std::pair<Index, T>> tmp(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      GBX_CHECK_INDEX(idx[k] < size_, "vector index out of bounds");
      tmp[k] = {idx[k], val[k]};
    }
    std::sort(tmp.begin(), tmp.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [i, v] : tmp) {
      if (!idx_.empty() && idx_.back() == i) {
        val_.back() = MonoidT::apply(val_.back(), v);
      } else {
        idx_.push_back(i);
        val_.push_back(v);
      }
    }
  }

  std::optional<T> get(Index i) const {
    GBX_CHECK_INDEX(i < size_, "vector index out of bounds");
    auto it = std::lower_bound(idx_.begin(), idx_.end(), i);
    if (it == idx_.end() || *it != i) return std::nullopt;
    return val_[static_cast<std::size_t>(it - idx_.begin())];
  }

  /// Direct sorted-unique assembly (kernel output path).
  void adopt(std::vector<Index> idx, std::vector<T> val) {
    GBX_CHECK_DIM(idx.size() == val.size(), "index/value length mismatch");
    idx_ = std::move(idx);
    val_ = std::move(val);
  }

  template <class F>
  void for_each(F&& f) const {
    for (std::size_t k = 0; k < idx_.size(); ++k) f(idx_[k], val_[k]);
  }

  std::span<const Index> indices() const { return idx_; }
  std::span<const T> values() const { return val_; }

  /// Reduce all stored values with a monoid; identity when empty.
  template <class MonoidT>
  T reduce() const {
    T acc = MonoidT::identity();
    for (const T& v : val_) acc = MonoidT::apply(acc, v);
    return acc;
  }

  friend bool operator==(const SparseVector& a, const SparseVector& b) {
    return a.size_ == b.size_ && a.idx_ == b.idx_ && a.val_ == b.val_;
  }

 private:
  Index size_;
  std::vector<Index> idx_;  // sorted, unique
  std::vector<T> val_;
};

}  // namespace gbx
