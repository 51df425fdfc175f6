// assoc/assoc_array.hpp — D4M associative arrays.
//
// An associative array is a matrix whose rows and columns are labelled by
// strings (Kepner & Jananthan, "Mathematics of Big Data", 2018). It is
// the representation the paper's group used *before* moving to integer-
// keyed GraphBLAS matrices; we implement it both as a substrate in its
// own right and as the "D4M" baseline family of Fig. 2. The value matrix
// is a gbx hypersparse matrix over dictionary ids, so associative array
// algebra inherits GraphBLAS semantics.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/reduce.hpp"
#include "assoc/string_pool.hpp"

namespace assoc {

template <class T = double>
class AssocArray {
 public:
  using value_type = T;
  using matrix_type = gbx::Matrix<T>;

  /// `capacity` bounds the number of *distinct* row/col keys (the id
  /// space of the backing hypersparse matrix); entries are unbounded.
  explicit AssocArray(gbx::Index capacity = gbx::Index{1} << 32)
      : mat_(capacity, capacity) {}

  /// A(row, col) += v (plus-accumulate, the D4M default on duplicate keys).
  void insert(std::string_view row, std::string_view col, T v) {
    mat_.set_element(rows_.intern(row), cols_.intern(col), v);
  }

  /// Number of stored entries (forces pending fold).
  std::size_t nvals() const { return mat_.nvals(); }
  std::size_t nvals_bound() const { return mat_.nvals_bound(); }

  std::size_t num_row_keys() const { return rows_.size(); }
  std::size_t num_col_keys() const { return cols_.size(); }

  /// Value at (row, col) or 0 when absent (D4M's sparse-zero semantics).
  T get(std::string_view row, std::string_view col) const {
    const gbx::Index i = rows_.find(row);
    const gbx::Index j = cols_.find(col);
    if (i == gbx::kIndexMax || j == gbx::kIndexMax) return T{};
    return mat_.extract_element(i, j).value_or(T{});
  }

  /// f(row_key, col_key, value) over all entries, row-major in id order.
  template <class F>
  void for_each(F&& f) const {
    mat_.for_each([&](gbx::Index i, gbx::Index j, T v) {
      f(rows_.key(i), cols_.key(j), v);
    });
  }

  /// Row-key range query: all entries with lo <= row key <= hi.
  /// Returns (row, col, value) string triples in key order.
  std::vector<std::tuple<std::string, std::string, T>> row_range(
      std::string_view lo, std::string_view hi) const {
    std::vector<std::tuple<std::string, std::string, T>> out;
    const auto ids = rows_.range(lo, hi);
    const auto& s = mat_.storage();
    for (gbx::Index id : ids) {
      auto r = s.rows();
      auto it = std::lower_bound(r.begin(), r.end(), id);
      if (it == r.end() || *it != id) continue;
      const std::size_t k = static_cast<std::size_t>(it - r.begin());
      for (gbx::Offset p = s.ptr()[k]; p < s.ptr()[k + 1]; ++p)
        out.emplace_back(rows_.key(id), cols_.key(s.cols()[p]), s.vals()[p]);
    }
    return out;
  }

  /// Element-wise sum: dictionaries are unioned, values plus-combined.
  /// This is the fold operation of hierarchical D4M arrays.
  void plus_assign(const AssocArray& other) {
    gbx::Tuples<T> remap;
    other.mat_.for_each([&](gbx::Index i, gbx::Index j, T v) {
      remap.push_back(rows_.intern(other.rows_.key(i)),
                      cols_.intern(other.cols_.key(j)), v);
    });
    mat_.append(remap);
    mat_.materialize();
  }

  /// Sum of all values per row key, as (key, total) pairs.
  std::vector<std::pair<std::string, T>> row_sums() const {
    auto v = gbx::reduce_rows<gbx::PlusMonoid<T>>(mat_);
    std::vector<std::pair<std::string, T>> out;
    v.for_each([&](gbx::Index i, T s) { out.emplace_back(rows_.key(i), s); });
    return out;
  }

  void clear() {
    mat_.clear();
  }

  /// Fold pending updates into compressed storage.
  void materialize() const { mat_.materialize(); }

  const matrix_type& matrix() const { return mat_; }
  const StringPool& row_keys() const { return rows_; }
  const StringPool& col_keys() const { return cols_; }

  std::size_t memory_bytes() const {
    return mat_.memory_bytes() + rows_.memory_bytes() + cols_.memory_bytes();
  }

 private:
  StringPool rows_;
  StringPool cols_;
  matrix_type mat_;
};

}  // namespace assoc
