// gbx/serialize.hpp — binary (de)serialization of hypersparse matrices.
//
// A compact, versioned little-endian container (GxB_Matrix_serialize
// analogue): header (magic, version, value-type tag, dims, counts)
// followed by the raw DCSR arrays. Pending tuples are folded before
// writing, so a serialized matrix is always in canonical form and
// round-trips bit-exactly.
#pragma once

#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "gbx/matrix.hpp"
#include "gbx/view.hpp"

namespace gbx {

namespace detail {

inline constexpr std::uint64_t kSerializeMagic = 0x48484742'58303031ull;  // "HHGBX001"
inline constexpr std::uint32_t kSerializeVersion = 1;

/// Value-type tag for header validation across round-trips.
template <class T>
constexpr std::uint32_t type_tag() {
  if constexpr (std::is_same_v<T, double>) return 1;
  else if constexpr (std::is_same_v<T, float>) return 2;
  else if constexpr (std::is_same_v<T, std::int64_t>) return 3;
  else if constexpr (std::is_same_v<T, std::uint64_t>) return 4;
  else if constexpr (std::is_same_v<T, std::int32_t>) return 5;
  else if constexpr (std::is_same_v<T, std::uint32_t>) return 6;
  else return 1000 + sizeof(T);  // user types: size-checked only
}

template <class T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <class T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  GBX_CHECK(is.good(), "serialize: truncated stream");
  return v;
}

/// Read a length-prefixed array into `v` (replacing its contents).
template <class V>
void read_vec_into(std::istream& is, V& v) {
  const auto n = read_pod<std::uint64_t>(is);
  // Grow incrementally so a corrupted length field cannot trigger an
  // enormous up-front allocation: memory stays bounded by the bytes the
  // stream actually delivers.
  constexpr std::uint64_t kChunkElems = (1u << 20);
  v.clear();
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t take = std::min<std::uint64_t>(kChunkElems, n - done);
    v.resize(static_cast<std::size_t>(done + take));
    is.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(take * sizeof(*v.data())));
    GBX_CHECK(is.good(), "serialize: truncated array");
    done += take;
  }
}

/// The one matrix writer: header + raw DCSR arrays holding the rows of
/// `ranges` (row-disjoint, in row order) as one matrix of the full dims,
/// ptr rebased to start at 0, written from the blocks in place. The
/// out-of-core tier packs a level into block-sized segments with one
/// range each, and a reader that plus_assigns the segments back together
/// reconstructs the level bit-exactly (row ranges are disjoint, so no
/// fold reassociation); a checkpoint writes a bottom's chunks as one
/// matrix.
template <class T>
void serialize_ranges(std::ostream& os, Index nrows, Index ncols,
                      std::span<const RowRange<T>> ranges) {
  std::uint64_t nr = 0, nnz = 0;
  for (const auto& r : ranges) {
    GBX_CHECK_VALUE(r.k0 <= r.k1 && r.k1 <= r.blk->rows().size(),
                    "serialize: row position range out of bounds");
    nr += r.k1 - r.k0;
    nnz += r.blk->ptr()[r.k1] - r.blk->ptr()[r.k0];
  }
  auto put = [&os](const auto* p, std::size_t n) {
    os.write(reinterpret_cast<const char*>(p),
             static_cast<std::streamsize>(n * sizeof *p));
  };
  write_pod(os, kSerializeMagic);
  write_pod(os, kSerializeVersion);
  write_pod(os, type_tag<T>());
  write_pod<std::uint32_t>(os, 0);  // reserved/padding
  write_pod<Index>(os, nrows);
  write_pod<Index>(os, ncols);
  write_pod(os, nr);
  for (const auto& r : ranges) put(r.blk->rows().data() + r.k0, r.k1 - r.k0);
  write_pod(os, nr + 1);
  Offset base = 0;
  for (const auto& r : ranges) {  // ptr, rebased range by range
    std::vector<Offset> ptr(r.blk->ptr().begin() + r.k0,
                            r.blk->ptr().begin() + r.k1);
    for (auto& p : ptr) p = p - r.blk->ptr()[r.k0] + base;
    put(ptr.data(), ptr.size());
    base += r.blk->ptr()[r.k1] - r.blk->ptr()[r.k0];
  }
  write_pod(os, base);
  write_pod(os, nnz);
  for (const auto& r : ranges) {
    const auto p = r.blk->ptr();
    put(r.blk->cols().data() + p[r.k0], p[r.k1] - p[r.k0]);
  }
  write_pod(os, nnz);
  for (const auto& r : ranges) {
    const auto p = r.blk->ptr();
    put(r.blk->vals().data() + p[r.k0], p[r.k1] - p[r.k0]);
  }
  GBX_CHECK(os.good(), "serialize: write failure");
}

template <class T>
void serialize_rows(std::ostream& os, Index nrows, Index ncols,
                    const Dcsr<T>& s, std::size_t row_begin,
                    std::size_t row_end) {
  const RowRange<T> r{&s, row_begin, row_end};
  serialize_ranges<T>(os, nrows, ncols, {&r, 1});
}

}  // namespace detail

/// Write A (canonicalized) to the stream.
template <class T, class M>
void serialize(std::ostream& os, const Matrix<T, M>& A) {
  const Dcsr<T>& s = A.storage();
  detail::serialize_rows(os, A.nrows(), A.ncols(), s, 0, s.rows().size());
}

/// Write an immutable view — views are already canonical, so this never
/// touches the owning matrix (live-snapshot checkpoints use it).
template <class T>
void serialize(std::ostream& os, const MatrixView<T>& A) {
  const Dcsr<T>& s = A.storage();
  detail::serialize_rows(os, A.nrows(), A.ncols(), s, 0, s.rows().size());
}

/// Read a matrix previously written by serialize<T>.
template <class T, class M = PlusMonoid<T>>
Matrix<T, M> deserialize(std::istream& is) {
  GBX_CHECK(detail::read_pod<std::uint64_t>(is) == detail::kSerializeMagic,
            "deserialize: bad magic (not an hhgbx matrix)");
  GBX_CHECK(detail::read_pod<std::uint32_t>(is) == detail::kSerializeVersion,
            "deserialize: unsupported version");
  GBX_CHECK(detail::read_pod<std::uint32_t>(is) == detail::type_tag<T>(),
            "deserialize: value type mismatch");
  (void)detail::read_pod<std::uint32_t>(is);  // reserved
  const Index nrows = detail::read_pod<Index>(is);
  const Index ncols = detail::read_pod<Index>(is);

  Dcsr<T> d;
  detail::read_vec_into(is, d.mutable_rows());
  detail::read_vec_into(is, d.mutable_ptr());
  detail::read_vec_into(is, d.mutable_cols());
  detail::read_vec_into(is, d.mutable_vals());
  GBX_CHECK(d.validate(), "deserialize: corrupt DCSR payload");
  // Rows ascend, and columns ascend within a row, so the last row and
  // each row's last column bound every coordinate.
  GBX_CHECK(d.rows().empty() || d.rows().back() < nrows,
            "deserialize: row outside the matrix dimensions");
  for (std::size_t k = 0; k < d.rows().size(); ++k)
    GBX_CHECK(d.cols()[d.ptr()[k + 1] - 1] < ncols,
              "deserialize: column outside the matrix dimensions");
  return Matrix<T, M>::adopt(nrows, ncols, std::move(d));
}

}  // namespace gbx
