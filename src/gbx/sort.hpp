// gbx/sort.hpp — sorting and duplicate-folding kernels for (row, col,
// value) entries.
//
// Sorting a batch of updates by (row, col) is the hot kernel behind every
// pending-tuple fold in the hierarchical cascade. Every sort runs on the
// calling thread: parallelism comes from many independent instances (one
// ParallelStream lane per instance), never from inside one sort. There
// is one engine per key form:
//
//   * LSD radix sort over a packed 64-bit key. One scan computes the bit
//     widths of the row and column sets; whenever bits(row) + bits(col)
//     <= 64 the coordinate packs into a single word, key = (row <<
//     col_bits) | col, whose integer order equals the lexicographic
//     (row, col) order. Keys and values are split into SoA ping-pong
//     buffers (ScratchPool-backed, so steady-state folds never allocate)
//     and sorted least significant digit first, with digits of up to 12
//     bits spread evenly over the key's significant bits; constant
//     digits are skipped, so a scale-17 Kronecker batch (~36 significant
//     bits) takes 3 passes instead of n log n comparisons. LSD radix is
//     stable, which the fused dedup-during-final-scatter in gbx/fold.hpp
//     relies on.
//
//   * std::sort by entry_less. Entries whose coordinates cannot pack
//     into 64 bits (full IPv6-scale row AND column spaces in one batch)
//     take it, then dedup_sorted_entries. Not stable.
//
// `sort_entries` stays the single public API and picks the engine; small
// inputs use std::sort directly, where the scatter machinery cannot win.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbx/scratch.hpp"
#include "gbx/types.hpp"

namespace gbx {

/// One stored update: matrix coordinate plus value. AoS layout keeps the
/// comparison sort cache-friendly; the radix path unzips to SoA.
template <class T>
struct Entry {
  Index row;
  Index col;
  T val;

  friend constexpr bool operator==(const Entry& a, const Entry& b) {
    return a.row == b.row && a.col == b.col && a.val == b.val;
  }
};

/// Lexicographic (row, col) ordering; values do not participate.
template <class T>
constexpr bool entry_less(const Entry<T>& a, const Entry<T>& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

template <class T>
constexpr bool entry_key_equal(const Entry<T>& a, const Entry<T>& b) {
  return a.row == b.row && a.col == b.col;
}

namespace detail {

/// Below this the constant costs of pack/unpack + histograms exceed the
/// comparison savings and sort_entries uses std::sort.
inline constexpr std::size_t kRadixSortCutoff = 1u << 11;

// ---------------------------------------------------------------------
// Packed-key radix machinery (shared with the fused fold in gbx/fold.hpp)
// ---------------------------------------------------------------------

/// How a batch's (row, col) coordinates pack into one 64-bit key:
/// key = (row << col_bits) | col. `packable` is false when the combined
/// significant bits exceed 64 (e.g. full IPv6 row and column spaces in
/// the same batch) — those batches take std::sort.
struct RadixLayout {
  int col_bits = 0;
  int total_bits = 0;
  std::uint64_t col_mask = 0;
  bool packable = false;
};

template <class T>
RadixLayout radix_layout(const Entry<T>* e, std::size_t n) {
  Index row_or = 0, col_or = 0;
  for (std::size_t i = 0; i < n; ++i) {
    row_or |= e[i].row;
    col_or |= e[i].col;
  }
  RadixLayout l;
  const int row_bits = std::bit_width(row_or);
  l.col_bits = std::bit_width(col_or);
  l.total_bits = row_bits + l.col_bits;
  // col_bits == 64 would make the pack/decode shifts UB (shift by the
  // full word width); it only packs when every row is 0 — not worth a
  // special key form, std::sort handles it.
  l.packable = l.total_bits <= 64 && l.col_bits < 64;
  l.col_mask = l.col_bits == 0
                   ? 0
                   : (~std::uint64_t{0} >> (64 - l.col_bits));
  return l;
}

/// Widest digit the radix kernels use: 12 bits = 4096-bucket histograms
/// (32 KB of Offset counters — L1/L2 resident). Wider digits mean fewer
/// passes; the width is chosen per sort so the pass count is minimal
/// and the bits are spread evenly across the passes.
inline constexpr int kRadixMaxDigitBits = 12;
inline constexpr int kRadixMaxBuckets = 1 << kRadixMaxDigitBits;

/// Evenly-spread digit width for a key of `total_bits` significant bits
/// (e.g. 34 bits -> 3 passes of 12/11/11 bits instead of 5 byte passes).
inline int radix_digit_bits(int total_bits) {
  const int npasses =
      (total_bits + kRadixMaxDigitBits - 1) / kRadixMaxDigitBits;
  return (total_bits + npasses - 1) / npasses;
}

/// All per-pass digit histograms of `k` in one read: hist[p * buckets +
/// d] counts keys whose p-th digit is d. Shared by the sort-only and
/// fused-dedup drivers.
inline void radix_histograms(const std::uint64_t* k, std::size_t n,
                             int npasses, int digit_bits, int buckets,
                             std::uint64_t mask, Offset* hist) {
  std::fill(hist, hist + static_cast<std::size_t>(npasses) *
                             static_cast<std::size_t>(buckets),
            Offset{0});
  for (std::size_t i = 0; i < n; ++i)
    for (int p = 0; p < npasses; ++p)
      ++hist[static_cast<std::size_t>(p) * buckets +
             ((k[i] >> (p * digit_bits)) & mask)];
}

/// True when one bucket holds every key (the pass would be a no-op).
inline bool radix_digit_constant(const Offset* h, int buckets,
                                 std::size_t n) {
  for (int d = 0; d < buckets; ++d)
    if (h[d] == n) return true;
  return false;
}

/// One serial counting-scatter pass over (key, value) pairs: stable,
/// bucket cursors from the digit histogram `h`.
template <class T>
void radix_scatter_pass(const std::uint64_t* ka, const T* va,
                        std::uint64_t* kb, T* vb, std::size_t n, int shift,
                        std::uint64_t mask, const Offset* h, int buckets) {
  Offset cur[kRadixMaxBuckets];
  Offset acc = 0;
  for (int d = 0; d < buckets; ++d) {
    cur[d] = acc;
    acc += h[d];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = (ka[i] >> shift) & mask;
    const Offset w = cur[d]++;
    kb[w] = ka[i];
    vb[w] = va[i];
  }
}

/// Stable LSD radix sort of n (key, value) pairs by key. (k0, v0)
/// hold the input; (k1, v1) are equal-sized scratch. All per-pass digit
/// histograms come from one read, and digits that are constant across
/// every key are skipped (a scale-17 stream has ~30 constant bits).
/// Returns true when the sorted sequence ended in (k1, v1).
template <class T>
bool radix_sort_pairs(std::uint64_t* k0, T* v0, std::uint64_t* k1, T* v1,
                      std::size_t n, int total_bits, ScratchPool& pool) {
  if (n < 2 || total_bits == 0) return false;
  const int digit_bits = radix_digit_bits(total_bits);
  const int buckets = 1 << digit_bits;
  const std::uint64_t mask = static_cast<std::uint64_t>(buckets - 1);
  const int npasses = (total_bits + digit_bits - 1) / digit_bits;

  std::uint64_t* ka = k0;
  T* va = v0;
  std::uint64_t* kb = k1;
  T* vb = v1;
  bool flip = false;
  auto hist = pool.acquire<Offset>(static_cast<std::size_t>(npasses) *
                                   static_cast<std::size_t>(buckets));
  radix_histograms(k0, n, npasses, digit_bits, buckets, mask, hist.data());
  for (int p = 0; p < npasses; ++p) {
    const Offset* h = hist.data() + static_cast<std::size_t>(p) * buckets;
    if (radix_digit_constant(h, buckets, n)) continue;
    radix_scatter_pass(ka, va, kb, vb, n, p * digit_bits, mask, h, buckets);
    std::swap(ka, kb);
    std::swap(va, vb);
    flip = !flip;
  }
  return flip;
}

/// Split entries into packed-key / value SoA arrays (the ONE definition
/// of the key encoding; decode lives in the packed-run accessors).
/// Caller guarantees layout.packable.
template <class T>
void pack_keys(const Entry<T>* e, std::size_t n, const RadixLayout& layout,
               std::uint64_t* keys, T* vals) {
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = (static_cast<std::uint64_t>(e[i].row) << layout.col_bits) |
              static_cast<std::uint64_t>(e[i].col);
    vals[i] = e[i].val;
  }
}

/// Radix-sort an entry vector through the packed-key SoA path and write
/// the sorted sequence back in place. Caller guarantees layout.packable.
template <class T>
void radix_sort_entries(std::vector<Entry<T>>& v, const RadixLayout& layout,
                        ScratchPool& pool) {
  const std::size_t n = v.size();
  auto k0 = pool.acquire<std::uint64_t>(n);
  auto k1 = pool.acquire<std::uint64_t>(n);
  auto v0 = pool.acquire<T>(n);
  auto v1 = pool.acquire<T>(n);
  pack_keys(v.data(), n, layout, k0.data(), v0.data());
  const bool flip =
      radix_sort_pairs(k0.data(), v0.data(), k1.data(), v1.data(), n,
                       layout.total_bits, pool);
  const std::uint64_t* k = flip ? k1.data() : k0.data();
  const T* val = flip ? v1.data() : v0.data();
  for (std::size_t i = 0; i < n; ++i)
    v[i] = Entry<T>{static_cast<Index>(k[i] >> layout.col_bits),
                    static_cast<Index>(k[i] & layout.col_mask), val[i]};
}

}  // namespace detail

/// Sort entries by (row, col) on the calling thread. Packed-key LSD radix
/// (stable) for batches whose coordinates fit 64 combined bits, std::sort
/// below the cutoff and for unpackable batches. Callers that fold
/// duplicates must use a commutative monoid: std::sort is not stable, so
/// only commutative folds are order-insensitive across engines.
///
/// Scratch is a LOCAL pool, freed on return: callers of the public API
/// are one-shot nnz-scale sorts (transpose, Tuples::sort_dedup), and
/// caching ~32 bytes/entry per thread forever would dwarf the sort
/// itself. The fold pipeline, which genuinely re-sorts every batch,
/// goes through gbx::with_fold_run with the thread-local pool instead.
template <class T>
void sort_entries(std::vector<Entry<T>>& v) {
  if (v.size() >= detail::kRadixSortCutoff) {
    const auto layout = detail::radix_layout(v.data(), v.size());
    if (layout.packable) {
      ScratchPool pool;
      detail::radix_sort_entries(v, layout, pool);
      return;
    }
  }
  std::sort(v.begin(), v.end(), entry_less<T>);
}

/// Combine adjacent duplicate (row, col) keys of a *sorted* entry vector
/// with the monoid, compacting in place. Returns the number of surviving
/// entries. O(n) single pass.
template <class MonoidT, class T>
std::size_t dedup_sorted_entries(std::vector<Entry<T>>& v) {
  if (v.empty()) return 0;
  std::size_t w = 0;
  for (std::size_t r = 1; r < v.size(); ++r) {
    if (entry_key_equal(v[r], v[w])) {
      v[w].val = MonoidT::apply(v[w].val, v[r].val);
    } else {
      ++w;
      v[w] = v[r];
    }
  }
  v.resize(w + 1);
  return v.size();
}

}  // namespace gbx
