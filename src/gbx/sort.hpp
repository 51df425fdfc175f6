// gbx/sort.hpp — sorting and duplicate-folding kernels for (row, col,
// value) entries.
//
// Sorting a batch of updates by (row, col) is the hot kernel behind every
// pending-tuple fold in the hierarchical cascade, so it gets two engines:
//
//   * LSD radix sort over a packed 64-bit key (the fast path). One scan
//     computes the bit widths of the row and column sets; whenever
//     bits(row) + bits(col) <= 64 the coordinate packs into a single
//     word, key = (row << col_bits) | col, whose integer order equals the
//     lexicographic (row, col) order. Keys and values are split into SoA
//     ping-pong buffers (ScratchPool-backed, so steady-state folds never
//     allocate) and sorted least significant digit first, with digits of
//     up to 12 bits spread evenly over the key's significant bits;
//     constant digits are skipped, so a scale-17 Kronecker batch (~36
//     significant bits) takes 3 passes instead of n log n comparisons.
//     Runs below kParallelSortCutoff sort serially on the calling
//     thread; only larger runs fork an OpenMP team with per-thread
//     histograms for the counting and scatter passes. LSD radix is
//     stable, which the fused dedup-during-final-scatter in
//     gbx/fold.hpp relies on.
//
//   * Comparison sample sort (the fallback). Entries whose coordinates
//     cannot pack into 64 bits (full IPv6-scale row AND column spaces in
//     one batch) take the original OpenMP sample sort: splitters from a
//     strided sample, per-thread scatter histograms, buckets sorted
//     independently. Robust to heavy row skew; not stable.
//
// `sort_entries` stays the single public API and picks the engine; small
// inputs use std::sort directly, where the scatter machinery cannot win.
#pragma once

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbx/parallel.hpp"
#include "gbx/scratch.hpp"
#include "gbx/tsan_omp.hpp"
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

/// Fork cutoff: runs shorter than this sort (and dedup) on the calling
/// thread — the radix engine serially, the comparison engine with
/// std::sort — even when OpenMP offers threads. It is the served
/// shape's crossover: each ParallelStream lane folds its own batch, so
/// two lanes sort at once and each forked team competes with the other
/// lane for the same cores. bench_ingest_hotpath prints the table that
/// places it (fold sort + dedup, aggregate entries/s, best of 3; 4-thread
/// x86 host, teams of 4):
///
///   entries  lanes  serial  forked  forked/serial
///   2^15     2      73.7M   22.7M   0.31
///   2^16     2      60.2M   30.0M   0.50
///   2^17     2      60.3M   56.1M   0.93
///   2^18     2      29.3M   45.8M   1.56
///
/// Six of seven runs put the two-lane crossover at 2^18 (forked/serial
/// 0.74-0.98 at 2^17, 1.29-1.58 at 2^18); the seventh, on a loaded host,
/// found none up to 2^18. At 2^18 one lane's 8 MB of ping-pong buffers
/// outgrow a core's 2 MB L2, and a team spreads them over four. So a
/// 50K-entry batch (36 significant bits, 3 passes) never forks, while
/// one-shot sort_entries calls and large pending runs still take the
/// forked radix, sample-sort and dedup engines. One lane alone on idle
/// cores crosses earlier (forked/serial 1.16-1.42 at 2^17).
inline constexpr std::size_t kParallelSortCutoff = std::size_t{1} << 18;

/// Below this the constant costs of pack/unpack + histograms exceed the
/// comparison savings and sort_entries uses std::sort.
inline constexpr std::size_t kRadixSortCutoff = 1u << 11;

template <class T>
void sample_sort(std::vector<Entry<T>>& v) {
  const std::size_t n = v.size();
  const int threads = max_threads();
  const int kb = std::min<int>(std::max(2, threads * 4), 256);  // buckets

  // --- splitters from a strided sample -------------------------------
  const std::size_t sample_sz = static_cast<std::size_t>(kb) * 32;
  std::vector<Entry<T>> sample(sample_sz);
  for (std::size_t s = 0; s < sample_sz; ++s)
    sample[s] = v[(s * n) / sample_sz];
  std::sort(sample.begin(), sample.end(), entry_less<T>);
  std::vector<Entry<T>> split(static_cast<std::size_t>(kb) - 1);
  for (int b = 1; b < kb; ++b)
    split[static_cast<std::size_t>(b) - 1] =
        sample[(static_cast<std::size_t>(b) * sample_sz) / kb];

  auto bucket_of = [&](const Entry<T>& e) -> int {
    return static_cast<int>(
        std::upper_bound(split.begin(), split.end(), e, entry_less<T>) -
        split.begin());
  };

  // --- per-thread histograms ------------------------------------------
  const auto chunks = block_ranges(n, threads);
  const int nchunks = static_cast<int>(chunks.size()) - 1;
  // hist[c][b] = #entries of chunk c going to bucket b
  std::vector<std::vector<Offset>> hist(
      static_cast<std::size_t>(nchunks),
      std::vector<Offset>(static_cast<std::size_t>(kb), 0));

  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
    for (int c = 0; c < nchunks; ++c) {
      auto& h = hist[static_cast<std::size_t>(c)];
      for (Offset i = chunks[static_cast<std::size_t>(c)];
           i < chunks[static_cast<std::size_t>(c) + 1]; ++i)
        ++h[static_cast<std::size_t>(bucket_of(v[i]))];
    }
  }

  // --- global offsets: bucket-major, then chunk within bucket ---------
  std::vector<Offset> bucket_start(static_cast<std::size_t>(kb) + 1, 0);
  for (int b = 0; b < kb; ++b)
    for (int c = 0; c < nchunks; ++c)
      bucket_start[static_cast<std::size_t>(b) + 1] +=
          hist[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)];
  for (int b = 0; b < kb; ++b)
    bucket_start[static_cast<std::size_t>(b) + 1] +=
        bucket_start[static_cast<std::size_t>(b)];

  // write cursor for (chunk, bucket)
  std::vector<std::vector<Offset>> cursor(hist);
  for (int b = 0; b < kb; ++b) {
    Offset acc = bucket_start[static_cast<std::size_t>(b)];
    for (int c = 0; c < nchunks; ++c) {
      Offset cnt = hist[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)];
      cursor[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)] = acc;
      acc += cnt;
    }
  }

  // --- scatter ---------------------------------------------------------
  std::vector<Entry<T>> tmp(n);
  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
    for (int c = 0; c < nchunks; ++c) {
      auto& cur = cursor[static_cast<std::size_t>(c)];
      for (Offset i = chunks[static_cast<std::size_t>(c)];
           i < chunks[static_cast<std::size_t>(c) + 1]; ++i)
        tmp[cur[static_cast<std::size_t>(bucket_of(v[i]))]++] = v[i];
    }
  }

  // --- sort buckets independently --------------------------------------
  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(dynamic, 1)
    for (int b = 0; b < kb; ++b) {
      std::sort(tmp.begin() + static_cast<std::ptrdiff_t>(
                                  bucket_start[static_cast<std::size_t>(b)]),
                tmp.begin() + static_cast<std::ptrdiff_t>(
                                  bucket_start[static_cast<std::size_t>(b) + 1]),
                entry_less<T>);
    }
  }

  v.swap(tmp);
}

// ---------------------------------------------------------------------
// Packed-key radix machinery (shared with the fused fold in gbx/fold.hpp)
// ---------------------------------------------------------------------

/// How a batch's (row, col) coordinates pack into one 64-bit key:
/// key = (row << col_bits) | col. `packable` is false when the combined
/// significant bits exceed 64 (e.g. full IPv6 row and column spaces in
/// the same batch) — those batches take the comparison path.
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
  // special key form, the comparison fallback handles it.
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
/// fused-dedup serial drivers.
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

/// Stable serial LSD radix sort of n (key, value) pairs by key. (k0, v0)
/// hold the input; (k1, v1) are equal-sized scratch. All per-pass digit
/// histograms come from one read, and digits that are constant across
/// every key are skipped (a scale-17 stream has ~30 constant bits).
/// Returns true when the sorted sequence ended in (k1, v1).
template <class T>
bool radix_sort_pairs_serial(std::uint64_t* k0, T* v0, std::uint64_t* k1,
                             T* v1, std::size_t n, int total_bits,
                             ScratchPool& pool) {
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

/// The forked engine: the same stable sort, with an OpenMP team of
/// max_threads() running each pass's counting read and its scatter.
/// radix_sort_pairs and the fold's radix_sort_dedup_pairs take it above
/// kParallelSortCutoff; bench_ingest_hotpath times it against the serial
/// engine to place that cutoff.
template <class T>
bool radix_sort_pairs_forked(std::uint64_t* k0, T* v0, std::uint64_t* k1,
                             T* v1, std::size_t n, int total_bits,
                             ScratchPool& pool) {
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

  // Per pass, a per-chunk counting read of the pass's actual input
  // (chunk contents change after every scatter, so counts cannot be
  // precomputed), then bucket-major / chunk-major cursors (stable, like
  // the sample sort's scatter) and a parallel scatter.
  const auto chunks = block_ranges(n, max_threads());
  const int nchunks = static_cast<int>(chunks.size()) - 1;
  auto hist = pool.acquire<Offset>(static_cast<std::size_t>(nchunks) *
                                   static_cast<std::size_t>(buckets));
  auto cursor = pool.acquire<Offset>(static_cast<std::size_t>(nchunks) *
                                     static_cast<std::size_t>(buckets));
  auto h_at = [&](int c) {
    return hist.data() +
           static_cast<std::size_t>(c) * static_cast<std::size_t>(buckets);
  };

  for (int p = 0; p < npasses; ++p) {
    const int shift = p * digit_bits;
    std::fill(hist.begin(), hist.end(), Offset{0});
    GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
    {
      gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
      for (int c = 0; c < nchunks; ++c) {
        Offset* h = h_at(c);
        for (Offset i = chunks[static_cast<std::size_t>(c)];
             i < chunks[static_cast<std::size_t>(c) + 1]; ++i)
          ++h[(ka[i] >> shift) & mask];
      }
    }

    // Cursors (and constant-digit detection) in one bucket-major walk.
    Offset acc = 0;
    bool constant = false;
    for (int d = 0; d < buckets; ++d) {
      Offset digit_total = 0;
      for (int c = 0; c < nchunks; ++c) {
        const Offset cnt = h_at(c)[d];
        cursor[static_cast<std::size_t>(c) * static_cast<std::size_t>(buckets) +
               static_cast<std::size_t>(d)] = acc;
        acc += cnt;
        digit_total += cnt;
      }
      if (digit_total == n) constant = true;
    }
    if (constant) continue;

    GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
    {
      gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
      for (int c = 0; c < nchunks; ++c) {
        Offset* cur = cursor.data() + static_cast<std::size_t>(c) *
                                          static_cast<std::size_t>(buckets);
        for (Offset i = chunks[static_cast<std::size_t>(c)];
             i < chunks[static_cast<std::size_t>(c) + 1]; ++i) {
          const auto d = (ka[i] >> shift) & mask;
          const Offset w = cur[d]++;
          kb[w] = ka[i];
          vb[w] = va[i];
        }
      }
    }
    std::swap(ka, kb);
    std::swap(va, vb);
    flip = !flip;
  }
  return flip;
}

/// Stable LSD radix sort of n (key, value) pairs by key: serial below
/// kParallelSortCutoff or with one thread, forked above it. Returns true
/// when the sorted sequence ended in (k1, v1).
template <class T>
bool radix_sort_pairs(std::uint64_t* k0, T* v0, std::uint64_t* k1, T* v1,
                      std::size_t n, int total_bits, ScratchPool& pool) {
  if (max_threads() == 1 || n < kParallelSortCutoff)
    return radix_sort_pairs_serial(k0, v0, k1, v1, n, total_bits, pool);
  return radix_sort_pairs_forked(k0, v0, k1, v1, n, total_bits, pool);
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

/// Fold adjacent equal keys of a *sorted* (key, value) SoA run in place.
template <class MonoidT, class T>
std::size_t dedup_pairs(std::uint64_t* k, T* v, std::size_t n) {
  if (n == 0) return 0;
  std::size_t w = 0;
  for (std::size_t r = 1; r < n; ++r) {
    if (k[r] == k[w]) {
      v[w] = MonoidT::apply(v[w], v[r]);
    } else {
      ++w;
      k[w] = k[r];
      v[w] = v[r];
    }
  }
  return w + 1;
}

}  // namespace detail

/// The pre-radix comparison engine (std::sort / OpenMP sample sort).
/// Kept callable on its own so benches and differential tests can pit
/// the pipelines against each other; `sort_entries` is the real API.
template <class T>
void sort_entries_comparison(std::vector<Entry<T>>& v) {
  if (v.size() < detail::kParallelSortCutoff || max_threads() == 1) {
    std::sort(v.begin(), v.end(), entry_less<T>);
  } else {
    detail::sample_sort(v);
  }
}

/// Sort entries by (row, col). Packed-key LSD radix (stable) for batches
/// whose coordinates fit 64 combined bits, std::sort below the cutoff,
/// comparison sample sort for unpackable giants. Callers that fold
/// duplicates must use a commutative monoid: the comparison fallback is
/// not stable, so only commutative folds are order-insensitive across
/// engines.
///
/// Scratch is a LOCAL pool, freed on return: callers of the public API
/// are one-shot nnz-scale sorts (transpose, kron, structure), and
/// caching ~32 bytes/entry per thread forever would dwarf the sort
/// itself. The fold pipeline, which genuinely re-sorts every batch,
/// goes through gbx::with_fold_run with the thread-local pool instead.
template <class T>
void sort_entries(std::vector<Entry<T>>& v) {
  if (v.size() < detail::kRadixSortCutoff) {
    std::sort(v.begin(), v.end(), entry_less<T>);
    return;
  }
  const auto layout = detail::radix_layout(v.data(), v.size());
  if (layout.packable) {
    ScratchPool pool;
    detail::radix_sort_entries(v, layout, pool);
  } else {
    sort_entries_comparison(v);
  }
}

/// Combine adjacent duplicate (row, col) keys of a *sorted* entry vector
/// with the monoid, compacting in place. Returns the number of surviving
/// entries. O(n) single pass; parallel variant below kicks in for large n.
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

/// Parallel dedup: chunk boundaries are advanced past runs of equal keys
/// so no run straddles two chunks, each chunk compacts independently, and
/// the compacted spans are concatenated. The concatenation is a
/// prefix-sum scatter into a recycled thread-local buffer running one
/// parallel pass (chunk destinations are disjoint by construction), so
/// huge mostly-duplicate results no longer pay a serial memmove.
template <class MonoidT, class T>
std::size_t dedup_sorted_entries_parallel(std::vector<Entry<T>>& v) {
  const std::size_t n = v.size();
  if (n < detail::kParallelSortCutoff || max_threads() == 1)
    return dedup_sorted_entries<MonoidT>(v);

  const int threads = max_threads();
  auto bounds = block_ranges(n, threads);
  // Align boundaries to run starts. A run longer than a whole chunk
  // pushes that chunk's boundary up to (or past) the next original
  // boundary; boundaries stay monotone because equal keys all advance to
  // the same run end.
  for (std::size_t b = 1; b + 1 <= bounds.size() - 1; ++b) {
    Offset& x = bounds[b];
    while (x < n && x > 0 && entry_key_equal(v[x], v[x - 1])) ++x;
  }
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  std::vector<std::size_t> out_count(static_cast<std::size_t>(nchunks), 0);

  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
    for (int c = 0; c < nchunks; ++c) {
      const Offset lo = bounds[static_cast<std::size_t>(c)];
      const Offset hi = bounds[static_cast<std::size_t>(c) + 1];
      if (lo >= hi) continue;
      Offset w = lo;
      for (Offset r = lo + 1; r < hi; ++r) {
        if (entry_key_equal(v[r], v[w])) {
          v[w].val = MonoidT::apply(v[w].val, v[r].val);
        } else {
          ++w;
          v[w] = v[r];
        }
      }
      out_count[static_cast<std::size_t>(c)] = w + 1 - lo;
    }
  }

  // Exclusive prefix sum of chunk output sizes -> scatter destinations.
  std::vector<std::size_t> dst(static_cast<std::size_t>(nchunks));
  std::size_t total = 0;
  for (int c = 0; c < nchunks; ++c) {
    dst[static_cast<std::size_t>(c)] = total;
    total += out_count[static_cast<std::size_t>(c)];
  }
  if (total == n) return n;  // nothing folded anywhere: already compact

  // Parallel scatter through a pool-leased staging buffer, then a
  // parallel copy back into the vector's prefix. (In-place leftward
  // memmoves cannot run in parallel: chunk c's destination overlaps
  // chunk c-1's source.) The lease comes from the calling thread's
  // ScratchPool, so repeated callers recycle it and the bytes stay
  // visible to the pool's accounting/release hooks.
  auto staged = ScratchPool::local().acquire<Entry<T>>(total);
  Entry<T>* const out = staged.data();
  const Entry<T>* const in = v.data();
  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
    for (int c = 0; c < nchunks; ++c) {
      const Offset lo = bounds[static_cast<std::size_t>(c)];
      const std::size_t cnt = out_count[static_cast<std::size_t>(c)];
      if (cnt > 0)
        std::copy(in + lo, in + lo + cnt,
                  out + dst[static_cast<std::size_t>(c)]);
    }
  }  // staging scatter joins before the copy-back region reads `out`
  Entry<T>* const back = v.data();
  const auto cb = block_ranges(total, threads);
  const int ncb = static_cast<int>(cb.size()) - 1;
  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    gbx::OmpRegionGuard tsan_region;
#pragma omp for schedule(static)
    for (int c = 0; c < ncb; ++c) {
      std::copy(out + cb[static_cast<std::size_t>(c)],
                out + cb[static_cast<std::size_t>(c) + 1],
                back + cb[static_cast<std::size_t>(c)]);
    }
  }
  v.resize(total);
  return total;
}

}  // namespace gbx
