// gbx/fold.hpp — the fused pending-fold pipeline.
//
// The seed fold path ran three separate kernels per cascade fold, each
// with its own allocations: comparison sort over AoS entries, a dedup
// pass, Dcsr::from_sorted_unique into a fresh block, then a two-pass
// ewise union producing yet another block. This header fuses the chain:
//
//   pending entries ── radix sort (packed keys, SoA, scratch-backed)
//                   ── dedup during the final scatter pass
//                   ── one streaming merge straight into the destination
//                      level's DCSR (no intermediate Dcsr; the recycled
//                      spare block is sized by Dcsr::prepare(), which
//                      reuses its capacity, grows a short array by 1.5x
//                      and never zero-fills)
//
// `with_fold_run` produces the sorted unique run (zero-copy view over
// ScratchPool buffers on the packed fast path, over the pending vector
// itself on the std::sort fallback); `merge_run_into` / `build_from_run`
// consume it. The sort and its dedup run on the calling thread, like
// every sort in gbx/sort.hpp: a ParallelStream lane folds its own batch.
// gbx::Matrix drives the pipeline from materialize(), plus_assign() and
// fold_from().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gbx/dcsr.hpp"
#include "gbx/scratch.hpp"
#include "gbx/sort.hpp"

namespace gbx {

namespace detail {

/// Sorted unique run in packed-key SoA form (ScratchPool-backed).
template <class T>
struct PackedRun {
  const std::uint64_t* keys;
  const T* vals;
  std::size_t n;
  int col_bits;
  std::uint64_t col_mask;

  std::size_t size() const { return n; }
  Index row(std::size_t i) const {
    return static_cast<Index>(keys[i] >> col_bits);
  }
  Index col(std::size_t i) const {
    return static_cast<Index>(keys[i] & col_mask);
  }
  const T& val(std::size_t i) const { return vals[i]; }
};

/// Sorted unique run over entry structs (comparison-fallback form).
template <class T>
struct AosRun {
  const Entry<T>* e;
  std::size_t n;

  std::size_t size() const { return n; }
  Index row(std::size_t i) const { return e[i].row; }
  Index col(std::size_t i) const { return e[i].col; }
  const T& val(std::size_t i) const { return e[i].val; }
};

/// Radix sort + fused dedup of n (key, value) pairs on the calling
/// thread: the dedup happens inside the final scatter pass. LSD
/// stability makes equal keys arrive consecutively per bucket, so the
/// scatter folds into the bucket's last written slot instead of
/// advancing, and a short bucket-compaction walk closes the gaps.
/// Returns the number of unique keys; *out_flip says which ping-pong
/// buffer holds them.
template <class MonoidT, class T>
std::size_t radix_sort_dedup_pairs(std::uint64_t* k0, T* v0,
                                   std::uint64_t* k1, T* v1, std::size_t n,
                                   int total_bits, ScratchPool& pool,
                                   bool* out_flip) {
  *out_flip = false;
  if (n == 0) return 0;

  // All per-pass histograms in one read (shared radix helpers);
  // the last non-constant pass doubles as the dedup pass.
  const int digit_bits = total_bits == 0 ? 1 : radix_digit_bits(total_bits);
  const int buckets = 1 << digit_bits;
  const std::uint64_t mask = static_cast<std::uint64_t>(buckets - 1);
  const int npasses = (total_bits + digit_bits - 1) / digit_bits;
  auto hist = pool.acquire<Offset>(static_cast<std::size_t>(npasses ? npasses : 1) *
                                   static_cast<std::size_t>(buckets));
  radix_histograms(k0, n, npasses, digit_bits, buckets, mask, hist.data());
  auto h_at = [&](int p) {
    return hist.data() + static_cast<std::size_t>(p) * buckets;
  };

  int last_active = -1;
  for (int p = 0; p < npasses; ++p)
    if (!radix_digit_constant(h_at(p), buckets, n)) last_active = p;
  if (last_active < 0) {
    // Every key identical: fold all values into slot 0.
    for (std::size_t i = 1; i < n; ++i) v0[0] = MonoidT::apply(v0[0], v0[i]);
    return 1;
  }

  std::uint64_t* ka = k0;
  T* va = v0;
  std::uint64_t* kb = k1;
  T* vb = v1;
  bool flip = false;
  for (int p = 0; p < last_active; ++p) {
    const Offset* h = h_at(p);
    if (radix_digit_constant(h, buckets, n)) continue;
    radix_scatter_pass(ka, va, kb, vb, n, p * digit_bits, mask, h, buckets);
    std::swap(ka, kb);
    std::swap(va, vb);
    flip = !flip;
  }

  // Final pass: scatter with in-bucket dedup. Equal full keys share
  // every digit, and the input is sorted (stably) by all lower digits,
  // so within a bucket they arrive back to back — comparing against the
  // bucket's last written key is enough.
  {
    const int shift = last_active * digit_bits;
    const Offset* h = h_at(last_active);
    Offset start[kRadixMaxBuckets];
    Offset cur[kRadixMaxBuckets];
    Offset acc = 0;
    for (int d = 0; d < buckets; ++d) {
      start[d] = acc;
      cur[d] = acc;
      acc += h[d];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto d = (ka[i] >> shift) & mask;
      const Offset w = cur[d];
      if (w > start[d] && kb[w - 1] == ka[i]) {
        vb[w - 1] = MonoidT::apply(vb[w - 1], va[i]);
      } else {
        kb[w] = ka[i];
        vb[w] = va[i];
        cur[d] = w + 1;
      }
    }
    // Compact the per-bucket gaps left by folded duplicates.
    std::size_t w = 0;
    for (int d = 0; d < buckets; ++d) {
      const std::size_t lo = start[d];
      const std::size_t len = cur[d] - start[d];
      if (len == 0) continue;
      if (w != lo) {
        std::copy(kb + lo, kb + lo + len, kb + w);
        std::copy(vb + lo, vb + lo + len, vb + w);
      }
      w += len;
    }
    flip = !flip;
    *out_flip = flip;
    return w;
  }
}

}  // namespace detail

/// Sort `pending` by (row, col), fold duplicate keys with MonoidT, and
/// invoke f(run) with a zero-copy view of the sorted unique run. The run
/// lives in ScratchPool buffers (packed radix fast path) or in `pending`
/// itself (std::sort below the cutoff or when the coordinates cannot
/// pack into 64 bits) and is valid only inside f. `pending`'s contents
/// are consumed (left unspecified).
template <class MonoidT, class T, class F>
void with_fold_run(std::vector<Entry<T>>& pending, ScratchPool& pool, F&& f) {
  const std::size_t n = pending.size();
  const auto layout = n < detail::kRadixSortCutoff
                          ? detail::RadixLayout{}
                          : detail::radix_layout(pending.data(), n);
  if (!layout.packable) {
    std::sort(pending.begin(), pending.end(), entry_less<T>);
    const std::size_t m = dedup_sorted_entries<MonoidT>(pending);
    f(detail::AosRun<T>{pending.data(), m});
    return;
  }
  auto k0 = pool.acquire<std::uint64_t>(n);
  auto k1 = pool.acquire<std::uint64_t>(n);
  auto v0 = pool.acquire<T>(n);
  auto v1 = pool.acquire<T>(n);
  detail::pack_keys(pending.data(), n, layout, k0.data(), v0.data());
  bool flip = false;
  const std::size_t m = detail::radix_sort_dedup_pairs<MonoidT>(
      k0.data(), v0.data(), k1.data(), v1.data(), n, layout.total_bits, pool,
      &flip);
  f(detail::PackedRun<T>{flip ? k1.data() : k0.data(),
                         flip ? v1.data() : v0.data(), m, layout.col_bits,
                         layout.col_mask});
}

/// Build `out` from a sorted unique run alone (empty-destination fold).
/// Reuses out's capacity (Dcsr::prepare); no other allocation. One scan
/// of the run's rows first sizes the row arrays exactly: a dense-row
/// run holds far fewer rows than entries.
template <class T, class Run>
void build_from_run(const Run& run, Dcsr<T>& out) {
  const std::size_t n = run.size();
  std::size_t nrows = 0;
  for (std::size_t i = 0; i < n; ++i)
    nrows += static_cast<std::size_t>(i == 0 || run.row(i) != run.row(i - 1));
  out.prepare(nrows, n);
  auto& rows = out.mutable_rows();
  auto& ptr = out.mutable_ptr();
  auto& cols = out.mutable_cols();
  auto& vals = out.mutable_vals();
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Index r = run.row(i);
    if (k == 0 || rows[k - 1] != r) {
      rows[k] = r;
      ptr[k++] = static_cast<Offset>(i);
    }
    cols[i] = run.col(i);
    vals[i] = run.val(i);
  }
  ptr[k] = static_cast<Offset>(n);
}

/// C = A ⊕ B as ONE serial streaming pass that can stop and resume:
/// each step(budget) writes at most `budget` more output entries (it may
/// stop inside a row) and returns true once the merge is complete, with
/// `out` trimmed to the result. The constructor sizes `out` to the upper
/// bound |A| + |B| by Dcsr::prepare (no counting pass, no zero-fill), so
/// the output never reallocates mid-merge. A, B and `out` must stay put
/// and unchanged by anyone else until the merge completes; `out` must not
/// alias A or B. The range form merges the rows at positions [ka, ka_end)
/// of A with those at [kb, kb_end) of B after what `out` already holds
/// (Dcsr::extend), and stops at a row boundary when the next row could
/// take `out` past `cap` entries (full(); an empty `out` takes any first
/// row): a HierMatrix fills its bottom's chunks this way.
/// merge_blocks_into is the whole form run to completion.
template <class Op, class T>
class BlockMerge {
 public:
  BlockMerge(const Dcsr<T>& A, const Dcsr<T>& B, Dcsr<T>& out)
      : a_(&A), b_(&B), out_(&out), a_end_(A.nrows_nonempty()),
        b_end_(B.nrows_nonempty()) {
    out.prepare(A.nrows_nonempty() + B.nrows_nonempty(), A.nnz() + B.nnz());
  }

  BlockMerge(const Dcsr<T>& A, std::size_t ka, std::size_t ka_end,
             const Dcsr<T>& B, std::size_t kb, std::size_t kb_end,
             Dcsr<T>& out, std::size_t cap)
      : a_(&A), b_(&B), out_(&out), ka_(ka), kb_(kb), a_end_(ka_end),
        b_end_(kb_end), k_(out.nrows_nonempty()), w_(out.nnz()), cap_(cap) {
    const std::size_t all = (A.ptr()[ka_end] - A.ptr()[ka]) +
                            (B.ptr()[kb_end] - B.ptr()[kb]);
    std::size_t n = cap > w_ ? cap - w_ : 0;
    if (w_ == 0)  // room for a first row of any length
      n = std::max<std::size_t>(
          n, (ka < ka_end ? A.ptr()[ka + 1] - A.ptr()[ka] : 0) +
                 (kb < kb_end ? B.ptr()[kb + 1] - B.ptr()[kb] : 0));
    n = std::min(n, all);
    // Room for the rows of each input that start within its next n
    // entries, and for no more than n rows (every row written holds an
    // entry): no more can reach the output.
    auto rows = [n](const Dcsr<T>& X, std::size_t k, std::size_t end) {
      const auto p = X.ptr();
      return static_cast<std::size_t>(
          std::upper_bound(p.begin() + k, p.begin() + end, p[k] + n) -
          (p.begin() + k));
    };
    out.extend(std::min(n, rows(A, ka, ka_end) + rows(B, kb, kb_end)), n);
  }

  /// The range form stopped at `cap`; rows from ka() / kb() on are left.
  bool full() const { return full_; }
  std::size_t ka() const { return ka_; }
  std::size_t kb() const { return kb_; }
  bool done() const { return done_; }

  bool step(std::size_t budget) {
    if (done_) return true;
    const auto ar = a_->rows(), ac = a_->cols();
    const auto br = b_->rows(), bc = b_->cols();
    const auto ap = a_->ptr(), bp = b_->ptr();
    const auto av = a_->vals(), bv = b_->vals();
    const std::size_t nra = a_end_, nrb = b_end_;
    auto& orows = out_->mutable_rows();
    auto& optr = out_->mutable_ptr();
    auto& ocols = out_->mutable_cols();
    auto& ovals = out_->mutable_vals();
    std::size_t ka = ka_, kb = kb_, k = k_;
    Offset w = w_;
    const Offset stop =
        budget >= ocols.size() - w ? ocols.size() : w + budget;

    auto open_row = [&](Index row) {
      orows[k] = row;
      optr[k++] = w;
    };
    auto emit = [&](Index col, const T& val) {
      ocols[w] = col;
      ovals[w++] = val;
    };
    auto copy_row = [&](Index row, std::span<const Index> cols,
                        std::span<const T> vals, Offset lo, Offset hi) {
      open_row(row);
      for (Offset p = lo; p < hi; ++p) emit(cols[p], vals[p]);
    };

    for (;;) {
      if (partial_) {
        // The row that did not fit: merge it entry by entry up to stop.
        Offset pa = pa_, ea = ea_, pb = pb_, eb = eb_;
        while (pa < ea && pb < eb && w < stop) {
          const Index caI = ac[pa], cbI = bc[pb];
          if (caI < cbI) {
            emit(caI, av[pa++]);
          } else if (cbI < caI) {
            emit(cbI, bv[pb++]);
          } else {
            emit(caI, Op::apply(av[pa++], bv[pb++]));
          }
        }
        if (pb == eb)
          for (; pa < ea && w < stop; ++pa) emit(ac[pa], av[pa]);
        if (pa == ea)
          for (; pb < eb && w < stop; ++pb) emit(bc[pb], bv[pb]);
        pa_ = pa;
        pb_ = pb;
        if (pa != ea || pb != eb) break;  // out of budget inside the row
        partial_ = false;
      }
      // Whole rows, as long as each fits under stop: the hot path, so it
      // repeats the row merge above without the per-entry budget checks.
      while (ka < nra && kb < nrb) {
        if (ar[ka] < br[kb]) {
          if (ap[ka + 1] - ap[ka] > stop - w) break;
          copy_row(ar[ka], ac, av, ap[ka], ap[ka + 1]);
          ++ka;
        } else if (br[kb] < ar[ka]) {
          if (bp[kb + 1] - bp[kb] > stop - w) break;
          copy_row(br[kb], bc, bv, bp[kb], bp[kb + 1]);
          ++kb;
        } else {
          Offset pa = ap[ka], ea = ap[ka + 1];
          Offset pb = bp[kb], eb = bp[kb + 1];
          if ((ea - pa) + (eb - pb) > stop - w) break;
          open_row(ar[ka]);
          while (pa < ea && pb < eb) {
            const Index caI = ac[pa], cbI = bc[pb];
            if (caI < cbI) {
              emit(caI, av[pa++]);
            } else if (cbI < caI) {
              emit(cbI, bv[pb++]);
            } else {
              emit(caI, Op::apply(av[pa++], bv[pb++]));
            }
          }
          for (; pa < ea; ++pa) emit(ac[pa], av[pa]);
          for (; pb < eb; ++pb) emit(bc[pb], bv[pb]);
          ++ka;
          ++kb;
        }
      }
      for (; kb == nrb && ka < nra; ++ka) {
        if (ap[ka + 1] - ap[ka] > stop - w) break;
        copy_row(ar[ka], ac, av, ap[ka], ap[ka + 1]);
      }
      for (; ka == nra && kb < nrb; ++kb) {
        if (bp[kb + 1] - bp[kb] > stop - w) break;
        copy_row(br[kb], bc, bv, bp[kb], bp[kb + 1]);
      }
      if (ka == nra && kb == nrb) {
        optr[k] = w;
        out_->trim(k, w);
        done_ = true;
        break;
      }
      // The next row does not fit: open it and merge what does (unless
      // it could pass the cap).
      const bool take_a = ka < nra && (kb == nrb || ar[ka] <= br[kb]);
      const bool take_b = kb < nrb && (ka == nra || br[kb] <= ar[ka]);
      if (w > 0 && w + (take_a ? ap[ka + 1] - ap[ka] : 0) +
                           (take_b ? bp[kb + 1] - bp[kb] : 0) > cap_) {
        optr[k] = w;
        out_->trim(k, w);
        done_ = full_ = true;
        break;
      }
      open_row(take_a ? ar[ka] : br[kb]);
      pa_ = ea_ = pb_ = eb_ = 0;
      if (take_a) {
        pa_ = ap[ka];
        ea_ = ap[++ka];
      }
      if (take_b) {
        pb_ = bp[kb];
        eb_ = bp[++kb];
      }
      partial_ = true;
    }
    ka_ = ka;
    kb_ = kb;
    k_ = k;
    w_ = w;
    return done_;
  }

 private:
  const Dcsr<T>* a_;
  const Dcsr<T>* b_;
  Dcsr<T>* out_;
  std::size_t ka_ = 0, kb_ = 0;  ///< next row of A / of B
  std::size_t a_end_, b_end_;    ///< end of A's / B's merged rows
  std::size_t k_ = 0;            ///< output rows opened
  Offset w_ = 0;                 ///< output entries written
  std::size_t cap_ = static_cast<std::size_t>(-1);  ///< the range form's
  bool full_ = false;
  bool partial_ = false;         ///< a row is open, partly written
  Offset pa_ = 0, ea_ = 0;       ///< A's rest of that row
  Offset pb_ = 0, eb_ = 0;       ///< B's rest of that row
  bool done_ = false;
};

/// C = A ⊕ B in one serial streaming pass: BlockMerge run to completion.
/// The serial complement of ewise_add_into's parallel counts-then-fill:
/// with one thread the counting pass would just double the reads of
/// both blocks, so the fold pipeline picks this variant whenever the
/// parallel fill cannot actually run in parallel (or the blocks are
/// small). `out` must not alias A or B.
template <class Op, class T>
void merge_blocks_into(const Dcsr<T>& A, const Dcsr<T>& B, Dcsr<T>& out) {
  BlockMerge<Op, T>(A, B, out).step(static_cast<std::size_t>(-1));
}

namespace detail {
/// Below this combined nnz the parallel counts-then-fill cannot beat
/// the single streaming pass even with threads available.
inline constexpr std::size_t kParallelMergeCutoff = std::size_t{1} << 20;
}  // namespace detail

/// C = A ⊕ run in ONE streaming pass: walk A's rows and the run
/// simultaneously, emitting merged rows straight into `out` (sized to
/// the upper bound |A| + |run| by Dcsr::prepare up front, so no
/// reallocation mid-merge and no counting pass). Values present on both
/// sides combine as Op::apply(A value, run value) — the same order as
/// ewise_add(A, delta). `out` must not alias A.
template <class Op, class T, class Run>
void merge_run_into(const Dcsr<T>& A, const Run& run, Dcsr<T>& out) {
  const auto ar = A.rows();
  const auto ap = A.ptr();
  const auto ac = A.cols();
  const auto av = A.vals();
  const std::size_t nra = ar.size();
  const std::size_t nr = run.size();
  out.prepare(nra + nr, ac.size() + nr);
  auto& orows = out.mutable_rows();
  auto& optr = out.mutable_ptr();
  auto& ocols = out.mutable_cols();
  auto& ovals = out.mutable_vals();
  std::size_t k = 0;
  Offset w = 0;

  auto open_row = [&](Index row) {
    orows[k] = row;
    optr[k++] = w;
  };
  auto emit = [&](Index col, const T& val) {
    ocols[w] = col;
    ovals[w++] = val;
  };
  auto copy_a_row = [&](std::size_t ka) {
    open_row(ar[ka]);
    for (Offset p = ap[ka]; p < ap[ka + 1]; ++p) emit(ac[p], av[p]);
  };
  // Emits the run's entries of row `row` starting at r; returns the
  // position past them.
  auto copy_run_row = [&](std::size_t r, Index row) {
    for (; r < nr && run.row(r) == row; ++r) emit(run.col(r), run.val(r));
    return r;
  };

  std::size_t ka = 0, r = 0;
  while (ka < nra && r < nr) {
    const Index rowa = ar[ka];
    const Index rowr = run.row(r);
    if (rowa < rowr) {
      copy_a_row(ka++);
    } else if (rowr < rowa) {
      open_row(rowr);
      r = copy_run_row(r, rowr);
    } else {
      open_row(rowa);
      Offset pa = ap[ka], ea = ap[ka + 1];
      while (pa < ea && r < nr && run.row(r) == rowa) {
        const Index caI = ac[pa], crI = run.col(r);
        if (caI < crI) {
          emit(caI, av[pa++]);
        } else if (crI < caI) {
          emit(crI, run.val(r++));
        } else {
          emit(caI, Op::apply(av[pa++], run.val(r++)));
        }
      }
      for (; pa < ea; ++pa) emit(ac[pa], av[pa]);
      r = copy_run_row(r, rowa);
      ++ka;
    }
  }
  for (; ka < nra; ++ka) copy_a_row(ka);
  while (r < nr) {
    const Index rowr = run.row(r);
    open_row(rowr);
    r = copy_run_row(r, rowr);
  }
  optr[k] = w;
  out.trim(k, w);
}

}  // namespace gbx
