// gbx/parallel.hpp — the OpenMP thread budget shared by gbx kernels, and
// the one fork every kernel that parallelizes goes through.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>

#include "gbx/tsan_omp.hpp"

namespace gbx {

/// Number of threads gbx kernels will use (the OpenMP max).
inline int max_threads() { return omp_get_max_threads(); }

/// Runs `body(begin, end)` over contiguous ranges that cover [0, n).
/// With `fork` and a team of more than one, [0, n) is cut into about
/// four ranges per thread, handed out one at a time, so a heavy range
/// does not hold up the team; otherwise `body(0, n)` runs on the
/// calling thread. Ranges may run in any order and concurrently, so
/// `body` writes only to state its range owns (or combines through an
/// atomic).
template <class Body>
void parallel_for(std::size_t n, bool fork, const Body& body) {
  const auto team = static_cast<std::size_t>(max_threads());
  const std::size_t nranges = std::min(n, 4 * team);
  if (!fork || team == 1 || nranges < 2) {
    body(0, n);
    return;
  }
  GBX_OMP_CAPTURE_HANDOFF;
#pragma omp parallel
  {
    OmpRegionGuard tsan_region;
#pragma omp for schedule(dynamic, 1)
    for (std::size_t r = 0; r < nranges; ++r)
      body(r * n / nranges, (r + 1) * n / nranges);
  }
}

}  // namespace gbx
