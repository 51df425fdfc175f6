// gbx/parallel.hpp — the OpenMP thread budget shared by gbx kernels.
#pragma once

#include <omp.h>

namespace gbx {

/// Number of threads gbx kernels will use (the OpenMP max).
inline int max_threads() { return omp_get_max_threads(); }

}  // namespace gbx
