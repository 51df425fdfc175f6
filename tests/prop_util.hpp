// tests/prop_util.hpp — property-based differential-testing utilities.
//
// Conventions shared by the randomized suites:
//
//   * Seeds are PINNED in the test source (named constants), so every
//     run is reproducible by default. The HHGBX_SEED environment
//     variable mixes an extra value into every pinned seed, which is
//     how CTest re-runs each property suite under several named seeds
//     (see tests/CMakeLists.txt) without touching the sources.
//   * Every randomized test announces its effective seed through
//     HHGBX_PROP_SEED, so a failure report always contains the exact
//     seed to replay (copy it into HHGBX_SEED, or temporarily pin it).
//   * DenseRef is the differential oracle: a coordinate map replaying
//     the same operation stream through plain monoid folds. Snapshots
//     are checked ENTRY-FOR-ENTRY against the reference replay of the
//     operation prefix they claim to represent.
#pragma once

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <utility>

#include "gbx/matrix.hpp"
#include "gbx/parallel.hpp"
#include "hier/hier.hpp"

namespace proptest {

/// splitmix64 finalizer — decorrelates pinned seed and env perturbation.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Effective seed: the pinned value, perturbed by HHGBX_SEED when set.
/// HHGBX_SEED=0 (or unset) keeps the pinned seed unchanged, so the
/// default CTest run is bit-identical to a plain ./test_foo run.
inline std::uint64_t seed_or_env(std::uint64_t pinned) {
  const char* env = std::getenv("HHGBX_SEED");
  if (env == nullptr || *env == '\0') return pinned;
  const std::uint64_t perturb = std::strtoull(env, nullptr, 10);
  if (perturb == 0) return pinned;
  return mix(pinned ^ mix(perturb));
}

/// One-line replay instructions attached to every failure.
inline std::string seed_banner(std::uint64_t effective, std::uint64_t pinned) {
  std::ostringstream os;
  os << "property seed = " << effective << " (pinned " << pinned
     << ", HHGBX_SEED="
     << (std::getenv("HHGBX_SEED") ? std::getenv("HHGBX_SEED") : "<unset>")
     << "; replay by exporting the same HHGBX_SEED)";
  return os.str();
}

/// Pin the OpenMP thread count for a scope (e.g. 1, so the block merge
/// takes its serial engine whatever the host has); restores it on exit.
struct ThreadsGuard {
  int saved = omp_get_max_threads();
  explicit ThreadsGuard(int n) { omp_set_num_threads(n); }
  ~ThreadsGuard() { omp_set_num_threads(saved); }
};

/// Runs `body` once at each team size (1, then 4 OpenMP threads) and
/// restores the ambient setting after, so a kernel forking through
/// gbx::parallel_for is checked on its serial and its split path.
template <class F>
void for_team_sizes(F&& body) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "omp threads " << threads);
    ThreadsGuard guard(threads);
    body();
  }
}

/// Declare the test's rng seed and make failures print it.
#define HHGBX_PROP_SEED(var, pinned)                        \
  const std::uint64_t var = ::proptest::seed_or_env(pinned); \
  SCOPED_TRACE(::proptest::seed_banner(var, (pinned)))

/// Dense differential oracle: coordinate -> monoid-folded value. This is
/// the "direct accumulation" side of the paper's central equivalence,
/// replayed with no hierarchy, no folds, no sharing.
template <class T, class M = gbx::PlusMonoid<T>>
class DenseRef {
 public:
  using key_type = std::pair<gbx::Index, gbx::Index>;

  void apply(gbx::Index i, gbx::Index j, T v) {
    auto [it, fresh] = cells_.try_emplace({i, j}, v);
    if (!fresh) it->second = M::apply(it->second, v);
  }

  void apply(const gbx::Tuples<T>& batch) {
    for (const auto& e : batch) apply(e.row, e.col, e.val);
  }

  std::size_t nvals() const { return cells_.size(); }

  /// Monoid fold of every stored value (the Σ Ai scalar).
  T reduce() const {
    T acc = M::identity();
    for (const auto& [k, v] : cells_) acc = M::apply(acc, v);
    return acc;
  }

  const std::map<key_type, T>& cells() const { return cells_; }

  /// Entry-for-entry comparison against a materialized matrix.
  ::testing::AssertionResult matches(const gbx::Matrix<T, M>& m) const {
    if (m.nvals() != cells_.size())
      return ::testing::AssertionFailure()
             << "nvals mismatch: matrix " << m.nvals() << " vs reference "
             << cells_.size();
    for (const auto& [k, v] : cells_) {
      auto got = m.extract_element(k.first, k.second);
      if (!got)
        return ::testing::AssertionFailure()
               << "missing entry (" << k.first << ", " << k.second << ")";
      if (*got != v)
        return ::testing::AssertionFailure()
               << "value mismatch at (" << k.first << ", " << k.second
               << "): matrix " << *got << " vs reference " << v;
    }
    return ::testing::AssertionSuccess();
  }

  /// Entry-for-entry comparison against a frozen snapshot: every entry is
  /// read through the snapshot's cross-level lookup AND the materialized
  /// Σ Ai, so the two snapshot read paths are differentially checked too.
  ::testing::AssertionResult matches(
      const hier::SnapshotSet<T, M>& snap) const {
    for (const auto& [k, v] : cells_) {
      auto got = snap.extract_element(k.first, k.second);
      if (!got)
        return ::testing::AssertionFailure()
               << "snapshot missing entry (" << k.first << ", " << k.second
               << ")";
      if (*got != v)
        return ::testing::AssertionFailure()
               << "snapshot value mismatch at (" << k.first << ", "
               << k.second << "): snapshot " << *got << " vs reference " << v;
    }
    return matches(snap.to_matrix());
  }

  /// The same check on part p of a set alone: the image one lane gave.
  ::testing::AssertionResult matches(const hier::SnapshotSet<T, M>& set,
                                     std::size_t p) const {
    return matches(hier::SnapshotSet<T, M>({set.part(p)}));
  }

 private:
  std::map<key_type, T> cells_;
};

/// Uniform random batch over a small coordinate square, values in
/// [-5, 5] — small enough that min/max/plus folds stay exactly
/// representable in every tested value type.
template <class T>
gbx::Tuples<T> random_batch(std::mt19937_64& rng, gbx::Index dim,
                            std::size_t n) {
  std::uniform_int_distribution<gbx::Index> coord(0, dim - 1);
  std::uniform_int_distribution<int> val(-5, 5);
  gbx::Tuples<T> out;
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(coord(rng), coord(rng), static_cast<T>(val(rng)));
  return out;
}

}  // namespace proptest
