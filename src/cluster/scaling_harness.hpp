// cluster/scaling_harness.hpp — measured multi-instance scaling runs.
//
// The paper's experiment: P independent processes, each streaming
// power-law edge sets into its own hierarchical hypersparse matrix;
// the reported metric is the sum of per-process update rates. This
// harness reproduces that shape with one std::thread per instance on
// the local node (instances share nothing, exactly like the paper's
// processes), and measures per-instance busy time around update calls
// only — generation happens between timed windows, playing the role of
// the paper's per-stream "network statistics" work.
#pragma once

#include <omp.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "assoc/assoc.hpp"
#include "cluster/workload.hpp"
#include "gen/gen.hpp"
#include "hier/hier.hpp"
#include "store/store.hpp"

namespace cluster {

struct RunResult {
  std::size_t instances = 0;
  std::uint64_t entries = 0;      ///< total entries streamed
  double wall_seconds = 0;        ///< whole-phase wall clock
  double busy_seconds_mean = 0;   ///< mean per-instance update time
  double aggregate_rate = 0;      ///< Σ per-instance (entries_i / busy_i)
  double wall_rate = 0;           ///< entries / wall (incl. generation)
};

/// Generic multi-instance runner. `make(p)` builds instance p's state;
/// `update(state, batch)` applies one batch. One std::thread drives one
/// instance (the paper's process model).
template <class State>
RunResult run_instances(
    std::size_t instances, const WorkloadSpec& w,
    const std::function<State(std::size_t)>& make,
    const std::function<void(State&, const gbx::Tuples<double>&)>& update) {
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  RunResult r;
  r.instances = instances;
  r.entries = static_cast<std::uint64_t>(instances) * w.entries_per_instance();

  std::vector<double> busy(instances, 0.0);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(instances);
  for (std::size_t p = 0; p < instances; ++p) {
    threads.emplace_back([&, p] {
      // Each instance is strictly single-threaded, like one of the
      // paper's processes: gbx kernels called from here must not fork
      // teams, or per-instance rates would not be comparable across
      // instance counts. The setting belongs to this thread alone.
      omp_set_num_threads(1);
      gen::PowerLawParams pp;
      pp.scale = w.scale;
      pp.alpha = w.alpha;
      pp.dim = w.dim;
      pp.seed = w.seed + p;
      gen::PowerLawGenerator g(pp);
      State state = make(p);
      gbx::Tuples<double> batch;
      for (std::size_t s = 0; s < w.sets; ++s) {
        batch.clear();
        g.batch(w.set_size, batch);          // untimed: workload generation
        const auto b0 = Clock::now();
        update(state, batch);                // timed: the streaming insert
        busy[p] += seconds(Clock::now() - b0);
      }
    });
  }
  for (auto& t : threads) t.join();
  r.wall_seconds = seconds(Clock::now() - t0);

  double agg = 0, bsum = 0;
  for (std::size_t p = 0; p < instances; ++p) {
    agg += static_cast<double>(w.entries_per_instance()) / busy[p];
    bsum += busy[p];
  }
  r.aggregate_rate = agg;
  r.busy_seconds_mean = bsum / static_cast<double>(instances);
  r.wall_rate = static_cast<double>(r.entries) / r.wall_seconds;
  return r;
}

/// Hierarchical GraphBLAS instances (the paper's system).
inline RunResult run_hier_gbx(std::size_t instances, const WorkloadSpec& w,
                              const hier::CutPolicy& cuts) {
  using State = hier::HierMatrix<double>;
  return run_instances<State>(
      instances, w,
      [&](std::size_t) { return State(w.dim, w.dim, cuts); },
      [](State& h, const gbx::Tuples<double>& b) { h.update(b); });
}

/// Non-hierarchical GraphBLAS baseline: every set is folded straight into
/// one hypersparse matrix (what the paper's cascade avoids).
inline RunResult run_direct_gbx(std::size_t instances, const WorkloadSpec& w) {
  using State = gbx::Matrix<double>;
  return run_instances<State>(
      instances, w,
      [&](std::size_t) { return State(w.dim, w.dim); },
      [](State& m, const gbx::Tuples<double>& b) {
        m.append(b);
        m.materialize();
      });
}

/// Hierarchical D4M baseline: the same cascade behind string dictionaries
/// (the "Hierarchical D4M" curve of Fig. 2). Key strings are materialized
/// inside the timed window — paying them is the point of the baseline.
inline RunResult run_hier_assoc(std::size_t instances, const WorkloadSpec& w,
                                const hier::CutPolicy& cuts) {
  using State = assoc::HierAssoc<double>;
  return run_instances<State>(
      instances, w,
      [&](std::size_t) { return State(w.dim, cuts); },
      [](State& a, const gbx::Tuples<double>& b) {
        for (const auto& e : b)
          a.insert(std::to_string(e.row), std::to_string(e.col), e.val);
      });
}

/// Accumulo-model baseline: per-entry inserts into the LSM tablet store.
inline RunResult run_lsm(std::size_t instances, const WorkloadSpec& w,
                         store::LsmOptions opt = {}) {
  using State = store::LsmStore;
  return run_instances<State>(
      instances, w,
      [&](std::size_t) { return State(opt); },
      [](State& s, const gbx::Tuples<double>& b) {
        for (const auto& e : b) s.insert({e.row, e.col}, e.val);
      });
}

/// OLTP-model baseline: per-row B+tree index maintenance plus WAL.
inline RunResult run_btree(std::size_t instances, const WorkloadSpec& w) {
  using State = store::BTreeStore;
  return run_instances<State>(
      instances, w,
      [&](std::size_t) { return State(); },
      [](State& t, const gbx::Tuples<double>& b) {
        for (const auto& e : b) t.insert({e.row, e.col}, e.val);
      });
}

}  // namespace cluster
