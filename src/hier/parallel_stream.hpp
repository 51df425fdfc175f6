// hier/parallel_stream.hpp — parallel multi-instance streaming-insert engine.
//
// The paper's scaling result (Fig. 2) comes from running P independent
// hierarchical hypersparse matrices and summing their per-instance update
// rates. ParallelStream is that shape as a continuously-fed engine over
// an InstanceArray: one worker thread per instance, each with a bounded
// batch queue, so producers (parsers, collectors, generators) and
// inserters overlap and back-pressure propagates to the feed when a
// lane falls behind — the shape of a real network-telemetry ingest node.
//
// Two entry points:
//   * ParallelStream — start()/submit()/drain()/stop() queue engine for
//     externally produced batches (round-robin or explicit lane).
//   * pump() — synchronous paper-shape run: per-instance generators built
//     on the worker threads, generation untimed, inserts timed. This is
//     what bench_parallel_stream measures. The member pump() routes the
//     same workload through the lanes so snapshots can be taken while it
//     runs; the free function remains the zero-queue-overhead variant.
//
// Instances never share state (the paper's process model), so worker
// lanes need no locking around the matrix itself — only around their
// queues. Each lane's cascade folds run on that lane's worker thread,
// so the fold pipeline's thread-local ScratchPool gives every lane a
// private, contention-free arena: after a few batches warm the buffers,
// a lane's steady-state folds perform no heap allocation at all (the
// pool dies with the worker thread at stop()). All timing uses
// std::chrono::steady_clock; the aggregate rate is Σ_p entries_p /
// busy_p, exactly the quantity Fig. 2 plots.
//
// A lane works each batch in three steps: stage it (HierMatrix::stage,
// the paper's A1 = A1 + A), mark it done, then cascade. A batch is done
// once it is in the matrix's value, so a flush barrier (lane_done) is
// released while its cascade still runs, and the cascade overlaps the
// next batch's trip to the lane. drain() waits for the cascades too,
// a bottom merge's last wave included.
//
// freeze() captures an epoch-consistent image WITHOUT stopping the
// workers: each lane is asked to freeze its matrix at its next batch
// boundary (a ticketed handshake through the lane mutex), so every
// lane's contribution is exactly the monoid-sum of a prefix of the
// batches submitted to that lane, and the part's own epoch() is the
// prefix length. A lane serves a freeze between a stage and its cascade,
// or when idle; a ticket posted during a cascade waits for the next
// queued batch's stage, so the image includes that batch. A bottom merge
// (HierMatrix::cascade(yield)) does not make it wait for the whole
// merge: the merge pauses after its wave, the lane stages the batch
// at the head of its queue, marks it done, serves the freeze and
// resumes; every batch staged meanwhile settles with that cascade. A
// reader thus waits at most for one lane's folds above the bottom or one
// wave of its bottom merge, plus one stage; ingest never drains, never
// pauses globally.
#pragma once

#ifdef __linux__
#include <pthread.h>
#endif

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/coo.hpp"
#include "gbx/error.hpp"
#include "gbx/failpoint.hpp"
#include "gbx/thread_annotations.hpp"
#include "hier/instance_array.hpp"
#include "hier/snapshot.hpp"

namespace hier {

/// Outcome of a non-blocking ParallelStream::try_submit.
enum class SubmitResult {
  kAccepted,  ///< batch enqueued on the lane
  kLaneFull,  ///< lane queue at capacity; batch untouched, retry later
  kStopped,   ///< engine not running or lane closing; batch untouched
};

/// Per-lane (per-instance) ingest counters.
struct LaneCounters {
  std::uint64_t batches = 0;
  std::uint64_t entries = 0;
  std::uint64_t failed_batches = 0;  ///< dropped: stage() threw (bad coords)
  double busy_seconds = 0;  ///< time spent in HierMatrix::stage and cascade
};

/// Whole-run summary, one per start()/stop() cycle or pump() call.
struct ParallelStreamReport {
  std::size_t instances = 0;
  std::uint64_t batches = 0;
  std::uint64_t entries = 0;
  double wall_seconds = 0;       ///< start→stop wall clock
  double busy_seconds_mean = 0;  ///< mean per-lane insert time
  double aggregate_rate = 0;     ///< Σ_p entries_p / busy_p (Fig. 2 metric)
  double wall_rate = 0;          ///< entries / wall (incl. production)
  std::vector<LaneCounters> lane;
};

namespace detail {

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline ParallelStreamReport summarize(std::size_t instances, double wall,
                                      std::vector<LaneCounters> lane) {
  ParallelStreamReport r;
  r.instances = instances;
  r.wall_seconds = wall;
  r.lane = std::move(lane);
  double busy_sum = 0;
  for (const auto& lc : r.lane) {
    r.batches += lc.batches;
    r.entries += lc.entries;
    busy_sum += lc.busy_seconds;
    if (lc.busy_seconds > 0)
      r.aggregate_rate += static_cast<double>(lc.entries) / lc.busy_seconds;
  }
  if (r.instances > 0)
    r.busy_seconds_mean = busy_sum / static_cast<double>(r.instances);
  if (r.wall_seconds > 0)
    r.wall_rate = static_cast<double>(r.entries) / r.wall_seconds;
  return r;
}

}  // namespace detail

/// Continuously-fed streaming-insert engine over an InstanceArray.
///
///   ParallelStream<double> ps(array);
///   ps.start();
///   while (feed) ps.submit(producer.next());   // round-robin dispatch
///   auto report = ps.stop();                   // drain + join + summarize
///
/// submit() blocks when the target lane's queue is full (back-pressure);
/// batches submitted to one lane are applied in submission order, so a
/// single-instance engine is exactly as deterministic as a serial loop.
template <class T, class AddMonoid = gbx::PlusMonoid<T>>
class ParallelStream {
 public:
  using array_type = InstanceArray<T, AddMonoid>;

  struct Options {
    /// Max queued batches per lane before submit() blocks. Small values
    /// keep the fast-memory footprint bounded, matching the cascade's
    /// cache-residency story.
    std::size_t queue_capacity = 4;
  };

  explicit ParallelStream(array_type& array, Options opt = {})
      : array_(&array), opt_(opt) {
    GBX_CHECK_VALUE(opt_.queue_capacity > 0, "queue capacity must be > 0");
    lanes_.reserve(array_->size());
    for (std::size_t p = 0; p < array_->size(); ++p)
      lanes_.push_back(std::make_unique<Lane>());
  }

  ParallelStream(const ParallelStream&) = delete;
  ParallelStream& operator=(const ParallelStream&) = delete;

  ~ParallelStream() {
    if (running_) stop();
  }

  std::size_t instances() const { return lanes_.size(); }
  bool running() const { return running_; }

  /// Logical dimensions of every lane's matrix (a submitted batch's
  /// coordinates must all be < these; producers that accept external
  /// input — e.g. the network server — validate against them up front).
  gbx::Index nrows() const { return array_->nrows(); }
  gbx::Index ncols() const { return array_->ncols(); }

  /// Spawn one worker thread per instance and open the lanes.
  void start() {
    GBX_CHECK(!running_, "ParallelStream already started");
    for (auto& lane : lanes_) {
      gbx::ScopedLock lk(lane->m);
      lane->closed = false;
      lane->counters = LaneCounters{};
      lane->worker_alive = true;
    }
    t0_ = std::chrono::steady_clock::now();
    threads_.reserve(lanes_.size());
    for (std::size_t p = 0; p < lanes_.size(); ++p)
      threads_.emplace_back([this, p] { worker(p); });
    running_ = true;
  }

  /// Queue a batch for instance `p`; blocks while the lane is full.
  /// Throws if the lane closes while waiting (stop() racing a blocked
  /// submit would otherwise push a batch no worker will ever apply).
  void submit(std::size_t p, gbx::Tuples<T> batch) {
    GBX_CHECK(running_, "ParallelStream not started");
    GBX_CHECK_INDEX(p < lanes_.size(), "lane index out of range");
    Lane& lane = *lanes_[p];
    gbx::ScopedLock lk(lane.m);
    while (!lane.closed && lane.queue.size() >= opt_.queue_capacity)
      lane.cv_space.wait(lane.m);
    GBX_CHECK(!lane.closed, "submit raced ParallelStream::stop");
    lane.queue.push_back(std::move(batch));
    ++lane.submitted;
    lane.cv_work.notify_one();
  }

  /// Queue a batch on the next lane round-robin. Safe to call from
  /// multiple producer threads concurrently.
  void submit(gbx::Tuples<T> batch) {
    submit(rr_.fetch_add(1, std::memory_order_relaxed) % lanes_.size(),
           std::move(batch));
  }

  /// Non-blocking submit: enqueue on lane `p` only if there is space and
  /// the engine is accepting work, never waiting on the lane condition.
  /// On kLaneFull / kStopped the batch is left untouched in the caller's
  /// hands (nothing is moved from it), so a server can park it and map
  /// the full lane to back-pressure on its own producer — e.g. stop
  /// reading the connection that fed it — instead of blocking an event
  /// loop, and a producer racing stop() gets a defined kStopped result
  /// instead of blocking forever on a queue no worker will ever drain.
  /// An accepted batch's lane ticket (1, 2, ... over the engine's life)
  /// goes to `*ticket`; the batch is done once lane_done(p) reaches it.
  SubmitResult try_submit(std::size_t p, gbx::Tuples<T>& batch,
                          std::uint64_t* ticket = nullptr) {
    GBX_CHECK_INDEX(p < lanes_.size(), "lane index out of range");
    if (!running_) return SubmitResult::kStopped;
    Lane& lane = *lanes_[p];
    gbx::ScopedLock lk(lane.m);
    if (lane.closed) return SubmitResult::kStopped;
    if (lane.queue.size() >= opt_.queue_capacity) return SubmitResult::kLaneFull;
    lane.queue.push_back(std::move(batch));
    ++lane.submitted;
    if (ticket != nullptr) *ticket = lane.submitted;
    lane.cv_work.notify_one();
    return SubmitResult::kAccepted;
  }

  /// Batches lane `p` has finished, staged or failed: every ticket up
  /// to this one. A staged batch is in the lane matrix's value, and every
  /// later freeze() includes it, though its cascade may still be running.
  /// The network server's flush barrier polls it.
  std::uint64_t lane_done(std::size_t p) const {
    GBX_CHECK_INDEX(p < lanes_.size(), "lane index out of range");
    Lane& lane = *lanes_[p];
    gbx::ScopedLock lk(lane.m);
    return lane.done;
  }

  /// Block until every queued batch is settled: staged with its cascade
  /// finished, or failed.
  void drain() {
    GBX_CHECK(running_, "ParallelStream not started");
    for (auto& lptr : lanes_) {
      Lane& lane = *lptr;
      gbx::ScopedLock lk(lane.m);
      while (lane.settled != lane.submitted) lane.cv_space.wait(lane.m);
    }
  }

  /// Call `hook` each time a lane marks a batch done (see lane_done), so
  /// a flush barrier need not poll. It runs on the lane's worker thread
  /// under the lane mutex: it must be quick and must not call into this
  /// stream. One hook per stream; an empty function clears it, and once
  /// this returns no lane calls the previous hook again.
  void set_done_hook(const std::function<void()>& hook) {
    for (auto& lptr : lanes_) {
      gbx::ScopedLock lk(lptr->m);
      lptr->on_done = hook;
    }
  }

  /// Drain, join the workers, and return the run summary.
  ParallelStreamReport stop() {
    GBX_CHECK(running_, "ParallelStream not started");
    for (auto& lptr : lanes_) {
      gbx::ScopedLock lk(lptr->m);
      lptr->closed = true;
      lptr->cv_work.notify_one();
      lptr->cv_space.notify_all();  // wake producers blocked in submit()
    }
    for (auto& t : threads_) t.join();
    threads_.clear();
    running_ = false;
    const double wall = detail::seconds_since(t0_);
    std::vector<LaneCounters> lane;
    lane.reserve(lanes_.size());
    for (const auto& lptr : lanes_) {
      gbx::ScopedLock lk(lptr->m);
      lane.push_back(lptr->counters);
    }
    return detail::summarize(lanes_.size(), wall, std::move(lane));
  }

  /// Epoch-consistent snapshot of all lanes WITHOUT stopping the
  /// workers. Per lane, the image equals the monoid-sum of exactly the
  /// first `part(p).epoch()` update batches the lane's matrix has
  /// ever applied (lanes apply in submission order, and the count
  /// survives stop()/start() restarts because it is the matrix's own
  /// epoch), frozen at that lane's next batch boundary: after the stage
  /// of the batch it is working on, or of the next queued one when its
  /// cascade is already running. Tickets are
  /// posted to every lane up front so the lanes freeze concurrently;
  /// the caller then collects the published views. Safe from any
  /// thread, any number of readers, stream running or not.
  SnapshotSet<T, AddMonoid> freeze() {
    std::vector<std::uint64_t> tickets(lanes_.size(), 0);
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
      Lane& lane = *lanes_[p];
      gbx::ScopedLock lk(lane.m);
      if (lane.worker_alive) {
        tickets[p] = ++lane.freeze_ticket;
        ++lane.freeze_waiters;
        lane.cv_work.notify_one();
      }
    }
    std::vector<HierSnapshot<T, AddMonoid>> parts;
    parts.reserve(lanes_.size());
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
      Lane& lane = *lanes_[p];
      gbx::ScopedLock lk(lane.m);
      // A worker may have started between the ticketing pass and now
      // (start() racing freeze()): post the missed ticket here rather
      // than freezing under a live worker's feet.
      if (tickets[p] == 0 && lane.worker_alive) {
        tickets[p] = ++lane.freeze_ticket;
        ++lane.freeze_waiters;
        lane.cv_work.notify_one();
      }
      if (tickets[p] > 0) {
        // Workers serve every pending ticket before exiting, so on
        // wake-up freeze_done always covers our ticket.
        while (lane.freeze_done < tickets[p]) lane.cv_frozen.wait(lane.m);
        parts.push_back(lane.frozen.part(0));
        // Last collector with no newer ticket pending: release the
        // lane's pin on the frozen blocks (collectors keep them alive).
        if (--lane.freeze_waiters == 0 &&
            lane.freeze_done == lane.freeze_ticket)
          lane.frozen = SnapshotSet<T, AddMonoid>();
      } else {
        // Worker not running (never started, stopped, or already
        // exited): the matrix is quiescent, freeze it directly under
        // the lane lock — nothing is published into the lane.
        parts.push_back(array_->instance(p).freeze().part(0));
      }
    }
    return SnapshotSet<T, AddMonoid>(std::move(parts));
  }

  /// Paper-shape run through the lanes: one producer thread per lane
  /// builds its own generator with make_gen(p) and submits `sets`
  /// batches of `set_size` entries to lane p; workers apply them with
  /// only HierMatrix::stage and cascade timed. Unlike the free pump(),
  /// snapshots can be taken concurrently while this runs — that is its
  /// purpose.
  /// Returns the run summary (the engine is stopped on return).
  template <class MakeGen>
  ParallelStreamReport pump(std::size_t sets, std::size_t set_size,
                            MakeGen&& make_gen) {
    start();
    std::vector<std::thread> producers;
    producers.reserve(lanes_.size());
    for (std::size_t p = 0; p < lanes_.size(); ++p) {
      producers.emplace_back([this, p, sets, set_size, &make_gen] {
        auto gen = make_gen(p);
        for (std::size_t s = 0; s < sets; ++s) {
          gbx::Tuples<T> batch;
          gen.batch(set_size, batch);
          submit(p, std::move(batch));
        }
      });
    }
    for (auto& t : producers) t.join();
    return stop();
  }

 private:
  struct Lane {
    gbx::Mutex m;
    gbx::CondVar cv_work;    ///< batch queued, lane closed, or freeze asked
    gbx::CondVar cv_space;   ///< batch settled / queue shrank
    gbx::CondVar cv_frozen;  ///< freeze published or worker exited
    std::deque<gbx::Tuples<T>> queue GBX_GUARDED_BY(m);
    bool closed GBX_GUARDED_BY(m) = false;
    std::uint64_t submitted GBX_GUARDED_BY(m) = 0;  ///< batches ever queued
    std::uint64_t done GBX_GUARDED_BY(m) = 0;  ///< ... staged or failed
    std::uint64_t settled GBX_GUARDED_BY(m) = 0;  ///< ... cascaded or failed
    std::function<void()> on_done GBX_GUARDED_BY(m);  ///< set_done_hook
    bool worker_alive GBX_GUARDED_BY(m) = false;
    LaneCounters counters GBX_GUARDED_BY(m);
    // Freeze handshake: readers take a ticket; the worker freezes its
    // matrix at the next batch boundary and publishes the result. One
    // freeze satisfies every ticket issued before it. The last waiting
    // collector clears `frozen` so the lane does not pin stale level
    // blocks between snapshots (the views live on in the collectors).
    std::uint64_t freeze_ticket GBX_GUARDED_BY(m) = 0;
    std::uint64_t freeze_done GBX_GUARDED_BY(m) = 0;
    std::uint64_t freeze_waiters GBX_GUARDED_BY(m) = 0;
    SnapshotSet<T, AddMonoid> frozen GBX_GUARDED_BY(m);  ///< one part
  };

  /// Serve the lane's pending freeze tickets, if any: freeze the matrix
  /// and publish the result into the lane. Called by the lane's worker.
  /// The freeze sorts level 1's staged run, so it runs outside the lane
  /// mutex; the next cascade folds that sorted block without sorting it
  /// again. No batch is staged meanwhile, so the image also answers any
  /// ticket posted while it was taken. The image's prefix is the frozen
  /// matrix's own epoch (lifetime update count, one per batch), so it
  /// stays exact across stop()/start() restarts — lane counters are
  /// per-run for reporting, but a restarted engine's matrices retain
  /// their data and the prefix must cover it.
  static void serve_freeze(Lane& lane,
                           const HierMatrix<T, AddMonoid>& matrix) {
    {
      gbx::ScopedLock lk(lane.m);
      if (lane.freeze_done >= lane.freeze_ticket) return;
    }
    auto frozen = matrix.freeze();
    gbx::ScopedLock lk(lane.m);
    lane.frozen = std::move(frozen);
    lane.freeze_done = lane.freeze_ticket;
    lane.cv_frozen.notify_all();
  }

  /// Test hook `hier.stream.cascade`: hold the staged batch's cascade
  /// for `delay_ms`, as a slow cascade would. The staged batch is already
  /// in the value, so the lane answers freezes meanwhile while nothing
  /// is queued; a ticket posted with a batch queued waits for that
  /// batch's stage, as it would behind a real cascade.
  static void stall_cascade(Lane& lane, const HierMatrix<T, AddMonoid>& matrix,
                            int delay_ms) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(delay_ms);
    for (;;) {
      {
        gbx::ScopedLock lk(lane.m);
        while (!lane.queue.empty() ||
               lane.freeze_done >= lane.freeze_ticket) {
          const auto now = std::chrono::steady_clock::now();
          if (now >= until) return;
          lane.cv_work.wait_for(lane.m, until - now);
        }
      }
      serve_freeze(lane, matrix);
    }
  }

  /// The yield() a lane's cascade passes: pause a bottom merge when a
  /// freeze ticket is pending. Test hook `hier.stream.merge`: delay each
  /// wave by `delay_ms`, as a larger merge would.
  static bool freeze_pending(Lane& lane) {
    if (gbx::failpoints().armed())
      if (auto fp = gbx::failpoints().hit("hier.stream.merge"))
        std::this_thread::sleep_for(std::chrono::milliseconds(fp->delay_ms));
    gbx::ScopedLock lk(lane.m);
    return lane.freeze_done < lane.freeze_ticket;
  }

  /// Move the batch at the head of the queue into `out`, if any.
  static bool pop_batch(Lane& lane, gbx::Tuples<T>& out) GBX_REQUIRES(lane.m) {
    if (lane.queue.empty()) return false;
    out = std::move(lane.queue.front());
    lane.queue.pop_front();
    // A slot is free the moment the batch is popped: wake producers now
    // so production overlaps the work that follows. drain() is not
    // fooled — it waits for `settled`, not for an empty queue.
    lane.cv_space.notify_all();
    return true;
  }

  /// Stage one batch (HierMatrix::stage, the paper's A1 = A1 + A) and
  /// mark it done; its time goes to `busy`. Returns false when the batch
  /// was dropped, which also settles it. An exception escaping a
  /// std::thread is std::terminate for the whole process, so no batch —
  /// however malformed — may throw past this point. Producers validate
  /// coordinates up front; this catch is the backstop that turns a bad
  /// batch into a dropped batch (done, and counted in failed_batches)
  /// instead of a dead engine.
  static bool apply(Lane& lane, HierMatrix<T, AddMonoid>& matrix,
                    const gbx::Tuples<T>& batch, double& busy) {
    const auto b0 = std::chrono::steady_clock::now();
    // Test hook: a kStall/kDelay holds this lane busy (disarmed: one
    // relaxed load), so a test can saturate it deterministically.
    if (gbx::failpoints().armed())
      if (auto fp = gbx::failpoints().hit("hier.stream.apply"))
        std::this_thread::sleep_for(std::chrono::milliseconds(fp->delay_ms));
    bool staged = true;
    try {
      matrix.stage(batch);
    } catch (const std::exception&) {
      staged = false;
    }
    busy += detail::seconds_since(b0);
    gbx::ScopedLock lk(lane.m);
    ++lane.done;
    if (!staged) {
      ++lane.settled;
      ++lane.counters.failed_batches;
      lane.cv_space.notify_all();
    }
    // Called under the mutex so that set_done_hook({}) fences it.
    if (lane.on_done) lane.on_done();
    return staged;
  }

  void worker(std::size_t p) {
#ifdef __linux__
    // Named for CPU-per-thread profiles; OpenMP team threads this lane
    // spawns inherit the name.
    const std::string name = "hh-lane-" + std::to_string(p);
    ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
#endif
    Lane& lane = *lanes_[p];
    auto& matrix = array_->instance(p);
    for (;;) {
      gbx::Tuples<T> batch;
      bool popped = false;
      {
        gbx::ScopedLock lk(lane.m);
        while (lane.queue.empty() && !lane.closed &&
               lane.freeze_done >= lane.freeze_ticket)
          lane.cv_work.wait(lane.m);
        if (lane.queue.empty() && lane.freeze_done >= lane.freeze_ticket) {
          lane.worker_alive = false;  // closed and fully drained
          lane.cv_frozen.notify_all();
          return;
        }
        popped = pop_batch(lane, batch);
      }
      if (!popped) {  // woken for a freeze with nothing queued
        serve_freeze(lane, matrix);
        continue;
      }
      // 1-2. Stage, and done: the batch is in the value (or dropped).
      double busy = 0;
      if (!apply(lane, matrix, batch, busy)) continue;
      // 3. Freezes asked for before the stage now include the batch.
      serve_freeze(lane, matrix);
      // 4. Cascade. A bottom merge pauses when a freeze is asked
      // for: the lane stages the next queued batch, so the image
      // includes it, serves the freeze and resumes. Every batch staged
      // meanwhile settles with this cascade. A throw here (allocation
      // failure) must not escape the thread either.
      if (gbx::failpoints().armed())
        if (auto fp = gbx::failpoints().hit("hier.stream.cascade"))
          stall_cascade(lane, matrix, fp->delay_ms);
      std::uint64_t batches = 1, entries = batch.size();
      for (;;) {
        const auto c0 = std::chrono::steady_clock::now();
        bool finished = true;
        try {
          finished = matrix.cascade([&lane] { return freeze_pending(lane); });
        } catch (const std::exception&) {
        }
        busy += detail::seconds_since(c0);
        if (finished) break;
        bool more = false;
        {
          gbx::ScopedLock lk(lane.m);
          more = pop_batch(lane, batch);
        }
        if (more && apply(lane, matrix, batch, busy)) {
          ++batches;
          entries += batch.size();
        }
        serve_freeze(lane, matrix);
      }
      {
        gbx::ScopedLock lk(lane.m);
        lane.settled += batches;
        lane.counters.batches += batches;
        lane.counters.entries += entries;
        lane.counters.busy_seconds += busy;
        lane.cv_space.notify_all();
      }
    }
  }

  array_type* array_;
  Options opt_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> rr_{0};
  std::chrono::steady_clock::time_point t0_{};
  // Written only by the controlling thread (start/stop) but read from
  // producer threads inside submit(), hence atomic.
  std::atomic<bool> running_{false};
};

/// Synchronous paper-shape run: one thread per instance, each building its
/// own generator with make_gen(p) (distinct seeds -> independent streams),
/// streaming `sets` batches of `set_size` entries. Generation happens on
/// the worker thread but outside the timed window, playing the role of the
/// paper's per-stream packet-capture work; only HierMatrix::update is
/// timed. Returns the same report shape as the queue engine.
template <class T, class AddMonoid, class MakeGen>
ParallelStreamReport pump(InstanceArray<T, AddMonoid>& array, std::size_t sets,
                          std::size_t set_size, MakeGen&& make_gen) {
  const std::size_t n = array.size();
  std::vector<LaneCounters> lane(n);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    threads.emplace_back([&, p] {
      auto gen = make_gen(p);
      auto& matrix = array.instance(p);
      gbx::Tuples<T> batch;
      for (std::size_t s = 0; s < sets; ++s) {
        batch.clear();
        gen.batch(set_size, batch);
        const auto b0 = std::chrono::steady_clock::now();
        matrix.update(batch);
        lane[p].busy_seconds += detail::seconds_since(b0);
        ++lane[p].batches;
        lane[p].entries += batch.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  return detail::summarize(n, detail::seconds_since(t0), std::move(lane));
}

}  // namespace hier
