// gbx/thread_annotations.hpp — Clang Thread Safety Analysis surface.
//
// Every hand-rolled locking protocol in the engine (ParallelStream lane
// queues and freeze handshake, the governor registry, tier image
// publication, the BlockStore cache) states invariants of the form "X is
// only touched with M held" or "F must not be called with M held". This
// header turns those comments into compiler-checked contracts: under
// Clang with -Wthread-safety (the HHGBX_THREAD_SAFETY=ON CMake mode,
// enforced as -Werror in CI) the GBX_GUARDED_BY / GBX_REQUIRES /
// GBX_EXCLUDES annotations below are *proved* over every call path at
// compile time — no interleaving luck involved, unlike TSan. Off-Clang
// (GCC, MSVC) every macro expands to nothing and the wrapper types
// behave exactly like the std primitives they wrap.
//
// What the analysis covers vs what TSan covers:
//   * analysis — lock discipline: guarded members never touched without
//     their mutex, REQUIRES contracts hold on every path, scoped locks
//     are released on every exit path, EXCLUDES prevents self-deadlock.
//     Static, exhaustive over the annotated surface, zero runtime cost.
//   * TSan — actual data races on *any* memory, including unannotated
//     state and lock-free protocols (atomics, epoch counters). Dynamic,
//     only over the interleavings a test run happens to execute.
// The two are complements; CI runs both.
//
// Usage rules (see README "Static analysis" for the longer version):
//   * Declare mutexes as gbx::Mutex, never raw std::mutex, in annotated
//     subsystems (scripts/lint_invariants.py enforces this for
//     src/hier, src/store, src/net, src/repl, src/cluster).
//   * Annotate every member the mutex protects with GBX_GUARDED_BY(mu).
//   * Lock with gbx::ScopedLock. Helpers called with the lock already
//     held take GBX_REQUIRES(mu).
//   * Condition waits go through gbx::CondVar::wait(mu) inside an
//     explicit `while (!predicate)` loop — the analysis can follow that
//     (the lock is held before and after), which it cannot do for
//     predicate-lambda overloads.
//   * Single-thread disciplines ("only the event-loop thread calls
//     this") use gbx::ThreadRole — a zero-size capability acquired by
//     the owning thread's entry point, so misuse from another context
//     is a compile error rather than a comment.
#pragma once

#include <condition_variable>
#include <mutex>

// Clang implements the attributes unconditionally; keying on __clang__
// alone (rather than the HHGBX_THREAD_SAFETY build mode) means plain
// Clang builds and clang-tidy runs see the annotations too. The build
// mode only adds -Wthread-safety -Werror.
#if defined(__clang__)
#define GBX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GBX_THREAD_ANNOTATION(x)
#endif

#define GBX_CAPABILITY(x) GBX_THREAD_ANNOTATION(capability(x))
#define GBX_SCOPED_CAPABILITY GBX_THREAD_ANNOTATION(scoped_lockable)
#define GBX_GUARDED_BY(x) GBX_THREAD_ANNOTATION(guarded_by(x))
#define GBX_PT_GUARDED_BY(x) GBX_THREAD_ANNOTATION(pt_guarded_by(x))
#define GBX_ACQUIRED_BEFORE(...) \
  GBX_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define GBX_ACQUIRED_AFTER(...) \
  GBX_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define GBX_REQUIRES(...) \
  GBX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GBX_ACQUIRE(...) \
  GBX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GBX_RELEASE(...) \
  GBX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GBX_TRY_ACQUIRE(...) \
  GBX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define GBX_EXCLUDES(...) GBX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GBX_ASSERT_CAPABILITY(x) GBX_THREAD_ANNOTATION(assert_capability(x))
#define GBX_NO_THREAD_SAFETY_ANALYSIS \
  GBX_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gbx {

/// std::mutex with the capability annotations the analysis needs.
/// Same size and cost; libstdc++'s own mutex carries no annotations.
class GBX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GBX_ACQUIRE() { m_.lock(); }
  void unlock() GBX_RELEASE() { m_.unlock(); }
  bool try_lock() GBX_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII exclusive lock on a gbx::Mutex (std::lock_guard shape).
class GBX_SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& m) GBX_ACQUIRE(m) : m_(m) { m_.lock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;
  ~ScopedLock() GBX_RELEASE() { m_.unlock(); }

 private:
  Mutex& m_;
};

/// Condition variable whose wait() carries the REQUIRES contract. Waits
/// on the wrapped mutex's real std::mutex (zero overhead vs
/// condition_variable_any), adopting and releasing the caller's hold so
/// the analysis sees the lock held across the call — which is also the
/// truth at every observable point. Use inside an explicit predicate
/// loop:
///
///   gbx::ScopedLock lk(mu_);
///   while (!ready_) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& m) GBX_REQUIRES(m) {
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // the caller's ScopedLock still owns the mutex
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& m,
                          const std::chrono::duration<Rep, Period>& d)
      GBX_REQUIRES(m) {
    std::unique_lock<std::mutex> lk(m.m_, std::adopt_lock);
    const auto st = cv_.wait_for(lk, d);
    lk.release();
    return st;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A zero-size capability modelling a single-thread discipline ("only
/// the event-loop thread calls this"). The owning thread's entry point
/// acquires the role (ScopedThreadRole); every function restricted to
/// that thread takes GBX_REQUIRES(role), and members it owns outright
/// are GBX_GUARDED_BY(role). There is no runtime lock — acquire/release
/// compile to nothing — but calling a restricted function from anywhere
/// that has not (transitively) acquired the role is a compile error.
/// Ownership hand-off (e.g. a controller clearing loop-thread state
/// after join()ing the loop) is expressed by acquiring the role
/// explicitly at the hand-off point.
class GBX_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void acquire() GBX_ACQUIRE() {}
  void release() GBX_RELEASE() {}
};

/// RAII acquisition of a ThreadRole for a thread entry point's scope.
class GBX_SCOPED_CAPABILITY ScopedThreadRole {
 public:
  explicit ScopedThreadRole(ThreadRole& r) GBX_ACQUIRE(r) : r_(r) {
    r_.acquire();
  }
  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;
  ~ScopedThreadRole() GBX_RELEASE() { r_.release(); }

 private:
  ThreadRole& r_;
};

}  // namespace gbx
