// gbx/tsan_omp.hpp — ThreadSanitizer happens-before bridging for OpenMP
// regions.
//
// libgomp is not TSan-instrumented, so the futex-based barriers that
// order an OpenMP fork/join are invisible to the race detector: every
// master-writes-then-workers-read handoff (chunk tables, histograms,
// scatter cursors) and every workers-write-then-master-reads join looks
// like an unsynchronized race. The one OpenMP region in src/,
// gbx::parallel_for (gbx/parallel.hpp), carries both mechanisms below.
//
// Two mechanisms cooperate, one per direction of the fork handoff:
//
// 1. Annotated barriers (OmpRegionGuard). Inside the region, every team
//    thread wraps an (orphaned, hence header-inlinable) `#pragma omp
//    barrier` in a release/acquire pair on a shared sync address:
//
//        __tsan_release(&entry_sync);
//        #pragma omp barrier            // the REAL ordering
//        __tsan_acquire(&entry_sync);
//
//    The physical barrier guarantees all releases execute before any
//    acquire, so each acquire observes every thread's clock. This
//    reconstructs for TSan exactly the all-to-all ordering the barrier
//    really provides, and nothing stronger at that point: races between
//    barriers stay visible. The guard runs this at region entry (ctor:
//    master's pre-fork writes → workers) and exit (dtor: worker outputs
//    → master's post-region reads).
//
// 2. Capture-store ignoring (OmpCaptureGuard / GBX_OMP_CAPTURE_HANDOFF).
//    GCC materializes the region's shared-variable capture (the
//    .omp_data struct) on the master's stack AT the pragma, and workers
//    load those fields in the outlined function's PROLOGUE — before any
//    statement of ours can run, so no barrier annotation can cover this
//    one handoff. (It is also un-fixable by fencing: GCC emits the
//    receiver as const/restrict, so the prologue loads legally hoist
//    across anything, including asm memory clobbers — observed in
//    ._omp_fn disassembly.) Two narrow ignore windows make the handoff
//    invisible instead:
//
//    - The master brackets the fork with AnnotateIgnoreWritesBegin/End
//      (Begin just before the pragma, End as thread 0's first act in
//      the region), hiding the capture stores themselves.
//    - Each pool worker runs with READS ignored from the end of its
//      first region for the rest of its life (guard dtor sets it,
//      tracked by a thread_local). The prologue loads — which land on
//      stack bytes the master's serial code reused for register saves
//      since the last barrier (observed: TSan pairing a prologue load
//      with an unrelated master register save at the same address) —
//      are thereby never recorded. The window cannot close inside the
//      region: because GCC emits the receiver const, it may legally
//      schedule a prologue load across ANY call we make there,
//      including the close itself (observed at -O2 in reduce's
//      region). A fresh
//      worker's first region needs no window: thread creation orders
//      the fork.
//
//    Worker reads being unrecorded narrows read-race coverage less
//    than it sounds: pool workers execute nothing but region bodies,
//    every write (worker or master) stays instrumented, and the
//    master runs the same loop body over its own chunk with reads
//    fully recorded, so a racy shared read pattern is still seen
//    through thread 0's accesses. Racing WRITES into a region are
//    caught on any thread.
//
// The region splits `parallel` from `for` so the guard can live inside
// it, with the capture handoff declared just before the pragma. Every
// team thread must construct OmpRegionGuard (all threads must reach
// both barriers), so it is the FIRST statement of the parallel block —
// never under an `if`, and before any other local so its destructor
// runs last.
//
// Ignore bookkeeping (each pair on one thread, never nested, so the
// counters always balance):
//
//   GBX_OMP_CAPTURE_HANDOFF   IgnoreWritesBegin   (master, before fork)
//   OmpRegionGuard ctor       IgnoreWritesEnd     (thread 0, in region)
//   OmpRegionGuard dtor       IgnoreReadsBegin    (workers, first region
//                                                  exit, once per thread)
//   thread_local dtor         IgnoreReadsEnd      (worker exit)
//
// The worker read window must be closed before the thread finishes or
// TSan's finished-with-ignores check trips — and pool threads DO exit
// mid-run (libgomp frees a pool when its master thread, e.g. a
// ParallelStream lane, exits). The flag is therefore a thread_local
// object whose destructor closes the window: glibc runs C++
// thread_local destructors (__call_tls_dtors) before the pthread-key
// destructors TSan finalizes the thread from.
//
// Precision trade-offs, both deliberate: (a) the barrier sync addresses
// are globals shared by all teams, so a guard passage also inherits
// clocks from unrelated teams — that can only over-synchronize
// (suppress, never fabricate, reports) and only across region
// boundaries; races between concurrently running region bodies are
// unaffected. (b) the master's stores between Begin/End (the capture
// struct, plus anything else in that tiny window) go unrecorded. Doing
// better needs an OMPT-style instrumented runtime, which libgomp is
// not (archer gets per-team sync from LLVM's libomp).
//
// Cost: one extra physical barrier per region entry and exit, in TSan
// builds only — non-TSan builds compile everything here to nothing
// (and the split `parallel`+`for` is codegen-identical to the combined
// form).
#pragma once

#if defined(__SANITIZE_THREAD__)
#define GBX_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GBX_TSAN_ENABLED 1
#endif
#endif

#ifndef GBX_TSAN_ENABLED
#define GBX_TSAN_ENABLED 0
#endif

#if GBX_TSAN_ENABLED

#include <omp.h>

// Provided by the TSan runtime (tsan_interface.h / dynamic_annotations,
// which ship with the compiler only in some distributions — declaring
// the entry points directly keeps this header self-contained). The
// Annotate* pair is exported by both GCC's libtsan and compiler-rt.
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
void AnnotateIgnoreWritesBegin(const char* file, int line);
void AnnotateIgnoreWritesEnd(const char* file, int line);
void AnnotateIgnoreReadsBegin(const char* file, int line);
void AnnotateIgnoreReadsEnd(const char* file, int line);
}
#endif

namespace gbx {

#if GBX_TSAN_ENABLED

namespace detail {
// Global sync addresses for the annotated barriers. Distinct entry/exit
// vars keep the two handoff directions' clocks apart; see the header
// comment for the cross-team precision trade-off of globals.
inline char tsan_omp_entry_sync = 0;
inline char tsan_omp_exit_sync = 0;

// Tracks whether this pool worker's lifetime read-ignore window is
// open (set once at its first region's exit), and closes it when the
// worker exits (see header comment on pool teardown).
struct TsanOmpReadsIgnored {
  bool on = false;
  ~TsanOmpReadsIgnored() {
    if (on) AnnotateIgnoreReadsEnd(__FILE__, __LINE__);
  }
};
inline thread_local TsanOmpReadsIgnored tsan_omp_reads_ignored;
}  // namespace detail

/// RAII annotated barriers for one OpenMP region: construct as the
/// first statement of the parallel block (every thread), destroy at
/// block end. Ctor publishes pre-region writes to all team threads;
/// dtor publishes each thread's writes to whoever runs after the join.
/// Thread 0's ctor also closes the write-ignore window that
/// GBX_OMP_CAPTURE_HANDOFF opened just before the fork, so the
/// master's share of the body is fully instrumented. Deliberately NOT
/// a Begin/End RAII pair on the serial side: a scope-end destructor
/// would leave ignores enabled across everything after the region
/// (sibling regions, serial prefix sums) until the enclosing scope
/// closes.
class OmpRegionGuard {
 public:
  OmpRegionGuard() {
    if (omp_get_thread_num() == 0) {
      AnnotateIgnoreWritesEnd(__FILE__, __LINE__);
    }
    __tsan_release(&detail::tsan_omp_entry_sync);
#pragma omp barrier
    __tsan_acquire(&detail::tsan_omp_entry_sync);
    // Compiler-level fence: keeps body accesses (and their TSan
    // instrumentation calls) from scheduling above the acquire.
    __asm__ __volatile__("" ::: "memory");
  }
  OmpRegionGuard(const OmpRegionGuard&) = delete;
  OmpRegionGuard& operator=(const OmpRegionGuard&) = delete;
  ~OmpRegionGuard() {
    // Mirror image: keep body writes from sinking below the release.
    __asm__ __volatile__("" ::: "memory");
    __tsan_release(&detail::tsan_omp_exit_sync);
#pragma omp barrier
    __tsan_acquire(&detail::tsan_omp_exit_sync);
    if (omp_get_thread_num() != 0 && !detail::tsan_omp_reads_ignored.on) {
      AnnotateIgnoreReadsBegin(__FILE__, __LINE__);
      detail::tsan_omp_reads_ignored.on = true;
    }
  }
};

// Opens the fork's write-ignore window; the region's OmpRegionGuard
// ctor closes it on thread 0. Place as the statement immediately
// before the parallel pragma — nothing may intervene, or its writes go
// unrecorded too.
#define GBX_OMP_CAPTURE_HANDOFF \
  ::AnnotateIgnoreWritesBegin(__FILE__, __LINE__)

#else

/// Non-TSan builds: a no-op the optimizer deletes entirely. The
/// user-provided ctor/dtor keep `gbx::OmpRegionGuard tsan_region;`
/// clear of -Wunused-variable under -Werror.
class OmpRegionGuard {
 public:
  OmpRegionGuard() {}
  OmpRegionGuard(const OmpRegionGuard&) = delete;
  OmpRegionGuard& operator=(const OmpRegionGuard&) = delete;
  ~OmpRegionGuard() {}
};

// Declaration-shaped no-op so call sites keep their trailing semicolon.
#define GBX_OMP_CAPTURE_HANDOFF static_assert(true, "")

#endif  // GBX_TSAN_ENABLED

}  // namespace gbx
