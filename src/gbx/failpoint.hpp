// gbx/failpoint.hpp — process-wide deterministic fault-injection registry.
//
// Generalizes the test-local FailpointBackend of the out-of-core fault
// suite (PR 7) into one named-failpoint registry every subsystem can
// consult: the block store's write/read path, the network client's
// send/recv path, and the replication shipper/replica ack paths all ask
// `failpoints().hit("name")` at their injection site and act on the
// returned action. Tests arm failpoints by name with either an
// op-count trigger (fire at exactly the Nth passage, 1-based — the
// FailpointBackend idiom) or a seeded probability trigger (fire each
// passage with probability p under a pinned RNG), so a whole failover
// matrix — ENOSPC, torn write, EPIPE, partial send, delayed ack,
// stalled peer — replays deterministically.
//
// Cost discipline: production code paths pay one relaxed atomic load
// when nothing is armed (`armed()` is the guard), and the registry
// itself is only locked while at least one failpoint is live. Arming is
// test-only; there is no failpoint in any hot loop's per-entry work —
// sites sit at I/O boundaries (one syscall already paid).
//
// Thread safety: hit() may be called from any thread (lane workers,
// event loops); a gbx::Mutex serializes trigger state.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>

#include "gbx/thread_annotations.hpp"

namespace gbx {

/// What an armed failpoint does to the operation that trips it. The
/// *site* interprets the action (a store write "tears" by persisting a
/// prefix; a client send "tears" by sending a prefix then erroring).
enum class FailAction {
  kError,    ///< fail loudly: throw / simulated errno (ENOSPC, EPIPE, EIO)
  kTorn,     ///< succeed partially and silently (torn write / short read)
  kPartial,  ///< transmit a prefix, then fail loudly (partial send)
  kDelay,    ///< stall this operation for delay_ms, then proceed (slow ack)
  kStall,    ///< stop making progress for delay_ms (partitioned peer)
};

/// Trigger + behaviour of one armed failpoint.
struct FailpointSpec {
  FailAction action = FailAction::kError;
  /// Fire at exactly the Nth passage through the site (1-based) counted
  /// from arming; 0 disables the op-count trigger.
  std::uint64_t at_op = 0;
  /// Fire each passage with this probability (0 disables); draws come
  /// from a generator seeded with `seed`, so runs replay exactly.
  double probability = 0;
  std::uint64_t seed = 0;
  /// kTorn / kPartial: fraction of the operation that still happens.
  double fraction = 0.5;
  /// kDelay / kStall: how long the site pauses, milliseconds.
  int delay_ms = 20;
  /// Total times this failpoint may fire before disarming itself;
  /// 1 reproduces the fire-once FailpointBackend semantics.
  std::uint64_t max_fires = 1;
};

/// What hit() hands back to a tripped site.
struct FailpointHit {
  FailAction action = FailAction::kError;
  double fraction = 0.5;
  int delay_ms = 0;
};

class FailpointRegistry {
 public:
  /// Arm (or re-arm, resetting counters) the named failpoint.
  void arm(const std::string& name, FailpointSpec spec) {
    gbx::ScopedLock lk(mu_);
    auto [it, inserted] = points_.try_emplace(name);
    it->second.spec = spec;
    it->second.ops = 0;
    it->second.fires = 0;
    it->second.rng.seed(spec.seed);
    if (inserted) armed_.fetch_add(1, std::memory_order_relaxed);
  }

  void disarm(const std::string& name) {
    gbx::ScopedLock lk(mu_);
    if (points_.erase(name) > 0)
      armed_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Disarm everything (test teardown).
  void clear() {
    gbx::ScopedLock lk(mu_);
    points_.clear();
    armed_.store(0, std::memory_order_relaxed);
  }

  /// Cheap guard for injection sites: false ⇒ nothing armed anywhere.
  bool armed() const { return armed_.load(std::memory_order_relaxed) > 0; }

  /// Count one passage through the named site; returns the action to
  /// take when the failpoint fires on this passage. Sites should guard
  /// with armed() so the no-failpoint path stays one atomic load.
  std::optional<FailpointHit> hit(const std::string& name) {
    if (!armed()) return std::nullopt;
    gbx::ScopedLock lk(mu_);
    auto it = points_.find(name);
    if (it == points_.end()) return std::nullopt;
    State& st = it->second;
    ++st.ops;
    bool fire = false;
    if (st.spec.at_op != 0 && st.ops == st.spec.at_op) fire = true;
    if (!fire && st.spec.probability > 0) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      fire = u(st.rng) < st.spec.probability;
    }
    if (!fire) return std::nullopt;
    FailpointHit h;
    h.action = st.spec.action;
    h.fraction = st.spec.fraction;
    h.delay_ms = st.spec.delay_ms;
    if (++st.fires >= st.spec.max_fires) {
      points_.erase(it);
      armed_.fetch_sub(1, std::memory_order_relaxed);
    }
    return h;
  }

  /// Passages counted at the named site since arming (0 if not armed).
  /// Lets tests arm relative triggers: "fail N writes from now".
  std::uint64_t ops(const std::string& name) const {
    gbx::ScopedLock lk(mu_);
    auto it = points_.find(name);
    return it == points_.end() ? 0 : it->second.ops;
  }

 private:
  struct State {
    FailpointSpec spec;
    std::uint64_t ops = 0;
    std::uint64_t fires = 0;
    std::mt19937_64 rng;
  };

  mutable gbx::Mutex mu_;
  std::unordered_map<std::string, State> points_ GBX_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> armed_{0};
};

/// The process-wide registry every injection site consults.
inline FailpointRegistry& failpoints() {
  static FailpointRegistry reg;
  return reg;
}

}  // namespace gbx
