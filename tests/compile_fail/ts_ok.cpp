// Positive control for the thread-safety negative-compile suite: a
// correctly locked class that MUST compile cleanly under
// -Werror=thread-safety. If this file fails, the violation tests prove
// nothing (the toolchain is rejecting everything).
#include <cstdint>

#include "gbx/thread_annotations.hpp"

namespace {

class Counter {
 public:
  void add(std::uint64_t d) {
    gbx::ScopedLock lk(mu_);
    value_ += d;
    bump_locked();
  }

  std::uint64_t get() const {
    gbx::ScopedLock lk(mu_);
    return value_;
  }

 private:
  void bump_locked() GBX_REQUIRES(mu_) { ++bumps_; }

  mutable gbx::Mutex mu_;
  std::uint64_t value_ GBX_GUARDED_BY(mu_) = 0;
  std::uint64_t bumps_ GBX_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Counter c;
  c.add(1);
  return c.get() == 1 ? 0 : 1;
}
