// net/event_loop.hpp — minimal epoll + eventfd wrappers (Linux only).
//
// Thin RAII shims over the three kernel objects the session core
// (net/frame_loop.hpp) needs: an epoll instance, an eventfd wake
// channel (so stop() can interrupt a blocked epoll_wait from another
// thread), and owned file descriptors — plus the dial and the blocking
// send every socket user shares. No callback registry, no timer wheel:
// these classes only keep the fd bookkeeping honest.
#pragma once

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gbx/error.hpp"

namespace net {

/// Owned file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// Blocking TCP connect to `host` (dotted quad) : `port`, with
/// TCP_NODELAY set; invalid when every attempt fails. A retry sleeps
/// `backoff_ms` first, doubling up to 500 ms — so a caller can reach a
/// peer that is still binding or promoting. With `block` false it comes
/// back nonblocking, maybe still connecting (EPOLLOUT tells the outcome).
inline Fd dial(const std::string& host, std::uint16_t port, int attempts = 1,
               int backoff_ms = 20, bool block = true) {
  constexpr int kMaxBackoffMs = 500;
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return {};
  for (int a = 0; a < attempts; ++a) {
    if (a > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
    }
    const int flags = SOCK_STREAM | SOCK_CLOEXEC | (block ? 0 : SOCK_NONBLOCK);
    Fd fd(::socket(AF_INET, flags, 0));
    if (fd.valid() && (::connect(fd.get(), reinterpret_cast<::sockaddr*>(&addr),
                                 sizeof addr) == 0 ||
                       (!block && errno == EINPROGRESS))) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
  }
  return {};
}

/// Blocking send of all `n` bytes (EINTR retried, SIGPIPE suppressed).
/// False when the peer is gone; the caller decides how loud that is.
inline bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const auto w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// epoll instance keyed by raw fd (the loop maps fd -> session).
class EventLoop {
 public:
  EventLoop() : ep_(::epoll_create1(EPOLL_CLOEXEC)) {
    GBX_CHECK(ep_.valid(), "epoll_create1 failed");
  }

  void add(int fd, std::uint32_t events) { ctl(EPOLL_CTL_ADD, fd, events); }
  void mod(int fd, std::uint32_t events) { ctl(EPOLL_CTL_MOD, fd, events); }
  void del(int fd) {
    ::epoll_event ev{};
    ::epoll_ctl(ep_.get(), EPOLL_CTL_DEL, fd, &ev);  // best-effort
  }

  /// Wait up to `timeout_ms` (-1 = forever); returns the ready events.
  /// EINTR is retried as a zero-event wake, never surfaced.
  const std::vector<::epoll_event>& wait(int timeout_ms) {
    events_.resize(64);
    const int n =
        ::epoll_wait(ep_.get(), events_.data(),
                     static_cast<int>(events_.size()), timeout_ms);
    events_.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
    GBX_CHECK(n >= 0 || errno == EINTR, "epoll_wait failed");
    return events_;
  }

 private:
  void ctl(int op, int fd, std::uint32_t events) {
    ::epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    GBX_CHECK(::epoll_ctl(ep_.get(), op, fd, &ev) == 0, "epoll_ctl failed");
  }

  Fd ep_;
  std::vector<::epoll_event> events_;
};

/// Cross-thread wake channel: write() from any thread makes the fd
/// readable, unblocking an epoll_wait that watches it.
class WakeFd {
 public:
  WakeFd() : fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    GBX_CHECK(fd_.valid(), "eventfd failed");
  }

  int get() const { return fd_.get(); }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] auto n = ::write(fd_.get(), &one, sizeof one);
  }

  /// Drain pending wakes so the fd stops polling readable.
  void clear() {
    std::uint64_t n = 0;
    [[maybe_unused]] auto r = ::read(fd_.get(), &n, sizeof n);
  }

 private:
  Fd fd_;
};

}  // namespace net

#endif  // __linux__
