// Single-threaded epoll event loop with deadline timers.
//
// The Aalo runtime is intentionally single-threaded per component (one
// loop in the coordinator, one per daemon): all scheduling state is
// confined to its loop, so no locks are needed on the hot path. Cross-
// thread work enters through post(), the only thread-safe method.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

#include "net/socket.h"

namespace aalo::net {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT bitmask). The callback
  /// runs on the loop thread with the ready-event mask.
  void add(int fd, std::uint32_t events, FdCallback callback);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);
  bool watched(int fd) const { return callbacks_.contains(fd); }

  /// Runs `fn` on the loop at (or soon after) the deadline. Returns a
  /// token usable with cancelTimer().
  std::uint64_t callAt(Clock::time_point deadline, std::function<void()> fn);
  std::uint64_t callAfter(std::chrono::nanoseconds delay, std::function<void()> fn) {
    return callAt(Clock::now() + delay, std::move(fn));
  }
  void cancelTimer(std::uint64_t token);

  /// Thread-safe: enqueues `fn` to run on the loop thread and wakes it.
  void post(std::function<void()> fn);

  /// Processes ready events and due timers once, waiting at most
  /// `max_wait`. Returns the number of callbacks dispatched.
  int runOnce(std::chrono::milliseconds max_wait);

  /// Loops until stop() is called (from a callback or another thread),
  /// including a stop() that came before run() started.
  void run();
  void stop();

 private:
  void drainPosted();
  int dispatchTimers();

  Fd epoll_fd_;
  Fd wake_read_;
  Fd wake_write_;
  std::unordered_map<int, FdCallback> callbacks_;

  struct Timer {
    Clock::time_point deadline;
    std::uint64_t token;
    std::function<void()> fn;
    bool operator>(const Timer& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return token > other.token;
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t next_timer_token_ = 1;
  std::vector<std::uint64_t> cancelled_timers_;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;

  std::atomic<bool> stop_{false};
};

}  // namespace aalo::net
