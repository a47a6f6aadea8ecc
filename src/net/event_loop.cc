#include "net/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <system_error>

namespace aalo::net {

namespace {

[[noreturn]] void throwErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// epoll wait with sub-millisecond precision; returns epoll's count.
int waitForEvents(int epoll_fd, epoll_event* events, int max_events,
                  std::chrono::nanoseconds wait) {
  // epoll_pwait2 takes a timespec, so a timer due in 0.4 ms is waited for
  // instead of being polled for (epoll_wait's whole-ms timeout truncates
  // it to 0 and the loop spins until the deadline passes).
  static std::atomic<bool> have_pwait2{true};
  if (have_pwait2.load(std::memory_order_relaxed)) {
    const timespec timeout{
        .tv_sec = static_cast<time_t>(wait.count() / 1'000'000'000),
        .tv_nsec = static_cast<long>(wait.count() % 1'000'000'000)};
    const int n =
        ::epoll_pwait2(epoll_fd, events, max_events, &timeout, nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    have_pwait2.store(false, std::memory_order_relaxed);
  }
  // Kernels before 5.11: round up, so a timer is never polled for early.
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(wait);
  return ::epoll_wait(epoll_fd, events, max_events,
                      static_cast<int>(ms.count()));
}

}  // namespace

EventLoop::EventLoop() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (!epoll_fd_.valid()) throwErrno("epoll_create1");
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) throwErrno("pipe2");
  wake_read_ = Fd(pipe_fds[0]);
  wake_write_ = Fd(pipe_fds[1]);
  add(wake_read_.get(), EPOLLIN, [this](std::uint32_t) {
    std::array<char, 256> sink;
    while (::read(wake_read_.get(), sink.data(), sink.size()) > 0) {
    }
  });
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, std::uint32_t events, FdCallback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    throwErrno("epoll_ctl(ADD)");
  }
  callbacks_[fd] = std::move(callback);
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    throwErrno("epoll_ctl(MOD)");
  }
}

void EventLoop::remove(int fd) {
  if (callbacks_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);  // Best effort.
}

std::uint64_t EventLoop::callAt(Clock::time_point deadline, std::function<void()> fn) {
  const std::uint64_t token = next_timer_token_++;
  timers_.push(Timer{deadline, token, std::move(fn)});
  return token;
}

void EventLoop::cancelTimer(std::uint64_t token) {
  cancelled_timers_.push_back(token);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard lock(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  const char byte = 1;
  (void)!::write(wake_write_.get(), &byte, 1);  // EAGAIN fine: already awake.
}

void EventLoop::drainPosted() {
  std::vector<std::function<void()>> ready;
  {
    std::lock_guard lock(posted_mutex_);
    ready.swap(posted_);
  }
  for (auto& fn : ready) fn();
}

int EventLoop::dispatchTimers() {
  int dispatched = 0;
  const auto now = Clock::now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    Timer timer = timers_.top();
    timers_.pop();
    const auto cancelled = std::find(cancelled_timers_.begin(),
                                     cancelled_timers_.end(), timer.token);
    if (cancelled != cancelled_timers_.end()) {
      cancelled_timers_.erase(cancelled);
      continue;
    }
    timer.fn();
    ++dispatched;
  }
  return dispatched;
}

int EventLoop::runOnce(std::chrono::milliseconds max_wait) {
  std::chrono::nanoseconds wait = max_wait;
  if (!timers_.empty()) {
    wait = std::clamp<std::chrono::nanoseconds>(
        timers_.top().deadline - Clock::now(), std::chrono::nanoseconds(0),
        max_wait);
  }

  std::array<epoll_event, 256> events;
  const int n = waitForEvents(epoll_fd_.get(), events.data(),
                              static_cast<int>(events.size()), wait);
  if (n < 0 && errno != EINTR) throwErrno("epoll_wait");

  int dispatched = 0;
  for (int i = 0; i < std::max(n, 0); ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    const auto it = callbacks_.find(fd);
    if (it == callbacks_.end()) continue;  // Removed by an earlier callback.
    // Copy: the callback may remove itself (invalidates the map entry).
    FdCallback cb = it->second;
    cb(events[static_cast<std::size_t>(i)].events);
    ++dispatched;
  }
  dispatched += dispatchTimers();
  drainPosted();
  return dispatched;
}

void EventLoop::run() {
  // The stop request is consumed on the way out, never cleared on the way
  // in: a stop() that lands before this thread gets here still ends it.
  while (!stop_.exchange(false, std::memory_order_relaxed)) {
    runOnce(std::chrono::milliseconds(100));
  }
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_relaxed);
  post([] {});  // Wake the loop if it is blocked in epoll_wait.
}

}  // namespace aalo::net
