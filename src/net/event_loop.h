// Single-threaded poll(2) event loop with monotonic deadline timers.
//
// The redirector daemon runs everything — listener, client sessions, race
// attempts, health probes, fault-timeline ticks, backoff sleeps — on one
// loop thread; the only cross-thread entry point is wakeup(), which is
// async-signal-safe (a self-pipe write) so SIGINT/SIGTERM handlers can
// nudge the loop into its drain path.
//
// Design notes:
//   * Callbacks fire on the loop thread.  A callback may add/modify/remove
//     fds and timers freely, including removing its own registration —
//     removals are deferred to the end of the dispatch pass.
//   * Timers are one-shot, keyed by steady_clock deadlines; periodic
//     behaviour is a callback re-arming itself.  Cancellation is O(1)
//     (tombstone; the heap entry is dropped lazily).
//   * poll(2), not epoll: fd counts here are tens (top-k race attempts +
//     sessions + probes), portability beats O(1) readiness.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/socket.h"

namespace cdn::net {

/// Readiness interest / event bits.
enum : std::uint32_t {
  kReadable = 1u << 0,
  kWritable = 1u << 1,
  kErrored = 1u << 2,  // POLLERR/POLLHUP/POLLNVAL; always reported
};

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using TimerId = std::uint64_t;

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using TimerCallback = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with an interest mask.  One registration per fd.
  void add_fd(int fd, std::uint32_t interest, FdCallback callback);
  /// Changes the interest mask of a registered fd.
  void set_interest(int fd, std::uint32_t interest);
  /// Unregisters (safe from inside any callback; deferred).
  void remove_fd(int fd);
  bool has_fd(int fd) const { return fds_.count(fd) != 0; }

  /// One-shot timer at an absolute monotonic deadline.
  TimerId add_timer(TimePoint deadline, TimerCallback callback);
  TimerId add_timer_after(std::chrono::nanoseconds delay,
                          TimerCallback callback) {
    return add_timer(Clock::now() + delay, std::move(callback));
  }
  /// Cancels; a no-op for already-fired or unknown ids.
  void cancel_timer(TimerId id);

  /// Dispatches ready fds and due timers, waiting at most `max_wait`
  /// (clamped by the nearest timer deadline).  Returns the number of
  /// callbacks dispatched.
  std::size_t run_once(std::chrono::milliseconds max_wait);

  /// Runs until stop() — or until the loop has nothing registered at all
  /// (no fds, no timers), which would otherwise sleep forever.
  void run();

  /// Requests run() to return after the current dispatch pass.  Loop
  /// thread only; from other threads or signal handlers call wakeup().
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Async-signal-safe nudge: makes the current/next poll wake up and
  /// invokes the wakeup handler (if any) on the loop thread.
  void wakeup() noexcept;

  /// Handler invoked on the loop thread after each wakeup() burst.
  void set_wakeup_handler(std::function<void()> handler) {
    wakeup_handler_ = std::move(handler);
  }

  std::size_t fd_count() const { return fds_.size(); }
  std::size_t pending_timers() const { return timer_callbacks_.size(); }

 private:
  struct TimerEntry {
    TimePoint deadline;
    TimerId id;
    bool operator>(const TimerEntry& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };

  void drain_wakeup_pipe();
  void flush_deferred_removals();

  struct FdReg {
    std::uint32_t interest = 0;  // 0 still hears kErrored
    FdCallback callback;
    // Bumped on every add_fd.  Readiness captured by poll() is delivered
    // only to the registration that was polled: if a callback earlier in
    // the pass closed the fd and the number was reclaimed for a new
    // socket, the stale revents must not leak to the new registration.
    std::uint64_t generation = 0;
    bool removed = false;  // awaiting deferred removal: deliver nothing
  };

  std::unordered_map<int, FdReg> fds_;
  std::uint64_t next_fd_generation_ = 1;
  std::vector<int> deferred_removals_;
  // Closures displaced by fd-number reuse within a dispatch pass; one of
  // them may be the callback currently executing, so destruction waits
  // until the pass ends.
  std::vector<FdCallback> displaced_callbacks_;
  bool dispatching_ = false;

  std::vector<TimerEntry> timer_heap_;  // min-heap via std::greater
  std::unordered_map<TimerId, TimerCallback> timer_callbacks_;
  TimerId next_timer_id_ = 1;

  Fd wakeup_read_;
  Fd wakeup_write_;
  std::function<void()> wakeup_handler_;
  bool stopped_ = false;
};

}  // namespace cdn::net
