#include "src/net/event_loop.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/util/error.h"

namespace cdn::net {

EventLoop::EventLoop() {
  int pipe_fds[2];
  CDN_EXPECT(::pipe(pipe_fds) == 0,
             "pipe(): " + errno_message(errno));
  wakeup_read_ = Fd(pipe_fds[0]);
  wakeup_write_ = Fd(pipe_fds[1]);
  CDN_EXPECT(set_nonblocking_cloexec(wakeup_read_.get()) &&
                 set_nonblocking_cloexec(wakeup_write_.get()),
             "fcntl(): " + errno_message(errno));
}

EventLoop::~EventLoop() = default;

void EventLoop::add_fd(int fd, std::uint32_t interest, FdCallback callback) {
  CDN_EXPECT(fd >= 0, "cannot register a negative fd");
  const auto it = fds_.find(fd);
  if (it != fds_.end()) {
    // A callback earlier in this pass closed this fd number and the OS
    // reused it for a new socket.  The stale entry is awaiting deferred
    // removal — reclaim it; its closure may be the one executing right
    // now, so park it until the pass ends instead of destroying it.
    const auto pending = std::find(deferred_removals_.begin(),
                                   deferred_removals_.end(), fd);
    CDN_EXPECT(pending != deferred_removals_.end(),
               "fd " + std::to_string(fd) + " is already registered");
    deferred_removals_.erase(pending);
    displaced_callbacks_.push_back(std::move(it->second.callback));
    it->second =
        FdReg{interest, std::move(callback), next_fd_generation_++};
    return;
  }
  fds_.emplace(fd,
               FdReg{interest, std::move(callback), next_fd_generation_++});
}

void EventLoop::set_interest(int fd, std::uint32_t interest) {
  const auto it = fds_.find(fd);
  CDN_EXPECT(it != fds_.end(),
             "fd " + std::to_string(fd) + " is not registered");
  it->second.interest = interest;
}

void EventLoop::remove_fd(int fd) {
  if (dispatching_) {
    deferred_removals_.push_back(fd);
    // Stop delivering events for it within this pass.
    const auto it = fds_.find(fd);
    if (it != fds_.end()) it->second.removed = true;
    return;
  }
  fds_.erase(fd);
}

void EventLoop::flush_deferred_removals() {
  for (const int fd : deferred_removals_) fds_.erase(fd);
  deferred_removals_.clear();
  displaced_callbacks_.clear();
}

TimerId EventLoop::add_timer(TimePoint deadline, TimerCallback callback) {
  const TimerId id = next_timer_id_++;
  timer_callbacks_.emplace(id, std::move(callback));
  timer_heap_.push_back({deadline, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                 std::greater<TimerEntry>{});
  return id;
}

void EventLoop::cancel_timer(TimerId id) { timer_callbacks_.erase(id); }

void EventLoop::wakeup() noexcept {
  const char byte = 1;
  // Best-effort; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_write_.get(), &byte, 1);
}

void EventLoop::drain_wakeup_pipe() {
  char buf[64];
  while (::read(wakeup_read_.get(), buf, sizeof(buf)) > 0) {
  }
}

std::size_t EventLoop::run_once(std::chrono::milliseconds max_wait) {
  // Clamp the wait by the earliest live timer deadline.
  const TimePoint now = Clock::now();
  std::chrono::milliseconds wait = max_wait;
  while (!timer_heap_.empty() &&
         timer_callbacks_.find(timer_heap_.front().id) ==
             timer_callbacks_.end()) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                  std::greater<TimerEntry>{});
    timer_heap_.pop_back();  // drop cancelled tombstones
  }
  if (!timer_heap_.empty()) {
    const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
        timer_heap_.front().deadline - now);
    wait = std::clamp(until, std::chrono::milliseconds(0), max_wait);
  }

  std::vector<pollfd> pfds;
  // (fd, generation) at poll time: revents belong to that registration
  // only, never to a later one that reclaimed the same fd number.
  std::vector<std::pair<int, std::uint64_t>> order;
  pfds.reserve(fds_.size() + 1);
  order.reserve(fds_.size());
  {
    pollfd wk{};
    wk.fd = wakeup_read_.get();
    wk.events = POLLIN;
    pfds.push_back(wk);
  }
  for (const auto& [fd, reg] : fds_) {
    pollfd p{};
    p.fd = fd;
    if (reg.interest & kReadable) p.events |= POLLIN;
    if (reg.interest & kWritable) p.events |= POLLOUT;
    pfds.push_back(p);
    order.emplace_back(fd, reg.generation);
  }

  const int rc = ::poll(pfds.data(), pfds.size(),
                        static_cast<int>(wait.count()));
  std::size_t dispatched = 0;
  dispatching_ = true;

  if (rc > 0) {
    if (pfds[0].revents & POLLIN) {
      drain_wakeup_pipe();
      if (wakeup_handler_) {
        wakeup_handler_();
        ++dispatched;
      }
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const short revents = pfds[i + 1].revents;
      if (revents == 0) continue;
      const auto it = fds_.find(order[i].first);
      if (it == fds_.end() || it->second.removed ||
          it->second.generation != order[i].second) {
        continue;
      }
      std::uint32_t events = 0;
      if (revents & POLLIN) events |= kReadable;
      if (revents & POLLOUT) events |= kWritable;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) events |= kErrored;
      if (events == 0) continue;
      it->second.callback(events);
      ++dispatched;
    }
  }

  // Fire due timers (the callback may re-arm or add new ones; those run on
  // a later pass even if already due, keeping each pass bounded).
  const TimePoint after_poll = Clock::now();
  std::vector<TimerCallback> due;
  while (!timer_heap_.empty() &&
         timer_heap_.front().deadline <= after_poll) {
    const TimerEntry top = timer_heap_.front();
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                  std::greater<TimerEntry>{});
    timer_heap_.pop_back();
    const auto it = timer_callbacks_.find(top.id);
    if (it == timer_callbacks_.end()) continue;  // cancelled
    due.push_back(std::move(it->second));
    timer_callbacks_.erase(it);
  }
  for (auto& cb : due) {
    cb();
    ++dispatched;
  }

  dispatching_ = false;
  flush_deferred_removals();
  return dispatched;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) {
    if (fds_.empty() && timer_callbacks_.empty()) break;
    run_once(std::chrono::milliseconds(100));
  }
}

}  // namespace cdn::net
