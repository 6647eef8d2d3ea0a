#include "net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"

namespace prins {

// ---- TimerWheel ------------------------------------------------------------

TimerWheel::TimerWheel(Clock::duration tick, std::size_t slots)
    : tick_(tick),
      origin_(Clock::now()),
      cursor_(0),
      slots_(std::max<std::size_t>(slots, 2)) {}

TimerId TimerWheel::schedule_at(Clock::time_point deadline,
                                std::function<void()> cb) {
  // A deadline at or before the cursor's tick lands in the cursor slot with
  // zero rounds, so the next collect_due() fires it.
  const std::uint64_t tick = std::max(tick_of(deadline), cursor_);
  const std::uint64_t delta = tick - cursor_;
  Slot& slot = slots_[tick % slots_.size()];
  const TimerId id = next_id_++;
  slot.push_back(Entry{id, deadline, delta / slots_.size(), std::move(cb)});
  by_id_.emplace(id, std::prev(slot.end()));
  deadlines_.insert(deadline);
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  const Slot::iterator entry = it->second;
  deadlines_.erase(deadlines_.find(entry->deadline));
  slots_[tick_of(entry->deadline) % slots_.size()].erase(entry);
  by_id_.erase(it);
  return true;
}

std::optional<TimerWheel::Clock::time_point> TimerWheel::next_deadline()
    const {
  if (deadlines_.empty()) return std::nullopt;
  return *deadlines_.begin();
}

std::size_t TimerWheel::collect_due(Clock::time_point now,
                                    std::vector<std::function<void()>>& due) {
  const std::uint64_t now_tick = tick_of(now);
  // Walk the wheel from the cursor up to the current tick.  The walk is
  // bounded by how long the wheel slept, which the reactor in turn bounds
  // by the earliest pending deadline; an empty wheel snaps the cursor.
  // The current tick is only partly elapsed: its slot gives up the entries
  // already due and the cursor stays on it, so a timer never fires early
  // and one scheduled later in this tick still lands ahead of the cursor.
  std::vector<Entry> fired;
  while (cursor_ <= now_tick && !by_id_.empty()) {
    const bool elapsed = cursor_ < now_tick;
    Slot& slot = slots_[cursor_ % slots_.size()];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->rounds > 0 || (!elapsed && it->deadline > now)) {
        if (elapsed) it->rounds -= 1;
        ++it;
        continue;
      }
      deadlines_.erase(deadlines_.find(it->deadline));
      by_id_.erase(it->id);
      fired.push_back(std::move(*it));
      it = slot.erase(it);
    }
    if (!elapsed) break;
    ++cursor_;
  }
  if (by_id_.empty()) cursor_ = std::max(cursor_, now_tick);
  // Same-slot entries can be collected out of deadline order (sub-tick
  // spacing); deliver strictly ordered anyway — the due list per advance is
  // tiny, so the sort is noise.
  std::stable_sort(fired.begin(), fired.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.deadline < b.deadline;
                   });
  for (Entry& e : fired) due.push_back(std::move(e.cb));
  return fired.size();
}

// ---- Reactor ---------------------------------------------------------------

Result<std::shared_ptr<Reactor>> Reactor::create() {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) {
    return io_error(std::string("epoll_create1: ") + std::strerror(errno));
  }
  const int wake = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake < 0) {
    Status s = io_error(std::string("eventfd: ") + std::strerror(errno));
    ::close(ep);
    return s;
  }
  // The final reference is often dropped ON the loop thread: a posted
  // teardown closure holding the last connection, whose Conn holds the
  // last reactor reference, is destroyed by run() itself.  The destructor
  // joins the loop, so destruction must hop to a helper thread in that
  // case; joining from anywhere else stays synchronous.
  std::shared_ptr<Reactor> r(new Reactor(ep, wake), [](Reactor* self) {
    if (self->on_loop_thread()) {
      std::thread([self] { delete self; }).detach();
    } else {
      delete self;
    }
  });
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake;
  if (::epoll_ctl(ep, EPOLL_CTL_ADD, wake, &ev) != 0) {
    Status s = io_error(std::string("epoll_ctl(wakeup): ") +
                        std::strerror(errno));
    return s;  // ~Reactor closes both fds and joins the (unstarted) thread
  }
  r->loop_thread_ = std::thread([raw = r.get()] { raw->run(); });
  return r;
}

Reactor::Reactor(int epoll_fd, int wake_fd)
    : epoll_fd_(epoll_fd), wake_fd_(wake_fd) {}

Reactor::~Reactor() {
  stopping_.store(true, std::memory_order_release);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void Reactor::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

Status Reactor::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  // Register under the lock the loop takes to find the handler, so the
  // registration happens-before whatever the handler does with the fd
  // (closing it included), as the sanitizers see it too.
  std::lock_guard lock(mutex_);
  handlers_[fd] = std::make_shared<FdCallback>(std::move(cb));
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    Status s = io_error(std::string("epoll_ctl(add): ") +
                        std::strerror(errno));
    handlers_.erase(fd);
    return s;
  }
  return Status::ok();
}

Status Reactor::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return io_error(std::string("epoll_ctl(mod): ") + std::strerror(errno));
  }
  return Status::ok();
}

void Reactor::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  std::lock_guard lock(mutex_);
  handlers_.erase(fd);
}

TimerId Reactor::add_timer_at(Clock::time_point deadline,
                              std::function<void()> cb) {
  TimerId id;
  bool new_front = false;
  {
    std::lock_guard lock(mutex_);
    const auto prev = wheel_.next_deadline();
    id = wheel_.schedule_at(deadline, std::move(cb));
    new_front = !prev.has_value() || deadline < *prev;
  }
  // Only a new earliest deadline shortens the epoll sleep.
  if (new_front && !on_loop_thread()) wake();
  return id;
}

bool Reactor::cancel_timer(TimerId id) {
  std::lock_guard lock(mutex_);
  return wheel_.cancel(id);
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard lock(mutex_);
    posted_.push_back(std::move(fn));
  }
  if (!on_loop_thread()) wake();
}

std::size_t Reactor::pending_timers() const {
  std::lock_guard lock(mutex_);
  return wheel_.pending();
}

int Reactor::wait_events(epoll_event* events, int max_events,
                         std::optional<Clock::duration> wait) {
#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
  // Nanosecond timeout: a timer fires at its deadline, not up to a whole
  // millisecond late (a latent pipe's delivery time rides on this).
  if (precise_wait_) {
    timespec ts{};
    if (wait) {
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(*wait).count();
      ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    }
    const int n = ::epoll_pwait2(epoll_fd_, events, max_events,
                                 wait ? &ts : nullptr, nullptr);
    if (n >= 0 || errno != ENOSYS) return n;
    precise_wait_ = false;  // pre-5.11 kernel: whole milliseconds below
  }
#endif
  int timeout_ms = -1;
  if (wait) {
    // Round up so we never spin a whole tick early at 0ms.
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(*wait).count();
    timeout_ms = wait->count() <= 0 ? 0 : static_cast<int>(ms) + 1;
  }
  return ::epoll_wait(epoll_fd_, events, max_events, timeout_ms);
}

void Reactor::run() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  std::vector<std::function<void()>> due;
  for (;;) {
    // Sleep until the next timer deadline (or forever with none pending);
    // posted closures and new front timers nudge the eventfd.
    std::optional<Clock::duration> wait;
    {
      std::lock_guard lock(mutex_);
      if (!posted_.empty()) {
        wait = Clock::duration::zero();
      } else if (const auto next = wheel_.next_deadline()) {
        wait = std::max(*next - Clock::now(), Clock::duration::zero());
      }
    }
    if (stopping_.load(std::memory_order_acquire)) return;

    const int n = wait_events(events, kMaxEvents, wait);
    if (n < 0 && errno != EINTR) {
      PRINS_LOG(kError) << "reactor epoll_wait: " << std::strerror(errno);
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;

    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof drain) > 0) {
        }
        continue;
      }
      std::shared_ptr<FdCallback> handler;
      {
        std::lock_guard lock(mutex_);
        auto it = handlers_.find(fd);
        if (it != handlers_.end()) handler = it->second;
      }
      if (handler) (*handler)(events[i].events);
    }

    // Posted closures, then due timers — both collected under the lock and
    // run outside it so they may add fds, timers, or more posts.
    std::deque<std::function<void()>> run_now;
    due.clear();
    {
      std::lock_guard lock(mutex_);
      run_now.swap(posted_);
      wheel_.collect_due(Clock::now(), due);
    }
    for (auto& fn : run_now) fn();
    for (auto& fn : due) fn();
  }
}

// ---- ReactorPool -----------------------------------------------------------

Result<std::shared_ptr<ReactorPool>> ReactorPool::create(std::size_t threads) {
  if (threads == 0) threads = reactor_threads_from_env();
  threads = std::clamp<std::size_t>(threads, 1, 64);
  std::vector<std::shared_ptr<Reactor>> reactors;
  reactors.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    PRINS_ASSIGN_OR_RETURN(auto r, Reactor::create());
    reactors.push_back(std::move(r));
  }
  return std::shared_ptr<ReactorPool>(new ReactorPool(std::move(reactors)));
}

std::size_t reactor_threads_from_env() {
  return parse_env_size("PRINS_REACTOR_THREADS", 1, 64).value_or(1);
}

}  // namespace prins
