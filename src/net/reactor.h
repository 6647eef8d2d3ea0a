// Reactor: an epoll event loop with a hashed timer wheel and an eventfd
// wakeup, the event-driven substrate under every HandlerTransport.
//
// One reactor thread multiplexes any number of nonblocking sockets and
// in-process pipes, with no thread per link.  The loop sleeps in
// epoll_wait until a registered fd becomes ready, a timer on the wheel
// comes due, or another thread posts a closure; fd callbacks, timer
// callbacks, and posted closures all run on the loop thread, so
// per-connection state machines need no locking of their own.
//
// The TimerWheel is the deadline substrate: every replica link's reply
// timeout and retry backoff is a wheel entry (see RetryPolicy), as is a
// latent in-process message's delivery time.  A
// blocking ReactorTcpTransport::recv_for needs none: its caller reads the
// socket itself, with the deadline as the poll() timeout.  It is a classic
// hashed wheel — O(1) schedule and cancel, slots of `tick` granularity,
// entries beyond the horizon carry a round count — driven by advance()
// from the loop.  No entry fires before its deadline, and the loop sleeps
// to the next one with nanosecond precision where the kernel allows.
//
// A ReactorPool shards connections across N single-threaded reactors
// (round-robin) for multi-core scaling; each connection lives on exactly
// one reactor, so the no-locking property holds per connection.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"

struct epoll_event;

namespace prins {

using TimerId = std::uint64_t;

/// Hashed timing wheel.  Not thread-safe on its own; the Reactor guards it
/// and drives advance() from the loop thread.  Usable standalone (and unit
/// tested) with a caller-supplied clock value.
class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimerWheel(Clock::duration tick = std::chrono::milliseconds(1),
                      std::size_t slots = 256);

  /// Schedule `callback` to fire once `deadline` is reached (a deadline in
  /// the past fires on the next advance()).  Returns a handle for cancel().
  TimerId schedule_at(Clock::time_point deadline, std::function<void()> cb);
  TimerId schedule_in(Clock::duration delay, std::function<void()> cb) {
    return schedule_at(Clock::now() + delay, std::move(cb));
  }

  /// Remove a pending timer.  False if it already fired or was cancelled.
  bool cancel(TimerId id);

  /// Earliest pending deadline (the epoll_wait sleep bound).
  std::optional<Clock::time_point> next_deadline() const;

  /// Move callbacks of every entry with deadline <= now into `due`, in
  /// deadline order.  Returns the number collected.  The caller runs them
  /// outside any lock so callbacks may re-enter the wheel.
  std::size_t collect_due(Clock::time_point now,
                          std::vector<std::function<void()>>& due);

  std::size_t pending() const { return by_id_.size(); }

 private:
  struct Entry {
    TimerId id;
    Clock::time_point deadline;
    std::uint64_t rounds;  // full wheel revolutions still to wait
    std::function<void()> cb;
  };
  using Slot = std::list<Entry>;

  std::uint64_t tick_of(Clock::time_point t) const {
    return static_cast<std::uint64_t>((t - origin_) / tick_);
  }

  Clock::duration tick_;
  Clock::time_point origin_;
  std::uint64_t cursor_;  // first tick collect_due() has not fully drained
  std::vector<Slot> slots_;
  std::unordered_map<TimerId, Slot::iterator> by_id_;
  std::multiset<Clock::time_point> deadlines_;  // for next_deadline()
  TimerId next_id_ = 1;
};

/// The event loop.  create() spawns the loop thread; the destructor stops
/// and joins it.  All callbacks run on the loop thread.  Always owned by a
/// shared_ptr (create() returns one): connections keep their reactor alive
/// through it, so teardown order cannot dangle the loop.
class Reactor : public std::enable_shared_from_this<Reactor> {
 public:
  using Clock = TimerWheel::Clock;
  using FdCallback = std::function<void(std::uint32_t epoll_events)>;

  static Result<std::shared_ptr<Reactor>> create();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Register `fd` (level-triggered) with the loop; `cb` runs on the loop
  /// thread with the ready events.  The fd must stay open until remove_fd.
  Status add_fd(int fd, std::uint32_t events, FdCallback cb);

  /// Change the interest set of a registered fd.  Callable from any thread
  /// (epoll_ctl is thread-safe); the new mask applies to the next wait.
  Status mod_fd(int fd, std::uint32_t events);

  /// Drop a registered fd from the loop.  The caller still owns the fd.
  /// Safe from any thread; from off-loop threads the callback may be
  /// mid-dispatch, so close the fd via post() if the loop could touch it.
  void remove_fd(int fd);

  /// Schedule a callback on the timer wheel.  Thread-safe.
  TimerId add_timer_at(Clock::time_point deadline, std::function<void()> cb);
  TimerId add_timer(Clock::duration delay, std::function<void()> cb) {
    return add_timer_at(Clock::now() + delay, std::move(cb));
  }
  /// False if the timer already fired (its callback ran or is running).
  bool cancel_timer(TimerId id);

  /// Run a closure on the loop thread as soon as possible.  Thread-safe.
  void post(std::function<void()> fn);

  bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_.get_id();
  }

  /// Timers currently pending on the wheel (tests / introspection).
  std::size_t pending_timers() const;

 private:
  Reactor(int epoll_fd, int wake_fd);
  void run();
  void wake();
  /// epoll_wait until an event or for `wait` (nullopt: no timeout).
  int wait_events(epoll_event* events, int max_events,
                  std::optional<Clock::duration> wait);

  int epoll_fd_;
  int wake_fd_;  // eventfd: other threads nudge epoll_wait
  bool precise_wait_ = true;  // loop thread only: epoll_pwait2 available
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;  // guards wheel_, posted_, handlers_
  TimerWheel wheel_;
  std::deque<std::function<void()>> posted_;
  // shared_ptr so a handler stays alive across a dispatch that races a
  // remove_fd from another thread.
  std::unordered_map<int, std::shared_ptr<FdCallback>> handlers_;

  std::thread loop_thread_;
};

/// N independent reactors; connections are placed round-robin.
class ReactorPool {
 public:
  /// `threads` == 0 resolves from PRINS_REACTOR_THREADS (default 1).
  static Result<std::shared_ptr<ReactorPool>> create(std::size_t threads = 0);

  Reactor& next() {
    return *reactors_[fetch_next() % reactors_.size()];
  }
  std::size_t size() const { return reactors_.size(); }
  Reactor& at(std::size_t i) { return *reactors_[i]; }

 private:
  explicit ReactorPool(std::vector<std::shared_ptr<Reactor>> reactors)
      : reactors_(std::move(reactors)) {}
  std::size_t fetch_next() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<std::shared_ptr<Reactor>> reactors_;
  std::atomic<std::size_t> next_{0};
};

/// PRINS_REACTOR_THREADS (clamped to [1, 64]); 1 when unset.
std::size_t reactor_threads_from_env();

}  // namespace prins
