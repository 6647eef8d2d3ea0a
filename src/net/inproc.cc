#include "net/inproc.h"

#include <cassert>
#include <condition_variable>
#include <deque>
#include <optional>

#include "net/latent.h"
#include "net/reactor.h"

namespace prins {
namespace {

using Clock = std::chrono::steady_clock;

/// One direction of a connected pair: a bounded MPSC queue whose messages
/// become deliverable `delay` after they are sent (zero for a plain pair).
/// The receiving end either pops it (recv) or, with a message handler
/// installed, has it dispatched on its loop.
struct Pipe : std::enable_shared_from_this<Pipe> {
  struct InFlight {
    Clock::time_point due;
    Bytes data;
  };

  Pipe(std::chrono::microseconds d, std::size_t cap) : delay(d), capacity(cap) {}

  const std::chrono::microseconds delay;
  const std::size_t capacity;

  std::mutex mutex;  // guards everything below
  std::condition_variable can_send;
  std::condition_variable can_recv;
  std::deque<InFlight> queue;
  bool closed = false;
  // The receiving end's handler contract.
  std::shared_ptr<Reactor> loop;
  std::function<void(Bytes&&)> handler;
  std::function<void(const Status&)> close_handler;
  bool dispatch_queued = false;  // a post or a wheel timer will dispatch

  /// Queue one message assembled from `parts`.  Waits for room unless
  /// `wait` is false (a loop-thread sender: its window bounds it).
  Status push(std::span<const ByteSpan> parts, bool wait) {
    std::size_t total = 0;
    for (const ByteSpan& part : parts) total += part.size();
    std::unique_lock lock(mutex);
    if (wait) {
      can_send.wait(lock, [&] { return closed || queue.size() < capacity; });
    }
    if (closed) return unavailable("inproc peer closed");
    InFlight& entry = queue.emplace_back();
    if (delay.count() > 0) entry.due = Clock::now() + delay;
    entry.data.reserve(total);
    for (const ByteSpan& part : parts) append(entry.data, part);
    can_recv.notify_one();
    queue_dispatch_locked();
    return Status::ok();
  }

  /// recv()/recv_for(): the head once it is due.  No deadline waits
  /// forever.
  Result<Bytes> pop(std::optional<Clock::time_point> deadline) {
    std::unique_lock lock(mutex);
    for (;;) {
      if (!queue.empty()) {
        const Clock::time_point due = queue.front().due;
        if (delay.count() == 0 || Clock::now() >= due) break;
        if (deadline && due > *deadline) {
          return timeout_error("inproc recv timed out");
        }
        can_recv.wait_until(lock, due);
        continue;
      }
      if (closed) return unavailable("inproc channel closed");
      if (!deadline) {
        can_recv.wait(lock);
      } else if (can_recv.wait_until(lock, *deadline) ==
                     std::cv_status::timeout &&
                 queue.empty()) {
        return timeout_error("inproc recv timed out");
      }
    }
    Bytes message = std::move(queue.front().data);
    queue.pop_front();
    can_send.notify_one();
    return message;
  }

  /// Hand the queue to the handler on the loop: posted when the head is
  /// due, else timed on the wheel for its delivery time.  One dispatch is
  /// queued at a time and drains everything due by then, so the handler
  /// sees messages in arrival order.  `mutex` held.
  void queue_dispatch_locked() {
    if (!handler || queue.empty() || dispatch_queued) return;
    dispatch_queued = true;
    auto run = [self = shared_from_this()] { self->dispatch(); };
    if (delay.count() > 0 && queue.front().due > Clock::now()) {
      loop->add_timer_at(queue.front().due, std::move(run));
    } else {
      loop->post(std::move(run));
    }
  }

  void dispatch() {
    std::unique_lock lock(mutex);
    dispatch_queued = false;
    while (handler && !queue.empty()) {
      // The wheel may fire up to a tick early: never deliver before due.
      if (delay.count() > 0 && queue.front().due > Clock::now()) break;
      Bytes message = std::move(queue.front().data);
      queue.pop_front();
      can_send.notify_one();
      {
        auto h = handler;  // survives a concurrent set_message_handler
        lock.unlock();
        h(std::move(message));
      }  // `h` dies unlocked: it may hold the last reference to the end
      lock.lock();
    }
    queue_dispatch_locked();
    fire_close_handler_locked();
  }

  /// Posted once the pipe is closed and, with a handler installed, every
  /// message has been dispatched.  `mutex` held.
  void fire_close_handler_locked() {
    if (!closed || !close_handler) return;
    if (handler && !queue.empty()) return;  // the last dispatch fires it
    loop->post([cb = std::move(close_handler)] {
      cb(unavailable("inproc channel closed"));
    });
    close_handler = nullptr;
  }

  void close() {
    std::lock_guard lock(mutex);
    closed = true;
    can_send.notify_all();
    can_recv.notify_all();
    fire_close_handler_locked();
  }
};

/// One end of a pair: sends feed `out`, the peer's receive side; `in` is
/// this end's.  Closing either end closes both directions.
class InprocTransport final : public HandlerTransport {
 public:
  InprocTransport(std::shared_ptr<Pipe> out, std::shared_ptr<Pipe> in)
      : out_(std::move(out)), in_(std::move(in)) {}
  /// Closes both directions and drops this end's handlers and loop: a
  /// peer that outlives it keeps neither alive.
  ~InprocTransport() override {
    close();
    std::lock_guard lock(in_->mutex);
    in_->handler = nullptr;
    in_->close_handler = nullptr;
    in_->loop = nullptr;
  }

  Status send(ByteSpan message) override {
    const ByteSpan parts[] = {message};
    return out_->push(parts, !on_loop());
  }
  Status send_vec(std::span<const ByteSpan> parts) override {
    return out_->push(parts, !on_loop());
  }
  Result<Bytes> recv() override { return in_->pop(std::nullopt); }
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return in_->pop(Clock::now() + timeout);
  }

  void close() override {
    out_->close();
    in_->close();
  }

  std::string describe() const override {
    return in_->delay.count() > 0 ? "latent-inproc" : "inproc";
  }

  void set_loop(std::shared_ptr<Reactor> loop) override {
    loop_ = loop;
    std::lock_guard lock(in_->mutex);
    in_->loop = std::move(loop);
  }

  void set_message_handler(std::function<void(Bytes&&)> handler) override {
    std::lock_guard lock(in_->mutex);
    assert(!handler || in_->loop != nullptr);
    in_->handler = std::move(handler);
    in_->queue_dispatch_locked();
    in_->fire_close_handler_locked();
  }

  void set_close_handler(std::function<void(const Status&)> handler) override {
    std::lock_guard lock(in_->mutex);
    assert(!handler || in_->loop != nullptr);
    in_->close_handler = std::move(handler);
    in_->fire_close_handler_locked();
  }

 private:
  bool on_loop() const { return loop_ != nullptr && loop_->on_loop_thread(); }

  std::shared_ptr<Pipe> out_;
  std::shared_ptr<Pipe> in_;
  std::shared_ptr<Reactor> loop_;  // set before the end is shared
};

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>> joined_pair(
    std::chrono::microseconds delay, std::size_t capacity) {
  auto a_to_b = std::make_shared<Pipe>(delay, capacity);
  auto b_to_a = std::make_shared<Pipe>(delay, capacity);
  return {std::make_unique<InprocTransport>(a_to_b, b_to_a),
          std::make_unique<InprocTransport>(b_to_a, a_to_b)};
}

}  // namespace

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_inproc_pair(std::size_t capacity) {
  return joined_pair(std::chrono::microseconds(0), capacity);
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_latent_pair(std::chrono::microseconds one_way_delay,
                 std::size_t capacity) {
  return joined_pair(one_way_delay, capacity);
}

// ---- named rendezvous ------------------------------------------------------

struct InprocNetwork::ListenerState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Transport>> pending;  // server ends
  bool closed = false;
};

namespace {

class InprocListener final : public Listener {
 public:
  explicit InprocListener(std::shared_ptr<InprocNetwork::ListenerState> state)
      : state_(std::move(state)) {}
  ~InprocListener() override { close(); }

  Result<std::unique_ptr<Transport>> accept() override {
    std::unique_lock lock(state_->mutex);
    state_->cv.wait(lock,
                    [&] { return state_->closed || !state_->pending.empty(); });
    if (state_->pending.empty()) {
      return unavailable("inproc listener closed");
    }
    auto t = std::move(state_->pending.front());
    state_->pending.pop_front();
    return t;
  }

  void close() override {
    std::lock_guard lock(state_->mutex);
    state_->closed = true;
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<InprocNetwork::ListenerState> state_;
};

}  // namespace

Result<std::unique_ptr<Listener>> InprocNetwork::listen(
    const std::string& address) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] =
      listeners_.try_emplace(address, std::make_shared<ListenerState>());
  if (!inserted) {
    {
      // The listener's close() writes `closed` under this mutex only.
      std::lock_guard state_lock(it->second->mutex);
      if (!it->second->closed) {
        return already_exists("inproc address in use: " + address);
      }
    }
    it->second = std::make_shared<ListenerState>();  // replace a closed one
  }
  return std::unique_ptr<Listener>(
      std::make_unique<InprocListener>(it->second));
}

Result<std::unique_ptr<Transport>> InprocNetwork::connect(
    const std::string& address) {
  std::shared_ptr<ListenerState> state;
  {
    std::lock_guard lock(mutex_);
    auto it = listeners_.find(address);
    if (it == listeners_.end()) {
      return not_found("no inproc listener at: " + address);
    }
    state = it->second;
  }
  auto [client_end, server_end] = make_inproc_pair();
  {
    std::lock_guard lock(state->mutex);
    if (state->closed) {
      return unavailable("inproc listener closed: " + address);
    }
    state->pending.push_back(std::move(server_end));
    state->cv.notify_one();
  }
  return client_end;
}

}  // namespace prins
