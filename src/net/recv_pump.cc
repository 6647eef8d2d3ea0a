#include "net/recv_pump.h"

#include <condition_variable>
#include <deque>
#include <mutex>

namespace prins {

struct RecvPump::State {
  State(std::unique_ptr<Transport> inner_transport, Reactor& loop)
      : inner(std::move(inner_transport)), reactor(loop) {}

  const std::unique_ptr<Transport> inner;
  Reactor& reactor;  // outlives both threads: the pump joins them first

  std::mutex mutex;  // guards everything below
  std::condition_variable can_recv;
  std::condition_variable can_write;
  std::deque<Bytes> inbox;
  std::deque<Bytes> outq;  // sent by the writer, in order
  std::function<void(Bytes&&)> handler;
  std::function<void(const Status&)> close_handler;
  bool dispatch_posted = false;
  bool closed = false;    // end of stream or a failed send: the link is dead
  bool stopping = false;  // the pump is being destroyed
  Status error;           // why the link died

  /// Hand the inbox to the handler on the loop thread.  One dispatch is
  /// queued at a time and drains everything that arrived meanwhile, so the
  /// handler sees messages in arrival order.  `mutex` held.
  void post_dispatch_locked(const std::shared_ptr<State>& self) {
    if (!handler || inbox.empty() || dispatch_posted) return;
    dispatch_posted = true;
    reactor.post([self] {
      std::unique_lock lock(self->mutex);
      self->dispatch_posted = false;
      while (self->handler && !self->inbox.empty()) {
        Bytes message = std::move(self->inbox.front());
        self->inbox.pop_front();
        {
          auto h = self->handler;  // survives a concurrent set_message_handler
          lock.unlock();
          h(std::move(message));
        }  // `h` dies unlocked: it may hold the last reference to the pump
        lock.lock();
      }
    });
  }

  /// Posted behind any queued dispatch, so it fires after the messages.
  /// `mutex` held.
  void fire_close_handler_locked() {
    if (!closed || !close_handler) return;
    reactor.post([cb = std::move(close_handler), why = error] { cb(why); });
    close_handler = nullptr;
  }

  /// The first failure names the death; later ones (the reader's EOF after
  /// a failed send closed the inner transport) keep it.  `mutex` held.
  void die_locked(const Status& why) {
    if (!closed) error = why;
    closed = true;
    outq.clear();
    can_recv.notify_all();
    fire_close_handler_locked();
  }

  void read_loop(const std::shared_ptr<State>& self) {
    for (;;) {
      Result<Bytes> message = inner->recv();
      std::lock_guard lock(mutex);
      if (!message.is_ok()) return die_locked(message.status());
      inbox.push_back(std::move(*message));
      can_recv.notify_one();
      post_dispatch_locked(self);
    }
  }

  void write_loop() {
    std::unique_lock lock(mutex);
    for (;;) {
      can_write.wait(lock, [&] { return stopping || !outq.empty(); });
      if (stopping) return;
      std::deque<Bytes> batch;
      batch.swap(outq);
      lock.unlock();
      Status sent = Status::ok();
      for (const Bytes& message : batch) {
        sent = inner->send(message);
        if (!sent.is_ok()) break;
      }
      if (!sent.is_ok()) {
        inner->close();  // the reader wakes with end of stream and exits
        lock.lock();
        die_locked(sent);
        return;
      }
      lock.lock();
    }
  }

  Status enqueue(Bytes message) {
    std::lock_guard lock(mutex);
    if (closed) return error;
    outq.push_back(std::move(message));
    can_write.notify_one();
    return Status::ok();
  }

  /// The recv() side; `ready` is false when a deadline passed first.
  Result<Bytes> pop_locked(bool ready) {
    if (!ready) return timeout_error("recv timed out");
    if (inbox.empty()) return error;
    Bytes message = std::move(inbox.front());
    inbox.pop_front();
    return message;
  }
};

RecvPump::RecvPump(std::unique_ptr<Transport> inner,
                   std::shared_ptr<Reactor> reactor)
    : reactor_(std::move(reactor)),
      state_(std::make_shared<State>(std::move(inner), *reactor_)),
      reader_([state = state_] { state->read_loop(state); }),
      writer_([state = state_] { state->write_loop(); }) {}

RecvPump::~RecvPump() {
  {
    std::lock_guard lock(state_->mutex);
    state_->stopping = true;
    state_->can_write.notify_one();
  }
  close();  // wakes a writer blocked on flow control and the reader
  writer_.join();
  reader_.join();
}

Status RecvPump::send(ByteSpan message) {
  return state_->enqueue(Bytes(message.begin(), message.end()));
}

Status RecvPump::send_vec(std::span<const ByteSpan> parts) {
  std::size_t total = 0;
  for (const ByteSpan& part : parts) total += part.size();
  Bytes whole;
  whole.reserve(total);
  for (const ByteSpan& part : parts) append(whole, part);
  return state_->enqueue(std::move(whole));
}

Result<Bytes> RecvPump::recv() {
  std::unique_lock lock(state_->mutex);
  state_->can_recv.wait(
      lock, [&] { return state_->closed || !state_->inbox.empty(); });
  return state_->pop_locked(true);
}

Result<Bytes> RecvPump::recv_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(state_->mutex);
  return state_->pop_locked(state_->can_recv.wait_for(
      lock, timeout, [&] { return state_->closed || !state_->inbox.empty(); }));
}

void RecvPump::close() { state_->inner->close(); }

std::string RecvPump::describe() const {
  return "pump(" + state_->inner->describe() + ")";
}

void RecvPump::set_message_handler(std::function<void(Bytes&&)> handler) {
  std::lock_guard lock(state_->mutex);
  state_->handler = std::move(handler);
  state_->post_dispatch_locked(state_);
}

void RecvPump::set_close_handler(std::function<void(const Status&)> handler) {
  std::lock_guard lock(state_->mutex);
  state_->close_handler = std::move(handler);
  state_->fire_close_handler_locked();
}

std::unique_ptr<Transport> with_message_handlers(
    std::unique_ptr<Transport> transport, std::shared_ptr<Reactor> reactor) {
  if (dynamic_cast<HandlerTransport*>(transport->underlying()) != nullptr) {
    return transport;
  }
  return std::make_unique<RecvPump>(std::move(transport), std::move(reactor));
}

}  // namespace prins
