// RecvPump: the message-handler contract of ReactorTcpTransport for any
// blocking transport (inproc, latent, TCP, and decorator stacks over them).
//
// One reader thread loops on the inner transport's recv() and queues every
// message in the pump's inbox.  With a message handler installed, the inbox
// is drained to the handler on a reactor's loop thread, in arrival order,
// as ReactorTcpTransport runs its handlers on its loop.  With no handler,
// recv()/recv_for() pop the inbox.  End of stream posts the close handler.
//
// One writer thread sends for the pump: send()/send_vec() copy the message
// into an unbounded queue and return, so a loop thread never blocks on a
// slow or stalled peer's flow control, as ReactorTcpTransport's outbox
// never blocks its loop.  Once the link is dead (end of stream, or a send
// the writer could not complete) every send() fails with the reason, so a
// caller whose close handler already fired still finds out.
//
// Neither thread waits on anything but its inner call: the inbox is
// unbounded too, so a request/reply peer can always hand over its replies.
// Because the reader is the inner transport's only reader, a blocking
// exchange run with the handler uninstalled always finds its reply through
// recv().
#pragma once

#include <memory>
#include <thread>

#include "net/reactor.h"
#include "net/transport.h"

namespace prins {

class RecvPump final : public HandlerTransport {
 public:
  /// Take over `inner` and start both threads.  Handlers run on `reactor`'s
  /// loop thread.
  RecvPump(std::unique_ptr<Transport> inner, std::shared_ptr<Reactor> reactor);
  /// Closes the inner transport and joins both threads, dropping unsent
  /// messages.  They run no caller code (handlers run on the loop), so this
  /// never runs on either.
  ~RecvPump() override;

  RecvPump(const RecvPump&) = delete;
  RecvPump& operator=(const RecvPump&) = delete;

  Status send(ByteSpan message) override;
  Status send_vec(std::span<const ByteSpan> parts) override;
  Result<Bytes> recv() override;
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override;
  void close() override;
  std::string describe() const override;

  void set_message_handler(std::function<void(Bytes&&)> handler) override;
  void set_close_handler(std::function<void(const Status&)> handler) override;

 private:
  struct State;
  std::shared_ptr<Reactor> reactor_;  // keeps the loop alive for our posts
  std::shared_ptr<State> state_;
  std::thread reader_;
  std::thread writer_;
};

/// `transport` itself when it already delivers through a HandlerTransport
/// (seen through decorators via underlying()), else a RecvPump around it.
std::unique_ptr<Transport> with_message_handlers(
    std::unique_ptr<Transport> transport, std::shared_ptr<Reactor> reactor);

}  // namespace prins
