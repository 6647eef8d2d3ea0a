// Transport: reliable, ordered, message-framed duplex channel.
//
// The PRINS engine and the iSCSI layer exchange whole messages (PDUs,
// replication frames); the transport owns framing and delivery.  One
// family, two fabrics: the in-process pair (net/inproc.h, net/latent.h:
// deterministic, for tests and single-process experiments) and
// ReactorTcpTransport (net/reactor_tcp.h: real sockets on a reactor loop).
// Both are HandlerTransports.  recv() blocks until a message arrives or
// the peer closes (kUnavailable).
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace prins {

class Reactor;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Deliver one message to the peer.  Blocks only on flow control.
  virtual Status send(ByteSpan message) = 0;

  /// Deliver one message given as scattered parts (header / payload /
  /// trailer), logically equal to send() of their concatenation.  The
  /// default concatenates; inproc/reactor-tcp/faulty/shaped override it to
  /// move the parts straight onto the wire, so callers can frame a message
  /// without assembling a contiguous copy per link.
  virtual Status send_vec(std::span<const ByteSpan> parts) {
    std::size_t total = 0;
    for (const ByteSpan& part : parts) total += part.size();
    Bytes whole;
    whole.reserve(total);
    for (const ByteSpan& part : parts) append(whole, part);
    return send(whole);
  }

  /// Receive the next message; blocks.  kUnavailable once the peer has
  /// closed and all queued messages are drained.
  virtual Result<Bytes> recv() = 0;

  /// Receive with a deadline: like recv(), but fails with kTimeout once
  /// `timeout` elapses with no message (the channel stays usable — the
  /// message may still arrive on a later call).  This is what lets the
  /// engine's retry path detect a dropped message instead of hanging.
  /// Implementations that cannot honor deadlines fall back to a blocking
  /// recv(); the in-proc, TCP, and decorator transports all honor them.
  virtual Result<Bytes> recv_for(std::chrono::milliseconds timeout) {
    (void)timeout;
    return recv();
  }

  /// Close this end; wakes any blocked recv() on both sides.
  virtual void close() = 0;

  virtual std::string describe() const = 0;

  /// The innermost transport this one delivers through.  Decorators
  /// (faulty, metered, shaped) override to return their inner transport's
  /// underlying(); base transports return themselves.  Lets handler-aware
  /// code (ReactorReplicaServer, the engine's senders) find the
  /// HandlerTransport inside a decorator stack and register loop-thread
  /// handlers on it, so fault injection composes with the event-driven
  /// path.  A decorator that does not forward it hides its transport's
  /// handlers: the engine refuses such a link.
  virtual Transport* underlying() { return this; }
};

/// A transport that can push each inbound message to a callback instead of
/// queueing it for recv(), on a reactor loop thread.  Every base transport
/// is one: ReactorTcpTransport runs its handlers on the loop it is
/// registered on, an in-process end on the loop set_loop() gives it.  The
/// engine's event-driven replica sender runs on it.
///
/// A send made on the transport's loop thread never waits on capacity
/// (the sender's own window bounds it); any other sender waits for room.
/// No handler ever runs inline on a sending thread.
class HandlerTransport : public Transport {
 public:
  /// The loop this end's handlers run on, and whose thread never waits on
  /// send capacity.  A ReactorTcpTransport keeps the loop it is registered
  /// on and ignores this; an in-process end needs it before its first
  /// handler.  Set before the end is shared across threads.
  virtual void set_loop(std::shared_ptr<Reactor> loop) { (void)loop; }

  /// Deliver every completed message to `handler` instead of the inbox
  /// (any queued backlog first, in order).  nullptr restores inbox delivery
  /// for recv().  Do not mix a handler with recv(); handlers must not block.
  virtual void set_message_handler(std::function<void(Bytes&&)> handler) = 0;

  /// One-shot notification when the connection dies (peer hangup, I/O
  /// error, or close()).  Always fires asynchronously, after every message
  /// the handler was due; installed on a dead connection it fires at once
  /// (still asynchronously).  Consumed on first fire.
  virtual void set_close_handler(
      std::function<void(const Status&)> handler) = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Block until a peer connects; kUnavailable when the listener is closed.
  virtual Result<std::unique_ptr<Transport>> accept() = 0;

  virtual void close() = 0;
};

}  // namespace prins
