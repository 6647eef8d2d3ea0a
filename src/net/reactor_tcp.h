// ReactorTcpTransport / ReactorListener: real sockets for cross-process
// deployments, nonblocking and multiplexed on a Reactor.
//
// Wire format: each message is a 4-byte little-endian length prefix
// followed by the payload.  Every connection is a small state machine
// driven by epoll readiness, with no thread of its own:
//
//   read side   incremental frame reassembly (length prefix, then payload)
//               across however many readiness events it takes; completed
//               messages land in a bounded inbox
//   write side  with the outbox empty, send()/send_vec() writev the length
//               prefix and the caller's parts straight to the socket (no
//               copy); only an unsent tail is copied into an owned frame,
//               which the loop resumes on EPOLLOUT via writev across the
//               queued frames.  A send behind queued frames queues whole,
//               so frame order holds
//
// The blocking Transport API runs on that machine: recv()/recv_for() pop
// the inbox and, when it is empty, read the socket from the calling thread
// — the first blocked receiver takes the read side over from the loop
// (EPOLLIN off), poll()s with the deadline as its timeout, runs the same
// frame machine, and hands the socket back.  No loop-thread wake sits
// between a reply and its receiver.  send() blocks an off-loop caller only
// when the outbox is over its byte limit (flow control); a send from the
// loop thread never blocks.  PrinsEngine, ReplicaEngine, the iSCSI target,
// and the faulty/metered/shaped decorators run unmodified on top.
//
// Server fan-in uses the handler contract: set_message_handler() delivers
// each completed message on the loop thread instead of the inbox, so one
// reactor thread can serve hundreds of connections with no thread per
// link (backpressure pauses reading while the outbox is over its limit).
// Handlers must not block.
#pragma once

#include <cstdint>
#include <memory>

#include "net/reactor.h"
#include "net/transport.h"

namespace prins {

/// Hard cap on a single framed message (64 MiB) — guards against a corrupt
/// or hostile length prefix allocating unbounded memory.
constexpr std::uint32_t kMaxTcpMessageBytes = 64u << 20;

struct ReactorTcpOptions {
  /// Completed messages the inbox buffers before the connection stops
  /// reading (resumes when recv() drains below half).
  std::size_t inbox_capacity = 1024;
  /// Outbox bytes above which send() blocks off-loop callers.
  std::size_t outbox_limit_bytes = 4u << 20;
  /// Test knobs: socket buffer sizes (0 = OS default).  A tiny SO_SNDBUF
  /// forces partial writes, exercising the resume path.
  int sndbuf_bytes = 0;
  int rcvbuf_bytes = 0;
};

class ReactorTcpTransport final : public HandlerTransport {
 public:
  /// Connect to host:port and register the connection on `reactor`.
  static Result<std::unique_ptr<Transport>> connect(
      std::shared_ptr<Reactor> reactor, const std::string& host,
      std::uint16_t port, const ReactorTcpOptions& options = {});

  /// Adopt an already-connected socket (the listener's accept path).
  static Result<std::unique_ptr<Transport>> adopt(
      std::shared_ptr<Reactor> reactor, int fd,
      const ReactorTcpOptions& options = {});

  ~ReactorTcpTransport() override;

  ReactorTcpTransport(const ReactorTcpTransport&) = delete;
  ReactorTcpTransport& operator=(const ReactorTcpTransport&) = delete;

  Status send(ByteSpan message) override;
  Status send_vec(std::span<const ByteSpan> parts) override;
  Result<Bytes> recv() override;
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override;
  void close() override;
  std::string describe() const override;

  /// Async delivery: run `handler` on the loop thread for every completed
  /// message instead of queueing to the inbox (any queued backlog is
  /// delivered first).  Set before mixing with recv(); passing nullptr
  /// restores inbox delivery.
  void set_message_handler(std::function<void(Bytes&&)> handler) override;

  /// One-shot notification when the connection dies (peer hangup, I/O
  /// error, frame corruption, or close()).  Runs on the loop thread via
  /// post(), after the handler that observed the failure returns; the
  /// callback is consumed on first fire.  If the connection is already
  /// closed when this is installed, the callback fires immediately (still
  /// via post()).  Servers use this to drop per-connection state.
  void set_close_handler(std::function<void(const Status&)> handler) override;

  /// Application-level read gate, independent of the inbox/outbox
  /// backpressure flags: while paused, the loop stops reading from the
  /// socket (and so stops invoking the message handler), letting a server
  /// bound the frames in flight per connection.  Safe from any thread.
  void set_read_paused(bool paused);

  /// Bytes currently queued for the wire (tests / backpressure probes).
  std::size_t outbox_bytes() const;

 private:
  struct Conn;
  explicit ReactorTcpTransport(std::shared_ptr<Conn> conn);

  std::shared_ptr<Conn> conn_;
};

class ReactorListener final : public Listener {
 public:
  /// Bind 127.0.0.1:port (0 picks a free port) and accept on `pool`'s
  /// first reactor; connections are placed round-robin across the pool.
  static Result<std::unique_ptr<ReactorListener>> listen(
      std::shared_ptr<ReactorPool> pool, std::uint16_t port,
      const ReactorTcpOptions& options = {});

  ~ReactorListener() override;

  ReactorListener(const ReactorListener&) = delete;
  ReactorListener& operator=(const ReactorListener&) = delete;

  Result<std::unique_ptr<Transport>> accept() override;
  void close() override;

  /// Thread-free accept: run `handler` on the accept loop's thread for
  /// every new connection instead of queueing it for accept().  Any
  /// already-queued connections are handed to the handler first (on the
  /// loop thread, in arrival order).  Passing nullptr restores queueing.
  void set_accept_handler(
      std::function<void(std::unique_ptr<Transport>)> handler);

  std::uint16_t port() const;

 private:
  struct State;
  explicit ReactorListener(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

}  // namespace prins
