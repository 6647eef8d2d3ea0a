// ReactorIscsiServer: thread-free iSCSI serving on the reactor.
//
// The server registers each accepted connection's PDU stream via
// ReactorTcp::set_message_handler and runs the target's frame state
// machine (IscsiTarget::handle_frame — one PDU in, replies out, never
// recv()s) on a small fixed worker pool: N initiators share
// O(reactor_threads + worker_threads) threads.
//
// Each connection is an actor: its handler appends frames to a
// per-session queue and schedules the session onto the pool; at most one
// worker drives a session at a time, so PDU handling stays serialized per
// connection (the iSCSI session state machine requires it) while distinct
// initiators proceed in parallel.  Device I/O runs on the workers, never
// on a loop thread.  A session whose queue backs up has its reads paused
// (set_read_paused) until the workers catch up.
#pragma once

#include <cstdint>
#include <memory>

#include "iscsi/target.h"
#include "net/reactor_tcp.h"

namespace prins::iscsi {

struct ReactorIscsiServerOptions {
  /// Port to bind (0 picks a free port; see port()).
  std::uint16_t port = 0;
  /// Per-connection transport options.
  ReactorTcpOptions transport;
  /// Workers draining session frame queues (device I/O runs here).
  std::size_t worker_threads = 2;
  /// Frames a session may queue before its reads pause (resumes at half).
  std::size_t max_queued_frames = 256;
};

class ReactorIscsiServer {
 public:
  /// Bind a ReactorListener on `pool` and serve `target` to every
  /// connection, handler-driven.
  static Result<std::unique_ptr<ReactorIscsiServer>> start(
      std::shared_ptr<IscsiTarget> target, std::shared_ptr<ReactorPool> pool,
      const ReactorIscsiServerOptions& options = {});

  ~ReactorIscsiServer();

  ReactorIscsiServer(const ReactorIscsiServer&) = delete;
  ReactorIscsiServer& operator=(const ReactorIscsiServer&) = delete;

  /// Close the listener and every live connection, then join the workers.
  /// Idempotent; the destructor calls it.
  void stop();

  /// The bound port (for initiators to connect to).
  std::uint16_t port() const;

  /// Live connections right now (tests).
  std::size_t sessions() const;

 private:
  struct Impl;
  explicit ReactorIscsiServer(std::shared_ptr<Impl> impl);

  std::shared_ptr<Impl> impl_;
};

}  // namespace prins::iscsi
