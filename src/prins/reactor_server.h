// ReactorReplicaServer: thread-free replica serving on the reactor.
//
// The handler-driven front end of the replica's apply pipeline
// (ReplicaPipeline, replica.h).  Every accepted connection becomes one
// pipeline session: its frames arrive as `set_message_handler` callbacks on
// the reactor loop thread and go straight to deliver(), which never blocks;
// the session's pause hook is the connection's set_read_paused.  Node
// thread count is O(reactor_threads + apply_shards) no matter how many
// initiators are connected — the property the PRINS pipeline needs to
// serve many primaries without a thread explosion.  serve() is the same
// pipeline behind a blocking recv() loop; the two are wire-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/reactor_tcp.h"
#include "prins/replica.h"

namespace prins {

struct ReactorReplicaServerOptions {
  /// Port to bind (0 picks a free port; see port()).
  std::uint16_t port = 0;
  /// Per-connection transport options (inbox/outbox limits, test knobs).
  ReactorTcpOptions transport;
  /// Optional decorator applied to each accepted connection (e.g. wrap in
  /// a FaultyTransport to storm-test the reactor path).  The server finds
  /// the reactor connection inside the decorator stack via
  /// Transport::underlying(), so replies ride the decorated transport
  /// while frame fan-in stays handler-driven.
  std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>
      wrap_transport;
};

class ReactorReplicaServer {
 public:
  /// Bind a ReactorListener on `pool` and serve `replica` to every
  /// connection, handler-driven, through replica->pipeline().
  static Result<std::unique_ptr<ReactorReplicaServer>> start(
      std::shared_ptr<ReplicaEngine> replica,
      std::shared_ptr<ReactorPool> pool,
      const ReactorReplicaServerOptions& options = {});

  ~ReactorReplicaServer();

  ReactorReplicaServer(const ReactorReplicaServer&) = delete;
  ReactorReplicaServer& operator=(const ReactorReplicaServer&) = delete;

  /// Close the listener and every live connection, and wait until every
  /// frame its sessions dispatched has applied.  Idempotent; the
  /// destructor calls it.
  void stop();

  /// The bound port (for initiators to connect to).
  std::uint16_t port() const;

  /// Live connections right now (tests).
  std::size_t sessions() const;

 private:
  struct Impl;
  explicit ReactorReplicaServer(std::shared_ptr<Impl> impl);

  std::shared_ptr<Impl> impl_;
};

}  // namespace prins
