#include "prins/reactor_server.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace prins {

struct ReactorReplicaServer::Impl : std::enable_shared_from_this<Impl> {
  using Session = ReplicaPipeline::Session;

  struct Conn {
    std::shared_ptr<Session> session;
    std::shared_ptr<Transport> transport;  // the decorated stack
    ReactorTcpTransport* rt = nullptr;     // the reactor connection inside
  };

  Impl(std::shared_ptr<ReplicaEngine> r, std::shared_ptr<ReactorPool> p,
       const ReactorReplicaServerOptions& opts)
      : replica(std::move(r)), pool(std::move(p)), options(opts) {}

  std::shared_ptr<ReplicaEngine> replica;
  std::shared_ptr<ReactorPool> pool;
  ReactorReplicaServerOptions options;
  std::unique_ptr<ReactorListener> listener;

  mutable std::mutex mutex;
  std::vector<Conn> live;
  // Disconnected sessions whose dispatched frames may still be applying;
  // stop() waits them out.
  std::vector<std::weak_ptr<Session>> closed;
  bool stopping = false;

  // Listener loop thread.
  void on_connect(std::unique_ptr<Transport> accepted) {
    if (options.wrap_transport) {
      accepted = options.wrap_transport(std::move(accepted));
      if (accepted == nullptr) return;  // decorator rejected the connection
    }
    // The frame fan-in handlers live on the reactor connection inside any
    // decorator stack; replies go out through the decorated transport.
    auto* rt = dynamic_cast<ReactorTcpTransport*>(accepted->underlying());
    if (rt == nullptr) {
      PRINS_LOG(kError) << "reactor server: non-reactor transport accepted";
      return;
    }
    std::shared_ptr<Transport> transport(std::move(accepted));
    std::shared_ptr<Session> session;
    {
      std::lock_guard lock(mutex);
      if (stopping) {
        transport->close();
        return;
      }
      session = replica->pipeline().open(
          transport, [rt](bool paused) { rt->set_read_paused(paused); });
      live.push_back(Conn{session, transport, rt});
    }
    auto self = shared_from_this();
    rt->set_close_handler([self, session, rt](const Status& why) {
      self->on_disconnect(session, rt, why);
    });
    rt->set_message_handler([self, session](Bytes&& wire) {
      self->replica->pipeline().deliver(session, std::move(wire));
    });
  }

  // Connection loop thread; must never block.
  void on_disconnect(const std::shared_ptr<Session>& session,
                     ReactorTcpTransport* rt, const Status& why) {
    if (!why.is_ok() && why.code() != ErrorCode::kUnavailable) {
      PRINS_LOG(kWarn) << "replica session ended: " << why.to_string();
    }
    replica->pipeline().detach(*session);
    // Drop the handler so the connection stops referencing the session
    // (breaks the session->transport->handler->session cycle).
    rt->set_message_handler(nullptr);
    std::lock_guard lock(mutex);
    const auto it = std::find_if(live.begin(), live.end(), [&](const Conn& c) {
      return c.session == session;
    });
    if (it == live.end()) return;  // stop() already took it
    live.erase(it);
    std::erase_if(closed, [](const auto& weak) { return weak.expired(); });
    closed.push_back(session);
  }

  void stop() {
    std::vector<Conn> conns;
    std::vector<std::weak_ptr<Session>> draining;
    {
      std::lock_guard lock(mutex);
      if (stopping) return;
      stopping = true;
      conns.swap(live);
      draining.swap(closed);
    }
    if (listener) listener->close();
    for (Conn& conn : conns) {
      conn.rt->set_close_handler(nullptr);
      conn.rt->set_message_handler(nullptr);
      replica->pipeline().detach(*conn.session);
      conn.transport->close();
    }
    for (Conn& conn : conns) (void)replica->pipeline().finish(*conn.session);
    for (const auto& weak : draining) {
      if (auto session = weak.lock()) {
        (void)replica->pipeline().finish(*session);
      }
    }
  }
};

ReactorReplicaServer::ReactorReplicaServer(std::shared_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ReactorReplicaServer::~ReactorReplicaServer() { stop(); }

Result<std::unique_ptr<ReactorReplicaServer>> ReactorReplicaServer::start(
    std::shared_ptr<ReplicaEngine> replica,
    std::shared_ptr<ReactorPool> pool,
    const ReactorReplicaServerOptions& options) {
  auto impl =
      std::make_shared<Impl>(std::move(replica), std::move(pool), options);
  PRINS_ASSIGN_OR_RETURN(
      impl->listener,
      ReactorListener::listen(impl->pool, options.port, options.transport));
  impl->listener->set_accept_handler(
      [weak = std::weak_ptr<Impl>(impl)](std::unique_ptr<Transport> t) {
        if (auto self = weak.lock()) self->on_connect(std::move(t));
      });
  return std::unique_ptr<ReactorReplicaServer>(
      new ReactorReplicaServer(std::move(impl)));
}

void ReactorReplicaServer::stop() { impl_->stop(); }

std::uint16_t ReactorReplicaServer::port() const {
  return impl_->listener->port();
}

std::size_t ReactorReplicaServer::sessions() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->live.size();
}

}  // namespace prins
