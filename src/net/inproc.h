// In-process transport: two ends joined by bounded message queues.
//
// Deterministic and fast; the default fabric for experiments (the measured
// quantity — bytes per replicated write — is transport-independent).  Also
// provides a named rendezvous (InprocNetwork) so multi-node simulations can
// wire themselves up like processes finding each other by address.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "net/transport.h"

namespace prins {

/// Create a connected pair of transports.  Each end's send feeds the other
/// end's recv.  `capacity` bounds each direction's queue (back-pressure),
/// except for sends made on the end's own loop.  Both ends are
/// HandlerTransports: after set_loop(), a message handler installed on an
/// end is dispatched that end's messages on the loop, in arrival order.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_inproc_pair(std::size_t capacity = 1024);

/// Named in-process rendezvous: listeners register under a string address;
/// connect() blocks until the listener accepts.
class InprocNetwork {
 public:
  struct ListenerState;  // shared between the network and its listeners

  /// Open a listener on `address`; kAlreadyExists if one is registered.
  Result<std::unique_ptr<Listener>> listen(const std::string& address);

  /// Connect to a registered listener; kNotFound if none.
  Result<std::unique_ptr<Transport>> connect(const std::string& address);

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<ListenerState>> listeners_;
};

}  // namespace prins
