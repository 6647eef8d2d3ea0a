// Latent in-process transport pair: messages arrive `one_way_delay` after
// they are sent, without blocking the sender.  The same pipe as
// make_inproc_pair (net/inproc.h) with a delivery time: a handler installed
// on an end is dispatched each message from a timer on the end's loop once
// it is due, never earlier.
//
// Unlike ShapedTransport (which models *serialization* time by blocking
// the sender), this models *propagation* latency: the sender streams
// ahead while messages are in flight.  It is the fabric that makes the
// engine's pipeline window observable — with stop-and-wait every write
// pays a full round trip; with a window of W the round trip amortizes
// over W messages (see bench/ablation_pipeline).
#pragma once

#include <chrono>
#include <memory>
#include <utility>

#include "net/transport.h"

namespace prins {

/// Create a connected pair whose messages are delivered `one_way_delay`
/// after send() returns.  `capacity` bounds each direction.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_latent_pair(std::chrono::microseconds one_way_delay,
                 std::size_t capacity = 1024);

}  // namespace prins
