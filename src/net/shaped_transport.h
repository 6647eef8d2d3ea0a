// ShapedTransport: a WAN emulator for a message transport.
//
// Delays each send() by the paper's link model — transmission time of the
// packetized payload at the line rate, plus per-hop propagation — so the
// response-time predictions of the queueing figures can be checked
// empirically against the real engine stack (see bench/fig8_empirical).
//
// `bandwidth_scale` speeds up the emulated line (delays divide by it) so
// experiments finish quickly while preserving the traditional/PRINS
// delay *ratios* exactly.
//
// The delay is a sleep in send(), on the sending thread: as an engine's
// replica link it delays the engine's loop, and with it every link that
// loop serves.  Use it on a one-link engine (as bench/fig8_empirical does).
#pragma once

#include <chrono>
#include <memory>
#include <thread>

#include "net/packet_model.h"
#include "net/transport.h"
#include "queueing/wan.h"

namespace prins {

struct ShapingConfig {
  WanLine line = kT1;
  unsigned hops = 2;               // routers in the path (propagation each)
  double bandwidth_scale = 1.0;    // >1: emulate a proportionally faster line
};

class ShapedTransport final : public Transport {
 public:
  ShapedTransport(std::unique_ptr<Transport> inner, ShapingConfig config)
      : inner_(std::move(inner)), config_(config) {}

  Status send(ByteSpan message) override {
    delay_for(message.size());
    return inner_->send(message);
  }

  Status send_vec(std::span<const ByteSpan> parts) override {
    std::size_t total = 0;
    for (const ByteSpan& part : parts) total += part.size();
    delay_for(total);
    return inner_->send_vec(parts);
  }

  Result<Bytes> recv() override { return inner_->recv(); }
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return inner_->recv_for(timeout);
  }
  void close() override { inner_->close(); }
  std::string describe() const override {
    return "shaped[" + std::string(config_.line.name) + "](" +
           inner_->describe() + ")";
  }
  Transport* underlying() override { return inner_->underlying(); }

 private:
  // Serialization + per-hop propagation, scaled.
  void delay_for(std::size_t message_size) {
    const double seconds =
        (transmission_delay_sec(message_size, config_.line) +
         config_.hops * kPropagationDelaySec) /
        config_.bandwidth_scale;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }

  std::unique_ptr<Transport> inner_;
  ShapingConfig config_;
};

}  // namespace prins
