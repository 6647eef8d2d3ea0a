// TrafficMeter: transport decorator that accounts every byte on the wire.
//
// This is the measurement instrument behind Figures 4-7: it records message
// counts, payload bytes, and wire bytes under the paper's packetization
// model (1500-byte packets + 112-byte headers).  Thread-safe.
#pragma once

#include <memory>
#include <mutex>

#include "common/histogram.h"
#include "net/packet_model.h"
#include "net/transport.h"

namespace prins {

struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;  // framed message bytes handed to send()
  std::uint64_t packets = 0;        // per the packet model
  std::uint64_t wire_bytes = 0;     // payload + packet headers

  void add_message(std::uint64_t size) {
    messages += 1;
    payload_bytes += size;
    packets += packets_for(size);
    wire_bytes += wire_bytes_for(size);
  }
  void merge(const TrafficStats& o) {
    messages += o.messages;
    payload_bytes += o.payload_bytes;
    packets += o.packets;
    wire_bytes += o.wire_bytes;
  }
};

class TrafficMeter final : public Transport {
 public:
  explicit TrafficMeter(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  Status send(ByteSpan message) override {
    Status s = inner_->send(message);
    if (s.is_ok()) account_sent(message.size());
    return s;
  }

  Status send_vec(std::span<const ByteSpan> parts) override {
    std::size_t total = 0;
    for (const ByteSpan& part : parts) total += part.size();
    Status s = inner_->send_vec(parts);
    if (s.is_ok()) account_sent(total);
    return s;
  }

  Result<Bytes> recv() override {
    auto r = inner_->recv();
    if (r.is_ok()) {
      std::lock_guard lock(mutex_);
      received_.add_message(r.value().size());
    }
    return r;
  }

  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    auto r = inner_->recv_for(timeout);
    if (r.is_ok()) {
      std::lock_guard lock(mutex_);
      received_.add_message(r.value().size());
    }
    return r;
  }

  void close() override { inner_->close(); }
  std::string describe() const override {
    return "metered(" + inner_->describe() + ")";
  }
  /// Sees through the meter, so a metered link still runs handler-driven
  /// (ReactorReplicaServer, the engine's senders).
  Transport* underlying() override { return inner_->underlying(); }

  TrafficStats sent() const {
    std::lock_guard lock(mutex_);
    return sent_;
  }
  /// Messages taken through recv()/recv_for() only.  Every link delivers
  /// an engine's replies by handler, which bypasses the meter, so no
  /// replica link counts them here.  Only tests read it; the figures
  /// callers report come from sent().
  TrafficStats received() const {
    std::lock_guard lock(mutex_);
    return received_;
  }
  /// Distribution of sent message sizes (drives queueing service times).
  Histogram sent_sizes() const {
    std::lock_guard lock(mutex_);
    return message_sizes_;
  }
  void reset() {
    std::lock_guard lock(mutex_);
    sent_ = TrafficStats{};
    received_ = TrafficStats{};
    message_sizes_.reset();
  }

 private:
  void account_sent(std::size_t size) {
    std::lock_guard lock(mutex_);
    sent_.add_message(size);
    message_sizes_.record(size);
  }

  std::unique_ptr<Transport> inner_;
  mutable std::mutex mutex_;
  TrafficStats sent_;
  TrafficStats received_;
  Histogram message_sizes_;
};

}  // namespace prins
