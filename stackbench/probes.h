// Benchmark-owned decorators that time calls into each layer of the node
// from the outside, around the layer's public functions:
//
//   FrontProbe  BlockDevice between the iSCSI target and the ReadRouter
//               (router writes/flushes pass straight into the engine, so
//               this times engine.write / engine.flush / router.read)
//   DiskProbe   BlockDevice over each node's MemDisk
//   LinkProbe   Transport over the replica link and the read link
//
// Probes always count bytes and blocks (cheap relaxed atomics, needed for
// the untraced wire metric) and record timings only while tracing is on.
// Spans nested inside one FrontProbe call (disk time inside an engine
// write, link round trips inside a router read) run on the calling thread,
// so thread-local accumulators attribute them to their parent span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "block/block_device.h"
#include "net/transport.h"
#include "stats.h"

namespace stackbench {

using prins::Byte;
using prins::Bytes;
using prins::ByteSpan;
using prins::Lba;
using prins::MutByteSpan;
using prins::Result;
using prins::Status;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// A thread-safe bag of samples (microseconds unless noted).
class Samples {
 public:
  void add(double v) {
    std::lock_guard lock(mutex_);
    values_.push_back(v);
  }
  std::vector<double> take() {
    std::lock_guard lock(mutex_);
    return std::move(values_);
  }

 private:
  std::mutex mutex_;
  std::vector<double> values_;
};

class EventLog {
 public:
  void add(Lba lba, std::int64_t t_ns) {
    std::lock_guard lock(mutex_);
    events_.push_back({lba, t_ns});
  }
  std::vector<LbaEvent> take() {
    std::lock_guard lock(mutex_);
    return std::move(events_);
  }

 private:
  std::mutex mutex_;
  std::vector<LbaEvent> events_;
};

/// Everything the traced run records.  One instance per node stand-up.
struct Trace {
  explicit Trace(std::size_t sessions) : target_ns(sessions) {}

  std::atomic<bool> on{false};

  // FrontProbe: the target-side device call of each command.
  Samples engine_write_us, engine_write_self_us, engine_write_disk_us;
  Samples engine_flush_us, router_self_us;
  std::atomic<std::uint64_t> router_read_blocks{0};
  EventLog primary_returns;  // per block: engine write returned
  /// Target-side device time of the command in flight, per session (the
  /// session subtracts it from its initiator latency for iSCSI self time).
  std::vector<std::atomic<std::int64_t>> target_ns;

  // DiskProbe, primary (reads: those inside an engine write only).
  Samples primary_read_us, primary_write_us;
  std::atomic<std::uint64_t> primary_write_path_read_blocks{0};
  std::atomic<std::uint64_t> primary_written_blocks{0};
  // DiskProbe, replica.
  Samples replica_write_us;
  std::atomic<std::uint64_t> replica_read_blocks{0};
  std::atomic<std::uint64_t> replica_written_blocks{0};
  EventLog replica_applies;  // per block: replica device write done

  // LinkProbe.
  Samples repl_send_us, read_rtt_us;
};

/// Per-thread accumulators for spans nested inside one FrontProbe call.
struct NestedSpans {
  std::int64_t disk_ns = 0;  // DiskProbe time
  std::int64_t link_ns = 0;  // read-link round trips
  bool in_write = false;     // inside an engine write (A_old reads)
};
inline thread_local NestedSpans tl_nested;

inline double us_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

/// BlockDevice between IscsiTarget and ReadRouter.
class FrontProbe final : public prins::BlockDevice {
 public:
  FrontProbe(std::shared_ptr<prins::BlockDevice> inner, Trace& trace,
             const std::vector<std::uint8_t>& owner)
      : inner_(std::move(inner)), trace_(trace), owner_(owner) {}

  std::uint32_t block_size() const override { return inner_->block_size(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  std::string describe() const override {
    return "front-probe(" + inner_->describe() + ")";
  }

  Status read(Lba lba, MutByteSpan out) override {
    if (!trace_.on.load(std::memory_order_relaxed)) return inner_->read(lba, out);
    tl_nested = {};
    const std::int64_t t0 = now_ns();
    Status s = inner_->read(lba, out);
    const std::int64_t t1 = now_ns();
    trace_.router_read_blocks.fetch_add(out.size() / block_size(),
                                        std::memory_order_relaxed);
    trace_.router_self_us.add(us_between(t0 + tl_nested.link_ns, t1));
    note_session(lba, t1 - t0);
    return s;
  }

  Status write(Lba lba, ByteSpan data) override {
    if (!trace_.on.load(std::memory_order_relaxed)) return inner_->write(lba, data);
    tl_nested = {};
    tl_nested.in_write = true;
    const std::int64_t t0 = now_ns();
    Status s = inner_->write(lba, data);
    const std::int64_t t1 = now_ns();
    tl_nested.in_write = false;
    trace_.engine_write_us.add(us_between(t0, t1));
    trace_.engine_write_self_us.add(us_between(t0 + tl_nested.disk_ns, t1));
    trace_.engine_write_disk_us.add(static_cast<double>(tl_nested.disk_ns) / 1e3);
    const std::uint64_t blocks = data.size() / block_size();
    for (std::uint64_t i = 0; i < blocks; ++i) {
      trace_.primary_returns.add(lba + i, t1);
    }
    note_session(lba, t1 - t0);
    return s;
  }

  Status flush() override {
    if (!trace_.on.load(std::memory_order_relaxed)) return inner_->flush();
    const std::int64_t t0 = now_ns();
    Status s = inner_->flush();
    trace_.engine_flush_us.add(us_between(t0, now_ns()));
    return s;
  }

 private:
  void note_session(Lba lba, std::int64_t ns) {
    if (lba < owner_.size()) {
      trace_.target_ns[owner_[lba]].fetch_add(ns, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<prins::BlockDevice> inner_;
  Trace& trace_;
  const std::vector<std::uint8_t>& owner_;  // block -> session
};

/// BlockDevice over a node's MemDisk.
class DiskProbe final : public prins::BlockDevice {
 public:
  enum class Node { kPrimary, kReplica };

  DiskProbe(std::shared_ptr<prins::BlockDevice> inner, Trace& trace, Node node)
      : inner_(std::move(inner)), trace_(trace), node_(node) {}

  std::uint32_t block_size() const override { return inner_->block_size(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  std::string describe() const override {
    return "disk-probe(" + inner_->describe() + ")";
  }
  Status flush() override { return inner_->flush(); }

  Status read(Lba lba, MutByteSpan out) override {
    if (!trace_.on.load(std::memory_order_relaxed)) return inner_->read(lba, out);
    const std::int64_t t0 = now_ns();
    Status s = inner_->read(lba, out);
    const std::int64_t t1 = now_ns();
    tl_nested.disk_ns += t1 - t0;
    const std::uint64_t blocks = out.size() / block_size();
    if (node_ == Node::kPrimary) {
      // Only the engine's A_old reads: client reads the router serves
      // locally are not part of the write path this metric follows.
      if (tl_nested.in_write) {
        trace_.primary_read_us.add(us_between(t0, t1));
        trace_.primary_write_path_read_blocks.fetch_add(blocks,
                                                        std::memory_order_relaxed);
      }
    } else {
      trace_.replica_read_blocks.fetch_add(blocks, std::memory_order_relaxed);
    }
    return s;
  }

  Status write(Lba lba, ByteSpan data) override {
    if (!trace_.on.load(std::memory_order_relaxed)) return inner_->write(lba, data);
    const std::int64_t t0 = now_ns();
    Status s = inner_->write(lba, data);
    const std::int64_t t1 = now_ns();
    tl_nested.disk_ns += t1 - t0;
    const std::uint64_t blocks = data.size() / block_size();
    if (node_ == Node::kPrimary) {
      trace_.primary_write_us.add(us_between(t0, t1));
      trace_.primary_written_blocks.fetch_add(blocks, std::memory_order_relaxed);
    } else {
      trace_.replica_write_us.add(us_between(t0, t1));
      trace_.replica_written_blocks.fetch_add(blocks, std::memory_order_relaxed);
      for (std::uint64_t i = 0; i < blocks; ++i) {
        trace_.replica_applies.add(lba + i, t1);
      }
    }
    return s;
  }

 private:
  std::shared_ptr<prins::BlockDevice> inner_;
  Trace& trace_;
  const Node node_;
};

/// Transport decorator for the replica link and the read link.  Forwards
/// underlying(), so the engine still finds the ReactorTcpTransport inside
/// and drives the link from reactor callbacks instead of a sender thread.
class LinkProbe final : public prins::Transport {
 public:
  enum class Link { kReplication, kRead };

  LinkProbe(std::unique_ptr<prins::Transport> inner, Trace& trace, Link link)
      : inner_(std::move(inner)), trace_(trace), link_(link) {}

  Status send(ByteSpan message) override {
    return timed_send(message.size(), [&] { return inner_->send(message); });
  }
  Status send_vec(std::span<const ByteSpan> parts) override {
    std::size_t total = 0;
    for (const ByteSpan& part : parts) total += part.size();
    return timed_send(total, [&] { return inner_->send_vec(parts); });
  }
  Result<Bytes> recv() override { return note_reply(inner_->recv()); }
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return note_reply(inner_->recv_for(timeout));
  }
  void close() override { inner_->close(); }
  std::string describe() const override {
    return "link-probe(" + inner_->describe() + ")";
  }
  prins::Transport* underlying() override { return inner_->underlying(); }

  std::uint64_t sent_bytes() const { return sent_bytes_.load(std::memory_order_relaxed); }
  std::uint64_t sent_messages() const {
    return sent_messages_.load(std::memory_order_relaxed);
  }

 private:
  template <typename Send>
  Status timed_send(std::size_t bytes, Send&& send) {
    const bool traced = trace_.on.load(std::memory_order_relaxed);
    const std::int64_t t0 = traced ? now_ns() : 0;
    Status s = send();
    if (s.is_ok()) {
      sent_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      sent_messages_.fetch_add(1, std::memory_order_relaxed);
    }
    if (traced) {
      const std::int64_t t1 = now_ns();
      if (link_ == Link::kReplication) trace_.repl_send_us.add(us_between(t0, t1));
      last_send_ns_.store(t0, std::memory_order_relaxed);
    }
    return s;
  }

  Result<Bytes> note_reply(Result<Bytes> reply) {
    if (link_ == Link::kRead && reply.is_ok() &&
        trace_.on.load(std::memory_order_relaxed)) {
      const std::int64_t sent = last_send_ns_.exchange(0, std::memory_order_relaxed);
      if (sent != 0) {
        const std::int64_t rtt = now_ns() - sent;
        tl_nested.link_ns += rtt;
        trace_.read_rtt_us.add(static_cast<double>(rtt) / 1e3);
      }
    }
    return reply;
  }

  std::unique_ptr<prins::Transport> inner_;
  Trace& trace_;
  const Link link_;
  std::atomic<std::uint64_t> sent_bytes_{0};
  std::atomic<std::uint64_t> sent_messages_{0};
  std::atomic<std::int64_t> last_send_ns_{0};
};

}  // namespace stackbench
