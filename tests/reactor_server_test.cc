// Tests for the thread-free node: ReactorReplicaServer (many initiators,
// one shared apply pipeline), ReactorIscsiServer (actor-per-session PDU
// serving), the engine's event-driven senders on ReactorTcpTransport
// links, the concurrent replica_serve_in_background accept loop, and the
// validated PRINS_* env knob parser.  Everything here runs
// under the `reactor` ctest label, so the CI sanitizer matrix (ASan/TSan)
// sweeps it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "codec/codec.h"
#include "common/env.h"
#include "common/rng.h"
#include "iscsi/initiator.h"
#include "iscsi/reactor_target.h"
#include "iscsi/target.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "net/traffic_meter.h"
#include "prins/engine.h"
#include "prins/intent_log.h"
#include "prins/reactor_server.h"
#include "prins/replica.h"

namespace prins {
namespace {

using namespace std::chrono_literals;

bool await(const std::function<bool()>& done,
           std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// The loops this file's client connections and blocking listeners run
/// on, as a remote primary's would.
std::shared_ptr<ReactorPool> client_pool() {
  static std::shared_ptr<ReactorPool> pool = [] {
    auto created = ReactorPool::create(1);
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
    return *created;
  }();
  return pool;
}

Result<std::unique_ptr<Transport>> connect_client(std::uint16_t port) {
  return ReactorTcpTransport::connect(client_pool()->at(0).shared_from_this(),
                                      "127.0.0.1", port);
}

// Thread count once it holds still for 10 ms: helper threads an earlier
// test in this process left behind (a reactor's deleter) come and go.
std::size_t settled_thread_count() {
  std::size_t n = count_threads();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(10ms);
    const std::size_t now = count_threads();
    if (now == n) break;
    n = now;
  }
  return n;
}

// Drain replies until `expect` completions are covered, counting a kAck as
// one completion and a kAckBatch as the sum of its range lengths.
Status collect_acks(Transport& transport, std::size_t expect) {
  std::size_t covered = 0;
  while (covered < expect) {
    auto wire = transport.recv_for(10s);
    if (!wire.is_ok()) return wire.status();
    auto reply = ReplicationMessage::decode(*wire);
    if (!reply.is_ok()) return reply.status();
    if (reply->kind == MessageKind::kAckBatch) {
      auto ranges = unpack_ack_ranges(reply->payload);
      if (!ranges.is_ok()) return ranges.status();
      for (const AckRange& range : *ranges) covered += range.count;
    } else if (reply->kind == MessageKind::kAck) {
      ++covered;
    } else {
      return failed_precondition("unexpected reply kind");
    }
  }
  return Status::ok();
}

ReplicationMessage sync_block_message(Lba lba, std::uint64_t sequence,
                                      std::uint32_t bs, ByteSpan block) {
  ReplicationMessage msg;
  msg.kind = MessageKind::kSyncBlock;
  msg.policy = ReplicationPolicy::kPrinsRle;
  msg.block_size = bs;
  msg.lba = lba;
  msg.sequence = sequence;
  msg.timestamp_us = sequence;
  msg.payload = encode_frame(codec_for(CodecId::kLz), block);
  return msg;
}

// ---- ReactorReplicaServer --------------------------------------------------

TEST(ReactorReplicaServerTest, TwoInitiatorsDisjointRangesConverge) {
  // Two initiators stream parity deltas into ONE reactor-hosted replica
  // process: disjoint LBA halves, interleaved in time, one shared set of
  // LBA-striped apply workers.  Each initiator tracks the XOR-telescoped
  // contents it expects; sequence ranges are distinct per connection
  // because the replica's dedup window is global across sessions.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 128;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  std::vector<Bytes> expect(kBlocks, Bytes(kBs, Byte{0}));
  auto run_initiator = [&](Lba base, std::uint64_t sequence,
                           std::uint64_t seed) {
    auto link = connect_client((*server)->port());
    ASSERT_TRUE(link.is_ok()) << link.status().to_string();
    Rng rng(seed);
    Bytes delta(kBs);
    std::size_t sent = 0;
    for (int i = 0; i < 300; ++i) {
      const Lba lba = base + rng.next_below(kBlocks / 2);
      rng.fill(delta);
      // A parity delta XORs onto whatever the block holds (telescoping).
      for (std::size_t b = 0; b < kBs; ++b) expect[lba][b] ^= delta[b];
      ReplicationMessage msg;
      msg.kind = MessageKind::kWrite;
      msg.policy = ReplicationPolicy::kPrinsRle;
      msg.block_size = kBs;
      msg.lba = lba;
      msg.sequence = sequence + sent;
      msg.timestamp_us = sequence + sent;
      msg.payload = encode_frame(codec_for(CodecId::kZeroRle), delta);
      ASSERT_TRUE((*link)->send(msg.encode()).is_ok());
      ++sent;
    }
    ASSERT_TRUE(collect_acks(**link, sent).is_ok());
    (*link)->close();
  };

  std::thread a([&] { run_initiator(0, 10000, 11); });
  std::thread b([&] { run_initiator(kBlocks / 2, 20000, 22); });
  a.join();
  b.join();

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(expect[lba], got) << "diverged at lba " << lba;
  }
  EXPECT_EQ(replica->metrics().parity_applies, 600u);
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, OverlappingInitiatorsApplyWholeBlocks) {
  // Two raw initiators hammer the SAME LBA range with full-block syncs.
  // The striped apply pipeline may interleave them per block, but every
  // final block must be exactly one initiator's pattern — never a torn
  // mix — and every sequence must be acked.
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 32;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  // Sequence ranges must be distinct per connection: the replica's dedup
  // window is global across sessions, not per connection.
  auto run_initiator = [&](Byte fill, std::uint64_t first_sequence) {
    auto link = connect_client((*server)->port());
    ASSERT_TRUE(link.is_ok());
    const Bytes block(kBs, fill);
    std::size_t sent = 0;
    for (int round = 0; round < 4; ++round) {
      for (Lba lba = 0; lba < kBlocks; ++lba) {
        const auto msg =
            sync_block_message(lba, first_sequence + sent, kBs, block);
        ASSERT_TRUE((*link)->send(msg.encode()).is_ok());
        ++sent;
      }
    }
    ASSERT_TRUE(collect_acks(**link, sent).is_ok());
    (*link)->close();
  };

  std::thread a([&] { run_initiator(Byte{0xAA}, 1000); });
  std::thread b([&] { run_initiator(Byte{0xBB}, 2000); });
  a.join();
  b.join();

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    const bool all_a = got == Bytes(kBs, Byte{0xAA});
    const bool all_b = got == Bytes(kBs, Byte{0xBB});
    ASSERT_TRUE(all_a || all_b) << "torn block at lba " << lba;
  }
  EXPECT_EQ(replica->metrics().sync_blocks, 2u * 4u * kBlocks);
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, DuplicateAcrossReconnectAppliesOnce) {
  // A primary that lost the ack replays its un-acked writes on a fresh
  // connection.  Parity deltas XOR: applying one twice would undo the
  // write, so the dedup window must span connections.
  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaConfig rconfig;
  rconfig.apply_shards = 2;
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  Bytes delta(kBs);
  Rng(77).fill(delta);
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kPrinsRle;
  msg.block_size = kBs;
  msg.lba = 3;
  msg.sequence = 42;
  msg.timestamp_us = 1;
  msg.payload = encode_frame(codec_for(CodecId::kZeroRle), delta);
  const Bytes wire = msg.encode();

  for (int attempt = 0; attempt < 2; ++attempt) {
    auto link = connect_client((*server)->port());
    ASSERT_TRUE(link.is_ok());
    ASSERT_TRUE((*link)->send(wire).is_ok());
    ASSERT_TRUE(collect_acks(**link, 1).is_ok());  // duplicate is acked too
    (*link)->close();
  }

  // Device holds delta ⊕ zeros exactly once: a double apply would be zeros.
  Bytes got(kBs);
  ASSERT_TRUE(replica_disk->read(3, got).is_ok());
  EXPECT_EQ(got, delta);
  EXPECT_EQ(replica->metrics().duplicates_dropped, 1u);
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, FaultStormThroughWrappedTransportHeals) {
  // ReactorReplicaServerOptions::wrap_transport composes the fault
  // injector with the reactor path: the FIRST accepted connection's reply
  // stream is corrupted and then hard-cut mid-stream, later connections
  // (the primary's reconnects) are clean.  The primary's heal machinery —
  // reconnect factory plus replay — must converge the replica
  // anyway, proving faults on a decorated reactor transport behave like
  // faults on a blocking one.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());

  std::atomic<std::size_t> accepted{0};
  ReactorReplicaServerOptions options;
  options.wrap_transport =
      [&](std::unique_ptr<Transport> conn) -> std::unique_ptr<Transport> {
    if (accepted.fetch_add(1) != 0) return conn;  // reconnects are clean
    FaultConfig storm;
    storm.corrupt_p = 0.02;      // garbled acks: the primary must re-link
    storm.disconnect_after = 90;  // then the reply path hard-cuts
    storm.seed = 99;
    return std::make_unique<FaultyTransport>(std::move(conn), storm);
  };
  auto server = ReactorReplicaServer::start(replica, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  const std::uint16_t port = (*server)->port();

  EngineConfig config;
  config.keep_trap_log = true;
  config.retry.base_backoff = 1ms;
  config.retry.max_backoff = 10ms;
  config.retry.op_timeout = 2s;
  config.reconnect = [&](std::size_t) -> Result<std::unique_ptr<Transport>> {
    auto fresh = connect_client(port);
    if (!fresh.is_ok()) return fresh.status();
    return std::unique_ptr<Transport>(std::move(*fresh));
  };
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = connect_client(port);
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(53);
  Bytes block(kBs);
  for (int i = 0; i < 400; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GE(engine->metrics().reconnects, 1u);
  EXPECT_GE(accepted.load(), 2u);

  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, RestartUnderLoadAppliesExactlyOnce) {
  // Kill the reactor-hosted replica mid-stream with writes in flight, then
  // restart it over the same volume and intent log.  recover_intents()
  // must rebuild the dedup windows for every apply that completed before
  // the kill, so when the primary-side initiator replays its whole
  // un-acked window (it cannot know which applies landed) each XOR delta
  // lands exactly once — a double apply would undo it.
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 32;
  const std::string intent_path =
      ::testing::TempDir() + "/reactor_restart_intents.log";
  std::remove(intent_path.c_str());
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());

  std::vector<Bytes> expect(kBlocks, Bytes(kBs, Byte{0}));
  Rng rng(67);
  std::uint64_t sequence = 0;
  // Encode the next delta, folding it into the test-side expected state
  // exactly once no matter how often the wire copy is (re)sent.
  auto next_write = [&](Lba* out_lba) {
    const Lba lba = rng.next_below(kBlocks);
    Bytes delta(kBs);
    rng.fill(delta);
    for (std::size_t b = 0; b < kBs; ++b) expect[lba][b] ^= delta[b];
    ReplicationMessage msg;
    msg.kind = MessageKind::kWrite;
    msg.policy = ReplicationPolicy::kPrinsRle;
    msg.block_size = kBs;
    msg.lba = lba;
    msg.sequence = ++sequence;
    msg.timestamp_us = sequence;
    msg.payload = encode_frame(codec_for(CodecId::kZeroRle), delta);
    if (out_lba != nullptr) *out_lba = lba;
    return msg.encode();
  };

  std::vector<Bytes> unacked;  // the window the initiator will replay
  std::uint64_t applied_before_kill = 0;
  {
    auto intents = WriteIntentLog::open(intent_path);
    ASSERT_TRUE(intents.is_ok());
    ReplicaConfig rconfig;
    rconfig.apply_shards = 4;
    rconfig.intent_log = std::move(*intents);
    rconfig.intent_checkpoint_every = 0;  // keep every intent for recovery
    auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
    auto server = ReactorReplicaServer::start(replica, *pool);
    ASSERT_TRUE(server.is_ok());
    auto link = connect_client((*server)->port());
    ASSERT_TRUE(link.is_ok());
    // A fully acked prefix...
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE((*link)->send(next_write(nullptr)).is_ok());
    }
    ASSERT_TRUE(collect_acks(**link, 120).is_ok());
    // ...then a burst the kill races: sent, maybe applied, never acked.
    for (int i = 0; i < 40; ++i) {
      Bytes wire = next_write(nullptr);
      if (!(*link)->send(wire).is_ok()) break;  // server may die under us
      unacked.push_back(std::move(wire));
    }
    (*server)->stop();  // hard stop: close sessions, drain apply workers
    (*link)->close();
    applied_before_kill = replica->metrics().parity_applies;
  }  // replica engine + intent log fd die here; disk and file survive

  // Restart: same volume, same intent log.
  auto intents = WriteIntentLog::open(intent_path);
  ASSERT_TRUE(intents.is_ok());
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  rconfig.intent_log = std::move(*intents);
  rconfig.intent_checkpoint_every = 0;
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto damaged = replica->recover_intents();
  ASSERT_TRUE(damaged.is_ok()) << damaged.status().to_string();
  EXPECT_TRUE(damaged->empty());  // stop() drains workers: no torn applies
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto link = connect_client((*server)->port());
  ASSERT_TRUE(link.is_ok());
  for (const Bytes& wire : unacked) {  // replay the whole un-acked window
    ASSERT_TRUE((*link)->send(wire).is_ok());
  }
  for (int i = 0; i < 20; ++i) {  // and keep fresh load flowing
    ASSERT_TRUE((*link)->send(next_write(nullptr)).is_ok());
  }
  ASSERT_TRUE(collect_acks(**link, unacked.size() + 20).is_ok());
  (*link)->close();

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(expect[lba], got) << "double or missing apply at lba " << lba;
  }
  // Exactly-once across the restart: every sequence applied once, and the
  // replayed writes that had already landed were dropped by the rebuilt
  // dedup window, not re-XORed.
  const ReplicaMetrics after = replica->metrics();
  EXPECT_EQ(applied_before_kill + after.parity_applies, sequence);
  EXPECT_EQ(after.parity_applies + after.duplicates_dropped,
            unacked.size() + 20);
  (*server)->stop();
  std::remove(intent_path.c_str());
}

// ---- replica_serve_in_background (threaded path bugfixes) ------------------

TEST(ReplicaServeTest, BackgroundLoopServesConcurrentSessions) {
  // The historical loop served sessions one at a time, so a second
  // initiator hung behind the first's open connection.  Hold session A
  // open mid-exchange while session B does a full round trip.
  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(16, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto listener = ReactorListener::listen(client_pool(), 0);
  ASSERT_TRUE(listener.is_ok());
  const std::uint16_t port = (*listener)->port();
  auto shared_listener = std::shared_ptr<Listener>(std::move(*listener));
  std::thread server = replica_serve_in_background(replica, shared_listener);

  // Session A: connected and idle (a slow primary holding its link).
  auto idle = connect_client(port);
  ASSERT_TRUE(idle.is_ok());
  const Bytes block(kBs, Byte{0x5c});
  ASSERT_TRUE(
      (*idle)->send(sync_block_message(0, 1, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**idle, 1).is_ok());

  // Session B must complete while A stays open.
  auto busy = connect_client(port);
  ASSERT_TRUE(busy.is_ok());
  ASSERT_TRUE(
      (*busy)->send(sync_block_message(1, 2, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**busy, 1).is_ok());
  (*busy)->close();

  // A is still alive afterwards.
  ASSERT_TRUE(
      (*idle)->send(sync_block_message(2, 3, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**idle, 1).is_ok());
  (*idle)->close();

  shared_listener->close();
  server.join();
  EXPECT_EQ(replica->metrics().sync_blocks, 3u);
}

TEST(ReplicaServeTest, AcceptLoopRetriesTransientFailures) {
  // A listener that bounces a few accepts (ECONNABORTED-style) must not
  // kill the serve loop; only kUnavailable (closed) ends it.
  class FlakyListener final : public Listener {
   public:
    FlakyListener(std::unique_ptr<Listener> inner, int failures)
        : inner_(std::move(inner)), failures_(failures) {}
    Result<std::unique_ptr<Transport>> accept() override {
      if (failures_-- > 0) return io_error("injected accept failure");
      return inner_->accept();
    }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<Listener> inner_;
    std::atomic<int> failures_;
  };

  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(8, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto inner = ReactorListener::listen(client_pool(), 0);
  ASSERT_TRUE(inner.is_ok());
  const std::uint16_t port = (*inner)->port();
  auto listener = std::make_shared<FlakyListener>(std::move(*inner), 5);
  std::thread server = replica_serve_in_background(replica, listener);

  auto link = connect_client(port);
  ASSERT_TRUE(link.is_ok());
  const Bytes block(kBs, Byte{0x3d});
  ASSERT_TRUE(
      (*link)->send(sync_block_message(4, 9, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**link, 1).is_ok());
  (*link)->close();

  listener->close();
  server.join();
  EXPECT_EQ(replica->metrics().sync_blocks, 1u);
}

// ---- ReactorIscsiServer ----------------------------------------------------

TEST(ReactorIscsiServerTest, TwoInitiatorsShareTheWorkerPool) {
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 64;
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto target = std::make_shared<iscsi::IscsiTarget>(disk);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());
  iscsi::ReactorIscsiServerOptions options;
  options.worker_threads = 2;
  auto server = iscsi::ReactorIscsiServer::start(target, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  auto run_initiator = [&](Lba base, std::uint64_t seed) {
    auto link = connect_client((*server)->port());
    ASSERT_TRUE(link.is_ok());
    auto initiator = iscsi::IscsiInitiator::login(std::move(*link));
    ASSERT_TRUE(initiator.is_ok()) << initiator.status().to_string();
    EXPECT_EQ((*initiator)->block_size(), kBs);
    Rng rng(seed);
    Bytes data(kBs), back(kBs);
    for (int i = 0; i < 40; ++i) {
      const Lba lba = base + rng.next_below(kBlocks / 2);
      rng.fill(data);
      ASSERT_TRUE((*initiator)->write(lba, data).is_ok());
      ASSERT_TRUE((*initiator)->read(lba, back).is_ok());
      ASSERT_EQ(data, back);
    }
    ASSERT_TRUE((*initiator)->ping().is_ok());
    ASSERT_TRUE((*initiator)->logout().is_ok());
  };

  std::thread a([&] { run_initiator(0, 5); });
  std::thread b([&] { run_initiator(kBlocks / 2, 6); });
  a.join();
  b.join();

  EXPECT_TRUE(await([&] { return (*server)->sessions() == 0; }, 5s));
  (*server)->stop();
}

// ---- reactor-driven engine senders -----------------------------------------

TEST(ReactorSenderTest, WritesConvergeWithoutSenderThreads) {
  // Primary and replica both thread-free: ReactorTcpTransport links driven
  // by outbox state machines into a ReactorReplicaServer.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.reactor = *reactor;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok()) << link.status().to_string();
    engine->add_replica(std::move(*link));
  }

  Rng rng(41);
  Bytes block(kBs);
  for (int i = 0; i < 500; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
    if (i == 250) ASSERT_TRUE(engine->drain().is_ok());  // mid-stream drain
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GT(engine->metrics().acks, 0u);

  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();  // must cancel its wheel timers and pumps cleanly
  EXPECT_TRUE(await([&] { return (*reactor)->pending_timers() == 0; }, 2s));
  (*server)->stop();
}

TEST(ReactorSenderTest, MeteredReactorLinkStartsNoSenderThread) {
  // Decorators (a TrafficMeter over a FaultyTransport) around a reactor
  // link must still see through to the reactor connection, and
  // add_replica must start no thread for it.  This is the gate the stack
  // bench applies.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.reactor = *reactor;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  auto link = ReactorTcpTransport::connect(*reactor, "127.0.0.1",
                                           (*server)->port());
  ASSERT_TRUE(link.is_ok()) << link.status().to_string();
  auto meter = std::make_unique<TrafficMeter>(
      std::make_unique<FaultyTransport>(std::move(*link), FaultConfig{}));
  const TrafficMeter* traffic = meter.get();
  const std::size_t threads_before = settled_thread_count();
  engine->add_replica(std::move(meter));
  EXPECT_LE(count_threads(), threads_before)
      << "add_replica started a thread for a decorated reactor link";

  Rng rng(43);
  Bytes block(kBs);
  for (int i = 0; i < 100; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GT(traffic->sent().messages, 0u);  // the meter still counts
  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  (*server)->stop();
}

TEST(ReactorSenderTest, InprocLinksStartNoThreadPerLink) {
  // Three in-process links deliver their replies on the engine's loop:
  // attaching them and replicating through them starts no thread.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.pipeline_depth = 4;
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  std::vector<std::shared_ptr<MemDisk>> disks;
  std::vector<std::thread> serve_threads;
  std::vector<std::unique_ptr<Transport>> links;
  for (int i = 0; i < 3; ++i) {
    disks.push_back(std::make_shared<MemDisk>(kBlocks, kBs));
    auto replica = std::make_shared<ReplicaEngine>(disks.back());
    auto [primary_end, replica_end] = make_inproc_pair();
    links.push_back(std::move(primary_end));
    serve_threads.emplace_back(
        [replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)replica->serve(*t);
        });
  }
  // Let the replicas' serve threads settle before counting.
  const std::size_t threads_before = settled_thread_count();
  for (auto& link : links) engine->add_replica(std::move(link));
  EXPECT_LE(count_threads(), threads_before)
      << "add_replica started a thread for an in-process link";

  Rng rng(47);
  Bytes block(kBs);
  for (int i = 0; i < 100; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_LE(count_threads(), threads_before)
      << "replicating over in-process links started a thread";
  Bytes want(kBs), got(kBs);
  for (const auto& disk : disks) {
    for (Lba lba = 0; lba < kBlocks; ++lba) {
      ASSERT_TRUE(primary->read(lba, want).is_ok());
      ASSERT_TRUE(disk->read(lba, got).is_ok());
      ASSERT_EQ(want, got) << "diverged at lba " << lba;
    }
  }
  engine.reset();
  for (auto& t : serve_threads) t.join();
}

TEST(ReactorSenderTest, ReattachSwapsBlockingAndReactorLinksUnderLiveWrites) {
  // One replica link moves inproc -> reactor TCP -> inproc -> reactor TCP
  // while a writer keeps going.  Both kinds run the same event-driven
  // sender (the inproc one on the engine's loop), so each swap only
  // retransmits the open round on the fresh transport: every write is
  // acked exactly once and the replica ends byte-identical.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 2;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.reactor = *reactor;
  config.pipeline_depth = 4;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  std::vector<std::thread> serve_threads;
  const auto inproc_link = [&]() -> std::unique_ptr<Transport> {
    auto [primary_end, replica_end] = make_inproc_pair();
    serve_threads.emplace_back(
        [replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)replica->serve(*t);
        });
    return std::move(primary_end);
  };
  engine->add_replica(inproc_link());

  std::atomic<bool> stop{false};
  std::atomic<int> written{0};
  std::atomic<bool> write_failed{false};
  std::thread writer([&] {
    Rng rng(59);
    Bytes block(kBs);
    while (!stop.load()) {
      rng.fill(block);
      if (!engine->write(rng.next_below(kBlocks), block).is_ok()) {
        write_failed = true;
        return;
      }
      ++written;
    }
  });
  for (int swap = 0; swap < 4; ++swap) {
    const int target = written.load() + 300;
    ASSERT_TRUE(await([&] { return written.load() >= target; }));
    std::unique_ptr<Transport> fresh;
    if (swap % 2 == 0) {
      auto tcp = ReactorTcpTransport::connect(*reactor, "127.0.0.1",
                                              (*server)->port());
      ASSERT_TRUE(tcp.is_ok()) << tcp.status().to_string();
      fresh = std::move(*tcp);
    } else {
      fresh = inproc_link();
    }
    ASSERT_TRUE(engine->reattach_replica(0, std::move(fresh)).is_ok());
  }
  const int target = written.load() + 300;
  ASSERT_TRUE(await([&] { return written.load() >= target; }));
  stop = true;
  writer.join();
  EXPECT_FALSE(write_failed.load());

  ASSERT_TRUE(engine->drain().is_ok());
  const EngineMetrics metrics = engine->metrics();
  EXPECT_EQ(metrics.writes, static_cast<std::uint64_t>(written.load()));
  EXPECT_EQ(metrics.acks, metrics.writes);
  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  (*server)->stop();
  for (auto& t : serve_threads) t.join();
}

TEST(ReactorSenderTest, HealsAfterHardConnectionCut) {
  // A cut degrades the link and keeps its open round; the self-heal
  // reconnects through the factory and resumes the link, which replays
  // the round's un-acked entries (replica dedup absorbs the ones that
  // already landed).  Writes queued during the outage follow on the fresh
  // transport.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto inner = ReactorListener::listen(client_pool(), 0);
  ASSERT_TRUE(inner.is_ok());
  const std::uint16_t port = (*inner)->port();
  // The server end of the FIRST link hard-cuts after 60 sends; later
  // accepted links (the heal's reconnects) inherit higher seeds but the
  // same schedule, so keep the cut one-shot per link and the write count
  // past it.
  FaultConfig cut;
  cut.disconnect_after = 60;
  auto listener = std::shared_ptr<Listener>(
      std::make_unique<FaultyListener>(std::move(*inner), cut));
  std::thread server = replica_serve_in_background(replica, listener);

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.keep_trap_log = true;
  config.retry.base_backoff = 1ms;
  config.retry.max_backoff = 10ms;
  config.retry.op_timeout = 2s;
  config.reactor = *reactor;
  config.reconnect = [&](std::size_t) -> Result<std::unique_ptr<Transport>> {
    auto fresh = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", port);
    if (!fresh.is_ok()) return fresh.status();
    return std::unique_ptr<Transport>(std::move(*fresh));
  };
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", port);
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(43);
  Bytes block(kBs);
  for (int i = 0; i < 400; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GE(engine->metrics().reconnects, 1u);
  EXPECT_GE(engine->metrics().auto_resyncs, 1u);

  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  listener->close();
  server.join();
}

TEST(ReactorSenderTest, VerifyAndRepairRidesTheRoundMachine) {
  // Operator paths (verify/repair) send their requests through the link's
  // round machine, over real TCP to a reactor-served replica, and match
  // the replies by sequence; replication carries on on the same link.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 32;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 2;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.reactor = *reactor;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(47);
  Bytes block(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(lba, block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  // Silently corrupt two replica blocks behind the engine's back.
  const Bytes junk(kBs, Byte{0xEE});
  ASSERT_TRUE(replica_disk->write(5, junk).is_ok());
  ASSERT_TRUE(replica_disk->write(17, junk).is_ok());
  auto repaired = engine->verify_and_repair(0, kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 2u);

  // The link carries writes again: replication still works.
  for (int i = 0; i < 50; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  (*server)->stop();
}

// ---- PRINS_* env knob validation -------------------------------------------

TEST(EnvParseTest, ParseEnvSizeContract) {
  constexpr const char* kKnob = "PRINS_TEST_KNOB_XYZZY";  // never a real knob
  const auto with = [&](const char* value) {
    ::setenv(kKnob, value, 1);
    return parse_env_size(kKnob, 1, 64);
  };
  ::unsetenv(kKnob);
  EXPECT_EQ(parse_env_size(kKnob, 1, 64), std::nullopt);  // unset -> default
  EXPECT_EQ(with("8"), std::optional<std::size_t>(8));
  EXPECT_EQ(with("1"), std::optional<std::size_t>(1));
  EXPECT_EQ(with("64"), std::optional<std::size_t>(64));
  EXPECT_EQ(with("100"), std::optional<std::size_t>(64));  // explicit clamp
  EXPECT_EQ(with("0"), std::nullopt);      // below min: fall back, warn
  EXPECT_EQ(with("-4"), std::nullopt);     // must NOT wrap to 2^64-4
  EXPECT_EQ(with("3x"), std::nullopt);     // trailing garbage
  EXPECT_EQ(with(""), std::nullopt);
  EXPECT_EQ(with("nonsense"), std::nullopt);
  EXPECT_EQ(with("99999999999999999999999999"), std::nullopt);  // overflow
  ::unsetenv(kKnob);
}

}  // namespace
}  // namespace prins
