// Sharded zero-copy write pipeline: buffer pool lifecycle, scatter-gather
// framing equivalence across every transport, zero-copy message views, the
// one-global-lock-per-write regression guard, and a concurrent-writer
// torture test (the striping correctness proof: replicas stay byte-
// identical under contending writers on every policy).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/crc32c.h"
#include "common/endian.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "net/latent.h"
#include "net/reactor_tcp.h"
#include "net/traffic_meter.h"
#include "prins/engine.h"
#include "prins/intent_log.h"
#include "prins/message.h"
#include "prins/replica.h"

namespace prins {
namespace {

constexpr std::uint32_t kBs = 1024;
constexpr std::uint64_t kBlocks = 256;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Bytes b(n);
  rng.fill(b);
  return b;
}

// ---- BufferPool -----------------------------------------------------------

TEST(BufferPoolTest, ReleasedBuffersAreReused) {
  BufferPool pool(kBs, /*max_free=*/8);
  { PooledBuffer a = pool.acquire(kBs); }  // released to the freelist
  PooledBuffer b = pool.acquire(kBs);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.allocated, 1u);
  EXPECT_EQ(stats.reused, 1u);
}

TEST(BufferPoolTest, CopyBumpsUseCountAndDefersRelease) {
  BufferPool pool(kBs);
  PooledBuffer a = pool.acquire(16);
  EXPECT_EQ(a.use_count(), 1u);
  {
    PooledBuffer b = a;
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(b.span().data(), a.span().data());
  }
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(pool.stats().free_buffers, 0u);  // still held by `a`
}

TEST(BufferPoolTest, MaxFreeZeroNeverCaches) {
  BufferPool pool(kBs, /*max_free=*/0);
  { PooledBuffer a = pool.acquire(kBs); }
  { PooledBuffer b = pool.acquire(kBs); }
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.allocated, 2u);
  EXPECT_EQ(stats.reused, 0u);
  EXPECT_EQ(stats.free_buffers, 0u);
}

TEST(BufferPoolTest, BuffersOutliveThePool) {
  PooledBuffer survivor;
  {
    BufferPool pool(64);
    survivor = pool.acquire(64);
    survivor.mutable_bytes()[0] = Byte{42};
  }
  // The pool is gone; the buffer must still be valid and safely released.
  EXPECT_EQ(survivor.span()[0], Byte{42});
  survivor.reset();
}

TEST(BufferPoolTest, HeapBuffersWorkWithoutAPool) {
  PooledBuffer h = PooledBuffer::heap(random_bytes(7, 32));
  EXPECT_EQ(h.size(), 32u);
  PooledBuffer copy = h;
  EXPECT_EQ(h.use_count(), 2u);
  h.reset();
  EXPECT_EQ(copy.use_count(), 1u);
}

TEST(BufferPoolTest, AcquireResizesReusedBuffers) {
  BufferPool pool(kBs, 8);
  { PooledBuffer a = pool.acquire(kBs); }
  PooledBuffer b = pool.acquire(10);
  EXPECT_EQ(b.size(), 10u);
  PooledBuffer c = pool.acquire(kBs);
  EXPECT_EQ(c.size(), kBs);
}

// ---- Transport::send_vec --------------------------------------------------

// A transport that deliberately does NOT override send_vec, to exercise the
// base-class concatenation fallback.
class FallbackTransport final : public Transport {
 public:
  explicit FallbackTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  Status send(ByteSpan message) override { return inner_->send(message); }
  Result<Bytes> recv() override { return inner_->recv(); }
  Result<Bytes> recv_for(std::chrono::milliseconds t) override {
    return inner_->recv_for(t);
  }
  void close() override { inner_->close(); }
  std::string describe() const override { return "fallback"; }

 private:
  std::unique_ptr<Transport> inner_;
};

void check_send_vec_roundtrip(Transport& sender, Transport& receiver) {
  const Bytes a = random_bytes(1, 38);
  const Bytes b = random_bytes(2, 900);
  const Bytes c = random_bytes(3, 4);
  Bytes whole;
  append(whole, a);
  append(whole, b);
  append(whole, c);

  const ByteSpan parts[] = {a, b, c};
  ASSERT_TRUE(sender.send_vec(parts).is_ok());
  auto got = receiver.recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, whole) << "3-part send_vec must equal the concatenation";

  // Empty parts vanish; a lone part equals a plain send.
  const ByteSpan sparse[] = {ByteSpan(), a, ByteSpan()};
  ASSERT_TRUE(sender.send_vec(sparse).is_ok());
  got = receiver.recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, a);
}

TEST(SendVecTest, InprocMatchesConcatenation) {
  auto [left, right] = make_inproc_pair();
  check_send_vec_roundtrip(*left, *right);
}

TEST(SendVecTest, LatentMatchesConcatenation) {
  auto [left, right] = make_latent_pair(std::chrono::microseconds(0));
  check_send_vec_roundtrip(*left, *right);
}

TEST(SendVecTest, FaultFreeFaultyMatchesConcatenation) {
  auto [left, right] = make_inproc_pair();
  FaultyTransport faulty(std::move(left), FaultConfig{});
  check_send_vec_roundtrip(faulty, *right);
}

TEST(SendVecTest, MeterAccountsWholeMessages) {
  auto [left, right] = make_inproc_pair();
  TrafficMeter meter(std::move(left));
  check_send_vec_roundtrip(meter, *right);
  EXPECT_EQ(meter.sent().messages, 2u);
  EXPECT_EQ(meter.sent().payload_bytes, 38u + 900u + 4u + 38u);
}

TEST(SendVecTest, BaseClassFallbackMatchesConcatenation) {
  auto [left, right] = make_inproc_pair();
  FallbackTransport fallback(std::move(left));
  check_send_vec_roundtrip(fallback, *right);
}

TEST(SendVecTest, TcpWritevMatchesConcatenation) {
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto client = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto conn = (*listener)->accept();
  ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
  std::unique_ptr<Transport> accepted = std::move(*conn);
  check_send_vec_roundtrip(**client, *accepted);

  // More parts than the writev fast path handles (falls back to one copy).
  std::vector<Bytes> many;
  Bytes whole;
  std::vector<ByteSpan> parts;
  for (int i = 0; i < 40; ++i) {
    many.push_back(random_bytes(100 + i, 13));
    append(whole, many.back());
  }
  for (const Bytes& p : many) parts.push_back(p);
  ASSERT_TRUE((*client)->send_vec(parts).is_ok());
  auto got = accepted->recv();
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, whole);
  (*client)->close();
}

// ---- Zero-copy message views ----------------------------------------------

ReplicationMessage sample_message() {
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kPrinsRle;
  msg.block_size = kBs;
  msg.lba = 99;
  msg.sequence = 1234;
  msg.timestamp_us = 777;
  msg.payload = random_bytes(5, 300);
  return msg;
}

TEST(MessageViewTest, DecodeViewAliasesTheWireBuffer) {
  const ReplicationMessage msg = sample_message();
  const Bytes wire = msg.encode();
  auto view = ReplicationMessage::decode_view(wire);
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view->kind, msg.kind);
  EXPECT_EQ(view->policy, msg.policy);
  EXPECT_EQ(view->block_size, msg.block_size);
  EXPECT_EQ(view->lba, msg.lba);
  EXPECT_EQ(view->sequence, msg.sequence);
  EXPECT_EQ(view->timestamp_us, msg.timestamp_us);
  ASSERT_EQ(view->payload.size(), msg.payload.size());
  // The payload must be a window into `wire`, not a copy.
  EXPECT_GE(view->payload.data(), wire.data());
  EXPECT_LE(view->payload.data() + view->payload.size(),
            wire.data() + wire.size());
  const ReplicationMessage copy = view->to_message();
  EXPECT_EQ(copy.payload, msg.payload);
  EXPECT_EQ(copy.sequence, msg.sequence);
}

TEST(MessageViewTest, EncodeHeaderMatchesFullEncode) {
  const ReplicationMessage msg = sample_message();
  const Bytes wire = msg.encode();
  Byte header[ReplicationMessage::kWireHeaderSize];
  msg.encode_header(header, msg.payload.size());
  ASSERT_GE(wire.size(), sizeof(header));
  EXPECT_TRUE(std::equal(std::begin(header), std::end(header), wire.begin()));
  // Chained CRC over header-then-payload equals the encoded trailer.
  std::uint32_t crc = crc32c(ByteSpan(header));
  crc = crc32c(msg.payload, crc);
  const std::uint32_t trailer =
      load_le32(ByteSpan(wire).subspan(wire.size() - 4));
  EXPECT_EQ(crc, trailer);
  // send_framed puts the same bytes on the wire, scatter-gather.
  auto [sender, receiver] = make_inproc_pair();
  ASSERT_TRUE(send_framed(*sender, msg, msg.payload).is_ok());
  auto received = receiver->recv();
  ASSERT_TRUE(received.is_ok());
  EXPECT_EQ(*received, wire);
}

TEST(MessageViewTest, TornFramesAreRejected) {
  const Bytes wire = sample_message().encode();
  for (std::size_t cut : {std::size_t{0}, std::size_t{10},
                          ReplicationMessage::kWireHeaderSize,
                          wire.size() - 1}) {
    EXPECT_FALSE(
        ReplicationMessage::decode_view(ByteSpan(wire).subspan(0, cut))
            .is_ok())
        << "cut=" << cut;
  }
  Bytes corrupt = wire;
  corrupt[corrupt.size() / 2] ^= Byte{0x40};
  EXPECT_FALSE(ReplicationMessage::decode_view(corrupt).is_ok());
}

// ---- Engine: sharding + lock-count regression -----------------------------

struct Rig {
  std::shared_ptr<MemDisk> primary_disk;
  std::shared_ptr<MemDisk> replica_disk;
  std::shared_ptr<ReplicaEngine> replica;
  std::unique_ptr<PrinsEngine> engine;
  std::thread server;

  explicit Rig(EngineConfig config, ReplicaConfig replica_config = {}) {
    primary_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    replica = std::make_shared<ReplicaEngine>(replica_disk, replica_config);
    engine = std::make_unique<PrinsEngine>(primary_disk, config);
    auto [primary_end, replica_end] = make_inproc_pair();
    engine->add_replica(std::move(primary_end));
    server = std::thread(
        [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
          ASSERT_TRUE(r->serve(*t).is_ok());
        });
  }

  ~Rig() {
    engine.reset();
    if (server.joinable()) server.join();
  }

  bool devices_match() {
    Bytes a(kBs), b(kBs);
    for (Lba lba = 0; lba < kBlocks; ++lba) {
      EXPECT_TRUE(primary_disk->read(lba, a).is_ok());
      EXPECT_TRUE(replica_disk->read(lba, b).is_ok());
      if (a != b) return false;
    }
    return true;
  }
};

TEST(WritePipelineTest, ShardCountResolvesToConfiguredPowerOfTwo) {
  EngineConfig config;
  config.write_shards = 6;  // rounds up to 8
  PrinsEngine engine(std::make_shared<MemDisk>(kBlocks, kBs), config);
  EXPECT_EQ(engine.write_shard_count(), 8u);
}

TEST(WritePipelineTest, OneGlobalLockPerReplicatedWrite) {
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrinsRle;
  config.write_shards = 8;
  Rig rig(config);

  ASSERT_TRUE(rig.engine->drain().is_ok());
  const std::uint64_t before = rig.engine->debug_submit_global_lock_count();
  constexpr std::uint64_t kWrites = 64;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(
        rig.engine->write(i % kBlocks, random_bytes(i, kBs)).is_ok());
  }
  const std::uint64_t after = rig.engine->debug_submit_global_lock_count();
  // The sharded submit path takes the engine-wide mutex exactly once per
  // message (in distribute()); the pre-shard pipeline took three.
  EXPECT_EQ(after - before, kWrites);
  ASSERT_TRUE(rig.engine->drain().is_ok());
}

TEST(WritePipelineTest, PoolServesSteadyStateWrites) {
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrinsRle;
  Rig rig(config);
  // Frame buffers live in the outbox until the replica acks, so drain
  // between rounds; steady state then runs entirely off the freelists.
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          rig.engine->write((round * 20 + i) % 16, random_bytes(i, kBs))
              .is_ok());
    }
    ASSERT_TRUE(rig.engine->drain().is_ok());
  }
  const BufferPool::Stats blocks = rig.engine->block_pool_stats();
  const BufferPool::Stats frames = rig.engine->frame_pool_stats();
  // Steady state runs off the freelists: far more reuses than allocations.
  EXPECT_GT(blocks.reused, blocks.allocated * 4);
  EXPECT_GT(frames.reused, frames.allocated * 4);
  EXPECT_TRUE(rig.devices_match());
}

TEST(WritePipelineTest, PoolingOffStillReplicatesCorrectly) {
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pool_max_free = 0;  // every buffer from the heap
  Rig rig(config);
  for (std::uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.engine->write(i % kBlocks, random_bytes(i, kBs)).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_TRUE(rig.devices_match());
  EXPECT_EQ(rig.engine->block_pool_stats().free_buffers, 0u);
}

// ---- Concurrent-writer torture --------------------------------------------

class TorturePolicies : public ::testing::TestWithParam<ReplicationPolicy> {};

TEST_P(TorturePolicies, ConcurrentWritersConvergeByteIdentical) {
  EngineConfig config;
  config.policy = GetParam();
  config.write_shards = 8;
  config.coalesce_writes = true;
  config.keep_trap_log = true;
  Rig rig(config);

  constexpr int kThreads = 6;
  constexpr int kWritesPerThread = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      Bytes block(kBs);
      for (int i = 0; i < kWritesPerThread; ++i) {
        // Half the traffic lands in a per-thread disjoint stripe, half on a
        // shared hot range, so both the parallel path and the same-block
        // serialization path stay busy.
        const bool hot = (i % 2) == 0;
        const Lba lba = hot ? rng.next_below(8)
                            : 8 + static_cast<Lba>(t) * 40 + rng.next_below(40);
        rng.fill(block);
        if (!rig.engine->write(lba, block).is_ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_TRUE(rig.devices_match());
  const EngineMetrics m = rig.engine->metrics();
  EXPECT_EQ(m.writes, static_cast<std::uint64_t>(kThreads) * kWritesPerThread);
  // Every logical write is acknowledged exactly once (folded or not).
  EXPECT_EQ(m.acks, m.writes);
}

// The replica-side pipeline under the same contention: LBA-striped apply
// workers, the old-block apply cache, intent-log group commit, and batched
// acks all on at once.  Replicas must still converge byte-identical and
// every logical write must retire exactly once — the striping proof for
// the apply side (same-block deltas stay ordered, XOR chains telescope).
TEST(WritePipelineTest, PipelinedReplicaTortureConvergesByteIdentical) {
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrinsRle;
  config.write_shards = 8;

  const std::string intent_path =
      ::testing::TempDir() + "/pipelined_replica_torture_intents.log";
  std::remove(intent_path.c_str());
  auto intent_log = WriteIntentLog::open(intent_path);
  ASSERT_TRUE(intent_log.is_ok()) << intent_log.status().to_string();

  ReplicaConfig replica_config;
  replica_config.apply_shards = 4;
  replica_config.old_block_cache_blocks = kBlocks;  // everything stays hot
  replica_config.intent_log = std::shared_ptr<WriteIntentLog>(
      std::move(*intent_log));
  Rig rig(config, replica_config);
  ASSERT_EQ(rig.replica->apply_shards(), 4u);

  constexpr int kThreads = 6;
  constexpr int kWritesPerThread = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(2000 + static_cast<std::uint64_t>(t));
      Bytes block(kBs);
      for (int i = 0; i < kWritesPerThread; ++i) {
        const bool hot = (i % 2) == 0;
        const Lba lba = hot ? rng.next_below(8)
                            : 8 + static_cast<Lba>(t) * 40 + rng.next_below(40);
        rng.fill(block);
        if (!rig.engine->write(lba, block).is_ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_TRUE(rig.devices_match());

  const EngineMetrics em = rig.engine->metrics();
  EXPECT_EQ(em.writes,
            static_cast<std::uint64_t>(kThreads) * kWritesPerThread);
  // Exactly-once retirement survives ack batching: each logical write is
  // acknowledged once, whether its completion rode a kAck or a kAckBatch.
  EXPECT_EQ(em.acks, em.writes);

  const ReplicaMetrics rm = rig.replica->metrics();
  // The hot range's A_old reads must hit the write-through apply cache
  // (every applied block re-enters the cache, so only cold blocks miss).
  EXPECT_GT(rm.cache_hits, 0u);
  EXPECT_LE(rm.cache_misses, kBlocks);
  // Group commit amortizes fsyncs across the four workers under load.
  EXPECT_GT(rm.intent_records, 0u);
  EXPECT_LE(rm.intent_fsyncs, rm.intent_records);
  std::remove(intent_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TorturePolicies,
    ::testing::Values(ReplicationPolicy::kTraditional,
                      ReplicationPolicy::kTraditionalCompressed,
                      ReplicationPolicy::kPrins, ReplicationPolicy::kPrinsRle),
    [](const auto& info) {
      switch (info.param) {
        case ReplicationPolicy::kTraditional: return "Traditional";
        case ReplicationPolicy::kTraditionalCompressed: return "TraditionalLz";
        case ReplicationPolicy::kPrins: return "Prins";
        case ReplicationPolicy::kPrinsRle: return "PrinsRle";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace prins
