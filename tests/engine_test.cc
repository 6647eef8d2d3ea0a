// End-to-end tests for the PRINS engine and replica: replication under
// every policy, RAID-tap mode, initial sync, verify/repair, drain
// semantics, multi-replica fan-out, and failure handling.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "block/faulty_disk.h"
#include "block/mem_disk.h"
#include "codec/codec.h"
#include "common/rng.h"
#include "net/inproc.h"
#include "net/faulty.h"
#include "net/reactor_tcp.h"
#include "net/traffic_meter.h"
#include "parity/xor.h"
#include "prins/engine.h"
#include "prins/replica.h"
#include "prins/verify.h"
#include "raid/raid_array.h"

namespace prins {
namespace {

constexpr std::uint32_t kBs = 1024;
constexpr std::uint64_t kBlocks = 128;

Bytes random_block(std::uint64_t seed, std::size_t n = kBs) {
  Rng rng(seed);
  Bytes b(n);
  rng.fill(b);
  return b;
}

/// Primary + one replica over an in-proc link, with a traffic meter.
struct Rig {
  std::shared_ptr<MemDisk> primary_disk;
  std::shared_ptr<MemDisk> replica_disk;
  std::shared_ptr<ReplicaEngine> replica;
  std::unique_ptr<PrinsEngine> engine;
  TrafficMeter* meter = nullptr;
  std::thread server;

  explicit Rig(ReplicationPolicy policy, bool keep_trap = false) {
    primary_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    ReplicaConfig replica_config;
    replica_config.keep_trap_log = keep_trap;
    replica = std::make_shared<ReplicaEngine>(replica_disk, replica_config);

    EngineConfig config;
    config.policy = policy;
    engine = std::make_unique<PrinsEngine>(primary_disk, config);

    auto [primary_end, replica_end] = make_inproc_pair();
    auto metered = std::make_unique<TrafficMeter>(std::move(primary_end));
    meter = metered.get();
    engine->add_replica(std::move(metered));
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

/// A replica stand-in that answers each request with whatever `script`
/// returns for it, in order.  Runs until the link closes.
using Script =
    std::function<std::vector<ReplicationMessage>(const ReplicationMessage&)>;

std::thread scripted_replica(std::unique_ptr<Transport> link, Script script) {
  return std::thread([t = std::shared_ptr<Transport>(std::move(link)),
                      script = std::move(script)] {
    for (;;) {
      auto wire = t->recv();
      if (!wire.is_ok()) return;
      auto request = ReplicationMessage::decode(*wire);
      if (!request.is_ok()) continue;
      for (const ReplicationMessage& reply : script(*request)) {
        if (!t->send(reply.encode()).is_ok()) return;
      }
    }
  });
}

ReplicationMessage ack_of(std::uint64_t sequence) {
  ReplicationMessage ack;
  ack.kind = MessageKind::kAck;
  ack.sequence = sequence;
  return ack;
}

class EnginePolicies : public ::testing::TestWithParam<ReplicationPolicy> {};

TEST_P(EnginePolicies, WritesReachTheReplica) {
  Rig rig(GetParam());
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const Lba lba = rng.next_below(kBlocks);
    ASSERT_TRUE(rig.engine->write(lba, random_block(1000 + i)).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_TRUE(rig.devices_match());
  const auto metrics = rig.engine->metrics();
  EXPECT_EQ(metrics.writes, 200u);
  EXPECT_EQ(metrics.acks, 200u);
  EXPECT_EQ(metrics.raw_bytes, 200u * kBs);
  EXPECT_GT(metrics.payload_bytes, 0u);
}

TEST_P(EnginePolicies, OverwritesOfSameBlockStayConsistent) {
  Rig rig(GetParam());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.engine->write(7, random_block(2000 + i)).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_TRUE(rig.devices_match());
}

TEST_P(EnginePolicies, MultiBlockWritesReplicatePerBlock) {
  Rig rig(GetParam());
  const Bytes data = random_block(3, 4 * kBs);
  ASSERT_TRUE(rig.engine->write(10, data).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_EQ(rig.engine->metrics().writes, 4u);
  EXPECT_TRUE(rig.devices_match());
}

INSTANTIATE_TEST_SUITE_P(Policies, EnginePolicies,
                         ::testing::Values(
                             ReplicationPolicy::kTraditional,
                             ReplicationPolicy::kTraditionalCompressed,
                             ReplicationPolicy::kPrins,
                             ReplicationPolicy::kPrinsRle));

// End-to-end property sweep: every (block size, policy) combination must
// converge the replica, across the full range of the paper's block sizes.
struct SweepCase {
  std::uint32_t block_size;
  ReplicationPolicy policy;
};

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, ReplicaConvergesAtEveryGeometry) {
  const auto& p = GetParam();
  const std::uint64_t blocks = 32;
  auto primary = std::make_shared<MemDisk>(blocks, p.block_size);
  EngineConfig config;
  config.policy = p.policy;
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  auto replica_disk = std::make_shared<MemDisk>(blocks, p.block_size);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });

  Rng rng(p.block_size + static_cast<int>(p.policy));
  Bytes block(p.block_size);
  for (int i = 0; i < 60; ++i) {
    const Lba lba = rng.next_below(blocks);
    ASSERT_TRUE(engine->read(lba, block).is_ok());
    // Partial update of ~1/16 of the block.
    const std::size_t len = std::max<std::size_t>(1, p.block_size / 16);
    rng.fill(MutByteSpan(block).subspan(rng.next_below(p.block_size - len + 1),
                                        len));
    ASSERT_TRUE(engine->write(lba, block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  Bytes a(p.block_size), b(p.block_size);
  for (Lba lba = 0; lba < blocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  engine.reset();
  server.join();
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint32_t bs : {512u, 4096u, 8192u, 16384u, 65536u}) {
    for (ReplicationPolicy policy : {ReplicationPolicy::kTraditional,
                                     ReplicationPolicy::kTraditionalCompressed,
                                     ReplicationPolicy::kPrins,
                                     ReplicationPolicy::kPrinsRle}) {
      cases.push_back(SweepCase{bs, policy});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Geometries, EngineSweep,
                         ::testing::ValuesIn(sweep_cases()));

TEST(EngineTest, PrinsTrafficBeatsTraditionalOnPartialWrites) {
  // Partial-block change: flip 5% of a block; PRINS payload must be far
  // smaller than the traditional full block.
  std::uint64_t traditional_bytes = 0, prins_bytes = 0;
  for (ReplicationPolicy policy : {ReplicationPolicy::kTraditional,
                                   ReplicationPolicy::kPrins}) {
    Rig rig(policy);
    Bytes block = random_block(4);
    ASSERT_TRUE(rig.engine->write(0, block).is_ok());
    for (int i = 0; i < 50; ++i) {
      // Change 50 bytes of the 1 KB block.
      Rng rng(100 + i);
      rng.fill(MutByteSpan(block).subspan(100, 50));
      ASSERT_TRUE(rig.engine->write(0, block).is_ok());
    }
    ASSERT_TRUE(rig.engine->drain().is_ok());
    EXPECT_TRUE(rig.devices_match());
    const auto sent = rig.meter->sent();
    if (policy == ReplicationPolicy::kTraditional) {
      traditional_bytes = sent.payload_bytes;
    } else {
      prins_bytes = sent.payload_bytes;
    }
  }
  EXPECT_LT(prins_bytes * 4, traditional_bytes);
}

TEST(EngineTest, DirtyBytesMetricTracksActualChange) {
  Rig rig(ReplicationPolicy::kPrins);
  Bytes block(kBs, 0);
  ASSERT_TRUE(rig.engine->write(0, block).is_ok());
  block[10] = 1;
  block[20] = 2;
  block[30] = 3;
  ASSERT_TRUE(rig.engine->write(0, block).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  const auto metrics = rig.engine->metrics();
  EXPECT_EQ(metrics.dirty_bytes.max(), 3u);  // exactly three bytes changed
}

TEST(EngineTest, FullSyncBringsBlankReplicaInSync) {
  Rig rig(ReplicationPolicy::kPrins);
  // Scribble on the primary directly (before replication).
  Rng rng(5);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(rig.primary_disk->write(lba, random_block(3000 + lba)).is_ok());
  }
  EXPECT_FALSE(rig.devices_match());
  ASSERT_TRUE(rig.engine->full_sync().is_ok());
  EXPECT_TRUE(rig.devices_match());
  EXPECT_EQ(rig.replica->metrics().sync_blocks, kBlocks);
}

TEST(EngineTest, ParityReplicationRequiresSyncedReplica) {
  // Without initial sync, parity applied to a divergent block yields
  // garbage — and verify_and_repair must detect and fix every mismatch.
  Rig rig(ReplicationPolicy::kPrins);
  ASSERT_TRUE(rig.primary_disk->write(0, random_block(6)).is_ok());
  // Replica missed that write; now replicate a parity update on top.
  ASSERT_TRUE(rig.engine->write(0, random_block(7)).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_FALSE(rig.devices_match());

  auto repaired = rig.engine->verify_and_repair(0, kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 1u);
  EXPECT_TRUE(rig.devices_match());
}

TEST(EngineTest, VerifyAndRepairFixesScatteredCorruption) {
  Rig rig(ReplicationPolicy::kPrins);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(rig.engine->write(i, random_block(4000 + i)).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());
  // Corrupt 5 replica blocks behind the engine's back.
  for (Lba lba : {3ull, 17ull, 31ull, 32ull, 60ull}) {
    ASSERT_TRUE(rig.replica_disk->write(lba, random_block(9000 + lba)).is_ok());
  }
  auto repaired = rig.engine->verify_and_repair(0, kBlocks);
  ASSERT_TRUE(repaired.is_ok());
  EXPECT_EQ(*repaired, 5u);
  EXPECT_TRUE(rig.devices_match());
  EXPECT_EQ(rig.replica->metrics().repairs, 5u);
  // Clean state: a second verify repairs nothing.
  auto again = rig.engine->verify_and_repair(0, kBlocks);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(*again, 0u);
}

TEST(EngineTest, HierarchicalVerifyFindsAndFixesCorruption) {
  Rig rig(ReplicationPolicy::kPrins);
  for (int i = 0; i < static_cast<int>(kBlocks); ++i) {
    ASSERT_TRUE(rig.engine->write(i, random_block(5000 + i)).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());
  // Corrupt 3 scattered replica blocks.
  for (Lba lba : {5ull, 64ull, 120ull}) {
    ASSERT_TRUE(rig.replica_disk->write(lba, random_block(7000 + lba)).is_ok());
  }
  auto repaired = rig.engine->verify_and_repair_hierarchical(0, kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 3u);
  EXPECT_TRUE(rig.devices_match());
  // Clean pass repairs nothing.
  auto again = rig.engine->verify_and_repair_hierarchical(0, kBlocks);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(*again, 0u);
}

TEST(EngineTest, HierarchicalVerifyUsesFarLessTrafficWhenClean) {
  // On a synced pair, the Merkle audit should exchange a handful of
  // fingerprints instead of one checksum per block.
  std::uint64_t flat_bytes = 0, merkle_bytes = 0;
  for (int mode = 0; mode < 2; ++mode) {
    Rig rig(ReplicationPolicy::kPrins);
    for (int i = 0; i < static_cast<int>(kBlocks); ++i) {
      ASSERT_TRUE(rig.engine->write(i, random_block(100 + i)).is_ok());
    }
    ASSERT_TRUE(rig.engine->drain().is_ok());
    const std::uint64_t before = rig.meter->sent().payload_bytes;
    auto repaired = mode == 0
                        ? rig.engine->verify_and_repair(0, kBlocks)
                        : rig.engine->verify_and_repair_hierarchical(0, kBlocks);
    ASSERT_TRUE(repaired.is_ok());
    EXPECT_EQ(*repaired, 0u);
    const std::uint64_t used = rig.meter->sent().payload_bytes - before;
    (mode == 0 ? flat_bytes : merkle_bytes) = used;
  }
  EXPECT_LT(merkle_bytes * 10, flat_bytes)
      << "merkle=" << merkle_bytes << " flat=" << flat_bytes;
}

TEST(EngineTest, HierarchicalVerifyRangeChecked) {
  Rig rig(ReplicationPolicy::kPrins);
  EXPECT_FALSE(
      rig.engine->verify_and_repair_hierarchical(0, kBlocks + 1).is_ok());
}

TEST(EngineTest, VerifyRangeChecked) {
  Rig rig(ReplicationPolicy::kPrins);
  EXPECT_FALSE(rig.engine->verify_and_repair(0, kBlocks + 1).is_ok());
  EXPECT_FALSE(rig.engine->verify_and_repair(kBlocks, 1).is_ok());
}

TEST(EngineTest, ReadsPassThrough) {
  Rig rig(ReplicationPolicy::kPrins);
  const Bytes data = random_block(8);
  ASSERT_TRUE(rig.engine->write(5, data).is_ok());
  Bytes out(kBs);
  ASSERT_TRUE(rig.engine->read(5, out).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(rig.engine->block_size(), kBs);
  EXPECT_EQ(rig.engine->num_blocks(), kBlocks);
}

TEST(EngineTest, FlushDrainsBeforeReturning) {
  Rig rig(ReplicationPolicy::kPrins);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(rig.engine->write(i % kBlocks, random_block(5000 + i)).is_ok());
  }
  ASSERT_TRUE(rig.engine->flush().is_ok());
  // After flush every write must be acked and applied.
  EXPECT_EQ(rig.engine->metrics().acks, 100u);
  EXPECT_TRUE(rig.devices_match());
}

TEST(EngineTest, MultipleReplicasAllConverge) {
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  struct Node {
    std::shared_ptr<MemDisk> disk;
    std::shared_ptr<ReplicaEngine> replica;
    std::thread server;
  };
  std::vector<Node> nodes(3);
  for (auto& node : nodes) {
    node.disk = std::make_shared<MemDisk>(kBlocks, kBs);
    node.replica = std::make_shared<ReplicaEngine>(node.disk);
    auto [primary_end, replica_end] = make_inproc_pair();
    engine->add_replica(std::move(primary_end));
    node.server =
        std::thread([r = node.replica,
                     t = std::shared_ptr<Transport>(std::move(replica_end))] {
          ASSERT_TRUE(r->serve(*t).is_ok());
        });
  }

  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine->write(rng.next_below(kBlocks), random_block(6000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(engine->metrics().acks, 300u);  // 100 writes × 3 replicas

  Bytes a(kBs), b(kBs);
  for (auto& node : nodes) {
    for (Lba lba = 0; lba < kBlocks; ++lba) {
      ASSERT_TRUE(primary->read(lba, a).is_ok());
      ASSERT_TRUE(node.disk->read(lba, b).is_ok());
      ASSERT_EQ(a, b) << "lba " << lba;
    }
  }
  engine.reset();
  for (auto& node : nodes) node.server.join();
}

TEST(EngineTest, RaidTapSuppliesParityWithoutExtraReads) {
  // Engine over a RAID-5 array: P' comes from the array's small-write
  // path, so the engine performs no additional read of the old data.
  std::vector<std::shared_ptr<BlockDevice>> members;
  for (int i = 0; i < 4; ++i) {
    members.push_back(std::make_shared<MemDisk>(64, kBs));
  }
  auto array_or = RaidArray::create(RaidLevel::kRaid5, members);
  ASSERT_TRUE(array_or.is_ok());
  auto array = std::shared_ptr<RaidArray>(std::move(*array_or));

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(array, config);

  auto replica_disk = std::make_shared<MemDisk>(array->num_blocks(), kBs);
  // Initial sync: copy the (all-zero) array image — both start zeroed.
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });

  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    const Lba lba = rng.next_below(array->num_blocks());
    ASSERT_TRUE(engine->write(lba, random_block(7000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < array->num_blocks(); ++lba) {
    ASSERT_TRUE(array->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  // The array's parity is still internally consistent.
  auto bad = array->scrub();
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(*bad, 0u);

  engine.reset();
  server.join();
}

TEST(EngineTest, Raid6TapSuppliesParityToo) {
  // The PRINS-for-free property holds on the erasure-coded substrate:
  // RAID-6's small-write path feeds the engine its deltas.
  std::vector<std::shared_ptr<BlockDevice>> members;
  for (int i = 0; i < 5; ++i) {
    members.push_back(std::make_shared<MemDisk>(32, kBs));
  }
  auto array_or = Raid6Array::create(std::move(members));
  ASSERT_TRUE(array_or.is_ok());
  auto array = std::shared_ptr<Raid6Array>(std::move(*array_or));

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(array, config);

  auto replica_disk = std::make_shared<MemDisk>(array->num_blocks(), kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });

  Rng rng(13);
  for (int i = 0; i < 80; ++i) {
    const Lba lba = rng.next_below(array->num_blocks());
    ASSERT_TRUE(engine->write(lba, random_block(9000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < array->num_blocks(); ++lba) {
    ASSERT_TRUE(array->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  auto bad = array->scrub();
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(*bad, 0u);

  engine.reset();
  server.join();
}

TEST(EngineTest, WriteErrorsFromLocalDeviceSurfaceImmediately) {
  Rig rig(ReplicationPolicy::kPrins);
  Bytes block(kBs);
  EXPECT_EQ(rig.engine->write(kBlocks, block).code(), ErrorCode::kOutOfRange);
  Bytes bad_size(kBs / 2);
  EXPECT_EQ(rig.engine->write(0, bad_size).code(),
            ErrorCode::kInvalidArgument);
}

TEST(EngineTest, ReplicaFailureSurfacesViaDrain) {
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  replica_end->close();  // replica "crashes" before serving anything

  ASSERT_TRUE(engine->write(0, random_block(11)).is_ok());
  EXPECT_FALSE(engine->drain().is_ok());
}

TEST(EngineTest, PipelinedReplicationStaysConsistent) {
  // A deep pipeline window must preserve ordering and converge replicas,
  // including repeated writes to the same hot block within one window.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = 16;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });

  Rng rng(12);
  for (int i = 0; i < 400; ++i) {
    // Hot block 0 half the time: consecutive deltas in the same window.
    const Lba lba = rng.next_bool(0.5) ? 0 : rng.next_below(kBlocks);
    ASSERT_TRUE(engine->write(lba, random_block(8000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(engine->metrics().acks, 400u);

  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  engine.reset();
  server.join();
}

TEST(EngineTest, WindowWiderThanTheTransportBuffersDoesNotWedge) {
  // A window of 16 over a pair that buffers one message per direction.
  // The engine's sends come from the loop the link is bound to, so they
  // never wait on the pipe's capacity, and replies reach the handler while
  // a round is still going out: the replica keeps reading and every send
  // completes.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = 16;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  ReplicaConfig replica_config;
  replica_config.apply_shards = 4;
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, replica_config);
  auto [primary_end, replica_end] = make_inproc_pair(/*capacity=*/1);
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });

  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks),
                              random_block(9000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(engine->metrics().acks, 2000u);
  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  engine.reset();
  server.join();
}

TEST(EngineTest, ResyncDoesNotTakeAStaleAckForItsLastFrame) {
  // The replica answers the hello twice (a resent hello's second answer),
  // then never acks the last folded frame.  Each fold frame must wait for
  // the ack of its own sequence: counting acks instead would take the
  // spare hello ack for frame 1, frame 1's for frame 2, ... and report the
  // unacknowledged last frame as delivered.
  constexpr int kFolds = 4;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  config.retry.max_attempts = 1;
  config.retry.op_timeout = std::chrono::milliseconds(50);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  // Written before the replica attaches: its resync folds every block.
  for (Lba lba = 0; lba < kFolds; ++lba) {
    ASSERT_TRUE(engine->write(lba, random_block(700 + lba)).is_ok());
  }

  auto [primary_end, replica_end] = make_inproc_pair();
  std::set<std::uint64_t> folds;
  std::uint64_t withheld = 0;
  std::thread replica = scripted_replica(
      std::move(replica_end), [&](const ReplicationMessage& request) {
        std::vector<ReplicationMessage> replies;
        if (request.kind == MessageKind::kHello) {
          replies = {ack_of(request.sequence), ack_of(request.sequence)};
        } else if (request.kind == MessageKind::kWrite) {
          folds.insert(request.sequence);
          if (folds.size() == kFolds && withheld == 0) {
            withheld = request.sequence;
          }
          if (request.sequence != withheld) {
            replies = {ack_of(request.sequence)};
          }
        }
        return replies;
      });
  engine->add_replica(std::move(primary_end));

  auto resynced = engine->resync_replica(0);
  EXPECT_FALSE(resynced.is_ok())
      << "resync reported " << *resynced << " blocks delivered";
  engine.reset();
  replica.join();
  EXPECT_EQ(folds.size(), static_cast<std::size_t>(kFolds));
}

TEST(EngineTest, VerifySkipsAStaleAckAheadOfItsReply) {
  // A duplicate ack of an earlier write reaches the primary just before
  // the verify reply.  The verify must skip it, take its own reply, and
  // repair the block the replica reports.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.retry.op_timeout = std::chrono::seconds(5);
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto [primary_end, replica_end] = make_inproc_pair();
  std::atomic<std::uint64_t> last_write{0};
  std::atomic<int> repairs{0};
  std::thread replica = scripted_replica(
      std::move(replica_end), [&](const ReplicationMessage& request) {
        std::vector<ReplicationMessage> replies;
        switch (request.kind) {
          case MessageKind::kWrite:
            last_write = request.sequence;
            replies = {ack_of(request.sequence)};
            break;
          case MessageKind::kVerifyRequest: {
            ReplicationMessage verdict;
            verdict.kind = MessageKind::kVerifyReply;
            verdict.sequence = request.sequence;
            verdict.payload = pack_lbas({5});
            replies = {ack_of(last_write), verdict};
            break;
          }
          case MessageKind::kRepairBlock:
            ++repairs;
            replies = {ack_of(request.sequence)};
            break;
          default:
            break;
        }
        return replies;
      });
  engine->add_replica(std::move(primary_end));

  for (Lba lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(engine->write(lba, random_block(800 + lba)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  auto repaired = engine->verify_and_repair(0, 8);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 1u);
  EXPECT_EQ(repairs.load(), 1);
  engine.reset();
  replica.join();
}

TEST(EngineTest, StalledReplicaDoesNotHoldUpAnotherReplicasAcks) {
  // Replica 1 takes nothing off a link that buffers one message.  The
  // engine's window of 8 to it must go out without waiting on capacity:
  // the loop that sends it also carries replica 0's pumps and acks.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = 8;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [live_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(live_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        (void)r->serve(*t);
      });
  auto [stalled_end, unread_end] = make_inproc_pair(/*capacity=*/1);
  engine->add_replica(std::move(stalled_end));

  constexpr Lba kWrites = 16;
  for (Lba lba = 0; lba < kWrites; ++lba) {
    ASSERT_TRUE(engine->write(lba, random_block(1200 + lba)).is_ok());
  }
  const auto replica_caught_up = [&] {
    Bytes a(kBs), b(kBs);
    for (Lba lba = 0; lba < kWrites; ++lba) {
      if (!primary->read(lba, a).is_ok() || !replica_disk->read(lba, b).is_ok()
          || a != b) {
        return false;
      }
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!replica_caught_up() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(replica_caught_up());

  unread_end->close();  // the stalled replica goes away: teardown is prompt
  engine.reset();
  server.join();
}

TEST(EngineTest, IdleTcpLinkWhosePeerClosedFailsTheNextWrite) {
  // A TCP link (no op_timeout, no self-heal) whose replica goes away
  // between writes.  Its close is seen while no round is open; the next
  // write must still fail, not wait forever for a reply that cannot come.
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  auto listener = ReactorListener::listen(*pool, 0);
  ASSERT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  std::shared_ptr<Transport> served;
  std::promise<void> accepted;
  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    served = std::move(*conn);
    accepted.set_value();
    (void)replica->serve(*served);
  });
  auto link = ReactorTcpTransport::connect((*pool)->at(0).shared_from_this(),
                                           "127.0.0.1", (*listener)->port());
  ASSERT_TRUE(link.is_ok()) << link.status().to_string();
  accepted.get_future().wait();

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  engine->add_replica(std::move(*link));
  ASSERT_TRUE(engine->write(1, random_block(1300)).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());

  served->close();  // the replica dies while the link is idle
  server.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // EOF lands

  (void)engine->write(2, random_block(1301));  // may already see the error
  auto drained = std::async(std::launch::async, [&] { return engine->drain(); });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "drain() hung on a dead link";
  EXPECT_FALSE(drained.get().is_ok());
}

/// A decorator that forgets to forward underlying(): the HandlerTransport
/// behind it is out of the engine's reach.  Counts what was sent through.
class OpaqueTransport final : public Transport {
 public:
  OpaqueTransport(std::unique_ptr<Transport> inner,
                  std::shared_ptr<std::atomic<int>> sends)
      : inner_(std::move(inner)), sends_(std::move(sends)) {}

  Status send(ByteSpan message) override {
    ++*sends_;
    return inner_->send(message);
  }
  Result<Bytes> recv() override { return inner_->recv(); }
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return inner_->recv_for(timeout);
  }
  void close() override { inner_->close(); }
  std::string describe() const override { return "opaque"; }

 private:
  std::unique_ptr<Transport> inner_;
  std::shared_ptr<std::atomic<int>> sends_;
};

void add_opaque_replica() {
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  PrinsEngine engine(primary, EngineConfig{});
  auto [primary_end, replica_end] = make_inproc_pair();
  engine.add_replica(std::make_unique<OpaqueTransport>(
      std::move(primary_end), std::make_shared<std::atomic<int>>(0)));
}

TEST(EngineDeathTest, AddReplicaAbortsOnALinkThatHidesItsHandlers) {
  // The engine runs a loop thread: re-execute rather than fork it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(add_opaque_replica(), "hides its HandlerTransport");
}

TEST(EngineTest, ReattachRefusesALinkThatHidesItsHandlers) {
  Rig rig(ReplicationPolicy::kPrins);
  auto [primary_end, replica_end] = make_inproc_pair();
  auto sends = std::make_shared<std::atomic<int>>(0);
  const Status refused = rig.engine->reattach_replica(
      0, std::make_unique<OpaqueTransport>(std::move(primary_end), sends));
  EXPECT_EQ(refused.code(), ErrorCode::kInvalidArgument)
      << refused.to_string();
  // The old link stays in place and keeps replicating.
  ASSERT_TRUE(rig.engine->write(4, random_block(1400)).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_TRUE(rig.devices_match());
  EXPECT_EQ(sends->load(), 0);
}

TEST(EngineTest, HealFailsAnAttemptWhoseLinkHidesItsHandlers) {
  // The first two reconnects come back wrapped in a decorator that hides
  // the pipe's handlers: each fails its heal attempt without a byte sent
  // through it, and the third, plain reconnect heals the link.
  InprocNetwork network;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto listener_or = network.listen("replica");
  ASSERT_TRUE(listener_or.is_ok());
  auto listener = std::shared_ptr<Listener>(std::move(*listener_or));
  std::thread server = replica_serve_in_background(replica, listener);

  auto calls = std::make_shared<std::atomic<int>>(0);
  auto opaque_sends = std::make_shared<std::atomic<int>>(0);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  config.retry.max_attempts = 2;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.max_backoff = std::chrono::milliseconds(5);
  config.retry.op_timeout = std::chrono::milliseconds(500);
  config.reconnect = [&network, calls, opaque_sends](
                         std::size_t) -> Result<std::unique_ptr<Transport>> {
    auto fresh = network.connect("replica");
    if (!fresh.is_ok() || calls->fetch_add(1) >= 2) return fresh;
    return std::unique_ptr<Transport>(
        std::make_unique<OpaqueTransport>(std::move(*fresh), opaque_sends));
  };
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto raw = network.connect("replica");
    ASSERT_TRUE(raw.is_ok());
    FaultConfig faults;
    faults.disconnect_after = 20;  // hard cut partway through the run
    engine->add_replica(
        std::make_unique<FaultyTransport>(std::move(*raw), faults));
  }
  for (Lba i = 0; i < 60; ++i) {
    ASSERT_TRUE(engine->write(i % kBlocks, random_block(1500 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());  // blocks until the heal lands

  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  EXPECT_GE(calls->load(), 3);
  EXPECT_EQ(opaque_sends->load(), 0);
  EXPECT_EQ(engine->metrics().reconnects, 1u);
  engine.reset();
  listener->close();
  server.join();
}

TEST(EngineTest, ConnectionLossNeverReplaysAFullBlockOverItsSuccessor) {
  // Full-block policy, a window of 4: write A1 to LBA 5 is lost, its
  // successor A2 to LBA 5 is acked, then the connection drops.  The healed
  // link replays the open round, so A1 reaches the replica after A2; the
  // replica must see that A1 is superseded and keep A2.
  constexpr Lba kHot = 5;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  InprocNetwork network;
  auto healed = network.listen("replica");
  ASSERT_TRUE(healed.is_ok());
  auto shared_listener = std::shared_ptr<Listener>(std::move(*healed));
  std::thread heal_server = replica_serve_in_background(replica, shared_listener);

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kTraditional;
  config.pipeline_depth = 4;
  config.keep_trap_log = true;
  config.retry.op_timeout = std::chrono::seconds(10);
  config.reconnect = [&](std::size_t) { return network.connect("replica"); };
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  // The first link: holds the first write's ack until both hot writes are
  // queued behind it (so they share the next round), never acks the first
  // hot write, acks the second, then hangs up.  The hot writes wait until
  // the first write is on the wire, so it travels alone in the first round.
  auto [primary_end, replica_end] = make_inproc_pair();
  std::promise<void> first_sent;
  std::promise<void> hot_queued;
  std::shared_future<void> queued = hot_queued.get_future().share();
  std::thread first_link([&, t = std::move(replica_end)] {
    int writes = 0;
    for (;;) {
      auto wire = t->recv();
      if (!wire.is_ok()) return;
      auto request = ReplicationMessage::decode(*wire);
      ASSERT_TRUE(request.is_ok());
      ++writes;
      if (writes == 1) {
        first_sent.set_value();
        queued.wait();
      }
      if (writes == 2) continue;  // lost
      auto reply = replica->apply(*request);
      ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
      ASSERT_TRUE(t->send(reply->encode()).is_ok());
      if (writes == 3) {
        t->close();
        return;
      }
    }
  });
  engine->add_replica(std::move(primary_end));

  ASSERT_TRUE(engine->write(0, random_block(1400)).is_ok());
  first_sent.get_future().wait();
  ASSERT_TRUE(engine->write(kHot, random_block(1401)).is_ok());
  ASSERT_TRUE(engine->write(kHot, random_block(1402)).is_ok());
  hot_queued.set_value();
  first_link.join();

  const Status drained = engine->drain();
  Bytes a(kBs), b(kBs);
  ASSERT_TRUE(primary->read(kHot, a).is_ok());
  ASSERT_TRUE(replica_disk->read(kHot, b).is_ok());
  EXPECT_TRUE(!drained.is_ok() || a == b)
      << "the replica silently holds an older block " << kHot;
  EXPECT_TRUE(drained.is_ok()) << drained.to_string();
  EXPECT_GE(engine->metrics().auto_resyncs, 1u);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    EXPECT_TRUE(primary->read(lba, a).is_ok());
    EXPECT_TRUE(replica_disk->read(lba, b).is_ok());
    EXPECT_EQ(a == b, true) << "volumes differ at lba " << lba;
  }
  engine.reset();
  shared_listener->close();
  heal_server.join();
}

TEST(EngineTest, ExhaustedRetriesReplayAnOlderUnackedWriteOnTheHealedLink) {
  // One round carries W1 (LBA 1) and W2 (LBA 2).  The first link loses W1,
  // applies and acks W2, then goes silent, so the retries run out with the
  // older write un-acked behind a newer acked one (what out-of-order acks
  // from a striped replica look like).  The healed link must still deliver
  // W1: a catch-up that starts from the newest acked write would skip it.
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  InprocNetwork network;
  auto listener_or = network.listen("replica");
  ASSERT_TRUE(listener_or.is_ok());
  auto listener = std::shared_ptr<Listener>(std::move(*listener_or));
  std::thread heal_server = replica_serve_in_background(replica, listener);

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = 4;
  config.keep_trap_log = true;
  config.retry.max_attempts = 1;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.max_backoff = std::chrono::milliseconds(5);
  config.retry.op_timeout = std::chrono::milliseconds(50);
  config.reconnect = [&](std::size_t) { return network.connect("replica"); };
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  // The first link holds W0's ack until W1 and W2 are queued behind it, so
  // those two share the next round.
  auto [primary_end, replica_end] = make_inproc_pair();
  std::promise<void> first_sent;
  std::promise<void> pair_queued;
  std::shared_future<void> queued = pair_queued.get_future().share();
  std::thread first_link([&, t = std::move(replica_end)] {
    int writes = 0;
    for (;;) {
      auto wire = t->recv();
      if (!wire.is_ok()) return;  // the heal closed this link
      auto request = ReplicationMessage::decode(*wire);
      ASSERT_TRUE(request.is_ok());
      ++writes;
      if (writes == 1) {
        first_sent.set_value();
        queued.wait();
      }
      if (writes == 2 || writes > 3) continue;  // W1 lost, then silence
      auto reply = replica->apply(*request);
      ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
      ASSERT_TRUE(t->send(reply->encode()).is_ok());
    }
  });
  engine->add_replica(std::move(primary_end));

  ASSERT_TRUE(engine->write(0, random_block(1600)).is_ok());
  first_sent.get_future().wait();
  ASSERT_TRUE(engine->write(1, random_block(1601)).is_ok());
  ASSERT_TRUE(engine->write(2, random_block(1602)).is_ok());
  pair_queued.set_value();

  EXPECT_TRUE(engine->drain().is_ok());
  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    EXPECT_TRUE(primary->read(lba, a).is_ok());
    EXPECT_TRUE(replica_disk->read(lba, b).is_ok());
    EXPECT_EQ(a == b, true) << "the healed replica misses lba " << lba;
  }
  EXPECT_GE(engine->metrics().auto_resyncs, 1u);
  engine.reset();
  first_link.join();
  listener->close();
  heal_server.join();
}

TEST(EngineTest, CoalescedReplicationConvergesOnHotBlock) {
  // With coalescing on and a stalled link, back-to-back deltas to the same
  // LBA XOR-fold in the outbox: far fewer wire messages, every write still
  // acknowledged, and the replica converges byte-for-byte.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.coalesce_writes = true;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  // Capacity-1 pipe: the sender wedges on the first message until the
  // server starts, so the remaining writes must queue (and fold).
  // (Stop-and-wait only: a window deeper than the pipe would deadlock.)
  auto [primary_end, replica_end] = make_inproc_pair(1);
  auto metered = std::make_unique<TrafficMeter>(std::move(primary_end));
  TrafficMeter* meter = metered.get();
  engine->add_replica(std::move(metered));

  constexpr int kBurst = 60;
  for (int i = 0; i < kBurst; ++i) {
    // Hot block 5, plus an occasional cold block in between.
    ASSERT_TRUE(engine->write(5, random_block(4100 + i)).is_ok());
    if (i % 20 == 10) {
      ASSERT_TRUE(engine->write(40 + i, random_block(4200 + i)).is_ok());
    }
  }

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });
  ASSERT_TRUE(engine->drain().is_ok());

  const auto metrics = engine->metrics();
  EXPECT_EQ(metrics.writes, kBurst + 3u);
  EXPECT_EQ(metrics.acks, kBurst + 3u);  // folded ACKs cover every write
  // The hot block's deltas folded: only a handful of messages hit the
  // wire (a few may escape before the pipe wedges).
  EXPECT_LT(meter->sent().messages, kBurst / 2u);

  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  engine.reset();
  server.join();
}

TEST(EngineTest, CoalescingLastWriteWinsForFullBlockPolicies) {
  // Traditional policies ship whole blocks, so folding is last-write-wins
  // instead of XOR — the replica must land on the final image.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kTraditional;
  config.coalesce_writes = true;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto [primary_end, replica_end] = make_inproc_pair(1);
  auto metered = std::make_unique<TrafficMeter>(std::move(primary_end));
  TrafficMeter* meter = metered.get();
  engine->add_replica(std::move(metered));

  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(engine->write(9, random_block(4300 + i)).is_ok());
  }

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        ASSERT_TRUE(r->serve(*t).is_ok());
      });
  ASSERT_TRUE(engine->drain().is_ok());

  EXPECT_EQ(engine->metrics().acks, static_cast<std::uint64_t>(kBurst));
  EXPECT_LT(meter->sent().messages, kBurst / 2u);
  Bytes out(kBs);
  ASSERT_TRUE(replica_disk->read(9, out).is_ok());
  EXPECT_EQ(out, random_block(4300 + kBurst - 1));  // the final image
  engine.reset();
  server.join();
}

TEST(EngineTest, CoalescingWithMultipleReplicasConvergesAll) {
  // Each link folds independently (copy-on-write payloads): two stalled
  // replicas, both converge, and every write is acked on both.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.coalesce_writes = true;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  struct Node {
    std::shared_ptr<MemDisk> disk;
    std::shared_ptr<ReplicaEngine> replica;
    std::unique_ptr<Transport> far_end;
    std::thread server;
  };
  std::vector<Node> nodes(2);
  for (auto& node : nodes) {
    node.disk = std::make_shared<MemDisk>(kBlocks, kBs);
    node.replica = std::make_shared<ReplicaEngine>(node.disk);
    auto [primary_end, replica_end] = make_inproc_pair(1);
    engine->add_replica(std::move(primary_end));
    node.far_end = std::move(replica_end);
  }

  Rng rng(21);
  constexpr int kWrites = 120;
  for (int i = 0; i < kWrites; ++i) {
    // Three hot blocks: plenty of same-LBA folding on both links.
    ASSERT_TRUE(
        engine->write(rng.next_below(3), random_block(4400 + i)).is_ok());
  }
  for (auto& node : nodes) {
    node.server = std::thread(
        [r = node.replica,
         t = std::shared_ptr<Transport>(std::move(node.far_end))] {
          ASSERT_TRUE(r->serve(*t).is_ok());
        });
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(engine->metrics().acks, kWrites * 2u);

  Bytes a(kBs), b(kBs);
  for (auto& node : nodes) {
    for (Lba lba = 0; lba < kBlocks; ++lba) {
      ASSERT_TRUE(primary->read(lba, a).is_ok());
      ASSERT_TRUE(node.disk->read(lba, b).is_ok());
      ASSERT_EQ(a, b) << "lba " << lba;
    }
  }
  engine.reset();
  for (auto& node : nodes) node.server.join();
}

TEST(EngineTest, ReattachAndResyncAfterReplicaCrash) {
  // The full failure-recovery story: replica dies mid-stream, writes keep
  // landing locally, a fresh link is attached, and verify_and_repair
  // brings the (stale but intact) replica device back in sync.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);

  auto [first_primary_end, first_replica_end] = make_inproc_pair();
  engine->add_replica(std::move(first_primary_end));
  EXPECT_EQ(engine->replica_count(), 1u);
  std::thread first_server(
      [r = replica,
       t = std::shared_ptr<Transport>(std::move(first_replica_end))] {
        (void)r->serve(*t);
      });

  // Phase 1: healthy replication.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine->write(i, random_block(100 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  // Phase 2: the replica "crashes" — its serve loop ends.
  // (Simulate by closing the engine-side transport via reattach of a
  // dead pair whose far end is immediately dropped.)
  {
    auto [dead_primary_end, dead_replica_end] = make_inproc_pair();
    dead_replica_end->close();
    ASSERT_TRUE(
        engine->reattach_replica(0, std::move(dead_primary_end)).is_ok());
  }
  first_server.join();

  // Writes during the outage land locally; replication reports failure.
  for (int i = 20; i < 40; ++i) {
    (void)engine->write(i, random_block(200 + i));
  }
  EXPECT_FALSE(engine->drain().is_ok());

  // Phase 3: reattach a live link to the same (stale) replica device.
  auto [second_primary_end, second_replica_end] = make_inproc_pair();
  ASSERT_TRUE(
      engine->reattach_replica(0, std::move(second_primary_end)).is_ok());
  std::thread second_server(
      [r = replica,
       t = std::shared_ptr<Transport>(std::move(second_replica_end))] {
        (void)r->serve(*t);
      });

  // New writes flow again...
  for (int i = 40; i < 50; ++i) {
    ASSERT_TRUE(engine->write(i, random_block(300 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  // ...and the checksum resync repairs exactly the outage window.
  auto repaired = engine->verify_and_repair(0, kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_GT(*repaired, 0u);
  EXPECT_LE(*repaired, 20u);

  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  EXPECT_FALSE(engine->reattach_replica(5, nullptr).is_ok());

  engine.reset();
  second_server.join();
}

TEST(EngineTest, ConcurrentWritersStayConsistent) {
  // Many application threads hammering overlapping blocks: the engine
  // must serialize the read-old/diff/enqueue section so the replica's
  // XOR chain telescopes correctly.
  Rig rig(ReplicationPolicy::kPrins);
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 150;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(7000 + t);
      Bytes block(kBs);
      for (int i = 0; i < kWritesPerThread; ++i) {
        rng.fill(block);
        // Deliberately contend on a few hot blocks.
        const Lba lba = rng.next_below(8);
        if (!rig.engine->write(lba, block).is_ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(rig.engine->drain().is_ok());
  EXPECT_EQ(rig.engine->metrics().writes,
            static_cast<std::uint64_t>(kThreads) * kWritesPerThread);
  EXPECT_TRUE(rig.devices_match());
}

TEST(EngineTest, DeltaResyncShipsOnlyFoldedDeltas) {
  // The parity-log resync: after an outage, the replica gets ONE folded
  // delta per stale block — no full blocks, no checksum scan.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [first_primary_end, first_replica_end] = make_inproc_pair();
  auto first_meter = std::make_unique<TrafficMeter>(std::move(first_primary_end));
  engine->add_replica(std::move(first_meter));
  std::thread first_server(
      [r = replica,
       t = std::shared_ptr<Transport>(std::move(first_replica_end))] {
        (void)r->serve(*t);
      });

  // Healthy phase: several overwrites of a few hot blocks.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine->write(i % 5, random_block(100 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  // Outage: kill the link; more writes pile up in the parity log.
  {
    auto [dead_primary_end, dead_replica_end] = make_inproc_pair();
    dead_replica_end->close();
    ASSERT_TRUE(
        engine->reattach_replica(0, std::move(dead_primary_end)).is_ok());
  }
  first_server.join();
  for (int i = 0; i < 40; ++i) {
    (void)engine->write(10 + (i % 8), random_block(200 + i));  // 8 stale blocks
  }
  (void)engine->drain();

  // Reconnect and delta-resync.
  auto [second_primary_end, second_replica_end] = make_inproc_pair();
  auto second_meter =
      std::make_unique<TrafficMeter>(std::move(second_primary_end));
  TrafficMeter* meter = second_meter.get();
  ASSERT_TRUE(
      engine->reattach_replica(0, std::move(second_meter)).is_ok());
  std::thread second_server(
      [r = replica,
       t = std::shared_ptr<Transport>(std::move(second_replica_end))] {
        (void)r->serve(*t);
      });

  auto resynced = engine->resync_replica(0);
  ASSERT_TRUE(resynced.is_ok()) << resynced.status().to_string();
  // 8 distinct stale blocks (the 40 missed writes hit blocks 10..17); a
  // few early blocks may also resend if the outage raced the last acks.
  EXPECT_GE(*resynced, 8u);
  EXPECT_LE(*resynced, 13u);
  // One folded delta per stale block, plus the kHello that anchors the
  // fold base at the replica's true applied position.
  EXPECT_EQ(meter->sent().messages, *resynced + 1);

  // Replica now matches everywhere.
  Bytes a(kBs), b(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, a).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "lba " << lba;
  }
  // Idempotent: a second resync finds nothing stale.
  auto again = engine->resync_replica(0);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(*again, 0u);

  engine.reset();
  second_server.join();
}

TEST(EngineTest, ResyncRequiresTrapLog) {
  Rig rig(ReplicationPolicy::kPrins);
  EXPECT_EQ(rig.engine->resync_replica(0).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(EngineTest, LocalDiskFaultSurfacesOnWrite) {
  // A failing local device must fail the write before anything is
  // replicated — no phantom updates reach the replica.
  auto inner = std::make_shared<MemDisk>(kBlocks, kBs);
  FaultyDisk::Config faults;
  faults.write_error_p = 1.0;
  auto faulty = std::make_shared<FaultyDisk>(inner, faults);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(faulty, config);
  auto [primary_end, replica_end] = make_inproc_pair();
  auto meter = std::make_unique<TrafficMeter>(std::move(primary_end));
  TrafficMeter* traffic = meter.get();
  engine->add_replica(std::move(meter));

  EXPECT_FALSE(engine->write(0, random_block(1)).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());  // nothing was enqueued
  EXPECT_EQ(traffic->sent().messages, 0u);
  EXPECT_EQ(engine->metrics().writes, 0u);
  replica_end->close();
}

TEST(EngineTest, ReplicaDeviceFaultFailsTheSession) {
  // If the replica's local device dies, its serve loop must error out and
  // the primary must see the failure at drain time.
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kTraditional;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto inner = std::make_shared<MemDisk>(kBlocks, kBs);
  FaultyDisk::Config faults;
  faults.write_error_p = 1.0;
  auto faulty = std::make_shared<FaultyDisk>(inner, faults);
  auto replica = std::make_shared<ReplicaEngine>(faulty);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        EXPECT_FALSE(r->serve(*t).is_ok());  // apply fails -> serve errors
      });

  ASSERT_TRUE(engine->write(0, random_block(2)).is_ok());
  EXPECT_FALSE(engine->drain().is_ok());
  engine.reset();
  server.join();
}

TEST(EngineTest, GarbageOnTheWireIsRejectedNotApplied) {
  // A man-in-the-middle (or bit rot) corrupting a replication message
  // must not corrupt the replica: the CRC rejects it, the replica NAKs so
  // the primary can retransmit, and the session survives.
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [sender, replica_end] = make_inproc_pair();
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        EXPECT_TRUE(r->serve(*t).is_ok());  // clean disconnect, not an error
      });

  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kTraditional;
  msg.block_size = kBs;
  msg.lba = 3;
  msg.payload = encode_frame(codec_for(CodecId::kNull), random_block(3));
  Bytes wire = msg.encode();
  wire[wire.size() / 2] ^= 0xFF;  // corrupt in flight
  ASSERT_TRUE(sender->send(wire).is_ok());

  auto reply = sender->recv();
  ASSERT_TRUE(reply.is_ok());
  auto nak = ReplicationMessage::decode(*reply);
  ASSERT_TRUE(nak.is_ok());
  EXPECT_EQ(nak->kind, MessageKind::kNak);

  sender->close();
  server.join();

  Bytes out(kBs);
  ASSERT_TRUE(replica_disk->read(3, out).is_ok());
  EXPECT_TRUE(all_zero(out));  // the corrupt write never landed
  EXPECT_EQ(replica->metrics().writes_applied, 0u);
  EXPECT_EQ(replica->metrics().naks_sent, 1u);
}

TEST(ReplicaEngineTest, RejectsReplyKindMessages) {
  auto disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaEngine replica(disk);
  ReplicationMessage msg;
  msg.kind = MessageKind::kAck;
  EXPECT_FALSE(replica.apply(msg).is_ok());
}

TEST(ReplicaEngineTest, RejectsBlockSizeMismatch) {
  auto disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaEngine replica(disk);
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kTraditional;
  msg.block_size = kBs * 2;
  msg.payload = encode_frame(codec_for(CodecId::kNull), Bytes(kBs * 2, 1));
  EXPECT_FALSE(replica.apply(msg).is_ok());
}

TEST(ReplicaEngineTest, RejectsCorruptPayload) {
  // A payload whose codec frame fails its own integrity check is bounced
  // back as a NAK (echoing sequence + lba) instead of killing the session;
  // the device is never touched.
  auto disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaEngine replica(disk);
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kTraditional;
  msg.block_size = kBs;
  msg.sequence = 42;
  msg.lba = 5;
  msg.payload = encode_frame(codec_for(CodecId::kNull), Bytes(kBs, 1));
  msg.payload[8] ^= 0xFF;  // corrupt the codec frame body
  auto reply = replica.apply(msg);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, MessageKind::kNak);
  EXPECT_EQ(reply->sequence, 42u);
  EXPECT_EQ(reply->lba, 5u);
  EXPECT_EQ(replica.metrics().writes_applied, 0u);
  EXPECT_EQ(replica.metrics().naks_sent, 1u);

  Bytes out(kBs);
  ASSERT_TRUE(disk->read(5, out).is_ok());
  EXPECT_TRUE(all_zero(out));
}

TEST(ReplicaEngineTest, BarrierAcksWithoutWriting) {
  auto disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaEngine replica(disk);
  ReplicationMessage msg;
  msg.kind = MessageKind::kBarrier;
  msg.sequence = 77;
  auto ack = replica.apply(msg);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack->kind, MessageKind::kAck);
  EXPECT_EQ(ack->sequence, 77u);
  EXPECT_EQ(replica.metrics().writes_applied, 0u);
}

ReplicationMessage write_of(ReplicationPolicy policy, Lba lba,
                            std::uint64_t sequence, const Bytes& payload) {
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = policy;
  msg.block_size = kBs;
  msg.lba = lba;
  msg.sequence = sequence;
  msg.timestamp_us = sequence;
  msg.payload = encode_frame(payload_codec(policy), payload);
  return msg;
}

TEST(ReplicaEngineTest, SupersededFullBlockIsAckedNotWritten) {
  // A full block older than the one already applied at its LBA is a late
  // retransmission: writing it would roll the block back.
  auto disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaEngine replica(disk);
  const Bytes newer = random_block(7);
  const Bytes older = random_block(5);
  for (const auto& [sequence, block] :
       {std::pair{7u, newer}, std::pair{5u, older}}) {
    auto ack = replica.apply(
        write_of(ReplicationPolicy::kTraditional, 3, sequence, block));
    ASSERT_TRUE(ack.is_ok());
    EXPECT_EQ(ack->kind, MessageKind::kAck);
    EXPECT_EQ(ack->sequence, sequence);
  }
  Bytes out(kBs);
  ASSERT_TRUE(disk->read(3, out).is_ok());
  EXPECT_EQ(out, newer);
  EXPECT_EQ(replica.metrics().duplicates_dropped, 1u);
}

TEST(ReplicaEngineTest, OutOfOrderParityDeltasToOneBlockBothLand) {
  // Deltas commute, so an older delta arriving after a newer one to the
  // same LBA still applies.
  auto disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaEngine replica(disk);
  const Bytes d1 = random_block(5);
  const Bytes d2 = random_block(7);
  for (const auto& [sequence, delta] : {std::pair{7u, d2}, std::pair{5u, d1}}) {
    auto ack =
        replica.apply(write_of(ReplicationPolicy::kPrins, 3, sequence, delta));
    ASSERT_TRUE(ack.is_ok());
    EXPECT_EQ(ack->kind, MessageKind::kAck);
  }
  Bytes expected = d1;
  xor_into(expected, d2);
  Bytes out(kBs);
  ASSERT_TRUE(disk->read(3, out).is_ok());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(replica.metrics().duplicates_dropped, 0u);
}

}  // namespace
}  // namespace prins
