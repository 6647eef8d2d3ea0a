// Read offload: freshness-checked client reads from replicas and the
// load-aware read router.
//
// Covers the full offload contract end to end: the replica-side serve path
// (per-LBA applied table, lease floor, stale NAKs), the primary's conflict
// window classification, router fan-out with local fallback, a stale-read
// soak over a faulty link proving zero freshness violations at 100%
// availability, and epoch safety — a replica adopted by a promoted
// primary refuses the old primary's reads with kStaleEpoch.  Runs under
// the `read_scaling` ctest label so the CI sanitizer matrix sweeps it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "common/endian.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "prins/engine.h"
#include "prins/message.h"
#include "prins/read_router.h"
#include "prins/replica.h"

namespace prins {
namespace {

constexpr std::uint32_t kBs = 1024;
constexpr std::uint64_t kBlocks = 64;

Bytes pattern_block(std::uint64_t seed, std::size_t size = kBs) {
  Bytes block(size);
  Rng rng(seed + 1);
  rng.fill(block);
  return block;
}

ReplicationMessage client_read_request(Lba lba, std::uint64_t min_sequence,
                                       std::uint64_t exchange_id = 1,
                                       std::uint64_t epoch = 0) {
  ReplicationMessage req;
  req.kind = MessageKind::kClientReadRequest;
  req.cluster_epoch = epoch;
  req.block_size = kBs;
  req.lba = lba;
  req.sequence = exchange_id;
  append_le64(req.payload, min_sequence);
  return req;
}

/// Primary + one replica over in-proc links: a delta link the engine
/// replicates over, and (optionally faulty) read links for a ReadRouter.
struct OffloadRig {
  std::shared_ptr<MemDisk> primary_disk;
  std::shared_ptr<MemDisk> replica_disk;
  std::shared_ptr<ReplicaEngine> replica;
  std::shared_ptr<PrinsEngine> engine;
  std::shared_ptr<ReadRouter> router;
  std::vector<std::thread> serve_threads;

  explicit OffloadRig(ReadRouterConfig router_config = {},
                      FaultConfig* read_link_faults = nullptr) {
    primary_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    ReplicaConfig rconfig;
    rconfig.apply_shards = 2;
    replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);

    EngineConfig config;
    config.policy = ReplicationPolicy::kPrins;
    config.read_from_replicas = true;
    engine = std::make_shared<PrinsEngine>(primary_disk, config);
    auto [delta_client, delta_server] = make_inproc_pair();
    serve(std::move(delta_server));
    engine->add_replica(std::move(delta_client));

    router = std::make_shared<ReadRouter>(engine, router_config);
    auto [read_client, read_server] = make_inproc_pair();
    serve(std::move(read_server));
    std::unique_ptr<Transport> read_end = std::move(read_client);
    if (read_link_faults != nullptr) {
      read_end = std::make_unique<FaultyTransport>(std::move(read_end),
                                                   *read_link_faults);
    }
    router->add_read_replica(std::move(read_end));
  }

  void serve(std::unique_ptr<Transport> transport) {
    serve_threads.emplace_back(
        [r = replica, t = std::shared_ptr<Transport>(std::move(transport))] {
          (void)r->serve(*t);
        });
  }

  ~OffloadRig() {
    router.reset();  // closes the read link
    engine.reset();  // closes the delta link
    for (auto& t : serve_threads) t.join();
  }
};

// ---------------------------------------------------------------------------
// Replica-side serving: freshness proofs, stale NAKs, the lease floor.

TEST(ClientReadServe, FreshDemandReturnsTheBlock) {
  OffloadRig rig;
  const Bytes data = pattern_block(3);
  ASSERT_TRUE(rig.engine->write(5, data).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());

  const std::uint64_t seq = rig.engine->last_sequence();
  auto reply = rig.replica->apply(client_read_request(5, seq, /*id=*/77));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply->kind, MessageKind::kClientReadReply);
  EXPECT_EQ(reply->sequence, 77u);  // echoes the exchange id
  EXPECT_EQ(reply->lba, 5u);
  EXPECT_EQ(reply->payload, data);
  EXPECT_EQ(rig.replica->metrics().client_reads_served, 1u);
}

TEST(ClientReadServe, StaleDemandDrawsStaleReadNak) {
  OffloadRig rig;
  ASSERT_TRUE(rig.engine->write(2, pattern_block(4)).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());

  const std::uint64_t future = rig.engine->last_sequence() + 100;
  auto reply = rig.replica->apply(client_read_request(2, future, /*id=*/9));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, MessageKind::kNak);
  EXPECT_EQ(reply->sequence, 9u);
  ASSERT_FALSE(reply->payload.empty());
  EXPECT_EQ(reply->payload[0], static_cast<Byte>(NakReason::kStaleRead));
  EXPECT_GE(rig.replica->metrics().stale_read_naks, 1u);
  EXPECT_EQ(rig.replica->metrics().client_reads_served, 0u);
}

TEST(ClientReadServe, LeaseFloorProvesFreshnessWithoutPerLbaHistory) {
  // A lease at sequence 7 proves ANY demand <= 7, even for an LBA this
  // replica never saw a delta for (e.g. blocks only full-synced).
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  ReplicaEngine replica(disk);

  ReplicationMessage lease;
  lease.kind = MessageKind::kReadLease;
  lease.sequence = 7;
  auto ack = replica.apply(lease);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack->kind, MessageKind::kAck);
  EXPECT_EQ(ack->sequence, 7u);
  EXPECT_EQ(replica.read_lease_floor(), 7u);

  auto covered = replica.apply(client_read_request(3, 7));
  ASSERT_TRUE(covered.is_ok());
  EXPECT_EQ(covered->kind, MessageKind::kClientReadReply);

  auto beyond = replica.apply(client_read_request(3, 8));
  ASSERT_TRUE(beyond.is_ok());
  EXPECT_EQ(beyond->kind, MessageKind::kNak);
  ASSERT_FALSE(beyond->payload.empty());
  EXPECT_EQ(beyond->payload[0], static_cast<Byte>(NakReason::kStaleRead));

  // A lower lease never regresses the floor.
  lease.sequence = 4;
  ASSERT_TRUE(replica.apply(lease).is_ok());
  EXPECT_EQ(replica.read_lease_floor(), 7u);
}

TEST(ClientReadServe, MinSequenceZeroAlwaysServes) {
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  ReplicaEngine replica(disk);
  auto reply = replica.apply(client_read_request(0, 0));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, MessageKind::kClientReadReply);
  EXPECT_EQ(reply->payload, Bytes(kBs, Byte{0}));
}

// ---------------------------------------------------------------------------
// Primary-side conflict window.

TEST(ConflictWindow, AckedWritesClassifyOffloadableWithTheirSequence) {
  // With no replicas attached, every write settles synchronously, so its
  // sequence is at or below the read floor by the time write() returns.
  EngineConfig config;
  config.read_from_replicas = true;
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), config);
  ASSERT_TRUE(engine->write(5, pattern_block(1)).is_ok());
  const std::uint64_t seq = engine->last_sequence();

  std::uint64_t min_sequence = 123;
  EXPECT_EQ(engine->classify_read(5, &min_sequence),
            PrinsEngine::ReadClass::kOffloadable);
  EXPECT_EQ(min_sequence, seq);

  // A never-written LBA has no history to demand.
  EXPECT_EQ(engine->classify_read(9, &min_sequence),
            PrinsEngine::ReadClass::kOffloadable);
  EXPECT_EQ(min_sequence, 0u);
}

TEST(ConflictWindow, UnackedWritesStayLocal) {
  // A replica link whose far end is never served: deltas ship but no ack
  // ever returns, so the write stays in the conflict window forever.
  EngineConfig config;
  config.read_from_replicas = true;
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), config);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));

  ASSERT_TRUE(engine->write(7, pattern_block(2)).is_ok());
  std::uint64_t min_sequence = 0;
  EXPECT_EQ(engine->classify_read(7, &min_sequence),
            PrinsEngine::ReadClass::kLocal);
  replica_end->close();
}

TEST(ConflictWindow, DisabledConfigKeepsEveryReadLocal) {
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), EngineConfig{});
  ASSERT_TRUE(engine->write(1, pattern_block(6)).is_ok());
  std::uint64_t min_sequence = 0;
  EXPECT_EQ(engine->classify_read(1, &min_sequence),
            PrinsEngine::ReadClass::kLocal);
}

// ---------------------------------------------------------------------------
// The router: offload, fallback, health.

TEST(ReadRouter, OffloadsConflictFreeReadsToTheReplica) {
  OffloadRig rig;
  std::vector<Bytes> expect;
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    expect.push_back(pattern_block(100 + lba));
    ASSERT_TRUE(rig.engine->write(lba, expect.back()).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(rig.router->read(lba, got).is_ok());
    EXPECT_EQ(got, expect[lba]) << "lba " << lba;
  }
  const EngineMetrics m = rig.engine->metrics();
  EXPECT_GT(m.replica_reads, 0u);
  EXPECT_EQ(m.replica_reads, kBlocks);  // every read was conflict-free
  EXPECT_EQ(rig.replica->metrics().client_reads_served, kBlocks);
  EXPECT_EQ(rig.router->healthy_links(), 1u);
}

TEST(ReadRouter, FallsBackLocalWhenTheLinkDies) {
  ReadRouterConfig config;
  config.op_timeout = std::chrono::milliseconds(200);
  config.degrade_after = 1;
  OffloadRig rig(config);
  const Bytes data = pattern_block(8);
  ASSERT_TRUE(rig.engine->write(3, data).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());

  // Kill the replica's end of everything: the read exchange now fails, and
  // the router must still serve every read from the primary.
  rig.router.reset();
  auto router = std::make_shared<ReadRouter>(rig.engine, config);
  auto [client, server] = make_inproc_pair();
  server->close();  // dead on arrival
  router->add_read_replica(std::move(client));

  Bytes got(kBs);
  ASSERT_TRUE(router->read(3, got).is_ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(router->healthy_links(), 0u);  // degraded after the failure
  ASSERT_TRUE(router->read(3, got).is_ok());  // and still serving
  EXPECT_EQ(got, data);
}

TEST(ReadRouter, WritesPassThroughToTheEngine) {
  OffloadRig rig;
  const Bytes data = pattern_block(12);
  ASSERT_TRUE(rig.router->write(4, data).is_ok());
  ASSERT_TRUE(rig.router->flush().is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  Bytes got(kBs);
  ASSERT_TRUE(rig.replica_disk->read(4, got).is_ok());
  EXPECT_EQ(got, data);
}

TEST(ReadRouter, LateLeaseAckIsNotTakenForAReadReply) {
  // Lease acks echo the floor in `sequence` and read exchange ids count
  // from 1, so a late kAck can carry the very number a read is waiting
  // for.  A scripted replica sends exactly that stray ack ahead of each
  // read reply: the router must skim it and take the real reply.
  EngineConfig config;
  config.read_from_replicas = true;
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), config);
  auto router = std::make_shared<ReadRouter>(engine);
  auto [client, server] = make_inproc_pair();
  router->add_read_replica(std::move(client));

  const Bytes block = pattern_block(40);
  std::atomic<int> served{0};
  std::thread replica([&, link = std::move(server)] {
    for (;;) {
      auto wire = link->recv();
      if (!wire.is_ok()) return;  // router closed the link
      auto req = ReplicationMessage::decode(*wire);
      ASSERT_TRUE(req.is_ok());
      ASSERT_EQ(req->kind, MessageKind::kClientReadRequest);
      ReplicationMessage stray;
      stray.kind = MessageKind::kAck;
      stray.sequence = req->sequence;
      ASSERT_TRUE(link->send(stray.encode()).is_ok());
      ReplicationMessage reply;
      reply.kind = MessageKind::kClientReadReply;
      reply.block_size = kBs;
      reply.lba = req->lba;
      reply.sequence = req->sequence;
      reply.payload = block;
      served.fetch_add(1);  // before the send: the router may check at once
      ASSERT_TRUE(link->send(reply.encode()).is_ok());
    }
  });

  Bytes got(kBs);
  for (Lba lba = 0; lba < 3; ++lba) {
    ASSERT_TRUE(router->read(lba, got).is_ok());
    EXPECT_EQ(got, block) << "lba " << lba;  // the primary holds zeros
  }
  EXPECT_EQ(served.load(), 3);
  EXPECT_EQ(engine->metrics().replica_reads, 3u);
  EXPECT_EQ(router->healthy_links(), 1u);
  router.reset();  // closes the link; the scripted replica exits
  replica.join();
}

// ---------------------------------------------------------------------------
// Stale-read soak:a writer hammers hot LBAs while readers demand
// freshness across a faulty read link.  The oracle packs (version,
// sequence) per LBA; a reader that demanded sequence S must never observe
// a version older than the one written at S.  Every read must return OK —
// fallback keeps availability at 100% whatever the link drops.

TEST(StaleReadSoak, NoFreshnessViolationsAndFullAvailability) {
  FaultConfig faults;
  faults.drop_p = 0.01;
  faults.stall_p = 0.02;
  faults.stall = std::chrono::milliseconds(2);
  faults.seed = 42;
  ReadRouterConfig config;
  config.op_timeout = std::chrono::milliseconds(100);
  config.degrade_after = 1u << 20;  // the soak wants the link to keep trying
  OffloadRig rig(config, &faults);

  constexpr std::size_t kHot = 8;
  constexpr std::uint64_t kWrites = 400;
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kReadsEach = 300;

  // packed = version << 32 | sequence-of-that-version's-write.
  std::array<std::atomic<std::uint64_t>, kHot> oracle{};

  std::thread writer([&] {
    Bytes block(kBs, Byte{0x5a});
    for (std::uint64_t v = 1; v <= kWrites; ++v) {
      const Lba lba = v % kHot;
      std::uint64_t stamp[2] = {v, lba};
      std::memcpy(block.data(), stamp, sizeof(stamp));
      ASSERT_TRUE(rig.engine->write(lba, block).is_ok());
      // Single writer: last_sequence() is this write's sequence.
      const std::uint64_t seq = rig.engine->last_sequence();
      oracle[lba].store((v << 32) | seq, std::memory_order_release);
    }
  });

  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      Bytes got(kBs);
      for (std::uint64_t i = 0; i < kReadsEach; ++i) {
        const Lba lba = rng.next_below(kHot);
        const std::uint64_t packed =
            oracle[lba].load(std::memory_order_acquire);
        if (packed == 0) continue;
        const std::uint64_t want_version = packed >> 32;
        const std::uint64_t want_sequence = packed & 0xffffffffu;
        // Availability: every read must come back OK, faults or not.
        ASSERT_TRUE(rig.router->read_fresh(lba, got, want_sequence).is_ok());
        std::uint64_t stamp[2];
        std::memcpy(stamp, got.data(), sizeof(stamp));
        if (stamp[0] < want_version || stamp[1] != lba) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiesced phase: with every write acked the conflict window opens, so
  // demand reads must now offload across the same faulty link — and still
  // come back fresh despite the drops and stalls.
  ASSERT_TRUE(rig.engine->drain().is_ok());
  Bytes got(kBs);
  for (int round = 0; round < 4; ++round) {
    for (Lba lba = 0; lba < kHot; ++lba) {
      const std::uint64_t packed = oracle[lba].load(std::memory_order_acquire);
      const std::uint64_t want_version = packed >> 32;
      const std::uint64_t want_sequence = packed & 0xffffffffu;
      ASSERT_TRUE(rig.router->read_fresh(lba, got, want_sequence).is_ok());
      std::uint64_t stamp[2];
      std::memcpy(stamp, got.data(), sizeof(stamp));
      EXPECT_EQ(stamp[0], want_version);
      EXPECT_EQ(stamp[1], lba);
    }
  }
  const EngineMetrics m = rig.engine->metrics();
  EXPECT_GT(m.replica_reads, 0u);  // offload actually happened
}

// ---------------------------------------------------------------------------
// Epoch safety: a replica that has adopted a promoted primary's epoch
// refuses the zombie's client reads with kStaleEpoch; the zombie's router
// degrades the link sticky and keeps serving from its own device.

TEST(ReadOffloadFailover, FencedReplicaRefusesZombieReads) {
  // Shared replica S serves three links: deltas from old primary A, A's
  // read link, and deltas from the soon-to-be-promoted spare.
  auto s_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto s_replica = std::make_shared<ReplicaEngine>(s_disk);
  std::vector<std::thread> serve_threads;
  auto serve = [&](std::unique_ptr<Transport> t) {
    serve_threads.emplace_back(
        [r = s_replica, t = std::shared_ptr<Transport>(std::move(t))] {
          (void)r->serve(*t);
        });
  };

  EngineConfig a_config;
  a_config.read_from_replicas = true;
  auto a_engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), a_config);
  auto [a_delta_client, a_delta_server] = make_inproc_pair();
  serve(std::move(a_delta_server));
  a_engine->add_replica(std::move(a_delta_client));

  auto router = std::make_shared<ReadRouter>(a_engine);
  auto [a_read_client, a_read_server] = make_inproc_pair();
  serve(std::move(a_read_server));
  router->add_read_replica(std::move(a_read_client));

  const Bytes data = pattern_block(21);
  ASSERT_TRUE(a_engine->write(6, data).is_ok());
  ASSERT_TRUE(a_engine->drain().is_ok());

  // Offload works while everyone agrees on the epoch.
  Bytes got(kBs);
  ASSERT_TRUE(router->read(6, got).is_ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(a_engine->metrics().replica_reads, 1u);
  EXPECT_EQ(router->healthy_links(), 1u);

  // Failover: promote a spare (the PR-9 mechanism), which mints epoch 1;
  // its first delta teaches S the new epoch.
  ReplicaConfig spare_config;
  spare_config.keep_trap_log = true;
  ReplicaEngine spare(std::make_shared<MemDisk>(kBlocks, kBs), spare_config);
  auto promoted = spare.promote(EngineConfig{});
  ASSERT_TRUE(promoted.is_ok()) << promoted.status().to_string();
  std::shared_ptr<PrinsEngine> p_engine = std::move(*promoted);
  EXPECT_GE(p_engine->cluster_epoch(), 1u);
  auto [p_delta_client, p_delta_server] = make_inproc_pair();
  serve(std::move(p_delta_server));
  p_engine->add_replica(std::move(p_delta_client));
  ASSERT_TRUE(p_engine->write(0, pattern_block(30)).is_ok());
  ASSERT_TRUE(p_engine->drain().is_ok());
  EXPECT_GE(s_replica->cluster_epoch(), 1u);

  // The zombie's read link is now fenced: the read still succeeds (local
  // fallback), the link degrades sticky, and S records the fencing NAK.
  ASSERT_TRUE(router->read(6, got).is_ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(router->healthy_links(), 0u);
  EXPECT_EQ(a_engine->metrics().replica_reads, 1u);  // no new offloads
  EXPECT_GE(s_replica->metrics().stale_epoch_naks, 1u);

  // Still fully available afterwards, entirely from the zombie's device.
  ASSERT_TRUE(router->read(6, got).is_ok());
  EXPECT_EQ(got, data);

  router.reset();
  p_engine.reset();
  a_engine.reset();
  for (auto& t : serve_threads) t.join();
}

}  // namespace
}  // namespace prins
