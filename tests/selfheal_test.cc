// Failure-path regression tests and the self-healing soak: sticky-error
// clearing across multiple replicas, RAID-tap delta hygiene on failed
// writes, journal watermark unfreeze after resync, and end-to-end
// convergence over a lossy, flaky fabric with zero operator intervention.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "block/faulty_disk.h"
#include "block/mem_disk.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "prins/engine.h"
#include "prins/journal.h"
#include "prins/replica.h"
#include "raid/raid_array.h"

namespace prins {
namespace {

constexpr std::uint32_t kBs = 1024;
constexpr std::uint64_t kBlocks = 128;

// Sanitizer instrumentation slows the reply path ~10x, so a wall-clock
// reply timeout tuned for a release build fires falsely and inflates the
// retry count.  Stretch the timing knobs to keep the fault schedule (not
// the scheduler) the thing being tested.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kTimingScale = 10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kTimingScale = 10;
#else
constexpr int kTimingScale = 1;
#endif
#else
constexpr int kTimingScale = 1;
#endif

Bytes random_block(std::uint64_t seed, std::size_t n = kBs) {
  Rng rng(seed);
  Bytes b(n);
  rng.fill(b);
  return b;
}

bool devices_match(BlockDevice& a, BlockDevice& b) {
  Bytes ba(a.block_size()), bb(b.block_size());
  for (Lba lba = 0; lba < a.num_blocks(); ++lba) {
    EXPECT_TRUE(a.read(lba, ba).is_ok());
    EXPECT_TRUE(b.read(lba, bb).is_ok());
    if (ba != bb) {
      ADD_FAILURE() << "devices diverge at lba " << lba;
      return false;
    }
  }
  return true;
}

std::string temp_journal_path() {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("prins_selfheal_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

// --- Satellite 1: reattach_replica must not absolve other failed links ---

TEST(ReattachTest, ReattachingOneReplicaKeepsTheErrorOfTheOther) {
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  std::vector<std::shared_ptr<MemDisk>> disks;
  std::vector<std::shared_ptr<ReplicaEngine>> replicas;
  std::vector<std::thread> servers;
  for (int i = 0; i < 2; ++i) {
    disks.push_back(std::make_shared<MemDisk>(kBlocks, kBs));
    replicas.push_back(std::make_shared<ReplicaEngine>(disks.back()));
    auto [primary_end, replica_end] = make_inproc_pair();
    engine->add_replica(std::move(primary_end));
    servers.emplace_back(
        [r = replicas.back(),
         t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)r->serve(*t);
        });
  }

  ASSERT_TRUE(engine->write(1, random_block(11)).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());

  // Both links die (reattach with pairs whose far end is already closed).
  for (std::size_t i = 0; i < 2; ++i) {
    auto [dead_primary_end, dead_replica_end] = make_inproc_pair();
    dead_replica_end->close();
    ASSERT_TRUE(
        engine->reattach_replica(i, std::move(dead_primary_end)).is_ok());
  }
  for (auto& s : servers) s.join();
  servers.clear();

  ASSERT_TRUE(engine->write(2, random_block(12)).is_ok());
  EXPECT_FALSE(engine->drain().is_ok());

  // Revive only replica 0: the sticky error must survive — replica 1 is
  // still down, and clearing it here would report lost writes as fine.
  {
    auto [primary_end, replica_end] = make_inproc_pair();
    ASSERT_TRUE(engine->reattach_replica(0, std::move(primary_end)).is_ok());
    servers.emplace_back(
        [r = replicas[0],
         t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)r->serve(*t);
        });
  }
  EXPECT_FALSE(engine->drain().is_ok());

  // Revive replica 1 too: now the error clears and traffic flows to both.
  {
    auto [primary_end, replica_end] = make_inproc_pair();
    ASSERT_TRUE(engine->reattach_replica(1, std::move(primary_end)).is_ok());
    servers.emplace_back(
        [r = replicas[1],
         t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)r->serve(*t);
        });
  }
  EXPECT_TRUE(engine->drain().is_ok());

  const Bytes post = random_block(13);
  ASSERT_TRUE(engine->write(5, post).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());
  Bytes out(kBs);
  for (auto& disk : disks) {
    ASSERT_TRUE(disk->read(5, out).is_ok());
    EXPECT_EQ(out, post);
  }

  engine.reset();
  for (auto& s : servers) s.join();
}

// --- Satellite 2: no stale RAID-tap delta survives a failed write ---

TEST(RaidTapTest, FailedMultiBlockWriteLeavesNoStaleTapDelta) {
  // A member disk dies mid multi-block write: the engine's write fails
  // partway, and every tap delta must have been consumed — a stale entry
  // would be handed to the *next* write of that LBA as its parity.
  std::vector<std::shared_ptr<BlockDevice>> members;
  auto flaky_member = std::make_shared<FaultyDisk>(
      std::make_shared<MemDisk>(64, kBs), FaultyDisk::Config{});
  members.push_back(flaky_member);
  for (int i = 1; i < 4; ++i) {
    members.push_back(std::make_shared<MemDisk>(64, kBs));
  }
  auto array_or = RaidArray::create(RaidLevel::kRaid5, members);
  ASSERT_TRUE(array_or.is_ok());
  auto array = std::shared_ptr<RaidArray>(std::move(*array_or));

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  auto engine = std::make_unique<PrinsEngine>(array, config);

  auto replica_disk = std::make_shared<MemDisk>(array->num_blocks(), kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        (void)r->serve(*t);
      });

  ASSERT_TRUE(engine->write(0, random_block(20)).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(engine->tap_backlog(), 0u);

  // Member 0 dies; an 8-block write must hit it (every RAID-5 stripe uses
  // all four members as data or parity) and fail partway through.
  flaky_member->set_dead(true);
  const Bytes span = random_block(21, 8 * kBs);
  EXPECT_FALSE(engine->write(0, span).is_ok());
  EXPECT_EQ(engine->tap_backlog(), 0u);  // nothing leaked on the error path
  ASSERT_TRUE(engine->drain().is_ok());  // replication itself is healthy

  // The disk comes back; the retried write must replicate with *fresh*
  // deltas and converge (a stale tap delta would poison these blocks).
  flaky_member->set_dead(false);
  ASSERT_TRUE(engine->write(0, span).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(engine->tap_backlog(), 0u);
  EXPECT_TRUE(devices_match(*array, *replica_disk));

  auto bad = array->scrub();
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(*bad, 0u);

  engine.reset();
  server.join();
}

// --- Satellite 3: the journal watermark unfreezes after a full resync ---

TEST(JournalFreezeTest, WatermarkAdvancesAgainAfterReattachAndResync) {
  struct JournalFile {
    std::string path = temp_journal_path();
    ~JournalFile() { std::remove(path.c_str()); }
  } file;
  auto journal_or = ReplicationJournal::open(file.path);
  ASSERT_TRUE(journal_or.is_ok());
  auto journal = std::shared_ptr<ReplicationJournal>(std::move(*journal_or));

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  config.journal = journal;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);

  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  std::vector<std::thread> servers;
  {
    auto [primary_end, replica_end] = make_inproc_pair();
    engine->add_replica(std::move(primary_end));
    servers.emplace_back(
        [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)r->serve(*t);
        });
  }

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine->write(i, random_block(30 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(journal->acked_sequence(), 10u);

  // Outage: writes 11..20 are dropped by the dead link and the watermark
  // freezes so the journal keeps them replayable.
  {
    auto [dead_primary_end, dead_replica_end] = make_inproc_pair();
    dead_replica_end->close();
    ASSERT_TRUE(
        engine->reattach_replica(0, std::move(dead_primary_end)).is_ok());
  }
  servers[0].join();
  servers.clear();
  for (int i = 10; i < 20; ++i) {
    // The first outage write is queued then dropped (setting the sticky
    // error); later ones fail fast.  All land locally, in the journal,
    // and in the trap log either way.
    (void)engine->write(i, random_block(30 + i));
  }
  EXPECT_FALSE(engine->drain().is_ok());
  EXPECT_EQ(journal->acked_sequence(), 10u);  // frozen

  // Recovery: reattach + delta resync delivers everything the outage
  // dropped, so the freeze has nothing left to guard.
  {
    auto [primary_end, replica_end] = make_inproc_pair();
    ASSERT_TRUE(engine->reattach_replica(0, std::move(primary_end)).is_ok());
    servers.emplace_back(
        [r = replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
          (void)r->serve(*t);
        });
  }
  auto resynced = engine->resync_replica(0);
  ASSERT_TRUE(resynced.is_ok()) << resynced.status().to_string();
  EXPECT_GT(*resynced, 0u);
  EXPECT_TRUE(devices_match(*primary, *replica_disk));
  EXPECT_GT(journal->acked_sequence(), 10u);  // unfrozen: moving again

  // ...and the next distributed write catches the watermark up entirely
  // (pre-fix it stayed frozen forever and the journal grew without bound).
  ASSERT_TRUE(engine->write(5, random_block(99)).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_EQ(journal->acked_sequence(), journal->max_sequence());
  EXPECT_EQ(journal->pending_count(), 0u);

  engine.reset();
  for (auto& s : servers) s.join();
}

// --- Fault-injection soak: convergence with zero operator intervention ---

TEST(SelfHealSoakTest, ConvergesUnderDropsFlipsDuplicatesAndADisconnect) {
  InprocNetwork network;
  struct Node {
    std::shared_ptr<MemDisk> disk;
    std::shared_ptr<ReplicaEngine> replica;
    std::shared_ptr<Listener> listener;
    std::thread server;
  };
  std::vector<Node> nodes(3);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].disk = std::make_shared<MemDisk>(kBlocks, kBs);
    nodes[i].replica = std::make_shared<ReplicaEngine>(nodes[i].disk);
    auto listener = network.listen("replica-" + std::to_string(i));
    ASSERT_TRUE(listener.is_ok());
    nodes[i].listener = std::shared_ptr<Listener>(std::move(*listener));
    nodes[i].server =
        replica_serve_in_background(nodes[i].replica, nodes[i].listener);
  }

  static std::atomic<std::uint64_t> reconnect_seed{500};
  auto faulty_link = [&network](std::size_t index, std::uint64_t seed)
      -> Result<std::unique_ptr<FaultyTransport>> {
    PRINS_ASSIGN_OR_RETURN(
        std::unique_ptr<Transport> raw,
        network.connect("replica-" + std::to_string(index)));
    FaultConfig faults;
    faults.drop_p = 0.01;
    faults.corrupt_p = 0.005;
    faults.duplicate_p = 0.01;
    faults.seed = seed;
    return std::make_unique<FaultyTransport>(std::move(raw), faults);
  };
  // Replica 1's link is hard-cut at a fixed write index; the engine must
  // reconnect and replay on its own.  The cut is the test's own action, not
  // a send count: with coalescing, how many sends a run makes depends on
  // scheduling.  `cut_link` is cleared when the engine asks for a
  // replacement, before it releases the old link.
  constexpr int kCutAtWrite = 5000;
  std::mutex cut_mutex;
  FaultyTransport* cut_link = nullptr;

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  config.coalesce_writes = true;
  config.pipeline_depth = 4;
  config.retry.max_attempts = 8;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.multiplier = 2.0;
  config.retry.max_backoff = std::chrono::milliseconds(20);
  config.retry.op_timeout = std::chrono::milliseconds(25 * kTimingScale);
  config.reconnect = [&](std::size_t index)
      -> Result<std::unique_ptr<Transport>> {
    {
      std::lock_guard lock(cut_mutex);
      if (index == 1) cut_link = nullptr;
    }
    PRINS_ASSIGN_OR_RETURN(auto link, faulty_link(index, reconnect_seed++));
    return std::unique_ptr<Transport>(std::move(link));
  };

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto link = faulty_link(i, 100 + i);
    ASSERT_TRUE(link.is_ok());
    if (i == 1) cut_link = link->get();
    engine->add_replica(std::move(*link));
  }

  Rng rng(4242);
  std::uint64_t issued = 0;
  for (int i = 0; i < 10000; ++i) {
    if (i == kCutAtWrite) {
      std::lock_guard lock(cut_mutex);
      if (cut_link != nullptr) cut_link->set_disconnected(true);
    }
    const bool wide = (i % 10) == 9;  // every tenth write spans two blocks
    const std::uint64_t span = wide ? 2 : 1;
    const Lba lba = rng.next_below(kBlocks - span + 1);
    ASSERT_TRUE(
        engine->write(lba, random_block(777000 + i, span * kBs)).is_ok());
    issued += span;
  }
  ASSERT_TRUE(engine->drain().is_ok());

  for (auto& node : nodes) {
    EXPECT_TRUE(devices_match(*primary, *node.disk));
  }
  const EngineMetrics metrics = engine->metrics();
  std::printf("soak: writes=%llu retries=%llu reconnects=%llu resyncs=%llu\n",
              static_cast<unsigned long long>(metrics.writes),
              static_cast<unsigned long long>(metrics.retries),
              static_cast<unsigned long long>(metrics.reconnects),
              static_cast<unsigned long long>(metrics.auto_resyncs));
  EXPECT_EQ(metrics.writes, issued);
  EXPECT_GE(metrics.reconnects, 1u);  // the disconnect was survived
  EXPECT_GT(metrics.retries, 0u);     // the drops made it work for this
  // Bounded recovery effort: with ~1% drops a healthy retry path needs a
  // few hundred rounds, not a runaway storm.  Sanitizer scheduling
  // fragments the pipeline into many more (smaller) wire batches, each a
  // fresh fault draw, so those builds get proportional headroom.
  EXPECT_LT(metrics.retries, kTimingScale > 1 ? issued * 2 : issued / 2);

  engine.reset();
  for (auto& node : nodes) {
    node.listener->close();
    node.server.join();
  }
}

TEST(SelfHealSoakTest, PipelinedReplicaRetiresEveryWriteAcrossDisconnect) {
  // The pipelined replica (4 LBA-striped apply workers, batched kAckBatch
  // acks) behind a lossy link that is hard-cut mid-run.  The reconnect
  // replays every un-acked frame; batched-ack retirement and the striped
  // dedup window must still deliver exactly-once semantics: each logical
  // write acked once, redeliveries dropped, volumes byte-identical.
  InprocNetwork network;
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  ReplicaConfig replica_config;
  replica_config.apply_shards = 4;
  replica_config.ack_coalesce_max = 16;
  replica_config.old_block_cache_blocks = kBlocks;
  auto replica = std::make_shared<ReplicaEngine>(disk, replica_config);
  ASSERT_EQ(replica->apply_shards(), 4u);
  auto listener_or = network.listen("replica");
  ASSERT_TRUE(listener_or.is_ok());
  auto listener = std::shared_ptr<Listener>(std::move(*listener_or));
  std::thread server = replica_serve_in_background(replica, listener);

  static std::atomic<std::uint64_t> seed{900};
  auto faulty_link = [&network](std::uint64_t link_seed)
      -> Result<std::unique_ptr<FaultyTransport>> {
    PRINS_ASSIGN_OR_RETURN(std::unique_ptr<Transport> raw,
                           network.connect("replica"));
    FaultConfig faults;
    faults.drop_p = 0.01;
    faults.duplicate_p = 0.01;
    faults.seed = link_seed;
    return std::make_unique<FaultyTransport>(std::move(raw), faults);
  };
  // The link is hard-cut at a fixed write index, not after a send count:
  // with folding, how many sends a run makes depends on scheduling.
  // `cut_link` is cleared when the engine asks for a replacement, before
  // it releases the old link.
  constexpr int kCutAtWrite = 500;
  std::mutex cut_mutex;
  FaultyTransport* cut_link = nullptr;

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrinsRle;
  config.keep_trap_log = true;
  config.pipeline_depth = 8;  // deep batches so kAckBatch replies dominate
  config.retry.max_attempts = 8;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.max_backoff = std::chrono::milliseconds(20);
  config.retry.op_timeout = std::chrono::milliseconds(25 * kTimingScale);
  config.reconnect = [&](std::size_t) -> Result<std::unique_ptr<Transport>> {
    {
      std::lock_guard lock(cut_mutex);
      cut_link = nullptr;
    }
    PRINS_ASSIGN_OR_RETURN(auto link, faulty_link(seed++));
    return std::unique_ptr<Transport>(std::move(link));
  };

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = faulty_link(101);
    ASSERT_TRUE(link.is_ok());
    cut_link = link->get();
    engine->add_replica(std::move(*link));
  }

  Rng rng(31337);
  constexpr int kWrites = 2000;
  for (int i = 0; i < kWrites; ++i) {
    if (i == kCutAtWrite) {
      std::lock_guard lock(cut_mutex);
      if (cut_link != nullptr) cut_link->set_disconnected(true);
    }
    const Lba lba = rng.next_below(kBlocks);
    ASSERT_TRUE(engine->write(lba, random_block(555000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  EXPECT_TRUE(devices_match(*primary, *disk));
  const EngineMetrics em = engine->metrics();
  EXPECT_EQ(em.writes, static_cast<std::uint64_t>(kWrites));
  // Exactly-once retirement through kAckBatch range coverage: one ack per
  // logical write, no double-retire from a range replayed after reconnect.
  EXPECT_EQ(em.acks, em.writes);
  EXPECT_GE(em.reconnects, 1u);

  // Post-reconnect replay redelivers frames whose acks the cut swallowed;
  // the striped dedup window must absorb them (applying a parity delta
  // twice would XOR the write back out — devices_match above is the proof).
  const ReplicaMetrics rm = replica->metrics();
  EXPECT_GE(rm.writes_applied, static_cast<std::uint64_t>(kWrites));
  EXPECT_GT(rm.cache_hits, 0u);

  engine.reset();
  listener->close();
  server.join();
}

TEST(SelfHealSoakTest, DegradedLinkHealsOnceTheFactoryRecovers) {
  // Retries exhaust (the reconnect factory itself is down for a while), the
  // link enters the degraded state, and the engine still converges with no
  // reattach_replica call anywhere: reconnect + replay.
  InprocNetwork network;
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(disk);
  auto listener_or = network.listen("replica");
  ASSERT_TRUE(listener_or.is_ok());
  auto listener = std::shared_ptr<Listener>(std::move(*listener_or));
  std::thread server = replica_serve_in_background(replica, listener);

  auto calls = std::make_shared<std::atomic<int>>(0);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  config.pipeline_depth = 2;
  config.retry.max_attempts = 2;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.max_backoff = std::chrono::milliseconds(5);
  config.retry.op_timeout = std::chrono::milliseconds(10 * kTimingScale);
  config.reconnect =
      [&network, calls](std::size_t) -> Result<std::unique_ptr<Transport>> {
    if (calls->fetch_add(1) < 3) {
      return unavailable("reconnect endpoint still down");
    }
    return network.connect("replica");
  };

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto raw = network.connect("replica");
    ASSERT_TRUE(raw.is_ok());
    FaultConfig faults;
    faults.disconnect_after = 50;  // hard cut partway through the run
    engine->add_replica(std::make_unique<FaultyTransport>(std::move(*raw),
                                                          faults));
  }

  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Lba lba = rng.next_below(kBlocks);
    ASSERT_TRUE(engine->write(lba, random_block(888000 + i)).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());  // blocks until the heal lands

  EXPECT_TRUE(devices_match(*primary, *disk));
  const EngineMetrics metrics = engine->metrics();
  EXPECT_GE(metrics.auto_resyncs, 1u);
  EXPECT_GE(metrics.reconnects, 1u);
  EXPECT_GE(calls->load(), 4);  // the down factory really was exercised

  // The healed link is a first-class citizen again: new writes replicate.
  const Bytes post = random_block(999);
  ASSERT_TRUE(engine->write(3, post).is_ok());
  ASSERT_TRUE(engine->drain().is_ok());
  Bytes out(kBs);
  ASSERT_TRUE(disk->read(3, out).is_ok());
  EXPECT_EQ(out, post);

  engine.reset();
  listener->close();
  server.join();
}

}  // namespace
}  // namespace prins
