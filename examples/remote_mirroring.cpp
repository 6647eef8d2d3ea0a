// Remote mirroring over iSCSI + TCP — the paper's full architecture in
// one program (Figure 1), over real loopback sockets:
//
//   [application host]                [storage node]              [replica node]
//   IscsiInitiator  --TCP/iSCSI-->    IscsiTarget                 ReplicaEngine
//                                     └─ PrinsEngine --TCP-->     └─ MemDisk
//                                        └─ MemDisk
//
// The application host sees an ordinary SCSI disk.  Every write it sends
// lands on the storage node's device and is parity-replicated to the
// replica node.  At the end we verify all three views agree.
#include <cstdio>
#include <map>
#include <memory>

#include "block/mem_disk.h"
#include "cluster/cluster_router.h"
#include "cluster/pg_membership.h"
#include "common/rng.h"
#include "iscsi/initiator.h"
#include "iscsi/reactor_target.h"
#include "iscsi/target.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "net/traffic_meter.h"
#include "prins/engine.h"
#include "prins/reactor_server.h"
#include "prins/read_router.h"
#include "prins/replica.h"

using namespace prins;

namespace {

Status run() {
  constexpr std::uint32_t kBlockSize = 4096;
  constexpr std::uint64_t kBlocks = 512;

  // Both server nodes are thread-free: the replica and the iSCSI target
  // serve every session as reactor handlers (ReactorReplicaServer /
  // ReactorIscsiServer), and the engine's replica links run on the pool's
  // loop without a thread of their own.  PRINS_REACTOR_THREADS sizes the
  // pool.
  PRINS_ASSIGN_OR_RETURN(auto pool, ReactorPool::create());
  auto connect_loopback =
      [&](std::uint16_t port) -> Result<std::unique_ptr<Transport>> {
    return ReactorTcpTransport::connect(pool->next().shared_from_this(),
                                        "127.0.0.1", port);
  };

  // --- replica node: ReplicaEngine listening on TCP ----------------------
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBlockSize);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  PRINS_ASSIGN_OR_RETURN(auto replica_server,
                         ReactorReplicaServer::start(replica, pool));
  const std::uint16_t replica_port = replica_server->port();
  std::printf("replica node listening on 127.0.0.1:%u\n", replica_port);

  // --- storage node: PRINS engine inside an iSCSI target ------------------
  auto storage_disk = std::make_shared<MemDisk>(kBlocks, kBlockSize);
  EngineConfig engine_config;
  engine_config.policy = ReplicationPolicy::kPrins;
  engine_config.read_from_replicas = true;  // maintain the conflict window
  engine_config.reactor = pool->at(0).shared_from_this();
  auto engine = std::make_shared<PrinsEngine>(storage_disk, engine_config);
  PRINS_ASSIGN_OR_RETURN(auto replica_link, connect_loopback(replica_port));
  auto meter = std::make_unique<TrafficMeter>(std::move(replica_link));
  TrafficMeter* wan_traffic = meter.get();
  engine->add_replica(std::move(meter));

  // Read offload: the iSCSI target serves from a ReadRouter instead of the
  // bare engine.  Conflict-free reads travel a second link to the replica
  // node (which proves freshness before answering); anything else stays
  // local.  Both nodes start from the same zeroed image, so the mirror is
  // caught up from the first write.
  auto router = std::make_shared<ReadRouter>(engine);
  PRINS_ASSIGN_OR_RETURN(auto read_link, connect_loopback(replica_port));
  router->add_read_replica(std::move(read_link));

  auto target = std::make_shared<iscsi::IscsiTarget>(router);
  PRINS_ASSIGN_OR_RETURN(auto target_server,
                         iscsi::ReactorIscsiServer::start(target, pool));
  const std::uint16_t target_port = target_server->port();
  std::printf("storage node (iSCSI target + PRINS engine) on 127.0.0.1:%u\n",
              target_port);

  // --- application host: an iSCSI initiator -------------------------------
  PRINS_ASSIGN_OR_RETURN(auto app_link, connect_loopback(target_port));
  PRINS_ASSIGN_OR_RETURN(auto initiator,
                         iscsi::IscsiInitiator::login(std::move(app_link)));
  std::printf("application host logged in to %s (%llu x %u bytes)\n\n",
              initiator->target_name().c_str(),
              static_cast<unsigned long long>(initiator->num_blocks()),
              initiator->block_size());

  // The application performs partial-block updates, like a database would:
  // read the block, change a 256-byte region, write it back.
  Rng rng(7);
  Bytes block(kBlockSize);
  std::uint64_t app_bytes = 0;
  for (int i = 0; i < 300; ++i) {
    const Lba lba = rng.next_below(kBlocks);
    PRINS_RETURN_IF_ERROR(initiator->read(lba, block));
    rng.fill(MutByteSpan(block).subspan(rng.next_below(kBlockSize - 256), 256));
    PRINS_RETURN_IF_ERROR(initiator->write(lba, block));
    app_bytes += kBlockSize;
  }
  PRINS_RETURN_IF_ERROR(initiator->flush());  // SYNCHRONIZE CACHE -> drain
  PRINS_RETURN_IF_ERROR(engine->drain());

  const TrafficStats wan = wan_traffic->sent();
  std::printf("application wrote      %8.1f KB over the iSCSI link\n",
              app_bytes / 1024.0);
  std::printf("WAN link carried       %8.1f KB of PRINS parity (%.1fx less)\n",
              wan.payload_bytes / 1024.0,
              static_cast<double>(app_bytes) / wan.payload_bytes);

  // Read back through iSCSI and compare against the replica's device.
  Bytes via_iscsi(kBlockSize), on_replica(kBlockSize);
  std::uint64_t mismatches = 0;
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    PRINS_RETURN_IF_ERROR(initiator->read(lba, via_iscsi));
    PRINS_RETURN_IF_ERROR(replica_disk->read(lba, on_replica));
    mismatches += (via_iscsi != on_replica);
  }
  std::printf("blocks differing between app view and replica: %llu "
              "(expected 0)\n",
              static_cast<unsigned long long>(mismatches));

  const EngineMetrics em = engine->metrics();
  const ReplicaMetrics rm = replica->metrics();
  std::printf("reads served by replica %llu (replica counted %llu), "
              "conflicts kept local %llu, stale retries %llu\n",
              static_cast<unsigned long long>(em.replica_reads),
              static_cast<unsigned long long>(rm.client_reads_served),
              static_cast<unsigned long long>(em.read_conflicts_local),
              static_cast<unsigned long long>(em.stale_read_retries));

  // Orderly teardown: app logs out, the target (which co-owns the engine)
  // goes away first so that dropping our engine reference actually
  // destroys it and closes the WAN link, unblocking the replica.
  PRINS_RETURN_IF_ERROR(initiator->logout());
  target_server->stop();
  target.reset();
  router.reset();  // closes the read link, releases its engine reference
  engine.reset();  // last owner: closes the WAN link
  replica_server->stop();

  return mismatches == 0 ? Status::ok()
                         : internal_error("replica diverged");
}

// Act two: the same replication engine scaled out.  One volume striped
// across three primaries by placement group, a PG-aware router in front,
// and a mid-workload node kill that the cluster layer absorbs: the dead
// node's PGs promote their mirrors (epoch fencing via the same
// ReplicaEngine::promote the single-node failover path uses) and the
// router retries onto the new map epoch.
Status run_cluster() {
  constexpr std::uint32_t kBlockSize = 4096;
  constexpr std::uint64_t kBlocks = 512;

  cluster::MembershipConfig config;
  config.map.pg_count = 64;
  config.map.mirrors = 1;
  config.sync_writes = true;  // acked == replicated, so a kill loses nothing
  cluster::PgMembership membership(
      [&](const std::string&) {
        return std::make_shared<MemDisk>(kBlocks, kBlockSize);
      },
      config);
  for (const char* id : {"n1", "n2", "n3"}) {
    PRINS_RETURN_IF_ERROR(membership.add_node(id));
  }
  PRINS_RETURN_IF_ERROR(membership.start());
  auto router = membership.make_router(/*wire=*/true);
  std::printf("cluster: 3 primaries, %u PGs, map epoch %llu\n",
              membership.map()->pg_count(),
              static_cast<unsigned long long>(membership.map()->epoch()));

  Rng rng(11);
  Bytes block(kBlockSize), check(kBlockSize);
  std::map<Lba, Bytes> expected;
  auto write_some = [&](int count) -> Status {
    for (int i = 0; i < count; ++i) {
      const Lba lba = rng.next_below(kBlocks);
      rng.fill(block);
      PRINS_RETURN_IF_ERROR(router->write(lba, block));
      expected[lba] = block;
    }
    return Status::ok();
  };
  PRINS_RETURN_IF_ERROR(write_some(200));

  // Kill a primary mid-volume.  Its PGs promote, the map flips to epoch 2,
  // and the very next I/O the router sends self-corrects.
  PRINS_RETURN_IF_ERROR(membership.fail_node("n2"));
  PRINS_RETURN_IF_ERROR(write_some(200));

  std::uint64_t mismatches = 0;
  for (const auto& [lba, want] : expected) {
    PRINS_RETURN_IF_ERROR(router->read(lba, check));
    mismatches += (check != want);
  }
  const cluster::RouterMetrics rm = router->metrics();
  std::printf("killed n2 mid-workload: map epoch %llu, %llu retried runs, "
              "%llu of %zu blocks diverged (expected 0)\n",
              static_cast<unsigned long long>(rm.map_epoch),
              static_cast<unsigned long long>(rm.wrong_pg_retries +
                                              rm.unavailable_retries),
              static_cast<unsigned long long>(mismatches), expected.size());
  return mismatches == 0 ? Status::ok()
                         : internal_error("cluster diverged after failover");
}

}  // namespace

int main() {
  Status s = run();
  if (!s.is_ok()) {
    std::fprintf(stderr, "remote_mirroring failed: %s\n",
                 s.to_string().c_str());
    return 1;
  }
  std::printf("\nremote mirroring over iSCSI/TCP completed successfully.\n\n");
  s = run_cluster();
  if (!s.is_ok()) {
    std::fprintf(stderr, "cluster act failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("\nPG-sharded cluster with mid-workload failover completed "
              "successfully.\n");
  return 0;
}
