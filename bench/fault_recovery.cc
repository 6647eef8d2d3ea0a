// Fault-recovery ablation — replication throughput as the link degrades.
//
// The self-healing sender (retry + reconnect + replay) turns message loss
// from a session-killer into a latency tax.  This bench grounds that tax:
// one primary replicating to a replica over a FaultyTransport, swept over
// the drop rate, then a hard mid-run disconnect healed by the reconnect
// factory.  Every row verifies the devices converged byte-for-byte —
// recovery that corrupts is not recovery — and the bench exits non-zero
// if any row did not converge or saw a write or drain fail.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "block/mem_disk.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "prins/engine.h"
#include "prins/replica.h"

namespace {

using namespace prins;

constexpr std::uint32_t kBs = 4096;
constexpr std::uint64_t kBlocks = 256;

bool devices_match(BlockDevice& a, BlockDevice& b) {
  Bytes ba(a.block_size()), bb(b.block_size());
  for (Lba lba = 0; lba < a.num_blocks(); ++lba) {
    if (!a.read(lba, ba).is_ok() || !b.read(lba, bb).is_ok()) return false;
    if (ba != bb) return false;
  }
  return true;
}

struct RunResult {
  double writes_per_sec = 0;
  bench::LatencySummary lat;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t auto_resyncs = 0;
  bool converged = false;
  bool ok = false;
};

RunResult run(std::uint64_t writes, double drop_p, double corrupt_p,
              std::uint64_t disconnect_after) {
  RunResult out;
  InprocNetwork network;
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(disk);
  auto listener_or = network.listen("replica");
  if (!listener_or.is_ok()) return out;
  auto listener = std::shared_ptr<Listener>(std::move(*listener_or));
  std::thread server = replica_serve_in_background(replica, listener);

  std::uint64_t next_seed = 1000;
  auto faulty_link = [&](std::uint64_t seed, std::uint64_t cut_after)
      -> Result<std::unique_ptr<Transport>> {
    PRINS_ASSIGN_OR_RETURN(std::unique_ptr<Transport> raw,
                           network.connect("replica"));
    FaultConfig faults;
    faults.drop_p = drop_p;
    faults.corrupt_p = corrupt_p;
    faults.disconnect_after = cut_after;
    faults.seed = seed;
    return std::unique_ptr<Transport>(
        std::make_unique<FaultyTransport>(std::move(raw), faults));
  };

  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;
  config.coalesce_writes = true;
  config.pipeline_depth = 8;
  config.retry.max_attempts = 10;
  config.retry.base_backoff = std::chrono::milliseconds(1);
  config.retry.max_backoff = std::chrono::milliseconds(10);
  config.retry.op_timeout = std::chrono::milliseconds(5);
  config.reconnect = [&](std::size_t) {
    return faulty_link(next_seed++, /*cut_after=*/0);
  };

  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = faulty_link(7, disconnect_after);
    if (!link.is_ok()) return out;
    engine->add_replica(std::move(*link));
  }

  Rng rng(42);
  Bytes block(kBs);
  std::vector<double> lat_us;
  lat_us.reserve(writes);
  const auto start = bench::Clock::now();
  bool writes_ok = true;
  for (std::uint64_t i = 0; i < writes; ++i) {
    rng.fill(block);
    const auto begin = bench::Clock::now();
    writes_ok &= engine->write(rng.next_below(kBlocks), block).is_ok();
    lat_us.push_back(bench::to_us(bench::Clock::now() - begin));
  }
  writes_ok &= engine->drain().is_ok();
  const double elapsed = bench::seconds_since(start);

  const EngineMetrics metrics = engine->metrics();
  out.writes_per_sec = elapsed > 0 ? static_cast<double>(writes) / elapsed : 0;
  out.lat = bench::summarize_latencies(lat_us);
  out.retries = metrics.retries;
  out.reconnects = metrics.reconnects;
  out.auto_resyncs = metrics.auto_resyncs;
  out.converged = devices_match(*primary, *disk);
  out.ok = writes_ok;

  engine.reset();
  listener->close();
  server.join();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t writes = 4000;
  if (argc > 1) {
    const auto v = std::strtoull(argv[1], nullptr, 10);
    if (v > 0) writes = v;
  }

  std::printf("=== Throughput vs message loss (1 replica, PRINS, %llu "
              "writes, 4 KB blocks, pipeline 8, coalescing on) ===\n\n",
              static_cast<unsigned long long>(writes));
  std::printf("%-9s %-11s %12s %9s %9s %10s %10s %6s\n", "drop_p",
              "corrupt_p", "writes/s", "p50 us", "p99 us", "retries",
              "converged", "ok");
  bool all_good = true;
  const double drops[] = {0.0, 0.002, 0.005, 0.01, 0.02};
  for (const double drop : drops) {
    const double corrupt = drop / 2;
    const RunResult r = run(writes, drop, corrupt, /*disconnect_after=*/0);
    all_good &= r.converged && r.ok;
    std::printf("%-9.3f %-11.4f %12.0f %9.1f %9.1f %10llu %10s %6s\n", drop,
                corrupt, r.writes_per_sec, r.lat.p50_us, r.lat.p99_us,
                static_cast<unsigned long long>(r.retries),
                r.converged ? "yes" : "NO", r.ok ? "yes" : "NO");
  }
  std::printf("\neach dropped message costs one op_timeout plus a "
              "backed-off retransmit of the un-acked window; the replica's "
              "sequence dedup absorbs the duplicates.\n\n");

  std::printf("=== Hard disconnect mid-run, healed by the reconnect "
              "factory ===\n\n");
  std::printf("%-16s %12s %9s %10s %12s %12s %10s %6s\n", "cut after msg",
              "writes/s", "p99 us", "retries", "reconnects", "auto_resyncs",
              "converged", "ok");
  for (const std::uint64_t cut : {writes / 8, writes / 2}) {
    const RunResult r = run(writes, 0.002, 0.001, cut);
    all_good &= r.converged && r.ok;
    std::printf("%-16llu %12.0f %9.1f %10llu %12llu %12llu %10s %6s\n",
                static_cast<unsigned long long>(cut), r.writes_per_sec,
                r.lat.p99_us, static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.reconnects),
                static_cast<unsigned long long>(r.auto_resyncs),
                r.converged ? "yes" : "NO", r.ok ? "yes" : "NO");
  }
  std::printf("\nthe cut link degrades and self-heals: the reconnect "
              "factory supplies a fresh connection, the open window and "
              "the queued writes are replayed on it, and the replica's "
              "sequence dedup absorbs the overlap.\n\n");
  if (!all_good) {
    std::fprintf(stderr, "fault_recovery: a row did not converge or failed\n");
    return 1;
  }
  return 0;
}
