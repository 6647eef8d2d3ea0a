// Ablation — cluster-wide fabric traffic as the replication degree grows.
//
// The queueing figures define population = nodes × replicas; this bench
// grounds that product in measured bytes: a symmetric N-node ring where
// every node replicates to R successors, swept over R, per policy.  The
// fabric total scales linearly with R for every policy — but the slope is
// the per-write payload, which is where PRINS wins.
#include <cstdio>

#include "bench_common.h"
#include "sim/cluster.h"

int main(int argc, char** argv) {
  using namespace prins;
  std::uint64_t writes_per_node = 150;
  if (argc > 1) {
    const auto v = std::strtoull(argv[1], nullptr, 10);
    if (v > 0) writes_per_node = v;
  }

  constexpr unsigned kNodes = 6;
  std::printf("=== Cluster fabric traffic: %u nodes, R replicas each, "
              "8 KB blocks, ~10%% dirty writes ===\n\n",
              kNodes);
  std::printf("%-4s %-10s %16s %16s %14s %12s %8s\n", "R", "population",
              "traditional KB", "PRINS KB", "ratio", "writes/s", "ok");

  for (unsigned r = 1; r <= 3; ++r) {
    double kb[2] = {0, 0};
    double writes_per_sec = 0;
    bool ok = true;
    int i = 0;
    for (ReplicationPolicy policy :
         {ReplicationPolicy::kTraditional, ReplicationPolicy::kPrins}) {
      ClusterConfig config;
      config.nodes = kNodes;
      config.replicas_per_node = r;
      config.policy = policy;
      config.block_size = 8192;
      config.blocks_per_node = 256;
      config.dirty_bytes_per_write = 800;
      config.seed = 42;
      SymmetricCluster cluster(config);
      const auto start = bench::Clock::now();
      auto report = cluster.run(writes_per_node);
      const double elapsed = bench::seconds_since(start);
      if (!report.is_ok()) {
        std::fprintf(stderr, "cluster run failed: %s\n",
                     report.status().to_string().c_str());
        return 1;
      }
      ok = ok && report->all_replicas_consistent;
      kb[i++] = static_cast<double>(report->fabric.payload_bytes) / 1024.0;
      if (policy == ReplicationPolicy::kPrins && elapsed > 0) {
        writes_per_sec = static_cast<double>(report->total_writes) / elapsed;
      }
    }
    std::printf("%-4u %-10u %16.1f %16.1f %13.1fx %12.0f %8s\n", r,
                kNodes * r, kb[0], kb[1], kb[0] / kb[1], writes_per_sec,
                ok ? "yes" : "NO");
  }
  std::printf("\nfabric bytes grow linearly with R under both policies; "
              "PRINS shrinks the slope ~an order of magnitude.\n\n");

  // End-to-end throughput as the sender pipeline deepens and same-LBA
  // deltas coalesce (R = 2, PRINS policy).  Every engine fans out to its
  // replicas over independent per-link senders, so throughput is set by
  // the slowest link, not the sum of all links.
  std::printf("=== Write throughput vs pipeline depth and coalescing "
              "(R = 2, PRINS) ===\n\n");
  std::printf("%-16s %-10s %12s %14s %8s\n", "pipeline_depth", "coalesce",
              "writes/s", "fabric msgs", "ok");
  for (const std::size_t depth : {std::size_t{1}, std::size_t{8},
                                  std::size_t{32}}) {
    for (const bool coalesce : {false, true}) {
      ClusterConfig config;
      config.nodes = kNodes;
      config.replicas_per_node = 2;
      config.policy = ReplicationPolicy::kPrins;
      config.block_size = 8192;
      config.blocks_per_node = 64;  // small volume: hot blocks re-written
      config.dirty_bytes_per_write = 800;
      config.seed = 42;
      config.pipeline_depth = depth;
      config.coalesce_writes = coalesce;
      SymmetricCluster cluster(config);
      const auto start = bench::Clock::now();
      auto report = cluster.run(writes_per_node);
      const double elapsed = bench::seconds_since(start);
      if (!report.is_ok()) {
        std::fprintf(stderr, "cluster run failed: %s\n",
                     report.status().to_string().c_str());
        return 1;
      }
      const double wps =
          elapsed > 0 ? static_cast<double>(report->total_writes) / elapsed
                      : 0.0;
      std::printf("%-16zu %-10s %12.0f %14llu %8s\n", depth,
                  coalesce ? "on" : "off", wps,
                  static_cast<unsigned long long>(report->fabric.messages),
                  report->all_replicas_consistent ? "yes" : "NO");
    }
  }
  std::printf("\ndeeper pipelines amortize link round-trips; coalescing "
              "folds hot-block deltas into fewer, larger messages.\n\n");
  return 0;
}
