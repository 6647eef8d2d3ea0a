// prinsctl — run PRINS nodes from the command line.
//
// A minimal operational wrapper over the library, enough to stand up the
// paper's testbed on real machines:
//
//   # on the replica host
//   prinsctl replica --file replica.img --blocks 65536 --bs 8192 --port 3261
//
//   # on the storage host (serves iSCSI to applications, replicates out)
//   prinsctl target --file primary.img --blocks 65536 --bs 8192
//                   --port 3260 --replica 10.0.0.2:3261 [--policy prins]
//
//   # anywhere: list targets a portal exposes
//   prinsctl discover --host 10.0.0.1 --port 3260
//
// Both server modes run until the process is interrupted.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "block/file_disk.h"
#include "block/integrity_disk.h"
#include "block/mem_disk.h"
#include "cluster/cluster_router.h"
#include "cluster/pg_map.h"
#include "cluster/pg_membership.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/logging.h"
#include "iscsi/initiator.h"
#include "iscsi/reactor_target.h"
#include "iscsi/target.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "prins/engine.h"
#include "prins/journal.h"
#include "prins/reactor_server.h"
#include "prins/read_router.h"
#include "prins/replica.h"

namespace {

using namespace prins;

struct Options {
  std::map<std::string, std::string> values;

  const char* get(const std::string& key, const char* fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second.c_str();
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

Options parse_options(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    if (std::strncmp(key, "--", 2) == 0) {
      options.values[key + 2] = argv[i + 1];
    }
  }
  return options;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  prinsctl replica  --file PATH --blocks N --bs BYTES "
               "--port P [--trap 1] [--sidecar PATH] [--intents PATH]\n"
               "                    [--apply-shards N] [--cache-blocks N] "
               "[--ack-batch N] [--stats SECS] [--epoch N]\n"
               "  prinsctl target   --file PATH --blocks N --bs BYTES "
               "--port P [--replica HOST:PORT] [--policy "
               "traditional|compressed|prins] [--sidecar PATH]\n"
               "                    [--journal PATH] [--stats SECS] "
               "[--epoch N]\n"
               "  prinsctl promote  --file PATH --blocks N --bs BYTES "
               "--port P [--intents PATH] [--replica HOST:PORT]\n"
               "                    [--policy ...] [--journal PATH] "
               "[--stats SECS] [--epoch N]\n"
               "  prinsctl scrub    --file PATH --blocks N --bs BYTES "
               "--sidecar PATH [--replica HOST:PORT] [--rate BLOCKS/S]\n"
               "  prinsctl discover --host H --port P\n"
               "  prinsctl cluster serve --blocks N --bs BYTES [--dir DIR] "
               "[--mirrors R] [--sync 1] [--stats SECS] [--json 1]\n"
               "  prinsctl cluster route --blocks N --bs BYTES [--writes N] "
               "[--stats 1] [--json 1]\n"
               "PRINS_CLUSTER_NODES=id=HOST:PORT,... names the cluster "
               "members (serve binds every port locally; route connects "
               "out).\n"
               "PRINS_PG_COUNT sets the placement-group count (power of "
               "two, default 64); both sides derive the same genesis map "
               "from the node list alone.\n"
               "PRINS_EPOCH sets the fencing epoch where --epoch is not "
               "given (flag wins).\n"
               "PRINS_READ_REPLICAS=H1:P1,H2:P2 offloads conflict-free "
               "reads to those mirrors;\n"
               "PRINS_READ_POLICY=rr|least picks the spread (default "
               "rr).\n");
  return 2;
}

/// Fencing epoch for this process: --epoch beats PRINS_EPOCH beats 0 (the
/// pre-failover legacy world, which fences nothing).
std::uint64_t epoch_knob(const Options& options) {
  if (options.values.count("epoch") != 0) return options.get_u64("epoch", 0);
  if (auto env = parse_env_size("PRINS_EPOCH", 1,
                                std::numeric_limits<std::size_t>::max())) {
    return static_cast<std::uint64_t>(*env);
  }
  return 0;
}

/// Open the backing file, optionally wrapped in an IntegrityDisk when
/// --sidecar is given.  Exits with a message on failure.
std::shared_ptr<BlockDevice> open_device(const Options& options,
                                         const char* default_file) {
  auto disk = FileDisk::open(options.get("file", default_file),
                             options.get_u64("blocks", 4096),
                             static_cast<std::uint32_t>(
                                 options.get_u64("bs", 8192)));
  if (!disk.is_ok()) {
    std::fprintf(stderr, "open backing file: %s\n",
                 disk.status().to_string().c_str());
    return nullptr;
  }
  std::shared_ptr<BlockDevice> device(std::move(*disk));
  const std::string sidecar = options.get("sidecar", "");
  if (!sidecar.empty()) {
    auto checked = IntegrityDisk::open(device, {sidecar});
    if (!checked.is_ok()) {
      std::fprintf(stderr, "open checksum sidecar: %s\n",
                   checked.status().to_string().c_str());
      return nullptr;
    }
    device = std::move(*checked);
  }
  return device;
}

/// The process-wide reactor pool every socket runs on, created on first
/// use (PRINS_REACTOR_THREADS sizes it).  A node cannot run without it.
std::shared_ptr<ReactorPool> shared_reactor_pool() {
  static std::shared_ptr<ReactorPool> pool = [] {
    auto created = ReactorPool::create();
    if (!created.is_ok()) {
      std::fprintf(stderr, "reactor pool unavailable: %s\n",
                   created.status().to_string().c_str());
      std::exit(1);
    }
    return std::move(*created);
  }();
  return pool;
}

Result<std::unique_ptr<Transport>> connect_tcp(const std::string& host,
                                               std::uint16_t port) {
  return ReactorTcpTransport::connect(
      shared_reactor_pool()->next().shared_from_this(), host, port);
}

ReplicationPolicy parse_policy(const std::string& name) {
  if (name == "traditional") return ReplicationPolicy::kTraditional;
  if (name == "compressed") return ReplicationPolicy::kTraditionalCompressed;
  return ReplicationPolicy::kPrins;
}

/// PRINS_READ_REPLICAS: comma-separated HOST:PORT list of replica listeners
/// to offload conflict-free reads to.  Empty / unset disables offload.
/// Malformed entries are skipped with a warning rather than aborting the
/// node — read offload is an optimization, never a requirement.
std::vector<std::pair<std::string, std::uint16_t>> read_replica_specs() {
  std::vector<std::pair<std::string, std::uint16_t>> specs;
  const char* raw = std::getenv("PRINS_READ_REPLICAS");
  if (raw == nullptr) return specs;
  std::string list(raw);
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string spec = list.substr(start, comma - start);
    start = comma + 1;
    if (spec.empty()) continue;
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
      std::fprintf(stderr,
                   "PRINS_READ_REPLICAS: skipping \"%s\" (want HOST:PORT)\n",
                   spec.c_str());
      continue;
    }
    specs.emplace_back(spec.substr(0, colon),
                       static_cast<std::uint16_t>(std::strtoul(
                           spec.c_str() + colon + 1, nullptr, 10)));
  }
  return specs;
}

/// PRINS_READ_POLICY: "least" picks the link with the fewest reads in
/// flight; anything else (including unset) is round-robin.
ReadPolicy read_policy_knob() {
  const char* raw = std::getenv("PRINS_READ_POLICY");
  if (raw != nullptr && std::string(raw) == "least") {
    return ReadPolicy::kLeastOutstanding;
  }
  return ReadPolicy::kRoundRobin;
}

int run_replica(const Options& options) {
  std::shared_ptr<BlockDevice> disk = open_device(options, "replica.img");
  if (disk == nullptr) return 1;
  ReplicaConfig config;
  config.keep_trap_log = options.get_u64("trap", 0) != 0;
  config.cluster_epoch = epoch_knob(options);
  config.apply_shards =
      static_cast<std::size_t>(options.get_u64("apply-shards", 0));
  config.old_block_cache_blocks =
      static_cast<std::size_t>(options.get_u64("cache-blocks", 0));
  if (const std::uint64_t batch = options.get_u64("ack-batch", 0); batch > 0) {
    config.ack_coalesce_max = static_cast<std::size_t>(batch);
  }
  const std::string intents = options.get("intents", "");
  if (!intents.empty()) {
    auto log = WriteIntentLog::open(intents);
    if (!log.is_ok()) {
      std::fprintf(stderr, "open intent log: %s\n",
                   log.status().to_string().c_str());
      return 1;
    }
    config.intent_log = std::shared_ptr<WriteIntentLog>(std::move(*log));
  }
  auto replica = std::make_shared<ReplicaEngine>(disk, config);
  if (config.intent_log != nullptr) {
    auto damaged = replica->recover_intents();
    if (!damaged.is_ok()) {
      std::fprintf(stderr, "intent replay: %s\n",
                   damaged.status().to_string().c_str());
      return 1;
    }
    for (Lba lba : *damaged) {
      std::printf("torn block %llu awaits full-block repair\n",
                  static_cast<unsigned long long>(lba));
    }
  }
  const auto port = static_cast<std::uint16_t>(options.get_u64("port", 3261));
  const std::uint64_t stats_every = options.get_u64("stats", 0);
  auto banner = [&](std::uint16_t bound, const char* serving) {
    std::printf(
        "replica node on port %u (device %s, TRAP log %s, %zu apply shards, "
        "old-block cache %zu blocks, %s)\n",
        bound, options.get("file", "replica.img"),
        config.keep_trap_log ? "on" : "off", replica->apply_shards(),
        config.old_block_cache_blocks, serving);
  };
  // Periodic pipeline-counter report, one parseable line per interval;
  // never returns (the node runs until the process is killed).
  auto report_stats_forever = [&]() {
    for (;;) {
      std::this_thread::sleep_for(
          std::chrono::seconds(stats_every > 0 ? stats_every : 3600));
      if (stats_every == 0) continue;
      const ReplicaMetrics m = replica->metrics();
      const double hit_rate =
          m.cache_hits + m.cache_misses > 0
              ? static_cast<double>(m.cache_hits) /
                    static_cast<double>(m.cache_hits + m.cache_misses)
              : 0.0;
      const double fsyncs_per_apply =
          m.intent_records > 0 ? static_cast<double>(m.intent_fsyncs) /
                                     static_cast<double>(m.intent_records)
                               : 0.0;
      const double batch_avg =
          m.ack_batches > 0 ? static_cast<double>(m.acks_batched) /
                                  static_cast<double>(m.ack_batches)
                            : 0.0;
      std::printf("stats: applied=%llu queue_peak=%llu ack_batches=%llu "
                  "ack_batch_avg=%.1f fsyncs_per_apply=%.3f "
                  "cache_hit_rate=%.3f naks=%llu dups=%llu "
                  "repair_reads=%llu client_reads=%llu stale_read_naks=%llu\n",
                  static_cast<unsigned long long>(m.writes_applied),
                  static_cast<unsigned long long>(m.apply_queue_peak),
                  static_cast<unsigned long long>(m.ack_batches), batch_avg,
                  fsyncs_per_apply, hit_rate,
                  static_cast<unsigned long long>(m.naks_sent),
                  static_cast<unsigned long long>(m.duplicates_dropped),
                  static_cast<unsigned long long>(m.repair_reads_served),
                  static_cast<unsigned long long>(m.client_reads_served),
                  static_cast<unsigned long long>(m.stale_read_naks));
      std::fflush(stdout);
    }
  };
  // Thread-free serving: every session's frame loop runs as a reactor
  // handler feeding one shared set of apply workers, so the node costs
  // O(reactor_threads + apply_shards) threads however many primaries
  // connect.
  ReactorReplicaServerOptions server_options;
  server_options.port = port;
  auto server =
      ReactorReplicaServer::start(replica, shared_reactor_pool(), server_options);
  if (!server.is_ok()) {
    std::fprintf(stderr, "listen: %s\n", server.status().to_string().c_str());
    return 1;
  }
  banner((*server)->port(), "thread-free reactor serving");
  report_stats_forever();
  return 0;  // unreachable
}

/// Build the engine config every primary-side command shares: policy,
/// fencing epoch (--epoch / PRINS_EPOCH), the node's shared loop, and the
/// crash-durable replication journal when --journal names a file.
Result<EngineConfig> primary_engine_config(const Options& options) {
  EngineConfig config;
  config.policy = parse_policy(options.get("policy", "prins"));
  config.cluster_epoch = epoch_knob(options);
  // Offloading reads requires the engine to maintain its recent-writes
  // conflict window from the first write, so the knob is resolved here
  // rather than when the router is built.
  config.read_from_replicas = !read_replica_specs().empty();
  // The replica senders run on the node's shared loop instead of a
  // private one.
  config.reactor = shared_reactor_pool()->at(0).shared_from_this();
  const std::string journal_path = options.get("journal", "");
  if (!journal_path.empty()) {
    PRINS_ASSIGN_OR_RETURN(auto journal,
                           ReplicationJournal::open(journal_path));
    config.journal = std::shared_ptr<ReplicationJournal>(std::move(journal));
  }
  return config;
}

/// Connect and attach the --replica HOST:PORT link, if one was given
/// (kInvalidArgument for bad syntax, the connect error otherwise).
Status attach_replica(PrinsEngine& engine, const Options& options) {
  const std::string replica_spec = options.get("replica", "");
  if (replica_spec.empty()) return Status::ok();
  const auto colon = replica_spec.rfind(':');
  if (colon == std::string::npos) {
    return invalid_argument("--replica expects HOST:PORT");
  }
  const std::string host = replica_spec.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(
      std::strtoul(replica_spec.c_str() + colon + 1, nullptr, 10));
  PRINS_ASSIGN_OR_RETURN(auto link, connect_tcp(host, port));
  engine.add_replica(std::move(link));
  std::printf("replicating to %s with policy %s\n", replica_spec.c_str(),
              std::string(policy_name(
                  parse_policy(options.get("policy", "prins")))).c_str());
  return Status::ok();
}

/// EngineMetrics as one JSON object (no trailing newline) — the machine
/// half of --stats; benches and CI scrape this instead of the key=value
/// text.
std::string engine_metrics_json(const EngineMetrics& m) {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"epoch\": %llu, \"writes\": %llu, \"raw_bytes\": %llu, "
      "\"payload_bytes\": %llu, \"acks\": %llu, \"retries\": %llu, "
      "\"reconnects\": %llu, \"auto_resyncs\": %llu, "
      "\"stale_epoch_naks\": %llu, \"journal_frozen\": %llu, "
      "\"journal_watermark\": %llu, \"journal_pending\": %llu, "
      "\"journal_pending_bytes\": %llu, \"journal_spills\": %llu, "
      "\"replica_reads\": %llu, \"stale_read_retries\": %llu, "
      "\"read_conflicts_local\": %llu}",
      static_cast<unsigned long long>(m.cluster_epoch),
      static_cast<unsigned long long>(m.writes),
      static_cast<unsigned long long>(m.raw_bytes),
      static_cast<unsigned long long>(m.payload_bytes),
      static_cast<unsigned long long>(m.acks),
      static_cast<unsigned long long>(m.retries),
      static_cast<unsigned long long>(m.reconnects),
      static_cast<unsigned long long>(m.auto_resyncs),
      static_cast<unsigned long long>(m.stale_epoch_naks),
      static_cast<unsigned long long>(m.journal_frozen),
      static_cast<unsigned long long>(m.journal_watermark),
      static_cast<unsigned long long>(m.journal_pending),
      static_cast<unsigned long long>(m.journal_pending_bytes),
      static_cast<unsigned long long>(m.journal_spills),
      static_cast<unsigned long long>(m.replica_reads),
      static_cast<unsigned long long>(m.stale_read_retries),
      static_cast<unsigned long long>(m.read_conflicts_local));
  return buf;
}

/// Periodic engine counters, one parseable line per interval — epoch and
/// journal depth included so an operator can see a frozen watermark (a
/// down replica pinning the journal) or a fencing event at a glance.
/// --json 1 swaps the key=value text for one JSON object per line.
/// Never returns.
[[noreturn]] void report_engine_stats_forever(PrinsEngine& engine,
                                              std::uint64_t every_secs,
                                              bool json) {
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::seconds(every_secs > 0 ? every_secs : 3600));
    if (every_secs == 0) continue;
    const EngineMetrics m = engine.metrics();
    if (json) {
      std::printf("%s\n", engine_metrics_json(m).c_str());
      std::fflush(stdout);
      continue;
    }
    std::printf("stats: epoch=%llu writes=%llu acks=%llu reconnects=%llu "
                "stale_epoch_naks=%llu journal_frozen=%llu "
                "journal_watermark=%llu journal_pending=%llu "
                "journal_pending_bytes=%llu journal_spills=%llu "
                "replica_reads=%llu stale_read_retries=%llu "
                "read_conflicts_local=%llu\n",
                static_cast<unsigned long long>(m.cluster_epoch),
                static_cast<unsigned long long>(m.writes),
                static_cast<unsigned long long>(m.acks),
                static_cast<unsigned long long>(m.reconnects),
                static_cast<unsigned long long>(m.stale_epoch_naks),
                static_cast<unsigned long long>(m.journal_frozen),
                static_cast<unsigned long long>(m.journal_watermark),
                static_cast<unsigned long long>(m.journal_pending),
                static_cast<unsigned long long>(m.journal_pending_bytes),
                static_cast<unsigned long long>(m.journal_spills),
                static_cast<unsigned long long>(m.replica_reads),
                static_cast<unsigned long long>(m.stale_read_retries),
                static_cast<unsigned long long>(m.read_conflicts_local));
    std::fflush(stdout);
  }
}

/// Serve `engine` as an iSCSI target on --port until killed (shared tail
/// of `target` and `promote`).
int serve_target(std::shared_ptr<PrinsEngine> engine, const Options& options,
                 const char* default_file) {
  // PRINS_READ_REPLICAS interposes the read router between iSCSI and the
  // engine: conflict-free reads fan out across the listed mirrors, writes
  // and conflicted reads pass through to the engine untouched.
  std::shared_ptr<BlockDevice> device = engine;
  const auto read_specs = read_replica_specs();
  if (!read_specs.empty()) {
    ReadRouterConfig router_config;
    router_config.policy = read_policy_knob();
    auto router = std::make_shared<ReadRouter>(engine, router_config);
    for (const auto& [host, port] : read_specs) {
      auto link = connect_tcp(host, port);
      if (!link.is_ok()) {
        std::fprintf(stderr, "read replica %s:%u unavailable (%s); reads "
                             "stay local\n",
                     host.c_str(), port, link.status().to_string().c_str());
        continue;
      }
      router->add_read_replica(std::move(*link));
    }
    std::printf("read offload: %zu mirror link%s, %s policy\n",
                router->read_replica_count(),
                router->read_replica_count() == 1 ? "" : "s",
                router_config.policy == ReadPolicy::kLeastOutstanding
                    ? "least-outstanding"
                    : "round-robin");
    device = std::move(router);
  }
  auto target = std::make_shared<iscsi::IscsiTarget>(device);
  const auto port = static_cast<std::uint16_t>(options.get_u64("port", 3260));
  const std::uint64_t stats_every = options.get_u64("stats", 0);
  // Thread-free serving: each session is an actor on a small worker pool
  // instead of a parked PDU thread.
  iscsi::ReactorIscsiServerOptions server_options;
  server_options.port = port;
  auto server = iscsi::ReactorIscsiServer::start(target, shared_reactor_pool(),
                                                 server_options);
  if (!server.is_ok()) {
    std::fprintf(stderr, "listen: %s\n", server.status().to_string().c_str());
    return 1;
  }
  std::printf("iSCSI target on port %u (device %s, epoch %llu, "
              "thread-free)\n",
              (*server)->port(), options.get("file", default_file),
              static_cast<unsigned long long>(engine->cluster_epoch()));
  std::fflush(stdout);  // the serve loop blocks; surface the banner now
  report_engine_stats_forever(*engine, stats_every, options.get_u64("json", 0) != 0);
}

int run_target(const Options& options) {
  std::shared_ptr<BlockDevice> disk = open_device(options, "primary.img");
  if (disk == nullptr) return 1;
  auto engine_config = primary_engine_config(options);
  if (!engine_config.is_ok()) {
    std::fprintf(stderr, "engine setup: %s\n",
                 engine_config.status().to_string().c_str());
    return 1;
  }
  auto engine = std::make_shared<PrinsEngine>(disk, *engine_config);
  if (Status attached = attach_replica(*engine, options); !attached.is_ok()) {
    std::fprintf(stderr, "%s\n", attached.to_string().c_str());
    return attached.code() == ErrorCode::kInvalidArgument ? 2 : 1;
  }
  if (engine_config->journal != nullptr) {
    // Re-ship anything the previous incarnation journaled but never saw
    // acked by every replica (idempotent: replicas dedup).
    if (Status replayed = engine->replay_journal(); !replayed.is_ok()) {
      std::fprintf(stderr, "journal replay: %s\n",
                   replayed.to_string().c_str());
      return 1;
    }
  }
  return serve_target(std::move(engine), options, "primary.img");
}

int run_promote(const Options& options) {
  // Turn a (recovered) replica image into the live primary: replay the
  // write-intent log, refuse while any block is torn, mint the next
  // fencing epoch, delta-resync the surviving replica from the CDP trap
  // log, and serve iSCSI.  The old primary, should it reappear, is fenced
  // by every node that saw a new-epoch frame.
  std::shared_ptr<BlockDevice> disk = open_device(options, "replica.img");
  if (disk == nullptr) return 1;
  ReplicaConfig replica_config;
  replica_config.keep_trap_log = true;  // promote() folds resyncs from it
  replica_config.cluster_epoch = epoch_knob(options);
  const std::string intents = options.get("intents", "");
  if (!intents.empty()) {
    auto log = WriteIntentLog::open(intents);
    if (!log.is_ok()) {
      std::fprintf(stderr, "open intent log: %s\n",
                   log.status().to_string().c_str());
      return 1;
    }
    replica_config.intent_log =
        std::shared_ptr<WriteIntentLog>(std::move(*log));
  }
  ReplicaEngine replica(disk, replica_config);
  if (replica_config.intent_log != nullptr) {
    auto damaged = replica.recover_intents();
    if (!damaged.is_ok()) {
      std::fprintf(stderr, "intent replay: %s\n",
                   damaged.status().to_string().c_str());
      return 1;
    }
    for (Lba lba : *damaged) {
      std::fprintf(stderr, "torn block %llu needs full-block repair before "
                           "this copy can lead\n",
                   static_cast<unsigned long long>(lba));
    }
  }
  auto engine_config = primary_engine_config(options);
  if (!engine_config.is_ok()) {
    std::fprintf(stderr, "engine setup: %s\n",
                 engine_config.status().to_string().c_str());
    return 1;
  }
  auto promoted = replica.promote(*engine_config);
  if (!promoted.is_ok()) {
    std::fprintf(stderr, "promote: %s\n",
                 promoted.status().to_string().c_str());
    return 1;
  }
  std::shared_ptr<PrinsEngine> engine = std::move(*promoted);
  std::printf("promoted to primary at cluster epoch %llu\n",
              static_cast<unsigned long long>(engine->cluster_epoch()));
  std::fflush(stdout);
  if (Status attached = attach_replica(*engine, options); !attached.is_ok()) {
    std::fprintf(stderr, "%s\n", attached.to_string().c_str());
    return attached.code() == ErrorCode::kInvalidArgument ? 2 : 1;
  }
  if (!std::string(options.get("replica", "")).empty()) {
    auto resynced = engine->resync_replica(0);
    if (!resynced.is_ok()) {
      std::fprintf(stderr, "survivor resync: %s\n",
                   resynced.status().to_string().c_str());
      return 1;
    }
    std::printf("survivor caught up with %llu folded deltas\n",
                static_cast<unsigned long long>(*resynced));
  }
  return serve_target(std::move(engine), options, "replica.img");
}

int run_scrub(const Options& options) {
  std::shared_ptr<BlockDevice> disk = open_device(options, "primary.img");
  if (disk == nullptr) return 1;
  if (options.values.count("sidecar") == 0) {
    std::fprintf(stderr,
                 "warning: scrubbing without --sidecar can only find "
                 "corruption the device itself reports\n");
  }

  EngineConfig engine_config;
  engine_config.policy = parse_policy(options.get("policy", "prins"));
  engine_config.reactor = shared_reactor_pool()->at(0).shared_from_this();
  PrinsEngine engine(disk, engine_config);

  const std::string replica_spec = options.get("replica", "");
  if (!replica_spec.empty()) {
    const auto colon = replica_spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--replica expects HOST:PORT\n");
      return 2;
    }
    auto link = connect_tcp(
        replica_spec.substr(0, colon),
        static_cast<std::uint16_t>(
            std::strtoul(replica_spec.c_str() + colon + 1, nullptr, 10)));
    if (!link.is_ok()) {
      std::fprintf(stderr, "connect to replica %s: %s\n",
                   replica_spec.c_str(), link.status().to_string().c_str());
      return 1;
    }
    engine.add_replica(std::move(*link));
  }

  ScrubberConfig scrub_config;
  scrub_config.blocks_per_second = options.get_u64("rate", 0);
  auto pass = engine.scrub(scrub_config);
  if (!pass.is_ok()) {
    std::fprintf(stderr, "scrub failed: %s\n",
                 pass.status().to_string().c_str());
    return 1;
  }
  std::printf("scanned    %llu blocks\n",
              static_cast<unsigned long long>(pass->blocks_scanned));
  std::printf("corrupt    %llu\n",
              static_cast<unsigned long long>(pass->corruptions_found));
  std::printf("repaired   %llu\n",
              static_cast<unsigned long long>(pass->repaired));
  for (const auto& [source, count] : pass->repaired_by) {
    std::printf("  via %-8s %llu\n", source.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("quarantined %llu\n",
              static_cast<unsigned long long>(pass->quarantined));
  std::printf("read errors %llu\n",
              static_cast<unsigned long long>(pass->read_errors));
  return pass->quarantined == 0 ? 0 : 1;
}

int run_discover(const Options& options) {
  auto transport = connect_tcp(
      options.get("host", "127.0.0.1"),
      static_cast<std::uint16_t>(options.get_u64("port", 3260)));
  if (!transport.is_ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 transport.status().to_string().c_str());
    return 1;
  }
  auto targets = iscsi::discover_targets(std::move(*transport));
  if (!targets.is_ok()) {
    std::fprintf(stderr, "discovery failed: %s\n",
                 targets.status().to_string().c_str());
    return 1;
  }
  for (const std::string& name : *targets) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// cluster: PG-sharded multi-primary serving and routing.

struct ClusterNodeSpec {
  std::string id;
  std::string host;
  std::uint16_t port = 0;
};

/// PRINS_CLUSTER_NODES (or --nodes): "id=HOST:PORT,id=HOST:PORT,...".  The
/// id list orders nothing — the genesis map is rendezvous-hashed, so every
/// party parsing the same list computes the same placement.
std::vector<ClusterNodeSpec> cluster_nodes_knob(const Options& options) {
  std::vector<ClusterNodeSpec> specs;
  std::string list = options.get("nodes", "");
  if (list.empty()) {
    const char* raw = std::getenv("PRINS_CLUSTER_NODES");
    if (raw != nullptr) list = raw;
  }
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string entry = list.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    const auto colon = entry.rfind(':');
    if (eq == std::string::npos || eq == 0 || colon == std::string::npos ||
        colon < eq + 2 || colon + 1 >= entry.size()) {
      std::fprintf(stderr,
                   "PRINS_CLUSTER_NODES: skipping \"%s\" (want "
                   "id=HOST:PORT)\n",
                   entry.c_str());
      continue;
    }
    ClusterNodeSpec spec;
    spec.id = entry.substr(0, eq);
    spec.host = entry.substr(eq + 1, colon - eq - 1);
    spec.port = static_cast<std::uint16_t>(
        std::strtoul(entry.c_str() + colon + 1, nullptr, 10));
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// PRINS_PG_COUNT: placement groups in the map (rounded up to a power of
/// two by PgMap).  Both serve and route must agree on it.
std::uint32_t pg_count_knob() {
  if (auto env = parse_env_size("PRINS_PG_COUNT", 1, 1u << 20)) {
    return static_cast<std::uint32_t>(*env);
  }
  return 64;
}

/// Host every cluster node in this process: one PgMembership over the full
/// node list, a TCP client-frame listener per node on its configured port.
/// The single-process testbed shape — routers connect to the listed ports
/// exactly as they would to separate machines.
int run_cluster_serve(const Options& options) {
  const auto specs = cluster_nodes_knob(options);
  if (specs.empty()) {
    std::fprintf(stderr, "cluster serve: PRINS_CLUSTER_NODES (or --nodes) "
                         "must list the members\n");
    return 2;
  }
  const auto blocks = options.get_u64("blocks", 4096);
  const auto bs = static_cast<std::uint32_t>(options.get_u64("bs", 8192));
  const std::string dir = options.get("dir", "");

  cluster::MembershipConfig config;
  config.map.pg_count = pg_count_knob();
  config.map.mirrors =
      static_cast<std::uint32_t>(options.get_u64("mirrors", 1));
  config.sync_writes = options.get_u64("sync", 0) != 0;
  cluster::PgMembership membership(
      [&](const std::string& id) -> std::shared_ptr<BlockDevice> {
        if (dir.empty()) return std::make_shared<MemDisk>(blocks, bs);
        auto disk = FileDisk::open(dir + "/" + id + ".img", blocks, bs);
        if (!disk.is_ok()) {
          std::fprintf(stderr, "open %s/%s.img: %s\n", dir.c_str(),
                       id.c_str(), disk.status().to_string().c_str());
          return nullptr;
        }
        return std::shared_ptr<BlockDevice>(std::move(*disk));
      },
      config);
  for (const auto& spec : specs) {
    if (Status added = membership.add_node(spec.id); !added.is_ok()) {
      std::fprintf(stderr, "add node %s: %s\n", spec.id.c_str(),
                   added.to_string().c_str());
      return 1;
    }
  }
  if (Status started = membership.start(); !started.is_ok()) {
    std::fprintf(stderr, "cluster start: %s\n", started.to_string().c_str());
    return 1;
  }

  std::vector<std::thread> accept_threads;
  for (const auto& spec : specs) {
    auto listener = ReactorListener::listen(shared_reactor_pool(), spec.port);
    if (!listener.is_ok()) {
      std::fprintf(stderr, "listen %s on port %u: %s\n", spec.id.c_str(),
                   spec.port, listener.status().to_string().c_str());
      return 1;
    }
    std::printf("node %s serving client frames on port %u\n",
                spec.id.c_str(), (*listener)->port());
    accept_threads.emplace_back(
        [&membership, id = spec.id,
         listener = std::shared_ptr<Listener>(std::move(*listener))] {
          for (;;) {
            auto conn = listener->accept();
            if (!conn.is_ok()) return;
            std::thread([&membership, id,
                         transport = std::shared_ptr<Transport>(
                             std::move(*conn))] {
              (void)membership.serve_client(id, *transport);
            }).detach();
          }
        });
  }
  const auto map = membership.map();
  std::printf("cluster up: %zu nodes, %u PGs, %u mirror%s per PG, map epoch "
              "%llu\n",
              specs.size(), map->pg_count(), map->mirror_target(),
              map->mirror_target() == 1 ? "" : "s",
              static_cast<unsigned long long>(map->epoch()));
  std::fflush(stdout);

  const std::uint64_t stats_every = options.get_u64("stats", 0);
  const bool json = options.get_u64("json", 0) != 0;
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::seconds(stats_every > 0 ? stats_every : 3600));
    if (stats_every == 0) continue;
    if (json) {
      std::printf("{\"map_epoch\": %llu, \"nodes\": [",
                  static_cast<unsigned long long>(membership.map()->epoch()));
      bool first = true;
      for (const auto& node : membership.stats()) {
        std::printf("%s{\"id\": \"%s\", \"alive\": %s, \"pgs\": %zu, "
                    "\"engines\": %zu, \"mirror_sessions\": %zu, "
                    "\"metrics\": %s}",
                    first ? "" : ", ", node.id.c_str(),
                    node.alive ? "true" : "false", node.pgs.size(),
                    node.engines, node.mirror_sessions,
                    engine_metrics_json(node.metrics).c_str());
        first = false;
      }
      std::printf("]}\n");
    } else {
      for (const auto& node : membership.stats()) {
        std::printf("stats: node=%s alive=%d pgs=%zu engines=%zu "
                    "mirror_sessions=%zu writes=%llu acks=%llu\n",
                    node.id.c_str(), node.alive ? 1 : 0, node.pgs.size(),
                    node.engines, node.mirror_sessions,
                    static_cast<unsigned long long>(node.metrics.writes),
                    static_cast<unsigned long long>(node.metrics.acks));
      }
    }
    std::fflush(stdout);
  }
}

/// Route a write/read-back workload through a PG-aware router over the
/// listed nodes' client listeners, then report router counters (and per-PG
/// op counts with --stats 1).  The map is the deterministic genesis map —
/// no control channel needed to bootstrap.
int run_cluster_route(const Options& options) {
  const auto specs = cluster_nodes_knob(options);
  if (specs.empty()) {
    std::fprintf(stderr, "cluster route: PRINS_CLUSTER_NODES (or --nodes) "
                         "must list the members\n");
    return 2;
  }
  const auto blocks = options.get_u64("blocks", 4096);
  const auto bs = static_cast<std::uint32_t>(options.get_u64("bs", 8192));

  cluster::PgMapConfig map_config;
  map_config.pg_count = pg_count_knob();
  map_config.mirrors =
      static_cast<std::uint32_t>(options.get_u64("mirrors", 1));
  std::vector<std::string> ids;
  for (const auto& spec : specs) ids.push_back(spec.id);
  auto map = std::make_shared<const cluster::PgMap>(
      cluster::PgMap::build(ids, map_config));

  cluster::ClusterRouter router(bs, blocks, map, [map] { return map; });
  for (const auto& spec : specs) {
    router.add_node(spec.id,
                    std::make_shared<cluster::WireBackend>(
                        spec.id,
                        [host = spec.host, port = spec.port] {
                          return connect_tcp(host, port);
                        },
                        /*pool_size=*/4, std::chrono::milliseconds(2000)));
  }

  const std::uint64_t writes = options.get_u64("writes", 1024);
  Rng rng(options.get_u64("seed", 7));
  Bytes block(bs), check(bs);
  std::map<Lba, std::uint64_t> written;  // last write wins per LBA
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < writes; ++i) {
    const Lba lba = rng.next_below(blocks);
    const std::uint64_t stamp = mix64(lba ^ (i << 20));
    for (std::size_t off = 0; off < bs; off += sizeof(stamp)) {
      std::memcpy(block.data() + off, &stamp, sizeof(stamp));
    }
    if (Status s = router.write(lba, block); !s.is_ok()) {
      std::fprintf(stderr, "write lba %llu: %s\n",
                   static_cast<unsigned long long>(lba),
                   s.to_string().c_str());
      return 1;
    }
    written[lba] = stamp;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::uint64_t mismatches = 0;
  for (const auto& [lba, stamp] : written) {
    if (Status s = router.read(lba, check); !s.is_ok()) {
      std::fprintf(stderr, "read lba %llu: %s\n",
                   static_cast<unsigned long long>(lba),
                   s.to_string().c_str());
      return 1;
    }
    std::uint64_t got = 0;
    std::memcpy(&got, check.data() + bs - sizeof(got), sizeof(got));
    if (got != stamp) ++mismatches;
  }

  const cluster::RouterMetrics m = router.metrics();
  if (options.get_u64("json", 0) != 0) {
    std::printf("{\"map_epoch\": %llu, \"writes\": %llu, \"reads\": %llu, "
                "\"span_splits\": %llu, \"wrong_pg_retries\": %llu, "
                "\"unavailable_retries\": %llu, \"map_refreshes\": %llu, "
                "\"writes_per_sec\": %.1f, \"mismatches\": %llu}\n",
                static_cast<unsigned long long>(m.map_epoch),
                static_cast<unsigned long long>(m.writes),
                static_cast<unsigned long long>(m.reads),
                static_cast<unsigned long long>(m.span_splits),
                static_cast<unsigned long long>(m.wrong_pg_retries),
                static_cast<unsigned long long>(m.unavailable_retries),
                static_cast<unsigned long long>(m.map_refreshes),
                elapsed > 0 ? static_cast<double>(writes) / elapsed : 0.0,
                static_cast<unsigned long long>(mismatches));
  } else {
    std::printf("routed %llu writes + read-back over %zu nodes / %u PGs: "
                "%.0f writes/s, %llu mismatches, map epoch %llu\n",
                static_cast<unsigned long long>(writes), specs.size(),
                map->pg_count(),
                elapsed > 0 ? static_cast<double>(writes) / elapsed : 0.0,
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(m.map_epoch));
    std::printf("router: span_splits=%llu wrong_pg_retries=%llu "
                "unavailable_retries=%llu map_refreshes=%llu\n",
                static_cast<unsigned long long>(m.span_splits),
                static_cast<unsigned long long>(m.wrong_pg_retries),
                static_cast<unsigned long long>(m.unavailable_retries),
                static_cast<unsigned long long>(m.map_refreshes));
  }
  if (options.get_u64("stats", 0) != 0) {
    const auto per_pg = router.pg_op_counts();
    for (std::size_t pg = 0; pg < per_pg.size(); ++pg) {
      if (per_pg[pg] == 0) continue;
      std::printf("pg %4zu -> %-8s ops=%llu\n", pg,
                  map->assignment(static_cast<cluster::PgId>(pg))
                      .primary.c_str(),
                  static_cast<unsigned long long>(per_pg[pg]));
    }
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  set_log_level(LogLevel::kInfo);
  const std::string command = argv[1];
  const Options options = parse_options(argc, argv, 2);
  if (command == "replica") return run_replica(options);
  if (command == "target") return run_target(options);
  if (command == "promote") return run_promote(options);
  if (command == "scrub") return run_scrub(options);
  if (command == "discover") return run_discover(options);
  if (command == "cluster" && argc >= 3) {
    const std::string sub = argv[2];
    const Options cluster_options = parse_options(argc, argv, 3);
    if (sub == "serve") return run_cluster_serve(cluster_options);
    if (sub == "route") return run_cluster_route(cluster_options);
  }
  return usage();
}
