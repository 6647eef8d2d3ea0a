// End-to-end benchmark of one PRINS node, in one process over loopback TCP:
//
//   IscsiInitiator sessions (closed loop, one command outstanding each)
//     -> ReactorIscsiServer -> IscsiTarget -> [FrontProbe] -> ReadRouter
//        -> PrinsEngine (kPrins, reactor senders, read offload) -> [DiskProbe]
//           MemDisk
//        -> [LinkProbe] replica link + [LinkProbe] read link (ReactorTcp)
//     -> ReactorReplicaServer -> ReplicaEngine -> [DiskProbe] MemDisk
//
// Usage: stack_bench --workload oltp|read-mostly --seed N --seconds S
//                    --trace 0|1 [--commit ID] [--build-type NAME]
//
// A run stands the whole stack up kStandUps times (inputs generated from
// the seed, node started, sessions logged in: that is setup_s), measures
// --seconds / kStandUps on each, verifies both disks and tears it down.
//
// The whole process (sessions, node and replica) runs on one CPU.  On a
// shared virtual machine the hypervisor takes virtual CPUs away from the
// guest in bursts (steal).  A command crosses several threads, and with
// the threads spread over all CPUs a command stalls whenever any CPU on
// its path is stolen: a quarter of the host's CPU time stolen cost up to
// three quarters of the throughput, so runs measured the host, not the
// node.  On one CPU a stolen slice costs the node just that slice, and
// the node did not run much slower (12k to 15k against about 14k
// commands/s on read-mostly, on a 4-vCPU VM): its commands wait on each
// other's round trips, not on CPU.  The measured time is cut into short intervals, and
// the timing metrics are means over the intervals whose CPU saw (almost)
// no steal.  --trace 0 prints the end-to-end
// metrics; --trace 1 runs an untraced baseline phase, then a traced phase,
// on each stand-up and prints the per-layer metrics (with the tracing
// overhead measured against the baseline).  The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the line before it is
// a JSON record of the host, the configuration and every stand-up.
//
// No journal and no intent log: fsync on a shared disk is not steady, so
// the durability layers are out of scope here.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "inputs.h"
#include "iscsi/initiator.h"
#include "iscsi/reactor_target.h"
#include "iscsi/target.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "parity/xor.h"
#include "prins/engine.h"
#include "prins/reactor_server.h"
#include "prins/read_router.h"
#include "prins/replica.h"
#include "prins/replication_policy.h"
#include "probes.h"
#include "queueing/mva.h"
#include "stats.h"

namespace stackbench {
namespace {

using prins::EngineMetrics;
using prins::ReplicaMetrics;

constexpr int kStandUps = 8;
constexpr double kIntervalSeconds = 0.25;
// Timing figures use the intervals that lost at most kQuietSteal of the
// bench's CPU to steal, or the kMinKept least-stolen ones if fewer did.
// /proc/stat counts in 10 ms ticks: this lets one tick of a 0.25 s
// interval go.
constexpr double kQuietSteal = 0.05;
constexpr std::size_t kMinKept = 10;
constexpr double kWarmupSeconds = 0.5;
constexpr std::size_t kReplayPairs = 512;
constexpr double kReplaySeconds = 0.2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string build_type = "unknown";
  int cpu = -1;  // the one CPU the process runs on
};

bool parse_args(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 120) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--commit") {
      opt.commit = value;
    } else if (key == "--build-type") {
      opt.build_type = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Confine the process, and so every thread it starts later, to one CPU:
/// the last one it may run on (the first tends to take more of the
/// kernel's housekeeping).  Returns the CPU, or -1 if that failed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/// One CPU's jiffies from /proc/stat: {steal, total}.  Steal is time the
/// hypervisor ran someone else on that virtual CPU.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies(int cpu) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  const std::string want = "cpu" + std::to_string(cpu);
  char name[32];
  std::pair<std::uint64_t, std::uint64_t> out{0, 0};
  while (std::fscanf(f, "%31s", name) == 1) {
    if (want == name) {
      unsigned long long v[8] = {};
      const int n = std::fscanf(f, "%llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                                &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
      for (int i = 0; i < n; ++i) out.second += v[i];
      if (n == 8) out.first = v[7];
      break;
    }
    int c = 0;
    while ((c = std::fgetc(f)) != EOF && c != '\n') {
    }
  }
  std::fclose(f);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The expected image of every block: what its owning session last wrote.
/// Sessions touch only the blocks they own, so they share it without locks.
class Expected {
 public:
  explicit Expected(const Inputs& in) : in_(in), image_(in.base) {}

  ByteSpan block(Lba lba) const {
    return ByteSpan(image_).subspan(lba * kBlockSize, kBlockSize);
  }

  /// Advance the block's image by the write's delta; returns the bytes the
  /// WRITE sends.
  ByteSpan prepare_write(const Op& op) {
    MutByteSpan page = MutByteSpan(image_).subspan(op.lba * kBlockSize, kBlockSize);
    in_.stream.apply(op.delta, page);
    return page;
  }

 private:
  const Inputs& in_;
  Bytes image_;
};

/// One stand-up of the node, the replica and the client sessions.
struct Node {
  explicit Node(std::size_t sessions) : trace(sessions) {}
  ~Node() { shutdown(); }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  void shutdown() {
    for (auto& initiator : initiators) (void)initiator->logout();
    initiators.clear();
    if (iscsi_server) iscsi_server->stop();
    iscsi_server.reset();
    target.reset();
    front.reset();
    router.reset();  // closes the read link
    // The iSCSI server's connection callbacks may hold the target (and so
    // the engine) a moment longer; stop the replica only once the engine
    // is gone, so its links close from this side.
    const std::weak_ptr<prins::PrinsEngine> gone = engine;
    engine.reset();
    for (int i = 0; i < 2000 && !gone.expired(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (replica_server) replica_server->stop();
    replica_server.reset();
    replica.reset();
  }

  Trace trace;
  std::shared_ptr<prins::ReactorPool> client_pool, primary_pool, replica_pool;
  std::shared_ptr<prins::MemDisk> primary_disk, replica_disk;
  std::shared_ptr<prins::ReplicaEngine> replica;
  std::unique_ptr<prins::ReactorReplicaServer> replica_server;
  std::shared_ptr<prins::PrinsEngine> engine;
  LinkProbe* repl_link = nullptr;  // owned by the engine
  std::shared_ptr<prins::ReadRouter> router;
  std::shared_ptr<FrontProbe> front;
  std::shared_ptr<prins::iscsi::IscsiTarget> target;
  std::unique_ptr<prins::iscsi::ReactorIscsiServer> iscsi_server;
  std::vector<std::unique_ptr<prins::iscsi::IscsiInitiator>> initiators;
  std::size_t iscsi_workers = 0;
};

prins::Result<std::unique_ptr<Node>> stand_up(const Inputs& in) {
  auto node = std::make_unique<Node>(in.sessions);
  PRINS_ASSIGN_OR_RETURN(node->client_pool, prins::ReactorPool::create(1));
  PRINS_ASSIGN_OR_RETURN(node->primary_pool, prins::ReactorPool::create());
  PRINS_ASSIGN_OR_RETURN(node->replica_pool, prins::ReactorPool::create());

  node->primary_disk = std::make_shared<prins::MemDisk>(in.blocks, kBlockSize);
  node->replica_disk = std::make_shared<prins::MemDisk>(in.blocks, kBlockSize);
  PRINS_RETURN_IF_ERROR(node->primary_disk->write(0, in.base));
  PRINS_RETURN_IF_ERROR(node->replica_disk->write(0, in.base));

  node->replica = std::make_shared<prins::ReplicaEngine>(
      std::make_shared<DiskProbe>(node->replica_disk, node->trace,
                                  DiskProbe::Node::kReplica));
  PRINS_ASSIGN_OR_RETURN(node->replica_server,
                         prins::ReactorReplicaServer::start(node->replica,
                                                            node->replica_pool));
  const std::uint16_t replica_port = node->replica_server->port();

  prins::EngineConfig config;
  config.policy = prins::ReplicationPolicy::kPrins;
  config.reactor = node->primary_pool->at(0).shared_from_this();
  config.reactor_senders = true;
  config.read_from_replicas = true;
  node->engine = std::make_shared<prins::PrinsEngine>(
      std::make_shared<DiskProbe>(node->primary_disk, node->trace,
                                  DiskProbe::Node::kPrimary),
      config);
  const auto connect = [&](prins::ReactorPool& pool, std::uint16_t port) {
    return prins::ReactorTcpTransport::connect(pool.next().shared_from_this(),
                                               "127.0.0.1", port);
  };

  PRINS_ASSIGN_OR_RETURN(auto repl_transport, connect(*node->primary_pool, replica_port));
  auto repl_probe = std::make_unique<LinkProbe>(std::move(repl_transport), node->trace,
                                                LinkProbe::Link::kReplication);
  node->repl_link = repl_probe.get();
  const std::size_t threads_before = count_threads();
  node->engine->add_replica(std::move(repl_probe));
  if (count_threads() > threads_before) {
    return prins::internal_error(
        "add_replica started a sender thread: the replica link fell back "
        "from the reactor sender");
  }

  node->router = std::make_shared<prins::ReadRouter>(node->engine);
  PRINS_ASSIGN_OR_RETURN(auto read_transport, connect(*node->primary_pool, replica_port));
  auto read_probe = std::make_unique<LinkProbe>(std::move(read_transport), node->trace,
                                                LinkProbe::Link::kRead);
  node->router->add_read_replica(std::move(read_probe));

  node->front = std::make_shared<FrontProbe>(node->router, node->trace, in.owner);
  node->target = std::make_shared<prins::iscsi::IscsiTarget>(node->front);
  // One worker per session: a SYNCHRONIZE CACHE holds its worker until
  // every replica acks, and with fewer workers than sessions the other
  // sessions' commands would queue behind it.
  prins::iscsi::ReactorIscsiServerOptions server_options;
  server_options.worker_threads = in.sessions;
  node->iscsi_workers = server_options.worker_threads;
  PRINS_ASSIGN_OR_RETURN(node->iscsi_server,
                         prins::iscsi::ReactorIscsiServer::start(
                             node->target, node->primary_pool, server_options));
  for (std::size_t s = 0; s < in.sessions; ++s) {
    PRINS_ASSIGN_OR_RETURN(auto link,
                           connect(*node->client_pool, node->iscsi_server->port()));
    PRINS_ASSIGN_OR_RETURN(auto initiator,
                           prins::iscsi::IscsiInitiator::login(std::move(link)));
    node->initiators.push_back(std::move(initiator));
  }
  return node;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Initiator-side latencies of completed commands, microseconds.
struct Latencies {
  std::vector<double> write_us, read_us, flush_us;

  void append_all(const Latencies& other) {
    append(write_us, other.write_us);
    append(read_us, other.read_us);
    append(flush_us, other.flush_us);
  }
};

/// What one session measured during one phase.
struct SessionStats {
  std::vector<Latencies> intervals;  // by completion time
  std::vector<double> iscsi_write_self_us, iscsi_read_self_us;  // traced only
  std::uint64_t attempted = 0, failed = 0;
};

/// Phase control shared by the main thread and the sessions.
class Control {
 public:
  std::atomic<bool> recording{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  Clock::time_point phase_start;  // written while every session is parked

  /// Session side: park until the main thread resumes the sessions.
  void park() {
    std::unique_lock lock(mutex_);
    ++parked_;
    cv_.notify_all();
    const std::uint64_t generation = generation_;
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

  /// Main side: ask every session to flush and park; wait until they have.
  void pause_all(std::size_t sessions) {
    pause.store(true);
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return parked_ == sessions; });
  }

  void resume() {
    pause.store(false);
    std::lock_guard lock(mutex_);
    parked_ = 0;
    ++generation_;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parked_ = 0;
  std::uint64_t generation_ = 0;
};

struct SessionOutcome {
  std::uint64_t mismatches = 0;           // reads that returned the wrong image
  std::uint64_t unrecorded_failures = 0;  // failures outside a phase
};

void run_session(std::size_t s, const Inputs& in, Node& node, Expected& expected,
                 Control& ctl, SessionStats& stats, SessionOutcome& outcome) {
  prins::iscsi::IscsiInitiator& initiator = *node.initiators[s];
  const std::vector<Op>& ops = in.ops[s];
  Bytes read_buf(kBlockSize);
  std::size_t next = 0;
  while (true) {
    if (ctl.pause.load()) {
      if (!initiator.flush().is_ok()) ++outcome.unrecorded_failures;
      ctl.park();
      if (ctl.stop.load()) return;
      continue;
    }
    const Op& op = ops[next++ % ops.size()];
    const bool traced = node.trace.on.load(std::memory_order_relaxed);
    if (traced) node.trace.target_ns[s].store(0, std::memory_order_relaxed);
    const Clock::time_point t0 = Clock::now();
    Status status;
    switch (op.kind) {
      case OpKind::kWrite:
        status = initiator.write(op.lba, expected.prepare_write(op));
        break;
      case OpKind::kRead:
        status = initiator.read(op.lba, read_buf);
        break;
      case OpKind::kFlush:
        status = initiator.flush();
        break;
    }
    const Clock::time_point t1 = Clock::now();
    if (status.is_ok() && op.kind == OpKind::kRead &&
        std::memcmp(read_buf.data(), expected.block(op.lba).data(), kBlockSize) != 0) {
      ++outcome.mismatches;
    }
    if (!ctl.recording.load()) {
      if (!status.is_ok()) ++outcome.unrecorded_failures;
      continue;
    }
    ++stats.attempted;
    if (!status.is_ok()) {
      ++stats.failed;
      continue;
    }
    const auto interval = static_cast<std::size_t>(
        std::max(0.0, seconds_between(ctl.phase_start, t1)) / kIntervalSeconds);
    if (interval >= stats.intervals.size()) continue;  // past the last boundary
    Latencies& lat = stats.intervals[interval];
    const double us = prins::bench::to_us(t1 - t0);
    const double self_us =
        us - static_cast<double>(node.trace.target_ns[s].load(std::memory_order_relaxed)) / 1e3;
    switch (op.kind) {
      case OpKind::kWrite:
        lat.write_us.push_back(us);
        if (traced) stats.iscsi_write_self_us.push_back(self_us);
        break;
      case OpKind::kRead:
        lat.read_us.push_back(us);
        if (traced) stats.iscsi_read_self_us.push_back(self_us);
        break;
      case OpKind::kFlush:
        lat.flush_us.push_back(us);
        break;
    }
  }
}

double p50_or_nan(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : quantile(v, 0.5);
}

/// One kIntervalSeconds slice of a phase, across all sessions.  Only its
/// summary is kept, so the bench's own memory does not grow with the
/// node's throughput.
struct Interval {
  std::size_t writes = 0, reads = 0, flushes = 0;
  double write_p50_us = 0, read_p50_us = 0, flush_p50_us = 0;  // NaN: no samples
  double seconds = 0;
  double cpu_s = 0;        // process CPU time
  double steal_share = 0;  // steal / time of the bench's CPU

  void summarize(const Latencies& lat) {
    writes = lat.write_us.size();
    reads = lat.read_us.size();
    flushes = lat.flush_us.size();
    write_p50_us = p50_or_nan(lat.write_us);
    read_p50_us = p50_or_nan(lat.read_us);
    flush_p50_us = p50_or_nan(lat.flush_us);
  }
  std::size_t ops() const { return writes + reads + flushes; }
  double ops_per_s() const { return ratio(static_cast<double>(ops()), seconds); }
  double cpu_us_per_op() const { return ratio(cpu_s * 1e6, static_cast<double>(ops())); }
};

struct Snapshot {
  EngineMetrics engine;
  ReplicaMetrics replica;
  std::uint64_t repl_bytes = 0, repl_messages = 0;
};

Snapshot snapshot(const Node& node) {
  Snapshot s;
  s.engine = node.engine->metrics();
  s.replica = node.replica->metrics();
  s.repl_bytes = node.repl_link->sent_bytes();
  s.repl_messages = node.repl_link->sent_messages();
  return s;
}

/// Everything one measured phase produced.
struct Phase {
  std::vector<Interval> intervals;
  Latencies all;  // every sample, kept only when asked for
  std::vector<double> iscsi_write_self_us, iscsi_read_self_us;
  std::uint64_t attempted = 0, failed = 0;
  Snapshot before, after;
  std::size_t threads_mid = 0;
  double seconds() const {
    double total = 0;
    for (const Interval& i : intervals) total += i.seconds;
    return total;
  }
  double ops_per_s() const {
    std::size_t ops = 0;
    for (const Interval& i : intervals) ops += i.ops();
    return ratio(static_cast<double>(ops), seconds());
  }
};

/// Run one phase of about `seconds`, cut into kIntervalSeconds intervals.
/// Sessions are parked (and the engine drained) on entry and on return, so
/// phase counters and traces cover exactly the phase's commands and their
/// replication.  `keep_samples` keeps every latency sample in Phase::all.
prins::Result<Phase> run_phase(Node& node, Control& ctl, std::vector<SessionStats>& stats,
                               int pinned_cpu, double seconds, bool traced,
                               bool keep_samples) {
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds / kIntervalSeconds)));
  for (SessionStats& s : stats) {
    s = SessionStats{};
    s.intervals.resize(n);
  }
  Phase phase;
  phase.intervals.resize(n);
  phase.before = snapshot(node);
  node.trace.on.store(traced);
  auto jiffies = cpu_jiffies(pinned_cpu);
  double cpu = cpu_seconds();
  ctl.phase_start = Clock::now();
  Clock::time_point mark = ctl.phase_start;
  ctl.recording.store(true);
  ctl.resume();
  for (std::size_t k = 0; k < n; ++k) {
    std::this_thread::sleep_until(
        ctl.phase_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kIntervalSeconds * (k + 1))));
    const Clock::time_point now = Clock::now();
    const double cpu_now = cpu_seconds();
    const auto jiffies_now = cpu_jiffies(pinned_cpu);
    Interval& interval = phase.intervals[k];
    interval.seconds = seconds_between(mark, now);
    interval.cpu_s = cpu_now - cpu;
    interval.steal_share =
        ratio(static_cast<double>(jiffies_now.first - jiffies.first),
              static_cast<double>(jiffies_now.second - jiffies.second));
    mark = now;
    cpu = cpu_now;
    jiffies = jiffies_now;
    if (k == n / 2) phase.threads_mid = count_threads();
  }
  ctl.recording.store(false);
  ctl.pause_all(stats.size());
  PRINS_RETURN_IF_ERROR(node.engine->drain());
  node.trace.on.store(false);
  phase.after = snapshot(node);
  for (std::size_t k = 0; k < n; ++k) {
    Latencies lat;
    for (const SessionStats& s : stats) lat.append_all(s.intervals[k]);
    phase.intervals[k].summarize(lat);
    if (keep_samples) phase.all.append_all(lat);
  }
  for (SessionStats& s : stats) {
    append(phase.iscsi_write_self_us, s.iscsi_write_self_us);
    append(phase.iscsi_read_self_us, s.iscsi_read_self_us);
    phase.attempted += s.attempted;
    phase.failed += s.failed;
    s = SessionStats{};
  }
  return phase;
}

/// Compare both nodes' disks with the expected image of every block.
prins::Result<std::uint64_t> verify_disks(const Node& node, const Inputs& in,
                                          const Expected& expected) {
  std::uint64_t bad = 0;
  Bytes block(kBlockSize);
  for (Lba b = 0; b < in.blocks; ++b) {
    const ByteSpan want = expected.block(b);
    for (prins::MemDisk* disk : {node.primary_disk.get(), node.replica_disk.get()}) {
      PRINS_RETURN_IF_ERROR(disk->read(b, block));
      if (std::memcmp(block.data(), want.data(), kBlockSize) != 0) ++bad;
    }
  }
  return bad;
}

/// Replay the engine's parity and codec kernels on the workload's own
/// (previous, new) image pairs: microseconds per 8 KiB block.
std::pair<double, double> replay_kernels(const Inputs& in) {
  const auto pairs = write_pairs(in, kReplayPairs);
  if (pairs.empty()) return {0.0, 0.0};
  Bytes delta(kBlockSize);
  std::size_t sink = 0;
  auto time_per_block = [&](auto&& body) {
    std::uint64_t blocks = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0;
    do {
      for (const auto& [prev, next] : pairs) body(prev, next);
      blocks += pairs.size();
      elapsed = prins::bench::seconds_since(start);
    } while (elapsed < kReplaySeconds);
    return elapsed * 1e6 / static_cast<double>(blocks);
  };
  const double xor_us = time_per_block([&](const Bytes& prev, const Bytes& next) {
    sink += prins::xor_to_and_count(delta, next, prev);
  });
  const prins::Codec& codec = prins::payload_codec(prins::ReplicationPolicy::kPrins);
  std::vector<Bytes> deltas;
  for (const auto& [prev, next] : pairs) deltas.push_back(prins::parity_delta(next, prev));
  std::size_t i = 0;
  const double encode_us = time_per_block([&](const Bytes&, const Bytes&) {
    sink += codec.encode(deltas[i++ % deltas.size()]).size();
  });
  if (sink == 0) std::fprintf(stderr, "replay: every delta was empty\n");
  return {xor_us, encode_us};
}

/// "name": {"value": v, "unit": u} pairs, in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": " + buf + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

  /// Per-name median across several stand-ups' metrics (same names, same
  /// order in each).
  static Metrics median_of(const std::vector<Metrics>& runs) {
    Metrics out;
    if (runs.empty()) return out;
    for (std::size_t i = 0; i < runs[0].entries_.size(); ++i) {
      std::vector<double> values;
      for (const Metrics& m : runs) values.push_back(m.entries_[i].value);
      out.add(runs[0].entries_[i].name, quantile(values, 0.5), runs[0].entries_[i].unit);
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The intervals that lost at most kQuietSteal of the bench's CPU to
/// steal; at least the kMinKept least-stolen ones.
std::vector<const Interval*> quietest(const std::vector<const Interval*>& intervals) {
  std::vector<const Interval*> order = intervals;
  std::stable_sort(order.begin(), order.end(), [](const Interval* a, const Interval* b) {
    return a->steal_share < b->steal_share;
  });
  std::size_t keep = 0;
  while (keep < order.size() && order[keep]->steal_share <= kQuietSteal) ++keep;
  order.resize(std::min(order.size(), std::max(keep, kMinKept)));
  return order;
}

/// Mean over intervals of one per-interval figure; intervals for which
/// `figure` has no samples (returns NaN) are skipped.  A mean, not a
/// median: on one CPU the node switches for a second or so at a time
/// between a slower and a faster state (about 13.5k and 19k commands/s on
/// oltp), and a median over such a mix jumps from one state to the other
/// as their shares cross a half, where a mean moves with the shares.
template <typename Figure>
double mean_over(const std::vector<const Interval*>& intervals, Figure figure) {
  std::vector<double> values;
  for (const Interval* i : intervals) {
    const double v = figure(*i);
    if (!std::isnan(v)) values.push_back(v);
  }
  return mean(values);
}

/// The end-to-end figures of a set of intervals.
struct Timing {
  double ops_per_s = 0, write_p50_us = 0, read_p50_us = 0, flush_p50_us = 0;
  double cpu_us_per_op = 0;
};

Timing timing_of(const std::vector<const Interval*>& intervals) {
  Timing t;
  t.ops_per_s = mean_over(intervals, [](const Interval& i) { return i.ops_per_s(); });
  t.write_p50_us = mean_over(intervals, [](const Interval& i) { return i.write_p50_us; });
  t.read_p50_us = mean_over(intervals, [](const Interval& i) { return i.read_p50_us; });
  t.flush_p50_us = mean_over(intervals, [](const Interval& i) { return i.flush_p50_us; });
  t.cpu_us_per_op =
      mean_over(intervals, [](const Interval& i) { return i.cpu_us_per_op(); });
  return t;
}

std::string json_number_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[40] = "null";  // NaN and infinities are not JSON numbers
    if (std::isfinite(v[i])) std::snprintf(buf, sizeof buf, "%.6g", v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

struct LayerContext {
  const Inputs& in;
  Node& node;
  const Phase& traced;
  std::size_t client_threads;
};

/// Per-layer metrics of one stand-up's traced phase.
void add_per_layer(Metrics& m, const LayerContext& c, std::uint64_t* lag_unmatched) {
  Trace& t = c.node.trace;
  const Phase& p = c.traced;
  const EngineMetrics& e0 = p.before.engine;
  const EngineMetrics& e1 = p.after.engine;
  const ReplicaMetrics& r0 = p.before.replica;
  const ReplicaMetrics& r1 = p.after.replica;
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };

  m.add("iscsi.write_self_us_p50", quantile(p.iscsi_write_self_us, 0.5), "us");
  m.add("iscsi.read_self_us_p50", quantile(p.iscsi_read_self_us, 0.5), "us");

  const std::vector<double> engine_write = t.engine_write_us.take();
  const std::vector<double> engine_self = t.engine_write_self_us.take();
  const std::vector<double> engine_disk = t.engine_write_disk_us.take();
  m.add("engine.write_us_p50", quantile(engine_write, 0.50), "us");
  m.add("engine.write_us_p99", quantile(engine_write, 0.99), "us");
  m.add("engine.write_self_us_p50", quantile(engine_self, 0.5), "us");
  m.add("engine.flush_us_p50", quantile(t.engine_flush_us.take(), 0.5), "us");
  m.add("engine.retries", delta(e0.retries, e1.retries), "count");

  m.add("block.primary.read_us_p50", quantile(t.primary_read_us.take(), 0.5), "us");
  m.add("block.primary.write_us_p50", quantile(t.primary_write_us.take(), 0.5), "us");
  m.add("block.primary.reads_per_write",
        ratio(static_cast<double>(t.primary_write_path_read_blocks.load()),
              static_cast<double>(t.primary_written_blocks.load())),
        "ratio");
  m.add("block.replica.write_us_p50", quantile(t.replica_write_us.take(), 0.5), "us");
  m.add("block.replica.reads_per_apply",
        ratio(static_cast<double>(t.replica_read_blocks.load()) -
                  delta(r0.client_reads_served, r1.client_reads_served),
              static_cast<double>(t.replica_written_blocks.load())),
        "ratio");

  m.add("codec.payload_ratio",
        ratio(delta(e0.payload_bytes, e1.payload_bytes), delta(e0.raw_bytes, e1.raw_bytes)),
        "ratio");

  const double writes = delta(e0.writes, e1.writes);
  m.add("net.repl.msgs_per_write",
        ratio(delta(p.before.repl_messages, p.after.repl_messages), writes), "ratio");
  m.add("net.repl.send_us_p50", quantile(t.repl_send_us.take(), 0.5), "us");
  m.add("net.read.rtt_us_p50", quantile(t.read_rtt_us.take(), 0.5), "us");

  const LagMatch lag = match_replica_lag(t.primary_returns.take(), t.replica_applies.take());
  *lag_unmatched = lag.unmatched;
  m.add("replica.lag_us_p50", quantile(lag.lags_us, 0.50), "us");
  m.add("replica.lag_us_p99", quantile(lag.lags_us, 0.99), "us");
  // Applies per ack frame: every apply not folded into a kAckBatch frame
  // was acknowledged by a frame of its own.
  const double applied = delta(r0.writes_applied, r1.writes_applied);
  const double batched = delta(r0.acks_batched, r1.acks_batched);
  m.add("replica.ack_batch_avg",
        ratio(applied, delta(r0.ack_batches, r1.ack_batches) + applied - batched), "count");

  const auto reads = static_cast<double>(t.router_read_blocks.load());
  m.add("read_router.offload_ratio", ratio(delta(e0.replica_reads, e1.replica_reads), reads),
        "ratio");
  m.add("read_router.conflict_local_ratio",
        ratio(delta(e0.read_conflicts_local, e1.read_conflicts_local), reads), "ratio");
  m.add("read_router.stale_retries", delta(e0.stale_read_retries, e1.stale_read_retries),
        "count");
  m.add("read_router.self_us_p50", quantile(t.router_self_us.take(), 0.5), "us");

  // Node threads: everything but the main thread, the sessions and the
  // client-side reactor.
  m.add("process.node_threads",
        static_cast<double>(p.threads_mid - 1 - c.in.sessions - c.client_threads), "count");

  // MVA cross-check: a closed network of the write path's per-layer
  // centres (iSCSI self, engine self, primary disk), N = sessions, Z = 0.
  const std::vector<double> centres_s = {mean(p.iscsi_write_self_us) / 1e6,
                                         mean(engine_self) / 1e6, mean(engine_disk) / 1e6};
  const double predicted_us =
      prins::solve_mva(centres_s, 0.0, static_cast<unsigned>(c.in.sessions))
          .response_time_sec * 1e6;
  const double measured_us = quantile(p.all.write_us, 0.5);
  m.add("mva.predicted_write_us", predicted_us, "us");
  m.add("mva.error_pct", std::fabs(ratio(predicted_us - measured_us, measured_us)) * 100.0,
        "%");
}

/// What one stand-up measured, and how the node was configured.
struct StandUp {
  double setup_s = 0;
  Phase measured;  // the untraced phase (the baseline when tracing)
  Phase traced;    // tracing only
  Metrics layers;  // tracing only
  std::string record;  // JSON object
  std::uint64_t attempted = 0, failed = 0;
  bool correct = false;
};

std::string config_record(const Options& opt, const Inputs& in, const Node& node) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"host_cores\": %u, \"cpu\": %d, "
      "\"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"reactor_threads\": {\"primary\": %zu, \"replica\": %zu, \"client\": %zu}, "
      "\"iscsi_workers\": %zu, \"apply_shards\": %zu, \"write_shards\": %zu, "
      "\"sessions\": %zu, \"volume_blocks\": %llu, \"block_size\": %u, "
      "\"stream_writes\": %zu, \"stream_ios\": %zu, \"repeats\": %d, "
      "\"interval_s\": %g, \"quiet_steal\": %g, \"min_kept\": %zu",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), opt.cpu, opt.build_type.c_str(), opt.commit.c_str(),
      node.primary_pool->size(), node.replica_pool->size(), node.client_pool->size(),
      node.iscsi_workers, node.replica->apply_shards(), node.engine->write_shard_count(),
      in.sessions, static_cast<unsigned long long>(in.blocks), kBlockSize,
      in.stream.deltas.size(), in.tpcc_io.size(), kStandUps, kIntervalSeconds, kQuietSteal, kMinKept);
  return buf;
}

/// Generate the inputs, stand the node up (together: setup_s), run the
/// sessions through warm-up and the measured phase(s), verify both disks
/// and tear everything down.
prins::Result<StandUp> run_stand_up(const Options& opt, double seconds,
                                    std::string* config) {
  const Clock::time_point t0 = Clock::now();
  PRINS_ASSIGN_OR_RETURN(std::unique_ptr<Inputs> in, make_inputs(opt.workload, opt.seed));
  PRINS_ASSIGN_OR_RETURN(std::unique_ptr<Node> node, stand_up(*in));
  StandUp out;
  out.setup_s = prins::bench::seconds_since(t0);
  if (config->empty()) *config = config_record(opt, *in, *node);

  Expected expected(*in);
  Control ctl;
  std::vector<SessionStats> stats(in->sessions);
  std::vector<SessionOutcome> outcomes(in->sessions);
  std::vector<std::thread> sessions;
  for (std::size_t s = 0; s < in->sessions; ++s) {
    sessions.emplace_back(run_session, s, std::cref(*in), std::ref(*node),
                          std::ref(expected), std::ref(ctl), std::ref(stats[s]),
                          std::ref(outcomes[s]));
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  ctl.pause_all(in->sessions);
  Status status = node->engine->drain();
  if (status.is_ok()) {
    auto r = run_phase(*node, ctl, stats, opt.cpu, seconds, /*traced=*/false,
                       /*keep_samples=*/opt.trace);
    status = r.status();
    if (r.is_ok()) out.measured = std::move(r).value();
  }
  if (status.is_ok() && opt.trace) {
    auto r = run_phase(*node, ctl, stats, opt.cpu, seconds, /*traced=*/true,
                       /*keep_samples=*/true);
    status = r.status();
    if (r.is_ok()) out.traced = std::move(r).value();
  }
  ctl.stop.store(true);
  ctl.resume();
  for (auto& t : sessions) t.join();
  PRINS_RETURN_IF_ERROR(status);
  PRINS_ASSIGN_OR_RETURN(const std::uint64_t disk_mismatches,
                         verify_disks(*node, *in, expected));

  std::uint64_t read_mismatches = 0, lag_unmatched = 0;
  out.attempted = out.measured.attempted + out.traced.attempted;
  out.failed = out.measured.failed + out.traced.failed;
  for (const SessionOutcome& o : outcomes) {
    read_mismatches += o.mismatches;
    out.failed += o.unrecorded_failures;
  }
  if (opt.trace) {
    add_per_layer(out.layers, {*in, *node, out.traced, node->client_pool->size()},
                  &lag_unmatched);
  }
  out.correct = disk_mismatches == 0 && read_mismatches == 0 && out.failed == 0;

  // Per interval: ops/s, write/read/flush p50, CPU per op, steal share.
  std::string intervals;
  for (const Interval& i : out.measured.intervals) {
    intervals += (intervals.empty() ? "" : ", ") +
                 json_number_list({i.ops_per_s(), i.write_p50_us, i.read_p50_us,
                                   i.flush_p50_us,
                                   i.cpu_us_per_op(), i.steal_share});
  }
  std::size_t writes = 0, reads = 0, flushes = 0;
  for (const Interval& i : out.measured.intervals) {
    writes += i.writes;
    reads += i.reads;
    flushes += i.flushes;
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"setup_s\": %.6f, \"seconds\": %.3f, \"ops_per_s\": %.1f, "
                "\"traced_ops_per_s\": %.1f, "
                "\"samples\": {\"write\": %zu, \"read\": %zu, \"flush\": %zu}, "
                "\"disk_mismatches\": %llu, \"read_mismatches\": %llu, "
                "\"lag_unmatched\": %llu, \"intervals\": [",
                out.setup_s, out.measured.seconds(), out.measured.ops_per_s(),
                out.traced.ops_per_s(), writes, reads, flushes,
                static_cast<unsigned long long>(disk_mismatches),
                static_cast<unsigned long long>(read_mismatches),
                static_cast<unsigned long long>(lag_unmatched));
  out.record = buf + intervals + "]}";
  return out;
}

int run(const Options& opt) {
  // Each stand-up measures seconds / kStandUps on a fresh node: throughput
  // differs by several percent from one stand-up to the next (thread
  // placement, host load), and figures pooled over stand-ups move far less
  // than one long run does.
  std::vector<StandUp> runs;
  std::string config;
  for (int k = 0; k < kStandUps; ++k) {
    auto r = run_stand_up(opt, opt.seconds / kStandUps / (opt.trace ? 2 : 1), &config);
    if (!r.is_ok()) {
      std::fprintf(stderr, "stand-up %d: %s\n", k, r.status().to_string().c_str());
      return 1;
    }
    runs.push_back(std::move(r).value());
  }

  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string stand_ups;
  std::vector<const Interval*> measured, traced;
  std::vector<double> setup_s;
  for (const StandUp& r : runs) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.correct;
    stand_ups += (stand_ups.empty() ? "" : ", ") + r.record;
    for (const Interval& i : r.measured.intervals) measured.push_back(&i);
    for (const Interval& i : r.traced.intervals) traced.push_back(&i);
    setup_s.push_back(r.setup_s);
  }
  const std::vector<const Interval*> kept = quietest(measured);
  const Timing timing = timing_of(kept);
  Latencies pooled;  // every untraced sample of a traced run
  for (const StandUp& r : runs) pooled.append_all(r.measured.all);

  Metrics metrics;
  if (!opt.trace) {
    metrics.add("ops_per_s", timing.ops_per_s, "1/s");
    metrics.add("write_p50_us", timing.write_p50_us, "us");
    metrics.add("read_p50_us", timing.read_p50_us, "us");
    std::uint64_t bytes = 0, writes = 0;
    for (const StandUp& r : runs) {
      bytes += r.measured.after.repl_bytes - r.measured.before.repl_bytes;
      writes += r.measured.after.engine.writes - r.measured.before.engine.writes;
    }
    metrics.add("wire_bytes_per_write",
                ratio(static_cast<double>(bytes), static_cast<double>(writes)), "B/block");
    metrics.add("cpu_us_per_op", timing.cpu_us_per_op, "us");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.add("setup_s", quantile(setup_s, 0.5), "s");
  } else {
    std::vector<Metrics> layers;
    for (const StandUp& r : runs) layers.push_back(r.layers);
    metrics = Metrics::median_of(layers);
    // The replication barrier as the initiator sees it, untraced.  Reported
    // here, unbounded: it waits for the replica link to drain, and its
    // spread from run to run exceeds the largest bound allowed.
    metrics.add("e2e.flush_p50_us", timing.flush_p50_us, "us");
    // Tail latencies of the untraced phases, pooled over all their
    // intervals so that each p99 rests on at least ten samples beyond it.
    metrics.add("e2e.write_p99_us", quantile(pooled.write_us, 0.99), "us");
    metrics.add("e2e.read_p99_us", quantile(pooled.read_us, 0.99), "us");
    metrics.add("e2e.flush_p99_us", quantile(pooled.flush_us, 0.99), "us");
    auto made = make_inputs(opt.workload, opt.seed);
    if (!made.is_ok()) return 1;
    const auto [xor_us, encode_us] = replay_kernels(*made.value());
    metrics.add("parity.delta_us_per_block", xor_us, "us");
    metrics.add("codec.encode_us_per_block", encode_us, "us");
    const double traced_ops = timing_of(quietest(traced)).ops_per_s;
    metrics.add("trace.overhead_pct",
                ratio(timing.ops_per_s - traced_ops, timing.ops_per_s) * 100.0, "%");
  }
  char tails[160] = "";
  if (opt.trace) {
    std::snprintf(tails, sizeof tails,
                  "\"samples_beyond_p99\": {\"write\": %zu, \"read\": %zu, \"flush\": %zu}, ",
                  samples_beyond(pooled.write_us.size(), 0.99),
                  samples_beyond(pooled.read_us.size(), 0.99),
                  samples_beyond(pooled.flush_us.size(), 0.99));
  }
  std::printf(
      "{\"record\": {%s, \"kept_intervals\": %zu, \"kept_steal_max\": %.4f, %s"
      "\"stand_ups\": [%s]}}\n",
      config.c_str(), kept.size(), kept.empty() ? 0.0 : kept.back()->steal_share, tails,
      stand_ups.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) {
  // A fixed mmap threshold (glibc's initial default) keeps every large
  // buffer (disk images, inputs) out of the heap, so peak RSS does not
  // depend on how glibc's adaptive threshold moved between stand-ups.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  stackbench::Options opt;
  if (!stackbench::parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: stack_bench --workload oltp|read-mostly --seed N "
                 "--seconds S --trace 0|1 [--commit ID] [--build-type NAME]\n");
    return 2;
  }
  const sched_param batch{};
  if (sched_setscheduler(0, SCHED_BATCH, &batch) != 0) {
    std::perror("stack_bench: SCHED_BATCH");
    return 1;
  }
  opt.cpu = stackbench::pin_to_one_cpu();
  if (opt.cpu < 0) {
    std::perror("stack_bench: pinning to one CPU");
    return 1;
  }
  return stackbench::run(opt);
}
