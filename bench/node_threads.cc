// Node-thread face-off for replica serving: thread-per-connection
// (replica_serve_in_background: one blocking recv() thread per session)
// vs the thread-free ReactorReplicaServer (handler-driven delivery).  Both
// feed the replica's one shared set of LBA-striped apply workers.
//
// Every cell drives N initiator connections, each streaming windowed
// PRINS parity deltas (kWrite, ZeroRle-framed) into a fresh 4-shard
// replica and counting cumulative acks (kAck = 1, kAckBatch = sum of its
// range lengths).  The initiators are reactor-handler clients for BOTH
// servers, so client threading is constant across cells and the measured
// thread count tracks the server architecture:
//
//   thread-per-conn   O(connections) node threads — each accepted session
//                     parks a blocking recv() thread
//   reactor           O(reactor_threads + apply_shards) node threads no
//                     matter how many initiators are connected
//
// "threads" below is the peak `Threads:` value from /proc/self/status
// during the cell minus the baseline sampled before the replica is built,
// i.e. the threads the serving architecture itself costs (apply workers
// included).  The headline claims are (a) the
// reactor sustains >= 64 connections on a handful of node threads and
// (b) its applies/s at matched connection count stays within ~10% of the
// threaded baseline — event-driven demux does not tax the apply pipeline.
//
// Results land in BENCH_node_threads.json; --quick shrinks the matrix so
// the binary doubles as a ctest / CI smoke test.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "block/mem_disk.h"
#include "codec/codec.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "net/tcp.h"
#include "prins/message.h"
#include "prins/reactor_server.h"
#include "prins/replica.h"

namespace prins {
namespace {

using bench::Clock;

constexpr std::uint32_t kBs = 4096;
constexpr std::uint64_t kBlocks = 1024;
constexpr std::size_t kApplyShards = 4;
constexpr std::uint64_t kWindow = 32;  // outstanding deltas per connection

// Current thread count of this process (the node under test hosts the
// replica AND the initiators, so cells report deltas from a baseline
// sampled before their replica is built).
std::size_t count_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(
          std::strtoul(line.c_str() + 8, nullptr, 10));
    }
  }
  return 0;
}

struct CellResult {
  const char* server;
  std::size_t conns;
  bool sustained;
  double applies_per_sec;
  std::size_t node_threads;  // peak during cell minus pre-server baseline
};

// Per-connection windowed initiator.  Every send — including the opening
// window, which is post()ed onto the connection's reactor — happens on
// that one loop thread, so the non-atomic fields are single-threaded.
struct InitiatorLoop {
  std::shared_ptr<Transport> transport;
  std::shared_ptr<Reactor> reactor;  // the loop this connection lives on
  Bytes payload;  // pre-encoded ZeroRle delta frame, reused every message
  std::uint64_t seq_base = 0;
  Lba lba_base = 0;
  std::uint64_t lba_span = 1;
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t target = 0;
};

bool send_delta(InitiatorLoop* loop) {
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kPrinsRle;
  msg.block_size = kBs;
  msg.lba = loop->lba_base + (loop->sent % loop->lba_span);
  msg.sequence = loop->seq_base + loop->sent;
  msg.timestamp_us = msg.sequence;
  msg.payload = loop->payload;
  if (!loop->transport->send(msg.encode()).is_ok()) return false;
  ++loop->sent;
  return true;
}

// Drive `conns` windowed initiators against 127.0.0.1:port until each has
// `per_conn` deltas acked, sampling the process thread peak along the
// way.  Returns false on a watchdog trip.
bool drive_initiators(std::shared_ptr<ReactorPool> pool, std::uint16_t port,
                      std::size_t conns, std::uint64_t per_conn,
                      std::size_t threads_before, CellResult* cell) {
  // A sparse delta, as PRINS produces for small in-place updates: ZeroRle
  // collapses the untouched tail so the wire cost matches the paper's
  // delta-compression setting.
  Bytes delta(kBs, Byte{0});
  for (std::size_t i = 0; i < 64; ++i) {
    delta[i] = static_cast<Byte>(0xa5u + i);
  }
  const Bytes payload = encode_frame(codec_for(CodecId::kZeroRle), delta);

  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<std::unique_ptr<InitiatorLoop>> loops;
  loops.reserve(conns);
  const std::uint64_t span = std::max<std::uint64_t>(1, kBlocks / conns);
  for (std::size_t i = 0; i < conns; ++i) {
    auto reactor = pool->next().shared_from_this();
    auto transport =
        ReactorTcpTransport::connect(reactor, "127.0.0.1", port);
    if (!transport.is_ok()) {
      std::fprintf(stderr, "conn %zu: %s\n", i,
                   transport.status().to_string().c_str());
      return false;
    }
    auto loop = std::make_unique<InitiatorLoop>();
    loop->transport = std::move(*transport);
    loop->reactor = std::move(reactor);
    loop->payload = payload;
    // The replica's dedup window is global across sessions, so every
    // connection gets a disjoint sequence range.
    loop->seq_base = (static_cast<std::uint64_t>(i) + 1) * 10'000'000ull;
    loop->lba_base = static_cast<Lba>(i % conns) * span % kBlocks;
    loop->lba_span = span;
    loop->target = per_conn;
    InitiatorLoop* raw = loop.get();
    // The handler holds the transport shared_ptr, so a late ack can never
    // outlive its connection; the cycle is broken after the run by
    // resetting the handler before the loops are torn down.
    static_cast<ReactorTcpTransport*>(loop->transport.get())
        ->set_message_handler([raw, t = loop->transport, done](Bytes&& wire) {
          auto reply = ReplicationMessage::decode(wire);
          if (!reply.is_ok()) return;
          std::uint64_t covered = 1;
          if (reply->kind == MessageKind::kAckBatch) {
            auto ranges = unpack_ack_ranges(reply->payload);
            if (!ranges.is_ok()) return;
            covered = 0;
            for (const AckRange& range : *ranges) covered += range.count;
          }
          const bool was_done = raw->acked >= raw->target;
          raw->acked += covered;
          while (raw->sent < raw->target &&
                 raw->sent - raw->acked < kWindow) {
            if (!send_delta(raw)) return;
          }
          if (!was_done && raw->acked >= raw->target) {
            done->fetch_add(1, std::memory_order_relaxed);
          }
        });
    loops.push_back(std::move(loop));
  }

  const auto start = Clock::now();
  // Prime each window on its own connection's loop thread: acks start
  // flowing the moment the first delta lands, so sending from here would
  // race the handler's refill.  A send failure surfaces as an unsustained
  // cell via the watchdog below.
  for (auto& loop : loops) {
    InitiatorLoop* raw = loop.get();
    loop->reactor->post([raw] {
      for (std::uint64_t k = 0; k < std::min(kWindow, raw->target); ++k) {
        if (!send_delta(raw)) return;
      }
    });
  }
  const auto deadline = start + std::chrono::seconds(120);
  std::size_t peak_threads = count_threads();
  while (done->load(std::memory_order_relaxed) < conns) {
    if (Clock::now() > deadline) break;
    peak_threads = std::max(peak_threads, count_threads());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool sustained = done->load(std::memory_order_relaxed) == conns;
  const double secs = bench::seconds_since(start);

  std::uint64_t total_acked = 0;
  for (auto& loop : loops) {
    static_cast<ReactorTcpTransport*>(loop->transport.get())
        ->set_message_handler(nullptr);
    total_acked += loop->acked;
    loop->transport->close();
  }

  cell->conns = conns;
  cell->sustained = sustained;
  cell->applies_per_sec =
      secs > 0 ? static_cast<double>(total_acked) / secs : 0;
  cell->node_threads =
      peak_threads > threads_before ? peak_threads - threads_before : 0;
  return sustained;
}

std::shared_ptr<ReplicaEngine> fresh_replica() {
  ReplicaConfig rconfig;
  rconfig.apply_shards = kApplyShards;
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  return std::make_shared<ReplicaEngine>(disk, rconfig);
}

bool run_thread_per_conn(std::shared_ptr<ReactorPool> client_pool,
                         std::size_t conns, std::uint64_t per_conn,
                         CellResult* cell) {
  cell->server = "thread-per-conn";
  const std::size_t threads_before = count_threads();
  auto replica = fresh_replica();
  auto listener = TcpListener::listen(0);
  if (!listener.is_ok()) return false;
  const std::uint16_t port = (*listener)->port();
  auto shared_listener = std::shared_ptr<Listener>(std::move(*listener));
  std::thread server = replica_serve_in_background(replica, shared_listener);

  const bool ok = drive_initiators(client_pool, port, conns, per_conn,
                                   threads_before, cell);
  shared_listener->close();
  server.join();
  return ok;
}

bool run_reactor(std::shared_ptr<ReactorPool> client_pool,
                 std::size_t server_loops, std::size_t conns,
                 std::uint64_t per_conn, CellResult* cell) {
  cell->server = "reactor";
  const std::size_t threads_before = count_threads();
  auto replica = fresh_replica();
  auto server_pool = ReactorPool::create(server_loops);
  if (!server_pool.is_ok()) return false;
  auto server = ReactorReplicaServer::start(replica, *server_pool);
  if (!server.is_ok()) {
    std::fprintf(stderr, "reactor server: %s\n",
                 server.status().to_string().c_str());
    return false;
  }

  const bool ok = drive_initiators(client_pool, (*server)->port(), conns,
                                   per_conn, threads_before, cell);
  (*server)->stop();
  return ok;
}

}  // namespace
}  // namespace prins

int main(int argc, char** argv) {
  using namespace prins;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // Roughly constant delta volume per cell so big-conn cells don't take
  // proportionally longer; every connection still streams a meaningful
  // windowed run.
  const std::uint64_t msg_target = quick ? 4000 : 64000;
  const std::vector<std::size_t> baseline_counts =
      quick ? std::vector<std::size_t>{8} : std::vector<std::size_t>{8, 64};
  const std::vector<std::size_t> reactor_counts =
      quick ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 64, 256};
  const std::size_t server_loops = 2;

  auto client_pool = ReactorPool::create(2);
  if (!client_pool.is_ok()) {
    std::fprintf(stderr, "reactor pool creation failed\n");
    return 1;
  }

  std::vector<CellResult> cells;
  std::printf("block=%u shards=%zu window=%llu\n", kBs, kApplyShards,
              static_cast<unsigned long long>(kWindow));
  std::printf("%-16s %8s %6s %14s %10s\n", "server", "conns", "ok",
              "applies/s", "threads");
  auto run_cell = [&](bool ok, const CellResult& cell) {
    cells.push_back(cell);
    std::printf("%-16s %8zu %6s %14.0f %10zu\n", cell.server, cell.conns,
                ok ? "yes" : "NO", cell.applies_per_sec, cell.node_threads);
  };
  for (std::size_t conns : baseline_counts) {
    const std::uint64_t per_conn =
        std::max<std::uint64_t>(50, msg_target / conns);
    CellResult cell{};
    run_cell(run_thread_per_conn(*client_pool, conns, per_conn, &cell), cell);
  }
  for (std::size_t conns : reactor_counts) {
    const std::uint64_t per_conn =
        std::max<std::uint64_t>(50, msg_target / conns);
    CellResult cell{};
    run_cell(run_reactor(*client_pool, server_loops, conns, per_conn, &cell),
             cell);
  }

  // Headline: thread cost at each server's largest sustained count, and
  // the apply-throughput ratio at the largest connection count BOTH
  // sustained (same 4-shard apply pipeline, so this should sit near 1.0).
  std::size_t baseline_threads_at_max = 0, reactor_threads_at_max = 0;
  std::size_t baseline_max = 0, reactor_max = 0;
  for (const CellResult& c : cells) {
    if (!c.sustained) continue;
    if (std::strcmp(c.server, "thread-per-conn") == 0) {
      if (c.conns >= baseline_max) {
        baseline_max = c.conns;
        baseline_threads_at_max = c.node_threads;
      }
    } else if (c.conns >= reactor_max) {
      reactor_max = c.conns;
      reactor_threads_at_max = c.node_threads;
    }
  }
  double baseline_rate = 0, reactor_rate = 0;
  const std::size_t common = std::min(baseline_max, reactor_max);
  for (const CellResult& c : cells) {
    if (!c.sustained || c.conns != common) continue;
    if (std::strcmp(c.server, "thread-per-conn") == 0) {
      baseline_rate = c.applies_per_sec;
    } else {
      reactor_rate = c.applies_per_sec;
    }
  }
  const double rate_ratio =
      baseline_rate > 0 ? reactor_rate / baseline_rate : 0.0;
  std::printf(
      "\nnode threads at max sustained: thread-per-conn=%zu@%zu "
      "reactor=%zu@%zu; applies/s ratio (reactor/baseline) = %.2f\n",
      baseline_threads_at_max, baseline_max, reactor_threads_at_max,
      reactor_max, rate_ratio);

  FILE* json = std::fopen("BENCH_node_threads.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"block_size\": %u,\n", kBs);
    std::fprintf(json, "  \"apply_shards\": %zu,\n", kApplyShards);
    std::fprintf(json, "  \"window\": %llu,\n",
                 static_cast<unsigned long long>(kWindow));
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"reactor_loops\": %zu,\n", server_loops);
    std::fprintf(json, "  \"baseline_max_conns\": %zu,\n", baseline_max);
    std::fprintf(json, "  \"reactor_max_conns\": %zu,\n", reactor_max);
    std::fprintf(json, "  \"baseline_threads_at_max\": %zu,\n",
                 baseline_threads_at_max);
    std::fprintf(json, "  \"reactor_threads_at_max\": %zu,\n",
                 reactor_threads_at_max);
    std::fprintf(json, "  \"applies_per_sec_ratio\": %.3f,\n", rate_ratio);
    std::fprintf(json, "  \"rows\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellResult& c = cells[i];
      std::fprintf(json,
                   "    {\"server\": \"%s\", \"conns\": %zu, "
                   "\"sustained\": %s, \"applies_per_sec\": %.1f, "
                   "\"node_threads\": %zu}%s\n",
                   c.server, c.conns, c.sustained ? "true" : "false",
                   c.applies_per_sec, c.node_threads,
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_node_threads.json\n");
  }
  return 0;
}
