// Submit-side throughput and allocation cost of the replicated write path.
//
// Two engine configurations face off at 1/2/4/8 concurrent writers on
// disjoint LBA stripes:
//
//   baseline  write_shards=1, pool_max_free=0    (the pre-shard pipeline:
//             one global submit lock, fresh heap buffers per write)
//   sharded   write_shards=8, pool_max_free=128  (LBA-striped locks +
//             freelist buffers + scatter-gather framing)
//
// For each cell we report writes/s and — via a global operator new override
// with thread-local counters — heap allocations and bytes per write *on the
// submitting threads*, which is the hot path the sharded pipeline is meant
// to make allocation-free.  Policy is kPrinsRle (the PRINS parity delta
// with the zero-RLE codec): its encode path is allocation-free, so the
// steady-state floor is visible; kPrins's LZ stage allocates by design.
//
// Results land in BENCH_write_path.json; --quick shrinks the write counts
// so the binary doubles as a ctest smoke test.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "common/rng.h"
#include "net/inproc.h"
#include "prins/engine.h"
#include "prins/replica.h"

// ---- allocation accounting -------------------------------------------------
// Per-thread counters; the writer threads snapshot them around the timed
// loop, so sender/replica-thread allocations don't pollute the hot-path
// number.

namespace {
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_alloc_bytes = 0;
}  // namespace

void* operator new(std::size_t size) {
  t_allocs += 1;
  t_alloc_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  t_allocs += 1;
  t_alloc_bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---- benchmark -------------------------------------------------------------

namespace {

using namespace prins;

constexpr std::uint32_t kBs = 4096;
constexpr std::uint64_t kStripeBlocks = 512;  // disjoint LBAs per writer

struct Cell {
  const char* config;
  int threads;
  double writes_per_sec = 0;
  double allocs_per_write = 0;
  double alloc_bytes_per_write = 0;
};

/// One rig run: `threads` writers, each `writes` blocks over its own LBA
/// stripe.  Returns the filled cell.
Cell run_cell(const char* name, int threads, std::uint64_t writes,
              std::size_t shards, bool pool) {
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrinsRle;
  config.write_shards = shards;
  if (!pool) config.pool_max_free = 0;
  // A bounded outbox plus a streaming ack window is the realistic steady
  // state: producers feel backpressure, the sender keeps the link busy, and
  // in-flight frames stay below the pool's freelist bound so they recycle.
  config.queue_capacity = 64;
  config.pipeline_depth = 32;

  const std::uint64_t blocks = kStripeBlocks * static_cast<std::uint64_t>(
                                                   threads > 8 ? threads : 8);
  auto primary = std::make_shared<MemDisk>(blocks, kBs);
  auto replica_disk = std::make_shared<MemDisk>(blocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  auto [primary_end, replica_end] = make_inproc_pair(config.queue_capacity);
  engine->add_replica(std::move(primary_end));
  std::thread server(
      [replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        (void)replica->serve(*t);
      });

  // Sparse writes: each block differs from its predecessor in one 256-byte
  // region, the parity-delta shape the RLE codec is built for.
  Rng seed_rng(42);
  Bytes base(kBs);
  seed_rng.fill(base);

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> total_allocs{0};
  std::atomic<std::uint64_t> total_alloc_bytes{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      Bytes block = base;
      const Lba stripe = static_cast<Lba>(t) * kStripeBlocks;
      // Warm up: fill the pools and settle the link before counting.
      for (std::uint64_t i = 0; i < 32; ++i) {
        (void)engine->write(stripe + i % kStripeBlocks, block);
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t allocs_before = t_allocs;
      const std::uint64_t bytes_before = t_alloc_bytes;
      for (std::uint64_t i = 0; i < writes; ++i) {
        const std::size_t off = (rng.next_below(kBs / 256)) * 256;
        for (std::size_t j = 0; j < 256; ++j) {
          block[off + j] = static_cast<Byte>(rng.next_u64());
        }
        (void)engine->write(stripe + i % kStripeBlocks, block);
      }
      total_allocs.fetch_add(t_allocs - allocs_before);
      total_alloc_bytes.fetch_add(t_alloc_bytes - bytes_before);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& w : writers) w.join();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  (void)engine->drain();
  engine.reset();  // closes the link; the serve loop exits
  server.join();

  const double total_writes =
      static_cast<double>(writes) * static_cast<double>(threads);
  Cell cell{name, threads};
  cell.writes_per_sec = total_writes / sec;
  cell.allocs_per_write =
      static_cast<double>(total_allocs.load()) / total_writes;
  cell.alloc_bytes_per_write =
      static_cast<double>(total_alloc_bytes.load()) / total_writes;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::uint64_t writes = quick ? 256 : 8192;
  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("=== PRINS write path: submit throughput and allocs/write "
              "(policy PRINS-rle, %u B blocks, %llu writes/thread) ===\n\n",
              kBs, static_cast<unsigned long long>(writes));
  std::printf("%-9s %8s %14s %13s %13s\n", "config", "threads", "writes/s",
              "allocs/write", "bytes/write");

  std::vector<Cell> cells;
  for (const int threads : thread_counts) {
    cells.push_back(
        run_cell("baseline", threads, writes, /*shards=*/1, /*pool=*/false));
    cells.push_back(
        run_cell("sharded", threads, writes, /*shards=*/8, /*pool=*/true));
    for (std::size_t i = cells.size() - 2; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::printf("%-9s %8d %14.0f %13.2f %13.1f\n", c.config, c.threads,
                  c.writes_per_sec, c.allocs_per_write,
                  c.alloc_bytes_per_write);
    }
  }

  // Headlines: 4-writer speedup and the sharded allocation floor.
  double base_4t = 0, shard_4t = 0, shard_allocs = 0;
  for (const Cell& c : cells) {
    if (c.threads == 4 && std::strcmp(c.config, "baseline") == 0) {
      base_4t = c.writes_per_sec;
    }
    if (c.threads == 4 && std::strcmp(c.config, "sharded") == 0) {
      shard_4t = c.writes_per_sec;
      shard_allocs = c.allocs_per_write;
    }
  }
  const double speedup = base_4t > 0 ? shard_4t / base_4t : 0.0;
  std::printf("\nspeedup_4_writers: %.2fx (sharded %.0f vs baseline %.0f "
              "writes/s)\n",
              speedup, shard_4t, base_4t);
  std::printf("sharded_allocs_per_write_4_writers: %.2f\n", shard_allocs);
  std::printf("hardware_threads: %u\n", std::thread::hardware_concurrency());

  FILE* json = std::fopen("BENCH_write_path.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"block_size\": %u,\n", kBs);
    std::fprintf(json, "  \"writes_per_thread\": %llu,\n",
                 static_cast<unsigned long long>(writes));
    std::fprintf(json, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(json, "  \"speedup_4_writers\": %.3f,\n", speedup);
    std::fprintf(json, "  \"sharded_allocs_per_write_4_writers\": %.3f,\n",
                 shard_allocs);
    std::fprintf(json, "  \"rows\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(json,
                   "    {\"config\": \"%s\", \"threads\": %d, "
                   "\"writes_per_sec\": %.1f, \"allocs_per_write\": %.3f, "
                   "\"alloc_bytes_per_write\": %.1f}%s\n",
                   c.config, c.threads, c.writes_per_sec, c.allocs_per_write,
                   c.alloc_bytes_per_write, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_write_path.json\n");
  }
  return 0;
}
