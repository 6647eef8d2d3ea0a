#include "inputs.h"

#include <algorithm>

#include "block/mem_disk.h"
#include "common/rng.h"
#include "workload/byte_volume.h"
#include "workload/tpcc.h"

namespace stackbench {

using prins::Byte;
using prins::Bytes;
using prins::ByteSpan;
using prins::Lba;
using prins::MutByteSpan;
using prins::Rng;
using prins::Status;

namespace {

// TPC-C's block I/O after the load.  Each session replays its share
// cyclically; 16k page writes give every session a few thousand distinct
// deltas.
constexpr std::size_t kStreamWrites = 16384;
constexpr std::size_t kSessions = 4;
constexpr std::size_t kFlushEvery = 64;  // oltp: SYNCHRONIZE CACHE per 64 writes

constexpr std::size_t kReadMostlyOps = 32768;
constexpr double kReadMostlyWriteShare = 0.05;
// Writes per flush on read-mostly.  At 5% writes flushes are few: every
// reported p99 must rest on at least ten samples beyond it in a run, and
// a flush per 4 writes left only about ten beyond the flush p99 of a
// quiet run, so a busy host would push it under.
constexpr std::size_t kReadMostlyFlushEvery = 2;
constexpr double kZipfTheta = 0.9;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Records the workload's block I/O (while `capturing`): every whole-block
/// write as a sparse delta against the block's previous contents, and
/// every block read.  ByteVolume writes by read-modify-write; the read of
/// that cycle is the volume's doing, not the database's, and is dropped.
class CaptureDisk final : public prins::BlockDevice {
 public:
  CaptureDisk(prins::MemDisk& inner, Inputs& in)
      : inner_(inner), in_(in), old_(inner.block_size()) {}

  std::uint32_t block_size() const override { return inner_.block_size(); }
  std::uint64_t num_blocks() const override { return inner_.num_blocks(); }
  std::string describe() const override { return "capture"; }
  Status read(Lba lba, MutByteSpan out) override {
    if (capturing) {
      for (std::size_t i = 0; i < out.size() / block_size(); ++i) {
        in_.tpcc_io.push_back({OpKind::kRead, lba + i, 0});
      }
    }
    return inner_.read(lba, out);
  }
  Status write(Lba lba, ByteSpan data) override {
    if (capturing) {
      const std::uint32_t bs = block_size();
      const std::size_t blocks = data.size() / bs;
      while (!in_.tpcc_io.empty() && in_.tpcc_io.back().kind == OpKind::kRead &&
             in_.tpcc_io.back().lba >= lba && in_.tpcc_io.back().lba < lba + blocks) {
        in_.tpcc_io.pop_back();
      }
      for (std::size_t i = 0; i < blocks; ++i) {
        PRINS_RETURN_IF_ERROR(inner_.read(lba + i, old_));
        in_.tpcc_io.push_back({OpKind::kWrite, lba + i, in_.stream.deltas.size()});
        in_.stream.add(lba + i, old_, data.subspan(i * bs, bs));
      }
    }
    return inner_.write(lba, data);
  }

  bool capturing = false;

 private:
  prins::MemDisk& inner_;
  Inputs& in_;
  Bytes old_;
};

prins::TpccConfig tpcc_config(std::uint64_t seed) {
  prins::TpccConfig config;  // Oracle profile: 8 KiB pages
  config.warehouses = 5;
  config.districts_per_warehouse = 10;
  config.customers_per_district = 150;
  config.items = 1000;
  config.order_capacity = 30000;
  config.seed = mix64(seed);
  return config;
}

Status build_tpcc_volume(Inputs& in) {
  in.sessions = kSessions;
  prins::Tpcc tpcc(tpcc_config(in.seed));
  in.blocks = (tpcc.required_bytes() + kBlockSize - 1) / kBlockSize;
  prins::MemDisk disk(in.blocks, kBlockSize);
  CaptureDisk capture(disk, in);
  prins::ByteVolume volume(capture);
  PRINS_RETURN_IF_ERROR(tpcc.setup(volume));
  in.base.resize(in.blocks * kBlockSize);
  PRINS_RETURN_IF_ERROR(disk.read(0, in.base));
  capture.capturing = true;
  while (in.stream.deltas.size() < kStreamWrites) {
    PRINS_RETURN_IF_ERROR(tpcc.run_transaction(volume).status());
  }
  in.owner.resize(in.blocks);
  for (Lba b = 0; b < in.blocks; ++b) {
    in.owner[b] = static_cast<std::uint8_t>(mix64(b) % in.sessions);
  }
  return Status::ok();
}

Status make_oltp(Inputs& in) {
  PRINS_RETURN_IF_ERROR(build_tpcc_volume(in));
  in.ops.resize(in.sessions);
  for (std::size_t s = 0; s < in.sessions; ++s) {
    std::vector<Op>& ops = in.ops[s];
    std::size_t writes = 0;
    for (const Op& op : in.tpcc_io) {
      if (in.owner[op.lba] != s) continue;
      ops.push_back(op);
      if (op.kind == OpKind::kWrite && ++writes % kFlushEvery == 0) {
        ops.push_back({OpKind::kFlush, 0, 0});
      }
    }
    if (writes < kFlushEvery) return prins::internal_error("a session owns too few writes");
  }
  return Status::ok();
}

Status make_read_mostly(Inputs& in) {
  PRINS_RETURN_IF_ERROR(build_tpcc_volume(in));
  in.ops.resize(in.sessions);
  for (std::size_t s = 0; s < in.sessions; ++s) {
    std::vector<Op> writes;
    for (const Op& op : in.tpcc_io) {
      if (op.kind == OpKind::kWrite && in.owner[op.lba] == s) writes.push_back(op);
    }
    std::vector<Lba> mine;
    for (Lba b = 0; b < in.blocks; ++b) {
      if (in.owner[b] == s) mine.push_back(b);
    }
    if (writes.empty() || mine.size() < 2) {
      return prins::internal_error("a session owns no pages");
    }
    Rng rng(mix64(in.seed ^ (0x5e55 + s)));
    // Hot pages are a seeded permutation, not the low LBAs.
    for (std::size_t i = mine.size() - 1; i > 0; --i) {
      std::swap(mine[i], mine[rng.next_below(i + 1)]);
    }
    const prins::Zipf zipf(mine.size(), kZipfTheta);
    std::vector<Op>& ops = in.ops[s];
    std::size_t written = 0;
    while (ops.size() < kReadMostlyOps) {
      if (rng.next_double() < kReadMostlyWriteShare) {
        ops.push_back(writes[written % writes.size()]);
        if (++written % kReadMostlyFlushEvery == 0) ops.push_back({OpKind::kFlush, 0, 0});
      } else {
        ops.push_back({OpKind::kRead, mine[zipf.sample(rng) - 1], 0});
      }
    }
  }
  return Status::ok();
}

}  // namespace

void DeltaStream::apply(std::size_t i, MutByteSpan image) const {
  const Delta& d = deltas[i];
  for (std::uint32_t r = d.first_run; r < d.first_run + d.run_count; ++r) {
    const Run& run = runs[r];
    Byte* dst = image.data() + run.offset;
    const Byte* src = bytes.data() + run.data;
    for (std::uint16_t k = 0; k < run.length; ++k) dst[k] ^= src[k];
  }
}

void DeltaStream::add(std::uint64_t lba, ByteSpan old_block, ByteSpan new_block) {
  // Runs of differing bytes; gaps shorter than kMergeGap are folded into
  // the run (their XOR bytes are zero) to keep the run count small.
  constexpr std::size_t kMergeGap = 16;
  Delta d;
  d.lba = lba;
  d.first_run = static_cast<std::uint32_t>(runs.size());
  const std::size_t n = new_block.size();
  std::size_t i = 0;
  while (i < n) {
    if (old_block[i] == new_block[i]) {
      ++i;
      continue;
    }
    std::size_t end = i + 1, last_diff = i;
    while (end < n && end - last_diff <= kMergeGap) {
      if (old_block[end] != new_block[end]) last_diff = end;
      ++end;
    }
    Run run;
    run.offset = static_cast<std::uint16_t>(i);
    run.length = static_cast<std::uint16_t>(last_diff + 1 - i);
    run.data = static_cast<std::uint32_t>(bytes.size());
    for (std::size_t k = i; k <= last_diff; ++k) {
      bytes.push_back(static_cast<Byte>(old_block[k] ^ new_block[k]));
    }
    runs.push_back(run);
    i = last_diff + 1;
  }
  d.run_count = static_cast<std::uint32_t>(runs.size()) - d.first_run;
  deltas.push_back(d);
}

prins::Result<std::unique_ptr<Inputs>> make_inputs(const std::string& workload,
                                                   std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->workload = workload;
  in->seed = seed;
  Status built = prins::invalid_argument("unknown workload '" + workload + "'");
  if (workload == "oltp") built = make_oltp(*in);
  if (workload == "read-mostly") built = make_read_mostly(*in);
  PRINS_RETURN_IF_ERROR(built);
  return in;
}

std::vector<std::pair<Bytes, Bytes>> write_pairs(const Inputs& in, std::size_t count) {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  std::vector<std::pair<Lba, Bytes>> images;  // small: count is modest
  for (std::size_t i = 0; i < count && i < in.stream.deltas.size(); ++i) {
    const Lba lba = in.stream.deltas[i].lba;
    auto it = std::find_if(images.begin(), images.end(),
                           [&](const auto& e) { return e.first == lba; });
    if (it == images.end()) {
      const auto at = static_cast<std::ptrdiff_t>(lba * kBlockSize);
      images.emplace_back(lba, Bytes(in.base.begin() + at,
                                     in.base.begin() + at + kBlockSize));
      it = images.end() - 1;
    }
    Bytes prev = it->second;
    in.stream.apply(i, it->second);
    pairs.emplace_back(std::move(prev), it->second);
  }
  return pairs;
}

}  // namespace stackbench
