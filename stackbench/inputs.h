// Workload inputs for the stack bench, generated from the seed at set-up.
//
// Both workloads run over one TPC-C (Oracle profile) volume.  The volume's
// blocks are split into disjoint per-session sets, so the final image of
// every block is known: each session keeps the expected image of the
// blocks it owns and checks every read against it.
//
//   oltp         TPC-C's own block I/O, in order: the page writes of its
//                checkpoints, stored as sparse XOR deltas and replayed by
//                XOR-ing each delta into the session's current image of the
//                page, and the page reads of its buffer-pool misses.
//                Replaying deltas (not page images) keeps the parity every
//                WRITE produces exactly TPC-C's, however often a session
//                wraps its stream.
//   read-mostly  Zipf-skewed 8 KiB READs of the session's own pages, plus
//                5% of oltp's page writes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace stackbench {

constexpr std::uint32_t kBlockSize = 8192;

/// Page-write stream as sparse XOR deltas: delta i XORs runs
/// [first_run, first_run + run_count) into block `lba`.
struct DeltaStream {
  struct Run {
    std::uint16_t offset = 0;
    std::uint16_t length = 0;
    std::uint32_t data = 0;  // index into `bytes`
  };
  struct Delta {
    std::uint64_t lba = 0;
    std::uint32_t first_run = 0;
    std::uint32_t run_count = 0;
  };
  std::vector<Delta> deltas;
  std::vector<Run> runs;
  prins::Bytes bytes;

  /// image ^= delta i.
  void apply(std::size_t i, prins::MutByteSpan image) const;
  /// Record new ^ old as the next delta of `lba`.
  void add(std::uint64_t lba, prins::ByteSpan old_block, prins::ByteSpan new_block);
};

enum class OpKind : std::uint8_t { kWrite, kRead, kFlush };

/// One 8 KiB command (or a SYNCHRONIZE CACHE).
struct Op {
  OpKind kind = OpKind::kFlush;
  std::uint64_t lba = 0;
  std::uint64_t delta = 0;  // kWrite: index into the delta stream
};

struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t sessions = 0;
  std::uint64_t blocks = 0;
  /// Initial image of both nodes' disks.
  prins::Bytes base;
  /// Session that owns each block.
  std::vector<std::uint8_t> owner;
  /// TPC-C's page writes, which the sessions' writes index.
  DeltaStream stream;
  /// TPC-C's block I/O in issue order: page reads and page writes.
  std::vector<Op> tpcc_io;
  /// Each session's command sequence, replayed cyclically.
  std::vector<std::vector<Op>> ops;
};

/// Build a workload's inputs from its seed (deterministic).
prins::Result<std::unique_ptr<Inputs>> make_inputs(const std::string& workload,
                                                   std::uint64_t seed);

/// (previous image, new image) pairs of the workload's first writes, for
/// replaying the parity and codec kernels outside the node.
std::vector<std::pair<prins::Bytes, prins::Bytes>> write_pairs(const Inputs& inputs,
                                                              std::size_t count);

}  // namespace stackbench
