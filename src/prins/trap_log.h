// TrapLog: the CDP / TRAP extension from the paper's conclusion.
//
// "The executable code of our implementation is available online ... with
// additional functionalities such as continuous data protection (CDP) and
// timely recovery to any point-in-time (TRAP)."  (PRINS §6, pointing at the
// authors' ISCA'06 TRAP-Array work.)
//
// The insight is that the parity deltas PRINS already ships form an undo
// log: each write's P'_i = A_i ⊕ A_{i-1}, so XOR-ing the current block with
// every delta newer than time T telescopes back to the block's contents at
// T.  Deltas are stored zero-RLE encoded, so the log costs roughly what the
// writes changed, not blocks-times-writes.
//
// Thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "block/block_device.h"
#include "common/bytes.h"
#include "common/status.h"

namespace prins {

class TrapLog {
 public:
  /// Record the parity delta of a write to `lba` at `timestamp_us`.
  /// Timestamps per LBA must be non-decreasing (enforced).
  Status append(Lba lba, std::uint64_t timestamp_us, ByteSpan parity_delta);

  /// Contents of `lba` as of time T (inclusive: the state after all writes
  /// with timestamp <= T), given its `current` contents.
  /// Fails if history for this block has been truncated past T.
  Result<Bytes> recover_block(Lba lba, std::uint64_t t, ByteSpan current) const;

  /// Roll every logged block of `device` back to its state at time T.
  Status recover_device(BlockDevice& device, std::uint64_t t) const;

  /// Drop all entries with timestamp < t (bounds the CDP window).
  /// After this, recovery to times earlier than the oldest retained entry's
  /// predecessor state is refused for affected blocks.
  void truncate_before(std::uint64_t t);

  /// Coarsen history: per block, merge (XOR) all entries with timestamps
  /// in [t1, t2] into a single entry stamped with the newest merged
  /// timestamp.  Recovery to any instant *strictly inside* a merged span
  /// is refused afterwards; recovery outside it stays exact.  Returns the
  /// number of entries eliminated.  This is how a CDP deployment keeps
  /// fine-grained recent history and hourly/daily granularity further
  /// back without ever rewriting data blocks.
  std::uint64_t compact_range(std::uint64_t t1, std::uint64_t t2);

  /// Timestamps recorded for `lba`, oldest first (for picking recovery
  /// points in tools/tests).
  std::vector<std::uint64_t> timestamps(Lba lba) const;

  /// Blocks with at least one entry newer than `t` — the stale set a
  /// replica last synced at `t` needs (drives delta resynchronization).
  std::vector<Lba> blocks_changed_since(std::uint64_t t) const;

  /// Persist the whole log to a file (checksummed snapshot).  CDP history
  /// must survive a replica restart to keep its recovery window.
  Status save(const std::string& path) const;

  /// Merge a snapshot written by save() into this log.  Typically called
  /// on an empty log at startup.  Per-block timestamps must still be
  /// non-decreasing after the merge.
  Status load_from(const std::string& path);

  /// Move this log's entire contents into `dest`, leaving this log empty.
  /// Used at promotion: the replica's CDP history becomes the new primary's
  /// resync source, so survivor catch-up can fold the deltas the old
  /// primary shipped before it died.  Per-block timestamps must still be
  /// non-decreasing after the merge (trivially true when `dest` is empty).
  void move_into(TrapLog& dest);

  std::uint64_t total_entries() const;
  /// Bytes of encoded delta storage currently held.
  std::uint64_t stored_bytes() const;
  /// Sum of the raw (decoded) delta sizes ever appended — what a
  /// traditional before-image CDP log would have stored.
  std::uint64_t raw_bytes_logged() const;

 private:
  struct Entry {
    std::uint64_t timestamp_us;         // newest write folded into this entry
    std::uint64_t oldest_timestamp_us;  // == timestamp_us unless compacted
    Bytes encoded_delta;                // zero-RLE frame
  };
  struct BlockHistory {
    std::vector<Entry> entries;  // ascending timestamps
    // Recovery is only possible to T >= this (raised by truncate_before).
    std::uint64_t min_recoverable = 0;
  };

  mutable std::mutex mutex_;
  std::map<Lba, BlockHistory> log_;
  std::uint64_t stored_bytes_ = 0;
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t entries_ = 0;
};

}  // namespace prins
