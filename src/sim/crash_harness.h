// CrashHarness: deterministic primary-failover scenarios.
//
// One scenario = one seeded write stream against a primary with two
// replica candidates, a hard kill of the primary at a chosen point, an
// epoch-fenced promotion, and a machine-checked verdict:
//
//   durability   every write whose sequence the crashed primary's journal
//                durably marked acked is present at the promoted volume
//                (the watermark only advances when EVERY replica acked, so
//                the most-advanced candidate provably holds them all);
//   atomicity    every block on the promoted volume byte-matches some
//                version the workload actually wrote — a torn or
//                half-applied XOR delta matches nothing;
//   convergence  the surviving replica delta-resyncs to the new primary
//                and stays byte-identical through fresh epoch-1 traffic;
//   fencing      a zombie engine still stamping the dead epoch is rejected
//                with NakReason::kStaleEpoch and fails sticky.
//
// Kill points cover the three layers a real crash can land in: between
// writes (clean loss of the process), inside the local device (FaultyDisk
// crash-stops with a torn in-flight op), and inside the replication stream
// (FaultyTransport hard-cuts the link mid-frame).  Everything is seeded;
// a failing (kill, seed) pair replays bit-for-bit for the synchronous
// layers (between-writes, disk crash).  Mid-frame cuts are observed by
// the engine's replica senders asynchronously, so there the write count
// may wobble but the invariants checked are timing-independent.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "prins/message.h"

namespace prins {

struct CrashScenario {
  enum class Kill {
    /// Hard-stop the primary after `kill_point` submitted writes.
    kBetweenWrites,
    /// The primary's volume crash-stops (torn in-flight op, then dead)
    /// after `kill_point` device I/Os; the primary dies with it.
    kLocalDiskCrash,
    /// The link to one replica candidate hard-cuts after `kill_point`
    /// frames; the primary is killed once its senders notice.
    kMidFrame,
  };

  Kill kill = Kill::kBetweenWrites;
  std::uint64_t kill_point = 10;
  std::uint64_t seed = 1;
  /// Writes the primary attempts before the scheduled kill (whichever
  /// trips first ends the stream).
  std::uint64_t total_writes = 64;
  std::uint32_t block_size = 4096;
  std::uint64_t blocks = 64;
  /// Writes land on LBAs [0, hot_lbas) so every block accumulates real
  /// version history for the atomicity check.
  std::uint64_t hot_lbas = 8;
  /// Writes issued at the promoted primary to prove the new epoch is live.
  std::uint64_t post_failover_writes = 16;
  ReplicationPolicy policy = ReplicationPolicy::kPrins;
};

struct CrashVerdict {
  std::uint64_t writes_submitted = 0;   // write() calls that returned OK
  std::uint64_t acked_watermark = 0;    // journal watermark, re-read from
                                        // disk the way a restart would
  std::uint64_t promoted_epoch = 0;     // fencing epoch the successor mints
  std::uint64_t survivor_resynced = 0;  // folded deltas shipped to catch
                                        // the survivor up
  std::uint64_t zombie_naks = 0;        // stale-epoch NAKs the zombie drew
  bool durable = false;                 // acked writes all survived
  bool exact = false;                   // no half-visible block anywhere
  bool survivor_consistent = false;     // survivor == new primary, byte-wise
  bool zombie_fenced = false;           // old epoch rejected, error sticky
  std::string detail;                   // first violation, for test output

  bool ok() const {
    return durable && exact && survivor_consistent && zombie_fenced;
  }
};

/// Run one scenario end to end.  An error Status means the harness itself
/// could not complete (setup failure, promotion refused); invariant
/// violations come back inside the verdict instead.
Result<CrashVerdict> run_crash_scenario(const CrashScenario& scenario);

}  // namespace prins
