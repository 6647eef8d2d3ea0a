// PrinsEngine: the primary-side replication engine (the paper's
// "PRINS-engine" living inside the iSCSI target).
//
// A BlockDevice decorator: reads pass through; every block write is
//   1. applied to the local device,
//   2. turned into a replication payload per the configured policy —
//      for PRINS policies the payload is the write parity P' = new ⊕ old
//      (computed by the fused SIMD kernel, which also yields the dirty-byte
//      count for free), for traditional policies the new block itself —
//      encoded by the policy's codec,
//   3. fanned out to a per-replica outbox, each drained by its own
//      event-driven sender: a reactor-hosted state machine per link,
//      pumped by post(), acked by message-handler callbacks, and timed by
//      the reactor's timer wheel, so a slow or high-latency replica never
//      holds up the others' acks.  Each round streams up to
//      `pipeline_depth` messages before collecting ACKs.  Every link is a
//      HandlerTransport: a ReactorTcpTransport delivers its replies on its
//      own loop, an in-process end on the engine's, and neither runs a
//      thread per link.
//
// Optionally (`coalesce_writes`) back-to-back deltas to the same LBA that
// are still waiting in an outbox are XOR-folded into a single message: the
// telescoping property (d1 then d2 == d1 ⊕ d2) makes the fold lossless for
// parity policies, and last-write-wins makes it lossless for full-block
// policies.  A folded message acknowledges every write it covers.
//
// Obtaining A_old: if the local device is a RaidArray, the engine taps the
// array's ParityObserver and gets P' for free from the RAID-4/5 small-write
// path (the paper's zero-overhead case).  Otherwise the engine reads the
// old block before writing (the measured <10% overhead case).
//
// flush() acts as a replication barrier: it drains every outbox (all
// replicas acked everything) and then flushes the local device.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "block/block_device.h"
#include "common/buffer_pool.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "net/reactor.h"
#include "net/transport.h"
#include "prins/message.h"
#include "prins/replication_policy.h"
#include "prins/journal.h"
#include "prins/scrubber.h"
#include "prins/trap_log.h"
#include "raid/raid6_array.h"
#include "raid/raid_array.h"

namespace prins {

class Codec;

/// Rebuilds the transport to replica `index` after a connection-class
/// failure (the engine closes the old transport before calling this).
using TransportFactory =
    std::function<Result<std::unique_ptr<Transport>>(std::size_t index)>;

/// How a sender reacts to link trouble.  Transient errors (reply timeout,
/// torn reply, replica NAK) retransmit the un-acked window with exponential
/// backoff + jitter.  A lost connection or exhausted retries keep the round
/// open for the self-heal (see EngineConfig::reconnect), which replays it on
/// a fresh connection, or else are a sticky failure.  Sequence dedup at the
/// replica makes every retransmission safe.  Operator requests (verify,
/// the hash audit, block fetch, resync) ride the same rounds, so the same
/// op_timeout and max_attempts bound them, and a replica that leaves one
/// unanswered fails its link like one that leaves a write unacked.
struct RetryPolicy {
  /// Consecutive no-progress attempts before the link is declared failed.
  std::size_t max_attempts = 5;
  std::chrono::milliseconds base_backoff{1};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{200};
  /// Per-reply receive deadline.  0 (default) blocks forever — a dropped
  /// message then stalls the link until the peer closes, exactly the
  /// pre-retry behavior.  Set it on lossy fabrics so drops surface as
  /// kTimeout and trigger retransmission.
  std::chrono::milliseconds op_timeout{0};
};

struct EngineConfig {
  ReplicationPolicy policy = ReplicationPolicy::kPrins;
  /// Per-replica outbox bound; producers block while any outbox is full.
  std::size_t queue_capacity = 1024;
  /// Messages a sender streams to its replica before waiting for ACKs.
  /// 1 is stop-and-wait (the paper's conservative closed-network
  /// assumption); larger windows amortize the link round-trip over WAN
  /// latencies.  Replicas apply in order either way.  Any window works on
  /// any transport: a send from the loop never waits on capacity, and
  /// replies arrive by handler while a round is still being sent.
  std::size_t pipeline_depth = 1;
  /// XOR-fold queued same-LBA deltas in each replica outbox into one
  /// message (lossless; see header comment).  Off by default: folding
  /// trades wire messages for per-link re-encodes and makes per-message
  /// traffic accounting depend on queue depth at send time.
  bool coalesce_writes = false;
  /// Keep a primary-side TrapLog of every write's parity delta.  Enables
  /// resync_replica(): after a link outage, ship each stale block ONE
  /// folded delta (XOR of everything it missed) instead of checksum-
  /// scanning the device.  Also what lets a replica's kNeedFullBlock NAK be
  /// answered, so the self-heal requires it.  Costs memory proportional to
  /// bytes changed.
  bool keep_trap_log = false;
  /// Crash durability: every replication message is appended (fsync'd)
  /// to this journal before queueing, and fully-acknowledged sequences
  /// advance its watermark.  After a crash, construct a new engine with
  /// the same journal and call replay_journal().
  std::shared_ptr<ReplicationJournal> journal;
  /// Link error recovery (see RetryPolicy).  The defaults retry transient
  /// errors a few times and otherwise behave like the pre-retry engine.
  RetryPolicy retry;
  /// Reconnect callback for the self-heal.  With keep_trap_log, a link
  /// whose connection dies or whose retries run out becomes *degraded*, a
  /// state the engine exits on its own: the open round stays open and new
  /// writes queue behind it, and a transient heal thread reconnects through
  /// this factory.  The link then replays the open round and pumps its
  /// outbox on the fresh connection; the replay is the probe (a replica
  /// that fenced this engine NAKs it with kStaleEpoch, a dead one fails it
  /// and the next heal backs off).  Null (default), or without keep_trap_log: a
  /// link failure is sticky, resolved by the operator (reattach_replica +
  /// resync_replica).  A reconnect whose transport hides its
  /// HandlerTransport fails that heal attempt.
  TransportFactory reconnect;
  /// The loop that runs every link's sender: pumps are post()ed onto it,
  /// replies arrive as message-handler callbacks, and op_timeout and retry
  /// backoff are entries on its timer wheel.  Null
  /// (default): the engine creates a private one.  Share one across
  /// engines and ReactorTcpTransport links to run the node on a fixed
  /// handful of threads.
  std::shared_ptr<Reactor> reactor;
  /// No effect; every link is event-driven.
  bool reactor_senders = false;
  /// LBA-striped submit locks: writers to blocks in different shards
  /// (shard = lba mod write_shards) proceed concurrently; same-block writes
  /// stay fully serialized, which is what keeps replica XOR chains
  /// telescoping.  0 (default) auto-sizes to the hardware thread count.
  /// Rounded up to a power of two, clamped to [1, 64].  1 reproduces the
  /// old global-write-lock behavior.
  std::size_t write_shards = 0;
  /// Hot-path scratch buffers (old block, delta, codec frame, coalesce
  /// copy) come from a freelist instead of the heap, so steady-state
  /// writes allocate nothing.  Freelist bound per pool; releases beyond it
  /// free their buffer, and 0 degenerates to plain heap traffic (the
  /// baseline benchmarks' setting).
  std::size_t pool_max_free = 128;
  /// Fencing epoch stamped into every outgoing wire message.  Replicas
  /// reject frames from an older epoch with NakReason::kStaleEpoch, which
  /// this engine treats as a sticky, unhealable failure: a newer primary
  /// was promoted while we were away, and retrying or self-healing would
  /// corrupt the cluster's new history.  0 is the epoch-unaware legacy
  /// world; ReplicaEngine::promote() mints epoch+1 for the successor.
  std::uint64_t cluster_epoch = 0;
  /// Read offload: maintain the per-stripe recent-writes conflict window
  /// and let classify_read() mark conflict-free reads as servable by a
  /// replica (see ReadRouter).  Off (default), classify_read() answers
  /// kLocal unconditionally and the write path skips the ring upkeep —
  /// offload decisions without the window would be unsound (a reader could
  /// demand nothing and observe a replica mid-catch-up).
  bool read_from_replicas = false;
};

struct EngineMetrics {
  std::uint64_t writes = 0;            // block writes replicated
  std::uint64_t raw_bytes = 0;         // application bytes written
  std::uint64_t payload_bytes = 0;     // encoded replication payload bytes
  std::uint64_t message_bytes = 0;     // canonical wire bytes of messages
                                       // acked by every replica (one copy;
                                       // multiply by replica count for
                                       // fabric totals)
  std::uint64_t acks = 0;              // logical write acknowledgements
                                       // across replicas (a coalesced ACK
                                       // counts once per write it covers)
  Histogram payload_sizes;             // per-write encoded payload size
  Histogram dirty_bytes;               // nonzero bytes per parity delta
                                       // (PRINS policies only)
  std::uint64_t retries = 0;           // batch retransmission rounds
  std::uint64_t reconnects = 0;        // transports rebuilt via the factory
  std::uint64_t auto_resyncs = 0;      // degraded links healed autonomously
  std::uint64_t nak_full_repairs = 0;  // queued parity deltas a replica
                                       // NAK'd as damaged and the engine
                                       // re-sent as full-block repairs
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_corruptions = 0;  // corrupt blocks scrub passes found
  std::uint64_t scrub_repaired = 0;
  std::uint64_t scrub_quarantined = 0;  // blocks no repair source could fix
  // Failover / recovery visibility: a stalled recovery shows up as a
  // frozen watermark plus growing journal depth instead of staying silent.
  std::uint64_t cluster_epoch = 0;     // fencing epoch this engine stamps
  std::uint64_t stale_epoch_naks = 0;  // times a replica fenced this engine
  std::uint64_t journal_frozen = 0;    // 1 while a drop pins the watermark
  std::uint64_t journal_watermark = 0; // journal's acked sequence
  std::uint64_t journal_pending = 0;   // journaled records above watermark
  std::uint64_t journal_pending_bytes = 0;  // RAM held by the replay cache
  std::uint64_t journal_spills = 0;    // replay cache evictions to disk
  // Read offload (config.read_from_replicas + ReadRouter).
  std::uint64_t replica_reads = 0;         // block reads a replica served
  std::uint64_t stale_read_retries = 0;    // kStaleRead NAKs -> local retry
  std::uint64_t read_conflicts_local = 0;  // reads the conflict window
                                           // pinned to the primary
};

class PrinsEngine final : public BlockDevice {
 public:
  PrinsEngine(std::shared_ptr<BlockDevice> local, EngineConfig config);

  /// RAID-tap constructors: the engine subscribes to the array's parity
  /// observer and gets P' from the small-write path for free.
  PrinsEngine(std::shared_ptr<RaidArray> local_raid, EngineConfig config);
  PrinsEngine(std::shared_ptr<Raid6Array> local_raid6, EngineConfig config);

  ~PrinsEngine() override;

  PrinsEngine(const PrinsEngine&) = delete;
  PrinsEngine& operator=(const PrinsEngine&) = delete;

  /// Attach a replica link and arm its event-driven sender; an in-process
  /// link is bound to the engine's loop, and no link starts a thread.  The
  /// link must deliver through a HandlerTransport, seen through its
  /// decorators via underlying(): one that hides it is a programming
  /// error, logged before the process aborts.  The engine owns the
  /// transport and will close it on destruction.  Add replicas before the
  /// first write.
  void add_replica(std::unique_ptr<Transport> link);

  /// Number of attached replica links.
  std::size_t replica_count() const;

  /// Replace the transport of replica `index` after a link failure, and
  /// clear the engine's sticky replication error so new writes flow again.
  /// The replica may have missed writes: follow with verify_and_repair()
  /// to resynchronize it (the rsync-style recovery path).
  /// kInvalidArgument when `link` hides its HandlerTransport (a decorator
  /// that does not forward underlying()).
  Status reattach_replica(std::size_t index, std::unique_ptr<Transport> link);

  std::uint32_t block_size() const override { return local_->block_size(); }
  std::uint64_t num_blocks() const override { return local_->num_blocks(); }
  Status read(Lba lba, MutByteSpan out) override { return local_->read(lba, out); }
  Status write(Lba lba, ByteSpan data) override;
  Status flush() override;
  std::string describe() const override;

  /// Block until every queued message has been sent and acked on every
  /// link.  Surfaces any replication error a link's sender hit.
  Status drain();

  /// Initial sync: ship the device's entire contents as compressed
  /// kSyncBlock messages (replicas need A_old before parity replication can
  /// start).  Drains before returning.
  Status full_sync();

  /// full_sync() restricted to a block subset: ship exactly `lbas` as
  /// compressed kSyncBlock messages and drain.  The cluster layer seeds a
  /// promoted primary's replacement mirrors with just its placement
  /// groups' blocks — a device-wide sync would clobber the blocks the
  /// mirror node owns itself.
  Status sync_blocks(const std::vector<Lba>& lbas);

  /// Checksum-compare a block range against every replica and rewrite
  /// mismatching blocks.  Returns the number of blocks repaired across all
  /// replicas.  Each request queues behind the writes already in its
  /// link's outbox, and the replica answers after applying them, so no
  /// drain is needed; a down or degraded link fails the call at once.
  Result<std::uint64_t> verify_and_repair(Lba start, std::uint64_t count);

  /// Hierarchical (Merkle-style) audit: compare range fingerprints first
  /// and descend only into ranges that disagree, falling back to the flat
  /// per-block protocol at the leaves.  Orders of magnitude less verify
  /// traffic than verify_and_repair when the devices are mostly in sync.
  /// Returns the number of blocks repaired across all replicas.
  Result<std::uint64_t> verify_and_repair_hierarchical(Lba start,
                                                       std::uint64_t count);

  /// Fetch one block's contents from the first healthy replica that can
  /// serve it (kReadBlockRequest).  The scrubber's replica-pull repair
  /// source; also usable directly for ad-hoc recovery.  Safe on busy
  /// links: the request rides the link's round machine and its reply is
  /// matched by sequence.  DATA_CORRUPTION if every replica NAK'd the
  /// block (their copies are damaged too).  kFailedPrecondition when
  /// called on the engine's loop thread, which must stay free to deliver
  /// the answer.
  Status fetch_block_from_replica(Lba lba, MutByteSpan out);

  /// Scrub the local device: drain, pause writers, and run one Scrubber
  /// pass repairing corrupt blocks from (in order) any `extra_sources`,
  /// the tapped RAID array's reconstruction, and healthy replicas.  When
  /// the local device wraps a RAID array that the engine does not tap,
  /// pass its repair_block as an in_place extra source — writing repairs
  /// through the logical path would fold the corrupt old data into parity.
  /// Stats also accumulate into EngineMetrics (scrub_*).
  Result<ScrubStats> scrub(const ScrubberConfig& config = {},
                           std::vector<RepairSource> extra_sources = {});

  /// Re-enqueue every journaled message above the acknowledgement
  /// watermark (crash recovery).  Call after attaching replicas and
  /// before new writes; also fast-forwards the sequence/timestamp
  /// counters past the journal's high-water mark.
  Status replay_journal();

  /// Seed a freshly constructed engine from a promoted replica's recovered
  /// state (ReplicaEngine::promote() calls this): fast-forward the
  /// sequence counter and logical clock past everything the replica
  /// applied, and move its CDP trap log in so resync_replica() can fold
  /// the deltas survivors missed.  Must run before replicas attach and
  /// before the first write; `recovered_trap_log` is left empty.
  Status adopt_recovered_state(std::uint64_t next_sequence,
                               std::uint64_t applied_timestamp_us,
                               TrapLog& recovered_trap_log);

  /// Fencing epoch this engine stamps into every outgoing message.
  std::uint64_t cluster_epoch() const { return config_.cluster_epoch; }

  /// Delta resynchronization (requires config.keep_trap_log): after
  /// reattach_replica(), fold the parity log forward from the replica's
  /// last acknowledged write and ship one delta per stale block.  The
  /// folded delta is A_now ⊕ A_acked, so the replica's XOR apply lands it
  /// exactly at the current state — no full blocks, no checksum scan.
  /// Returns the number of blocks resynced.
  Result<std::uint64_t> resync_replica(std::size_t index);

  /// The primary-side parity log (empty unless config.keep_trap_log).
  const TrapLog& trap_log() const { return trap_log_; }

  /// RAID-tap deltas captured but not yet consumed by write().  Nonzero
  /// outside a write() call would mean a leaked (stale) delta; exposed so
  /// tests can pin the no-leak invariant.
  std::size_t tap_backlog() const;

  EngineMetrics metrics() const;

  ReplicationPolicy policy() const { return config_.policy; }

  /// How one block read should be served (see classify_read()).
  enum class ReadClass : std::uint8_t {
    kLocal = 0,       // possible in-flight conflict (or offload disabled):
                      //   the primary must serve this read itself
    kOffloadable = 1  // conflict-free: any replica whose applied state
                      //   covers `min_sequence` serves it correctly
  };

  /// Classify a read of `lba` against the recent-writes conflict window
  /// (lock-free; safe concurrently with writers).  kOffloadable means
  /// every write to `lba` this engine has issued is covered by
  /// `*min_sequence`, and `*min_sequence` <= read_floor() — i.e. applied
  /// at every replica — so a replica read demanding that sequence returns
  /// exactly what a local read would.  kLocal means a write to `lba` may
  /// still be in flight (or config.read_from_replicas is off).
  ReadClass classify_read(Lba lba, std::uint64_t* min_sequence) const;

  /// Highest sequence every replica has acknowledged (monotone; freezes
  /// with the journal watermark when a link drops a write).  Writes at or
  /// below the floor are applied at every replica.
  std::uint64_t read_floor() const {
    return read_floor_.load(std::memory_order_acquire);
  }

  /// Newest sequence assigned to any write (0 before the first write).
  std::uint64_t last_sequence() const {
    return next_sequence_.load(std::memory_order_acquire) - 1;
  }

  /// ReadRouter accounting, merged into metrics() (the router is a
  /// decorator, so its counters live with the engine's for one-stop stats).
  void note_replica_read() {
    replica_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_stale_read_retry() {
    stale_read_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_read_conflict_local() {
    read_conflicts_local_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Resolved submit-shard count (config.write_shards after auto-sizing).
  std::size_t write_shard_count() const { return shards_.size(); }

  /// Test/bench hook: engine-wide mutex_ acquisitions made by the submit
  /// path since construction.  The sharded pipeline takes exactly one per
  /// distributed message (in distribute()); the pre-shard engine took three.
  std::uint64_t debug_submit_global_lock_count() const {
    return submit_global_locks_.load(std::memory_order_relaxed);
  }

  /// Freelist stats of the block-scratch / frame pools (bench reporting).
  BufferPool::Stats block_pool_stats() const { return block_pool_.stats(); }
  BufferPool::Stats frame_pool_stats() const { return frame_pool_.stats(); }

 private:
  /// One queued message in a replica outbox.  No canonical wire encoding
  /// exists: the sender frames each entry at transmission time with
  /// scatter-gather I/O (stack-encoded header + shared payload frame +
  /// trailing CRC), so enqueueing is a cheap refcount bump, not a copy.
  struct OutMessage {
    ReplicationMessage meta;  // header fields; payload lives in `payload`
    /// Encoded (post-codec) payload frame, shared across all link outboxes
    /// via the pool refcount.
    PooledBuffer payload;
    /// Raw (pre-codec) payload for folding; shared across links until a
    /// fold copies-on-write.  Empty when coalescing is off or impossible.
    PooledBuffer raw;
    bool coalescable = false;
    /// A fold changed `raw`, so `payload` is stale; the sender re-encodes
    /// just before transmission.
    bool needs_encode = false;
    /// Sequences of every logical write this entry carries (>= 1; grows as
    /// same-LBA writes fold in).  One replica ACK acknowledges them all.
    /// Split so the common unfolded entry allocates nothing.
    std::uint64_t first_covered = 0;
    std::vector<std::uint64_t> extra_covered;
    std::size_t covered_count() const { return 1 + extra_covered.size(); }
    /// Set on an operator request (see request()): its answer, or the
    /// failure that dropped it, goes here, and the entry stays out of the
    /// write books (acks, message_bytes, outstanding_).  Null for
    /// replicated traffic.
    std::shared_ptr<std::promise<Result<ReplicationMessage>>> reply;
  };

  struct ReplicaLink {
    /// Delivers through a HandlerTransport (under any decorators), bound
    /// to its loop where the link entered.
    std::unique_ptr<Transport> transport;
    std::mutex mutex;  // serializes the sender's work on this link
    // Logical timestamp of the newest write this replica has acked;
    // resync_replica() folds the parity log forward from here.
    std::atomic<std::uint64_t> acked_timestamp{0};

    // Fields below the transport are stable after add_replica().
    std::size_t index = 0;
    Rng jitter{1};  // decorrelates backoff across links (guarded by mutex)

    // Sender state below is guarded by the engine-wide mutex_.
    std::deque<OutMessage> outbox;
    /// LBA -> absolute outbox slot of the newest foldable entry.
    std::unordered_map<Lba, std::uint64_t> fold_slots;
    std::uint64_t first_slot = 0;  // absolute slot id of outbox.front()
    std::size_t in_flight = 0;     // popped but not yet completed
    bool failed = false;   // sticky until reattach_replica() or a heal
    /// No heal will run (fenced, or a failure the link cannot heal from);
    /// operator repair needed.
    bool unhealable = false;

    // Heal state, guarded by mutex_.  A heal counts as a failed attempt
    // until a round finishes on the healed link, so a replica that accepts
    // the connection and hangs up is backed off like a failed reconnect.
    std::uint32_t heal_failures = 0;
    std::chrono::steady_clock::time_point next_heal{};

    /// Runs heal_main while the link is degraded; joined before the next.
    std::thread healer;

    // ---- Event-driven sender state ---------------------------------------
    /// Event-machine phase, guarded by mutex_.  kIdle: nothing in flight,
    /// a pump may open a round.  kAwaitingAcks: a round was transmitted
    /// and replies are being collected by the message handler.  kBackoff:
    /// the round came back short (timeout / NAKs) and a wheel timer is
    /// sleeping out the retry backoff before the retransmit.  kHealing: a
    /// transient heal thread owns the link (handlers uninstalled, traffic
    /// held).  Operator requests are round entries like writes, so they
    /// need no phase of their own.
    enum class Phase { kIdle, kAwaitingAcks, kBackoff, kHealing };
    Phase phase = Phase::kIdle;   // guarded by mutex_
    bool pump_scheduled = false;  // a pump closure is queued (mutex_)
    /// The in-flight round: entries popped from the outbox awaiting acks.
    /// Guarded by the link mutex (mutators also hold mutex_ where they
    /// touch engine-wide state such as in_flight or outstanding_).
    std::vector<OutMessage> round;
    std::vector<bool> round_acked;     // per-entry outcome so far
    std::size_t round_attempt = 0;     // consecutive no-progress attempts
    std::size_t round_sent = 0;        // frames sent this attempt
    std::size_t round_covered = 0;     // completions covered this attempt
    bool round_progress = false;       // an ack landed this attempt
    /// The link's single wheel timer (op_timeout, retry backoff, or an
    /// immediate retransmit on a fresh transport — exactly one purpose at
    /// a time, derived from `phase`).  Guarded by mutex_.
    TimerId timer = 0;
    bool timer_armed = false;
    /// Bumped on every arm/cancel; a stale wheel callback compares its
    /// captured epoch and returns without touching the link.
    std::atomic<std::uint64_t> timer_epoch{0};
    /// True while a heal thread owns the link.  Loop-thread callbacks
    /// check it lock-free so they never block on `mutex` behind a
    /// reconnect.
    std::atomic<bool> healing{false};
  };

  /// Per-sequence completion bookkeeping (guarded by mutex_).
  struct PendingAck {
    std::size_t remaining = 0;   // links that have not completed it yet
    std::size_t wire_bytes = 0;  // canonical encoding size, for metrics
    bool dropped = false;        // some link failed to deliver it
  };

  /// One LBA stripe of the submit path (shard = lba & shard_mask_).  The
  /// shard lock serializes the read-old/write/enqueue critical section for
  /// its blocks only, so writers in different stripes never contend.
  /// Hot-path metrics live here (guarded by `mutex`) and are merged by
  /// metrics(), keeping the engine-wide mutex_ off the per-block path.
  struct alignas(64) WriteShard {
    std::mutex mutex;
    /// Sequence being submitted under this shard's lock (0 = none).  A
    /// lower bound is published BEFORE the global sequence counter is
    /// bumped and cleared after the message reaches the outboxes, so
    /// ack_watermark_locked() never advances the journal watermark past a
    /// write that is between fetch_add and distribute().
    std::atomic<std::uint64_t> submitting_seq{0};
    std::uint64_t writes = 0;
    std::uint64_t raw_bytes = 0;
    std::uint64_t payload_bytes = 0;
    Histogram payload_sizes;
    Histogram dirty_bytes;

    // ---- Recent-writes conflict window (config.read_from_replicas) -----
    // A seqlock ring of this stripe's latest (lba, sequence) pairs.  The
    // writer (replicate_block, under this shard's lock) publishes each
    // write into the next slot; classify_read() scans lock-free.  Slots
    // recycle FIFO, so if ANY slot holds `lba` the newest one found IS the
    // newest write to that lba; a complete miss means every write to that
    // lba either sank below the read floor before eviction or is covered
    // by `evicted_max` (the newest sequence ever overwritten while still
    // above the floor — the conservative bound for evicted history).
    static constexpr std::size_t kRecentRing = 256;
    struct RecentSlot {
      std::atomic<std::uint64_t> version{0};  // seqlock: odd = mid-update
      std::atomic<std::uint64_t> lba{0};
      std::atomic<std::uint64_t> sequence{0};
    };
    std::unique_ptr<RecentSlot[]> recent;   // kRecentRing slots; allocated
                                            //   only when offload is on
    std::uint64_t recent_next = 0;          // writer cursor (shard mutex)
    std::atomic<std::uint64_t> evicted_max{0};
  };

  /// RAII publisher for WriteShard::submitting_seq (see its comment).
  class SubmitSlot {
   public:
    SubmitSlot(WriteShard& shard, std::uint64_t lower_bound)
        : slot_(shard.submitting_seq) {
      slot_.store(lower_bound, std::memory_order_seq_cst);
    }
    void tighten(std::uint64_t sequence) {
      slot_.store(sequence, std::memory_order_seq_cst);
    }
    ~SubmitSlot() { slot_.store(0, std::memory_order_seq_cst); }

   private:
    std::atomic<std::uint64_t>& slot_;
  };

  /// Queue an operator request on `link`: stamp the epoch and a fresh
  /// sequence, append it to the outbox (no journal record, no outstanding_
  /// slot, no wait for capacity) behind the writes already there, and pump.
  /// The round machine sends, times out and retransmits it like a write.
  /// A request kind (kHello, kVerifyRequest, kHashRequest,
  /// kReadBlockRequest) is answered by the reply that names its sequence,
  /// a NAK included, which the caller judges; a write kind (kRepairBlock,
  /// a resync fold) only by its ack.  A failed link answers kUnavailable at
  /// once, the engine's loop thread kFailedPrecondition (waiting there
  /// would deadlock).  Wait holding neither mutex_ nor a link mutex, which
  /// the round machine takes; stripe locks are fine, since it only
  /// try-locks them.
  std::future<Result<ReplicationMessage>> request(ReplicaLink& link,
                                                  ReplicationMessage msg);
  /// Settle a popped entry the link could not deliver: an operator entry's
  /// slot is answered with `why`, replicated traffic is completed as
  /// dropped.  mutex_ held.
  void drop_locked(OutMessage& entry, const Status& why);
  /// Rewrite a NAK'd (NakReason::kNeedFullBlock) in-flight parity entry as
  /// a kRepairBlock carrying the block's full contents at the entry's own
  /// timestamp, so deltas queued behind it still telescope.  No-op (the
  /// next retry round converts) while a write is mid-flight to the trap
  /// log.  Link mutex must be held.
  void convert_to_repair_locked(OutMessage& entry);
  /// Degraded-link recovery: reconnect, swap the transport and mark the
  /// link healed; heal_main then replays the open round and the outbox on
  /// the fresh connection.
  void attempt_heal(ReplicaLink* link);
  /// Count a failed heal attempt and back the next one off.
  void heal_failed(ReplicaLink* link, const Status& why);
  /// When the next heal may run: now, or backed off by the heal attempts
  /// that have not been confirmed by a finished round.  mutex_ held.
  std::chrono::steady_clock::time_point next_heal_locked(ReplicaLink& link);
  /// Once no link is failed, clear the sticky worker error (`clear_error`)
  /// and/or the dropped marks and journal freeze (`unfreeze_journal`).
  /// Returns whether every link is live.  mutex_ held.
  bool release_if_all_live_locked(bool clear_error, bool unfreeze_journal);
  /// React to a kStaleEpoch NAK: a promoted successor owns the cluster
  /// now.  Marks the link unhealable, freezes the journal, sets the sticky
  /// worker error, and returns the kFailedPrecondition status the caller
  /// should propagate.  Takes mutex_ (callers hold at most the link mutex).
  Status fenced_by_replica(ReplicaLink& link, std::uint64_t replica_epoch);
  /// True when a failed link will recover on its own (mutex_ held).
  bool healable_locked(const ReplicaLink& link) const;
  /// Journal-append (if configured) and distribute to every outbox.
  /// `meta.payload` must be empty; the payload travels in `payload`.
  /// `submit_shard`, when non-null, is the shard whose submitting_seq slot
  /// guards this message; distribute() clears it once the message is
  /// registered so the read floor computed in the same critical section
  /// already covers a trivially-replicated (or instantly-acked) write.
  Status enqueue(const ReplicationMessage& meta, PooledBuffer payload,
                 PooledBuffer raw, WriteShard* submit_shard = nullptr);
  /// Fan a message out to every replica outbox (no journal append).
  Status distribute(const ReplicationMessage& meta, PooledBuffer payload,
                    PooledBuffer raw, WriteShard* submit_shard = nullptr);
  void append_to_outbox_locked(ReplicaLink& link,
                               const ReplicationMessage& meta,
                               const PooledBuffer& payload,
                               const PooledBuffer& raw,
                               bool coalescable);
  /// Frame and transmit one outbox entry with scatter-gather I/O: header
  /// encoded on the stack, payload frame shared from the pool, trailing
  /// CRC chained across both.  Re-encodes folded entries first.  Link
  /// mutex must be held.
  Status send_entry_locked(ReplicaLink& link, OutMessage& entry);
  /// Account one popped write entry as acked or dropped by one link.
  void complete_locked(const OutMessage& item, bool acked);
  bool outboxes_below_capacity_locked() const;
  bool idle_locked() const;
  std::uint64_t ack_watermark_locked() const;
  /// Monotonically advance the journal's acked watermark.
  void advance_journal_watermark(std::uint64_t sequence);
  /// The per-block submit path; shard_for(lba).mutex must be held.
  Status write_block_locked(WriteShard& shard, Lba lba, ByteSpan data);
  /// Publish (lba, sequence) into the shard's conflict ring (shard mutex
  /// held); folds the evicted slot into evicted_max when it is still above
  /// the read floor.
  void record_recent_write_locked(WriteShard& shard, Lba lba,
                                  std::uint64_t sequence);
  /// Build and enqueue the kWrite message for one block (shard lock held).
  Status replicate_block(WriteShard& shard, Lba lba, ByteSpan new_block,
                         ByteSpan delta, std::size_t dirty);
  /// Flat per-block verify+repair of one range on one link.  Adds repaired
  /// blocks to `repaired`.
  Status flat_verify(ReplicaLink& link, Lba start, std::uint64_t count,
                     std::uint64_t& repaired);

  // ---- Event-driven sender ----------------------------------------------
  /// Install message/close handlers on the link's transport.  Link mutex
  /// must be held (or the link not yet published).
  void install_link_handlers(ReplicaLink* link);
  /// Uninstall both handlers so an engine-initiated close (or a heal's
  /// transport swap) fires no callback.
  void clear_link_handlers(ReplicaLink& link);
  /// Post a pump for this link unless one is queued or the link cannot
  /// make progress (mutex_ held).
  void schedule_pump_locked(ReplicaLink* link);
  /// Pop up to pipeline_depth entries into a round and transmit it; on a
  /// sticky-dead link, drop queued traffic instead so producers and
  /// drain() never block behind it.  Runs under the sender guard.
  void pump_link(ReplicaLink* link);
  /// Message-handler fan-in: ACK / kAckBatch / NAK processing for the
  /// open round, closing it or scheduling a retransmit.
  void on_link_reply(ReplicaLink* link, Bytes reply);
  /// Close-handler fan-in: the connection died under the link.
  void on_link_closed(ReplicaLink* link, const Status& why);
  /// Wheel-timer fan-in: op_timeout expiry (kAwaitingAcks) or backoff
  /// expiry (kBackoff).
  void on_link_timer(ReplicaLink* link);
  /// Send the open round's un-acked entries and arm its op_timeout (link
  /// mutex held, engine mutex not held).
  void transmit_round(ReplicaLink* link);
  /// Retransmit the round's un-acked entries after a backoff (link mutex
  /// held, engine mutex not held).
  void resend_round(ReplicaLink* link);
  /// The round came back short: count the attempt and either arm the
  /// backoff timer or fail the round.
  /// Enters with mutex_ held via `lock` (and the link mutex held);
  /// releases mutex_.
  void round_retry_or_fail(ReplicaLink* link,
                           std::unique_lock<std::mutex>& lock,
                           const Status& why);
  /// Trim a degraded link's open round to the writes its heal must
  /// replay.  Operator entries do not wait for the heal: each one in the
  /// round or the outbox is answered with `why` and taken out.  Engine
  /// mutex and link mutex held.
  void hold_round_for_heal_locked(ReplicaLink& link, const Status& why);
  /// Close the open round: release in_flight and settle every entry not
  /// acked yet as dropped by `why`.  Engine mutex and link mutex held.
  void close_round_locked(ReplicaLink& link, const Status& why);
  /// Settle the round as delivered: release in_flight, advance the
  /// watermark, restart the pump.  Enters with mutex_ held via `lock`
  /// (and the link mutex held); releases mutex_.
  void finish_round(ReplicaLink* link, std::unique_lock<std::mutex>& lock);
  /// The round cannot finish on this connection.  On a healable link the
  /// round stays open for the heal to replay, less its operator entries,
  /// which fail now; otherwise it is settled as dropped and the link fails
  /// sticky.  Link mutex held, engine mutex NOT held.
  void fail_round(ReplicaLink* link, const Status& why);
  void arm_link_timer_locked(ReplicaLink* link,
                             std::chrono::steady_clock::time_point deadline);
  void cancel_link_timer_locked(ReplicaLink* link);
  /// Transient heal thread for a degraded link: waits out next_heal, runs
  /// attempt_heal until the link recovers, then resumes the event-driven
  /// path on the fresh transport.
  void heal_main(ReplicaLink* link);
  /// Install handlers on the link's (fresh) transport and retransmit the
  /// open round, or pump the outbox.  Link mutex held, engine mutex not.
  void resume_link(ReplicaLink* link);

  /// Read one block under its stripe lock and enqueue it as a kSyncBlock
  /// (the shared body of full_sync / sync_blocks; does not drain).
  Status enqueue_sync_block(Lba lba, const Codec& codec, Bytes& scratch);

  /// Resolve config.write_shards (auto-size, power of two, clamp),
  /// build the shard array, and create the private reactor when none was
  /// configured.  Called once from each constructor.
  void init_shards();
  /// Advance the logical clock by 1µs; returns the new timestamp.
  std::uint64_t clock_tick();
  WriteShard& shard_for(Lba lba) const {
    return *shards_[static_cast<std::size_t>(lba) & shard_mask_];
  }

  std::shared_ptr<BlockDevice> local_;
  RaidArray* raid_ = nullptr;    // non-null in RAID-4/5 tap mode
  Raid6Array* raid6_ = nullptr;  // non-null in RAID-6 tap mode
  EngineConfig config_;

  // LBA-striped submit locks.  Each shard serializes the read-old/write/
  // enqueue critical section for its own blocks — without that, two
  // concurrent writers hitting the same block would both diff against the
  // same old contents and the replica's XOR chain would no longer
  // telescope (delta2 would be A2 ⊕ A0 instead of A2 ⊕ A1).  Writers in
  // different stripes share nothing on the submit path but the outboxes.
  std::vector<std::unique_ptr<WriteShard>> shards_;
  std::size_t shard_mask_ = 0;  // shards_.size() - 1; size is a power of 2

  // Hot-path scratch pools: block-sized buffers (old block, delta,
  // coalesce copy) and codec output frames.  config.pool_max_free = 0
  // degenerates to plain heap traffic.
  mutable BufferPool block_pool_;
  mutable BufferPool frame_pool_;

  std::vector<std::unique_ptr<ReplicaLink>> replicas_;

  // Pending parity deltas captured by the RAID tap, keyed by LBA.
  struct TapDelta {
    Bytes delta;
    std::size_t dirty = 0;
  };
  mutable std::mutex tap_mutex_;
  std::unordered_map<Lba, TapDelta> tap_deltas_;

  // Outbox fan-out + sender coordination.
  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;   // outbox capacity, phases, heals
  std::condition_variable drain_cv_;   // drain() waiters
  std::atomic<bool> stopping_{false};  // set under mutex_; read lock-free
  Status worker_error_;  // first replication failure, surfaced by drain()

  /// Lifetime fence for sender callbacks.  Message/close handlers, wheel
  /// timers, and posted pumps capture this guard (never a bare `this`)
  /// and hold its lock for their whole run; the destructor nulls `engine`
  /// under the same lock, so teardown waits out any in-flight callback
  /// and everything that fires later sees null and returns.  One guard serializes all sender callbacks — they contend
  /// on mutex_ anyway.
  struct SenderGuard {
    std::mutex m;
    PrinsEngine* engine = nullptr;
  };
  std::shared_ptr<SenderGuard> sender_guard_;

  // Sequences distributed but not yet completed by every link, ordered so
  // the journal watermark is the smallest outstanding sequence minus one.
  std::map<std::uint64_t, PendingAck> outstanding_;
  // Recycled outstanding_ nodes (guarded by mutex_, bounded by
  // queue_capacity): erase stashes the node, the next distribute reuses
  // it, so steady-state ack bookkeeping never touches the heap.
  std::vector<std::map<std::uint64_t, PendingAck>::node_type> ack_node_pool_;
  std::uint64_t last_distributed_seq_ = 0;
  /// Set once any message is dropped (link failure): the journal watermark
  /// must never advance past an undelivered write, so it freezes until a
  /// new engine replays the journal.
  bool journal_frozen_ = false;
  std::mutex journal_mutex_;  // serializes mark_acked calls
  std::uint64_t journal_marked_ = 0;  // guarded by journal_mutex_

  std::atomic<std::uint64_t> next_sequence_{1};

  /// Highest all-replicas-acked sequence (see read_floor()).  CAS-maxed
  /// inside ack_watermark_locked() — mutable because that path is const.
  mutable std::atomic<std::uint64_t> read_floor_{0};
  // ReadRouter counters (relaxed; merged by metrics()).
  std::atomic<std::uint64_t> replica_reads_{0};
  std::atomic<std::uint64_t> stale_read_retries_{0};
  std::atomic<std::uint64_t> read_conflicts_local_{0};

  /// Logical clock: advances 1µs per replicated write and stamps each
  /// write's trap-log entry.
  std::atomic<std::uint64_t> clock_{0};

  /// Submit-path acquisitions of mutex_ (see debug_submit_global_lock_count).
  std::atomic<std::uint64_t> submit_global_locks_{0};

  TrapLog trap_log_;  // populated when config_.keep_trap_log

  // Engine-wide metrics (guarded by mutex_).  Per-write counters live in
  // the shards; metrics() merges both.
  EngineMetrics metrics_;
};

}  // namespace prins
