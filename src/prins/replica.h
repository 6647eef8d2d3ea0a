// ReplicaEngine: the replica-side PRINS engine.
//
// "The counterpart PRINS-engine at the replica node will listen on the
// network to receive replicated parity.  Upon receiving such parity, [it]
// will perform the reverse computation ... and store the data in its local
// storage using the same LBA."  (§2)
//
// Every session a replica serves feeds one ReplicaPipeline (below), owned
// by the engine: a receive loop decodes each frame once (decode_view,
// zero-copy) and hands write-kind messages to apply workers striped by
// LBA, so same-block parity deltas stay serialized (XOR chains must
// telescope) while independent blocks apply concurrently, and completed
// applies coalesce into cumulative kAckBatch frames.  serve() is that
// pipeline's blocking front end (one recv() loop per connection);
// ReactorReplicaServer (reactor_server.h) is its handler-driven one.  An
// optional write-through LRU (the old-block apply cache) elides the
// read-modify-write disk read for hot LBAs, and the intent log group-
// commits so parallel workers share fsyncs.  Optionally feeds every
// applied delta into a TrapLog, giving the replica continuous data
// protection for free.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "block/block_device.h"
#include "common/histogram.h"
#include "net/transport.h"
#include "prins/intent_log.h"
#include "prins/message.h"
#include "prins/trap_log.h"

namespace prins {

class CachedDisk;
class PrinsEngine;
struct EngineConfig;

struct ReplicaConfig {
  /// Record parity deltas of applied writes for point-in-time recovery.
  bool keep_trap_log = false;
  /// Crash-atomic apply: durably record (sequence, LBA, CRC of the new
  /// block) before every in-place write, so a restart can tell applied
  /// writes from torn ones (call recover_intents()).  Null disables.
  std::shared_ptr<WriteIntentLog> intent_log;
  /// Applies between intent-log checkpoints (device flush + log truncate);
  /// 0 checkpoints only on barriers.  Bounds both the log size and the
  /// restart replay work.
  std::uint64_t intent_checkpoint_every = 256;
  /// Apply workers the pipeline runs, striped by LBA (shard = lba mod
  /// shards) so same-block deltas keep their order while independent
  /// blocks apply concurrently.  0 (default) auto-sizes: the
  /// PRINS_APPLY_SHARDS environment variable if set, else the hardware
  /// thread count; the result is rounded up to a power of two (masking
  /// beats modulo) and clamped to 32.  1 reproduces the historical
  /// in-order loop.
  std::size_t apply_shards = 0;
  /// Max completions folded into one ack frame.  1 disables batching
  /// (every apply acks individually, the pre-pipeline wire behavior).
  std::size_t ack_coalesce_max = 64;
  /// Old-block apply cache: capacity (in blocks) of a write-through LRU in
  /// front of the local device's apply path, so the A_old read of a hot
  /// LBA's read-modify-write never touches the disk.  0 (default)
  /// disables — tests that inject corruption under the replica rely on
  /// every read observing the medium.
  std::size_t old_block_cache_blocks = 0;
  /// Fencing epoch this replica starts in.  Frames stamped with an older
  /// cluster_epoch are rejected with NakReason::kStaleEpoch (a zombie
  /// primary that missed a promotion); frames with a newer one advance the
  /// replica's epoch.  0 is the epoch-unaware legacy world.
  std::uint64_t cluster_epoch = 0;
};

struct ReplicaMetrics {
  std::uint64_t writes_applied = 0;
  std::uint64_t parity_applies = 0;   // writes applied via backward parity
  std::uint64_t sync_blocks = 0;
  std::uint64_t repairs = 0;
  std::uint64_t verify_requests = 0;
  std::uint64_t bytes_received = 0;   // wire message bytes
  std::uint64_t duplicates_dropped = 0;  // re-delivered or superseded
                                         //   writes acked, not applied
  std::uint64_t naks_sent = 0;           // corrupt frames bounced back
  std::uint64_t repair_reads_served = 0;  // kReadBlockRequest blocks returned
                                          //   (scrubber repair pulls)
  std::uint64_t client_reads_served = 0;  // kClientReadRequest blocks served
                                          //   (read offload from the router)
  std::uint64_t stale_read_naks = 0;      // client reads refused: demanded
                                          //   min_sequence not yet applied
  std::uint64_t torn_blocks_detected = 0;  // intent replay found a torn apply
  std::uint64_t full_repairs_requested = 0;  // NAKs asking for a full block
  // Pipeline counters (ReplicaPipeline's dispatch/worker/ack stages).
  std::uint64_t ack_batches = 0;       // kAckBatch frames sent
  std::uint64_t acks_batched = 0;      // completions those frames covered
  std::uint64_t apply_queue_peak = 0;  // deepest worker queue observed
  std::uint64_t cache_hits = 0;        // old-block apply cache
  std::uint64_t cache_misses = 0;
  std::uint64_t intent_records = 0;    // intents recorded (group commit...)
  std::uint64_t intent_fsyncs = 0;     // ...amortizes these across workers
  std::uint64_t stale_epoch_naks = 0;  // fenced frames from a zombie primary
};

class ReplicaEngine;

/// The replica's apply pipeline, shared by every session its engine serves
/// whichever front end feeds it (serve()'s recv() loop or
/// ReactorReplicaServer's message handlers):
///
///   deliver()      decode_view once; write-kind frames and client reads
///                  queue on the apply worker for their LBA stripe (same-
///                  block XOR deltas stay ordered); a torn frame is NAK'd
///                  inline with sequence 0 so the primary resends
///   apply workers  one per apply shard; each completed write lands in its
///                  session's ack buffer, a client read replies directly
///   ack flush      whichever worker finds the buffer un-flushed drains it
///                  (a combining lock): under load completions coalesce
///                  into cumulative kAckBatch frames, when idle each ack
///                  goes out alone; NAKs always go out individually
///
/// Backpressure is per session: once kMaxInFlight frames are dispatched
/// and not completed, the session's pause hook asks its front end to stop
/// delivering, resuming at half.  A control frame (barrier, verify, hash,
/// hello, read-block, read lease) pauses the session and waits for its
/// in-flight frames to finish before a worker applies it, so its answer
/// observes every earlier write.  The first fatal error (device failure,
/// reply send failure) closes the session's transport.
class ReplicaPipeline {
 public:
  struct Session;

  /// Frames a session may have dispatched and not completed before it is
  /// paused.  Bounds queued work (and wire buffers) per initiator.
  static constexpr std::size_t kMaxInFlight = 128;

  /// Starts replica.apply_shards() workers.
  explicit ReplicaPipeline(ReplicaEngine& replica);
  /// Finishes every queued frame, then joins the workers.
  ~ReplicaPipeline();

  ReplicaPipeline(const ReplicaPipeline&) = delete;
  ReplicaPipeline& operator=(const ReplicaPipeline&) = delete;

  /// Open a session whose replies go out on `transport`.  `pause(true)`
  /// asks the front end to stop delivering frames and `pause(false)` to
  /// resume; it runs with the session's lock held, on the delivering
  /// thread or a worker, so it must neither block nor call back into the
  /// pipeline.
  std::shared_ptr<Session> open(std::shared_ptr<Transport> transport,
                                std::function<void(bool)> pause);

  /// Feed one received frame.  Never waits for an apply.
  void deliver(const std::shared_ptr<Session>& session, Bytes&& wire);

  /// The front end delivers nothing more: drop a control frame still
  /// waiting for the session to quiesce and stop calling the pause hook.
  /// Frames already dispatched still apply and ack.  Never blocks.
  void detach(Session& session);

  /// detach(), then wait until the session's dispatched frames are applied
  /// and their acks sent.  Returns the session's first fatal error.
  Status finish(Session& session);

 private:
  struct WorkItem;
  struct ShardQueue;
  struct Completion;

  void dispatch(WorkItem&& item);
  void worker_loop(ShardQueue& queue);
  void run_write(WorkItem& item);
  /// Send a reply, or fail the session on its error; kUnavailable (the
  /// peer hung up) is a clean end, not a failure.
  void answer(Session& session, const Result<ReplicationMessage>& reply);
  /// A write or client read left the session: drop its in-flight count,
  /// resume the front end, release a waiting control frame.
  void settle(Session& session);
  void flush_acks(Session& session);
  Status send_ack_chunk(Session& session, const Completion* completions,
                        std::size_t count);
  Status send(Session& session, const ReplicationMessage& meta,
              ByteSpan payload);
  /// Record the session's first fatal error and close its transport.
  void fail(Session& session, const Status& error);

  ReplicaEngine& replica_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::thread> workers_;
};

class ReplicaEngine {
 public:
  ReplicaEngine(std::shared_ptr<BlockDevice> local, ReplicaConfig config = {});
  ~ReplicaEngine();

  /// Serve one primary connection until it closes: a recv() loop feeding
  /// a one-session client of pipeline(), held before the next recv() while
  /// the pipeline pauses the session.  Returns once the session's
  /// dispatched frames are applied and acked; OK on clean disconnect.  A
  /// frame that fails CRC/decode is NAK'd (the primary retransmits), not
  /// fatal; the session's first device or send error is returned.
  Status serve(Transport& transport);

  /// The apply pipeline every session of this replica feeds.
  ReplicaPipeline& pipeline() { return *pipeline_; }

  /// Apply a single message and build the reply (ACK / verify reply / NAK).
  /// Exposed for deterministic unit tests; the pipeline runs this logic.
  ///
  /// Write-kind messages with a nonzero sequence are deduplicated against a
  /// sliding window of recently applied sequences: a re-delivered message
  /// (duplicate on the wire, or a primary replaying un-acked traffic after
  /// a reconnect) is ACK'd without touching the device.  This is what makes
  /// primary-side retransmission safe — applying a parity delta twice would
  /// XOR the write back *out*.
  Result<ReplicationMessage> apply(const ReplicationMessage& message);

  /// Zero-copy variant: the payload span may alias the wire buffer (see
  /// ReplicationMessage::decode_view), so nothing is copied between recv()
  /// and the device write.  The pipeline uses this; apply() wraps it.
  Result<ReplicationMessage> apply_view(const MessageView& message);

  /// Replay the write-intent log after a restart.  A block whose contents
  /// CRC-match one of its intents completed that apply — its sequence (and
  /// its predecessors') re-enter the dedup window so the primary's replay
  /// is ACK'd without re-XOR-ing the write out.  A block matching no intent
  /// is torn (or its apply never ran; the two are indistinguishable, and
  /// both are unsafe to patch): it is marked damaged, and parity applies to
  /// it are NAK'd with NakReason::kNeedFullBlock until a full-contents
  /// write (repair/sync) lands.  Returns the damaged LBAs.
  Result<std::vector<Lba>> recover_intents();

  /// Blocks currently marked damaged (awaiting full-block repair).
  std::vector<Lba> damaged_blocks() const;

  /// Promote this replica to primary: finish crash recovery (intent-log
  /// replay), bump the cluster epoch, and return a live PrinsEngine over
  /// this replica's device at the new epoch.  The engine's sequence counter
  /// and logical clock are fast-forwarded past everything this replica
  /// applied, and the replica's CDP trap log moves into the engine so
  /// surviving replicas can be caught up with delta resyncs
  /// (resync_replica) instead of full-volume syncs.  Fails
  /// kFailedPrecondition while torn blocks await full-block repair — a
  /// damaged copy must not become the cluster's source of truth.
  /// Stop serving replication traffic into this ReplicaEngine first; the
  /// replica keeps fencing stale-epoch frames afterwards, so a zombie
  /// primary that reappears is rejected with NakReason::kStaleEpoch.
  Result<std::unique_ptr<PrinsEngine>> promote(EngineConfig config);

  /// Fencing epoch this replica currently enforces.
  std::uint64_t cluster_epoch() const {
    return cluster_epoch_.load(std::memory_order_acquire);
  }

  /// Highest all-replicas-acked sequence the primary has published via
  /// kReadLease.  Any client read demanding min_sequence <= this floor is
  /// fresh without a per-LBA lookup (every write at or below it is applied
  /// everywhere, including here).
  std::uint64_t read_lease_floor() const {
    return read_lease_floor_.load(std::memory_order_acquire);
  }

  ReplicaMetrics metrics() const;

  /// Newest write timestamp applied to the device (0 before any write).
  /// Reported in the kHello reply so resync_replica() can pick a correct
  /// trap-log fold base even if the primary's view of the link went stale,
  /// and handed to a promoted successor's logical clock.
  std::uint64_t applied_timestamp() const;

  /// Resolved apply-worker count (config.apply_shards after auto-sizing).
  std::size_t apply_shards() const { return shards_.size(); }

  /// The CDP log (empty unless config.keep_trap_log).
  TrapLog& trap_log() { return trap_log_; }
  const TrapLog& trap_log() const { return trap_log_; }

  BlockDevice& device() { return *local_; }

 private:
  friend class ReplicaPipeline;

  /// What a write-kind apply tells the ack flush.
  enum class ApplyOutcome : std::uint8_t {
    kApplied = 0,       // ack it (covers deduplicated redeliveries)
    kNakResend = 1,     // codec frame corrupt: retransmit as-is
    kNakFullBlock = 2,  // stored A_old damaged: only a full block can land
    kNakStaleEpoch = 3  // sender is fenced: a newer primary was promoted
  };

  // Per-LBA-stripe apply state.  A shard's mutex is held for the whole
  // dedup-check -> intent -> write -> record-applied span, so an intent-log
  // checkpoint can quiesce every in-flight apply by locking all shards.
  struct ApplyShard {
    mutable std::mutex mutex;
    std::unordered_set<std::uint64_t> applied_set;
    std::deque<std::uint64_t> applied_fifo;
    std::set<Lba> damaged;  // torn/corrupt blocks; parity cannot apply
    // Newest applied sequence per LBA, for client-read freshness checks
    // and for dropping superseded full-block retransmissions.
    // Same-LBA applies are serialized by this shard, so an entry >= the
    // demanded min_sequence proves every same-LBA write at or below it has
    // landed.  One entry per LBA ever written through this shard — bounded
    // by the volume size, like a per-block version table.
    std::unordered_map<Lba, std::uint64_t> newest_applied;
  };

  ApplyShard& shard_for(Lba lba) {
    return *shards_[lba & (shards_.size() - 1)];
  }

  /// Dedup-check + apply + record, under the LBA's shard lock.  Returns
  /// the ack/NAK disposition; a non-OK status is a fatal session error.
  Result<ApplyOutcome> apply_write_message(const MessageView& message);

  /// apply_view minus fencing and reply epoch-stamping (the kind switch).
  Result<ReplicationMessage> dispatch_view(const MessageView& message);

  /// Serve a kClientReadRequest: fence the epoch, refuse damaged blocks,
  /// check the demanded min_sequence against the per-LBA applied table and
  /// the lease floor, and read the block under the LBA's shard lock so the
  /// reply is atomic with respect to in-flight applies on that stripe.
  /// Stale demands come back as a kNak carrying NakReason::kStaleRead.
  Result<ReplicationMessage> serve_client_read(const MessageView& message);

  Status apply_write_locked(ApplyShard& shard, const MessageView& message,
                            bool* checkpoint_due);
  Result<ReplicationMessage> apply_verify(const MessageView& message);
  /// Device flush + intent-log truncate with every shard locked (no apply
  /// can sit between its intent record and its device write).
  Status checkpoint_intents();
  void bump_timestamp(std::uint64_t timestamp_us);
  static bool already_applied(const ApplyShard& shard, std::uint64_t sequence);
  static void record_applied(ApplyShard& shard, std::uint64_t sequence);

  /// Fencing check for one inbound frame: a newer epoch is adopted (the
  /// frame is from a freshly promoted primary), the current epoch passes,
  /// an older one is stale — the caller must NAK with kStaleEpoch and must
  /// not touch the device.
  bool epoch_current(std::uint64_t frame_epoch);
  /// Build the stale-epoch NAK for a fenced frame; the header's
  /// cluster_epoch carries our epoch so the zombie learns how far behind
  /// it is.
  ReplicationMessage stale_epoch_nak(std::uint64_t sequence, Lba lba);

  std::shared_ptr<BlockDevice> local_;
  ReplicaConfig config_;
  // Apply-path device: `local_` wrapped in a write-through CachedDisk when
  // config.old_block_cache_blocks > 0, else `local_` itself.  Reads for
  // verify/hash/scrub replies go straight to `local_` — scans must observe
  // the medium and must not wash the LRU.
  std::shared_ptr<BlockDevice> apply_dev_;
  std::shared_ptr<CachedDisk> cache_;  // null when the cache is disabled
  TrapLog trap_log_;
  std::mutex trap_mutex_;  // appends come from concurrent apply workers
  mutable std::mutex mutex_;  // guards metrics_ only
  ReplicaMetrics metrics_;
  // Sliding dedup window, striped with the applies: set + FIFO of recently
  // applied sequences per shard.  A sequence always carries the same LBA,
  // so a redelivery lands on the shard that recorded it.  Bounded so a
  // long-lived replica doesn't hold every sequence ever seen; the window is
  // far wider than any in-flight pipeline, so a live duplicate always hits.
  std::vector<std::unique_ptr<ApplyShard>> shards_;
  std::atomic<std::uint64_t> cluster_epoch_{0};
  std::atomic<std::uint64_t> read_lease_floor_{0};
  std::atomic<std::uint64_t> applied_timestamp_us_{0};
  std::atomic<std::uint64_t> applies_since_checkpoint_{0};
  std::atomic<std::uint64_t> apply_queue_peak_{0};
  std::mutex checkpoint_mutex_;  // one all-shard quiesce at a time
  // Last member: destroyed (workers drained and joined) before anything
  // they apply against.
  std::unique_ptr<ReplicaPipeline> pipeline_;
};

/// Run replica.serve(transport) for every connection accepted from
/// `listener`, each on its own service thread, so concurrent initiators
/// are served concurrently.  Transient accept() errors (ECONNABORTED, an
/// injected listener fault) are retried; the loop exits cleanly only when
/// the listener closes (or accept() fails persistently).  Join the
/// returned thread after closing the listener; it joins every session
/// thread first.  For O(1)-thread serving on a reactor listener, use
/// ReactorReplicaServer (prins/reactor_server.h) instead.
std::thread replica_serve_in_background(std::shared_ptr<ReplicaEngine> replica,
                                        std::shared_ptr<Listener> listener);

}  // namespace prins
