#include "prins/replica.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "block/cached_disk.h"
#include "codec/codec.h"
#include "common/crc32c.h"
#include "common/endian.h"
#include "common/env.h"
#include "common/logging.h"
#include "parity/xor.h"
#include "prins/engine.h"
#include "prins/verify.h"

namespace prins {
namespace {

std::size_t resolve_apply_shards(std::size_t requested) {
  std::size_t n = requested;
  if (n == 0) {
    n = parse_env_size("PRINS_APPLY_SHARDS", 1, 32).value_or(0);
    if (n == 0) n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  n = std::min<std::size_t>(n, 32);
  std::size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

bool is_write_kind(MessageKind kind) {
  return kind == MessageKind::kWrite || kind == MessageKind::kSyncBlock ||
         kind == MessageKind::kRepairBlock;
}

}  // namespace

ReplicaEngine::ReplicaEngine(std::shared_ptr<BlockDevice> local,
                             ReplicaConfig config)
    : local_(std::move(local)), config_(config),
      cluster_epoch_(config.cluster_epoch) {
  config_.apply_shards = resolve_apply_shards(config_.apply_shards);
  if (config_.ack_coalesce_max == 0) config_.ack_coalesce_max = 1;
  shards_.reserve(config_.apply_shards);
  for (std::size_t i = 0; i < config_.apply_shards; ++i) {
    shards_.push_back(std::make_unique<ApplyShard>());
  }
  if (config_.old_block_cache_blocks > 0) {
    cache_ = std::make_shared<CachedDisk>(
        local_, CacheConfig{config_.old_block_cache_blocks,
                            /*write_back=*/false});
    apply_dev_ = cache_;
  } else {
    apply_dev_ = local_;
  }
  pipeline_ = std::make_unique<ReplicaPipeline>(*this);
}

ReplicaEngine::~ReplicaEngine() = default;

Status ReplicaEngine::serve(Transport& transport) {
  // The recv() loop is this session's front end.  It never waits on an
  // apply, so it keeps draining the primary's frames while a worker is
  // blocked sending that primary an ack; the pipeline's pause hook holds it
  // before the next recv() instead (in-flight cap, or a control frame
  // waiting for the session to quiesce).
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool paused = false;
  auto session = pipeline_->open(
      // Not owned: finish() below outlives every use the pipeline makes.
      std::shared_ptr<Transport>(&transport, [](Transport*) {}),
      [&](bool pause) {
        std::lock_guard lock(gate_mutex);
        paused = pause;
        gate_cv.notify_all();
      });
  Status result = Status::ok();
  for (;;) {
    {
      std::unique_lock lock(gate_mutex);
      gate_cv.wait(lock, [&] { return !paused; });
    }
    auto wire = transport.recv();
    if (!wire.is_ok()) {
      if (wire.status().code() != ErrorCode::kUnavailable) {
        result = wire.status();
      }
      break;
    }
    pipeline_->deliver(session, std::move(*wire));
  }
  const Status session_error = pipeline_->finish(*session);
  return session_error.is_ok() ? result : session_error;
}

Result<ReplicationMessage> ReplicaEngine::apply(
    const ReplicationMessage& message) {
  return apply_view(message.view());
}

Result<ReplicationMessage> ReplicaEngine::apply_view(
    const MessageView& message) {
  // Fence before anything touches the device: a frame from an epoch older
  // than ours comes from a primary that missed a promotion, and applying
  // it would diverge us from the cluster's new history.
  if (!epoch_current(message.cluster_epoch)) {
    return stale_epoch_nak(message.sequence, message.lba);
  }
  PRINS_ASSIGN_OR_RETURN(ReplicationMessage reply, dispatch_view(message));
  reply.cluster_epoch = cluster_epoch();
  return reply;
}

Result<ReplicationMessage> ReplicaEngine::dispatch_view(
    const MessageView& message) {
  switch (message.kind) {
    case MessageKind::kVerifyRequest:
      return apply_verify(message);
    case MessageKind::kHashRequest: {
      PRINS_ASSIGN_OR_RETURN(std::vector<BlockRange> ranges,
                             unpack_ranges(message.payload));
      std::vector<std::uint64_t> hashes;
      hashes.reserve(ranges.size());
      for (const BlockRange& range : ranges) {
        PRINS_ASSIGN_OR_RETURN(std::uint64_t h,
                               hash_block_range(*local_, range));
        hashes.push_back(h);
      }
      ReplicationMessage reply;
      reply.kind = MessageKind::kHashReply;
      reply.sequence = message.sequence;
      reply.payload = pack_hashes(hashes);
      return reply;
    }
    case MessageKind::kWrite:
    case MessageKind::kSyncBlock:
    case MessageKind::kRepairBlock: {
      PRINS_ASSIGN_OR_RETURN(ApplyOutcome outcome,
                             apply_write_message(message));
      if (outcome != ApplyOutcome::kApplied) {
        ReplicationMessage nak;
        nak.kind = MessageKind::kNak;
        nak.sequence = message.sequence;
        nak.lba = message.lba;
        if (outcome == ApplyOutcome::kNakFullBlock) {
          nak.payload.push_back(static_cast<Byte>(NakReason::kNeedFullBlock));
        } else if (outcome == ApplyOutcome::kNakStaleEpoch) {
          nak.payload.push_back(static_cast<Byte>(NakReason::kStaleEpoch));
        }
        return nak;
      }
      break;
    }
    case MessageKind::kReadBlockRequest: {
      // A peer's scrubber wants our copy of the block (repair pull).
      Bytes block(local_->block_size());
      Status read = message.lba < local_->num_blocks()
                        ? local_->read(message.lba, block)
                        : out_of_range("no such block");
      if (read.is_ok()) {
        ApplyShard& shard = shard_for(message.lba);
        std::lock_guard lock(shard.mutex);
        if (shard.damaged.count(message.lba) != 0) {
          read = corruption_error("block awaits repair here too");
        }
      }
      ReplicationMessage reply;
      reply.sequence = message.sequence;
      reply.lba = message.lba;
      if (!read.is_ok()) {
        std::lock_guard lock(mutex_);
        metrics_.naks_sent += 1;
        reply.kind = MessageKind::kNak;
        return reply;
      }
      reply.kind = MessageKind::kReadBlockReply;
      reply.block_size = local_->block_size();
      reply.payload = encode_frame(codec_for(CodecId::kLz), block);
      std::lock_guard lock(mutex_);
      metrics_.repair_reads_served += 1;
      return reply;
    }
    case MessageKind::kClientReadRequest:
      return serve_client_read(message);
    case MessageKind::kReadLease: {
      // The primary published its all-replicas-acked floor; CAS-max it so
      // out-of-order renewals can only ever widen the lease.
      std::uint64_t floor = message.sequence;
      std::uint64_t prev = read_lease_floor_.load(std::memory_order_relaxed);
      while (floor > prev && !read_lease_floor_.compare_exchange_weak(
                                 prev, floor, std::memory_order_acq_rel)) {
      }
      break;  // generic kAck below confirms the renewal
    }
    case MessageKind::kBarrier:
      // The pipeline quiesces before a barrier reaches here, making it the
      // durability point: settle the device before dropping the intents
      // that guard it.
      if (config_.intent_log) {
        PRINS_RETURN_IF_ERROR(checkpoint_intents());
      }
      break;
    case MessageKind::kHello: {
      // Position report: the ACK's timestamp tells the primary how far
      // this replica's device has advanced.
      ReplicationMessage ack;
      ack.kind = MessageKind::kAck;
      ack.sequence = message.sequence;
      ack.timestamp_us = applied_timestamp_us_.load(std::memory_order_acquire);
      return ack;
    }
    case MessageKind::kAck:
    case MessageKind::kAckBatch:
    case MessageKind::kVerifyReply:
    case MessageKind::kHashReply:
    case MessageKind::kNak:
    case MessageKind::kReadBlockReply:
    case MessageKind::kClientReadReply:
      return failed_precondition("replica received a reply-kind message");
  }
  ReplicationMessage ack;
  ack.kind = MessageKind::kAck;
  ack.sequence = message.sequence;
  ack.lba = message.lba;
  return ack;
}

bool ReplicaEngine::already_applied(const ApplyShard& shard,
                                    std::uint64_t sequence) {
  return sequence != 0 && shard.applied_set.count(sequence) != 0;
}

void ReplicaEngine::record_applied(ApplyShard& shard, std::uint64_t sequence) {
  if (sequence == 0) return;
  constexpr std::size_t kDedupWindow = 65536;
  if (!shard.applied_set.insert(sequence).second) return;
  shard.applied_fifo.push_back(sequence);
  if (shard.applied_fifo.size() > kDedupWindow) {
    shard.applied_set.erase(shard.applied_fifo.front());
    shard.applied_fifo.pop_front();
  }
}

void ReplicaEngine::bump_timestamp(std::uint64_t timestamp_us) {
  std::uint64_t prev = applied_timestamp_us_.load(std::memory_order_relaxed);
  while (timestamp_us > prev &&
         !applied_timestamp_us_.compare_exchange_weak(
             prev, timestamp_us, std::memory_order_acq_rel)) {
  }
}

bool ReplicaEngine::epoch_current(std::uint64_t frame_epoch) {
  std::uint64_t current = cluster_epoch_.load(std::memory_order_acquire);
  while (frame_epoch > current) {
    // A newer primary is talking to us: adopt its epoch, which fences the
    // old one from here on.
    if (cluster_epoch_.compare_exchange_weak(current, frame_epoch,
                                             std::memory_order_acq_rel)) {
      return true;
    }
  }
  return frame_epoch == current;
}

ReplicationMessage ReplicaEngine::stale_epoch_nak(std::uint64_t sequence,
                                                  Lba lba) {
  {
    std::lock_guard lock(mutex_);
    metrics_.naks_sent += 1;
    metrics_.stale_epoch_naks += 1;
  }
  ReplicationMessage nak;
  nak.kind = MessageKind::kNak;
  nak.cluster_epoch = cluster_epoch();  // tell the zombie where the world is
  nak.sequence = sequence;
  nak.lba = lba;
  nak.payload.push_back(static_cast<Byte>(NakReason::kStaleEpoch));
  return nak;
}

Result<ReplicaEngine::ApplyOutcome> ReplicaEngine::apply_write_message(
    const MessageView& message) {
  if (!epoch_current(message.cluster_epoch)) {
    std::lock_guard lock(mutex_);
    metrics_.naks_sent += 1;
    metrics_.stale_epoch_naks += 1;
    return ApplyOutcome::kNakStaleEpoch;
  }
  ApplyShard& shard = shard_for(message.lba);
  bool checkpoint_due = false;
  {
    std::lock_guard lock(shard.mutex);
    if (already_applied(shard, message.sequence)) {
      std::lock_guard metrics_lock(mutex_);
      metrics_.duplicates_dropped += 1;
      return ApplyOutcome::kApplied;  // ACK again; re-XOR would undo it
    }
    if (message.kind == MessageKind::kWrite && !ships_parity(message.policy) &&
        message.sequence != 0) {
      // A full block older than the newest one applied at its LBA is a
      // late retransmission: same-LBA sequences rise in write order, so it
      // is superseded, and writing it would roll the block back.  (Deltas
      // commute, so they need no such rule.)
      const auto it = shard.newest_applied.find(message.lba);
      if (it != shard.newest_applied.end() && message.sequence < it->second) {
        std::lock_guard metrics_lock(mutex_);
        metrics_.duplicates_dropped += 1;
        return ApplyOutcome::kApplied;
      }
    }
    Status applied = apply_write_locked(shard, message, &checkpoint_due);
    if (applied.code() == ErrorCode::kCorruption ||
        applied.code() == ErrorCode::kDataCorruption) {
      // kCorruption: the payload survived the header CRC but its codec
      // frame is bad — bounce it back for a resend.  kDataCorruption:
      // our stored A_old is torn or rotten, so resending the same parity
      // delta can never succeed — ask for the full block instead.
      std::lock_guard metrics_lock(mutex_);
      metrics_.naks_sent += 1;
      if (applied.code() == ErrorCode::kDataCorruption) {
        metrics_.full_repairs_requested += 1;
        return ApplyOutcome::kNakFullBlock;
      }
      return ApplyOutcome::kNakResend;
    }
    PRINS_RETURN_IF_ERROR(applied);
    record_applied(shard, message.sequence);
    if (message.sequence != 0) {
      std::uint64_t& newest = shard.newest_applied[message.lba];
      if (message.sequence > newest) newest = message.sequence;
    }
    if (message.kind == MessageKind::kWrite ||
        message.kind == MessageKind::kRepairBlock) {
      bump_timestamp(message.timestamp_us);
    }
  }
  // Checkpoint outside the shard lock: it locks *all* shards to quiesce.
  if (checkpoint_due) PRINS_RETURN_IF_ERROR(checkpoint_intents());
  return ApplyOutcome::kApplied;
}

Result<ReplicationMessage> ReplicaEngine::serve_client_read(
    const MessageView& message) {
  // Fence first: after a promotion this replica answers only the new
  // epoch's readers — a router still wired to the deposed primary gets
  // kStaleEpoch and must not trust any data from here.
  if (!epoch_current(message.cluster_epoch)) {
    return stale_epoch_nak(message.sequence, message.lba);
  }
  const std::uint64_t min_sequence =
      message.payload.size() >= 8 ? load_le64(message.payload) : 0;
  ReplicationMessage reply;
  reply.sequence = message.sequence;  // exchange id, echoed for matching
  reply.lba = message.lba;
  reply.cluster_epoch = cluster_epoch();
  auto plain_nak = [&]() -> ReplicationMessage {
    std::lock_guard lock(mutex_);
    metrics_.naks_sent += 1;
    reply.kind = MessageKind::kNak;
    return reply;
  };
  if (message.lba >= local_->num_blocks()) return plain_nak();
  Bytes block(local_->block_size());
  ApplyShard& shard = shard_for(message.lba);
  {
    std::lock_guard lock(shard.mutex);
    if (shard.damaged.count(message.lba) != 0) return plain_nak();
    // Fresh iff the demanded sequence is covered by the lease floor (every
    // write at or below it is applied on every replica) or by this LBA's
    // own applied high-water mark.  Same-LBA applies are serialized by
    // this shard, so newest >= min_sequence proves every same-LBA write at
    // or below min_sequence has landed.
    bool fresh =
        min_sequence == 0 ||
        read_lease_floor_.load(std::memory_order_acquire) >= min_sequence;
    if (!fresh) {
      auto it = shard.newest_applied.find(message.lba);
      fresh = it != shard.newest_applied.end() && it->second >= min_sequence;
    }
    if (!fresh) {
      {
        std::lock_guard mlock(mutex_);
        metrics_.naks_sent += 1;
        metrics_.stale_read_naks += 1;
      }
      reply.kind = MessageKind::kNak;
      reply.payload.push_back(static_cast<Byte>(NakReason::kStaleRead));
      return reply;
    }
    // Read under the shard lock: atomic with respect to in-flight applies
    // on this stripe, so a reader never observes a half-XORed block.
    Status read = apply_dev_->read(message.lba, block);
    if (read.code() == ErrorCode::kDataCorruption) {
      shard.damaged.insert(message.lba);  // NAK deltas until repair lands
      return plain_nak();
    }
    PRINS_RETURN_IF_ERROR(read);
  }
  reply.kind = MessageKind::kClientReadReply;
  reply.block_size = local_->block_size();
  // Raw block bytes, no codec frame: the read path trades wire compression
  // for zero decode cost on the hot path.
  reply.payload = std::move(block);
  std::lock_guard lock(mutex_);
  metrics_.client_reads_served += 1;
  return reply;
}

Status ReplicaEngine::apply_write_locked(ApplyShard& shard,
                                         const MessageView& message,
                                         bool* checkpoint_due) {
  if (message.block_size != local_->block_size()) {
    return invalid_argument("message block size " +
                            std::to_string(message.block_size) +
                            " != replica block size " +
                            std::to_string(local_->block_size()));
  }
  PRINS_ASSIGN_OR_RETURN(Bytes raw, decode_frame(message.payload));
  if (raw.size() != message.block_size) {
    return corruption("decoded payload is " + std::to_string(raw.size()) +
                      " bytes, expected one block");
  }

  const bool parity = message.kind == MessageKind::kWrite &&
                      ships_parity(message.policy);
  if (parity && shard.damaged.count(message.lba) != 0) {
    return corruption_error("block " + std::to_string(message.lba) +
                            " is damaged; parity cannot apply");
  }

  Bytes new_block;
  Bytes delta;
  if (parity) {
    // Backward parity computation: A_new = P' ⊕ A_old.  The old-block
    // cache (apply_dev_) turns a hot LBA's read into a memcpy.
    Bytes old_block(message.block_size);
    Status old_read = apply_dev_->read(message.lba, old_block);
    if (old_read.code() == ErrorCode::kDataCorruption) {
      // A_old failed its checksum: remember the damage so every delta to
      // this LBA bounces until a full-contents write repairs it.
      shard.damaged.insert(message.lba);
    }
    PRINS_RETURN_IF_ERROR(old_read);
    delta = std::move(raw);
    new_block = Bytes(message.block_size);
    xor_to(new_block, delta, old_block);
  } else {
    new_block = std::move(raw);
    if (config_.keep_trap_log && message.kind == MessageKind::kWrite) {
      Bytes old_block(message.block_size);
      Status old_read = apply_dev_->read(message.lba, old_block);
      if (old_read.is_ok()) {
        delta = parity_delta(new_block, old_block);
      } else if (old_read.code() != ErrorCode::kDataCorruption) {
        return old_read;
      }
      // Corrupt old contents: the full write repairs the block, but there
      // is no usable delta to log for CDP.
    }
  }

  // Durable intent before the in-place write: after a crash, the CRC tells
  // a completed apply (dedup its redelivery) from a torn one (NAK for a
  // full-block repair).  record() group-commits, so concurrent shard
  // workers share one fdatasync.
  if (config_.intent_log) {
    PRINS_RETURN_IF_ERROR(config_.intent_log->record(
        message.sequence, message.lba, crc32c(new_block)));
  }

  PRINS_RETURN_IF_ERROR(apply_dev_->write(message.lba, new_block));

  if (config_.keep_trap_log && message.kind == MessageKind::kWrite &&
      !delta.empty()) {
    std::lock_guard trap_lock(trap_mutex_);
    PRINS_RETURN_IF_ERROR(
        trap_log_.append(message.lba, message.timestamp_us, delta));
  }

  shard.damaged.erase(message.lba);  // full contents (or a clean apply) landed
  {
    std::lock_guard lock(mutex_);
    metrics_.writes_applied += (message.kind == MessageKind::kWrite);
    metrics_.parity_applies += parity;
    metrics_.sync_blocks += (message.kind == MessageKind::kSyncBlock);
    metrics_.repairs += (message.kind == MessageKind::kRepairBlock);
  }
  if (config_.intent_log && config_.intent_checkpoint_every > 0) {
    const std::uint64_t applies =
        applies_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (applies >= config_.intent_checkpoint_every) {
      applies_since_checkpoint_.store(0, std::memory_order_relaxed);
      *checkpoint_due = true;
    }
  }
  return Status::ok();
}

Status ReplicaEngine::checkpoint_intents() {
  if (!config_.intent_log) return Status::ok();
  std::lock_guard checkpoint_lock(checkpoint_mutex_);
  // Quiesce by locking every shard (index order; applies take exactly one):
  // no apply can sit between its intent record and its device write while
  // the log truncates.
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(shards_.size());
  for (auto& shard : shards_) held.emplace_back(shard->mutex);
  // Settle the data writes first; only then is it safe to forget the
  // intents that would re-detect them.
  PRINS_RETURN_IF_ERROR(apply_dev_->flush());
  PRINS_RETURN_IF_ERROR(config_.intent_log->checkpoint());
  applies_since_checkpoint_.store(0, std::memory_order_relaxed);
  return Status::ok();
}

Result<std::vector<Lba>> ReplicaEngine::recover_intents() {
  if (!config_.intent_log) return std::vector<Lba>{};
  std::map<Lba, std::vector<WriteIntentLog::Intent>> by_lba;
  for (const WriteIntentLog::Intent& intent : config_.intent_log->pending()) {
    by_lba[intent.lba].push_back(intent);
  }
  std::vector<Lba> damaged;
  Bytes block(local_->block_size());
  for (const auto& [lba, intents] : by_lba) {
    if (lba >= local_->num_blocks()) continue;
    const Status read = local_->read(lba, block);
    const std::uint32_t crc = read.is_ok() ? crc32c(block) : 0;
    // Same-LBA applies are serialized (their shard orders them), so the
    // *newest* intent the contents match tells how far that block's stream
    // got: everything up to it completed (dedup those sequences — re-XOR
    // would undo them), everything after it never ran and will be
    // redelivered.  Matching nothing means the block is torn — or an apply
    // stopped between intent and write, which is indistinguishable and
    // equally unsafe to patch with a delta.
    ApplyShard& shard = shard_for(lba);
    bool matched = false;
    if (read.is_ok()) {
      for (std::size_t i = intents.size(); i-- > 0;) {
        if (intents[i].crc == crc) {
          std::lock_guard lock(shard.mutex);
          for (std::size_t j = 0; j <= i; ++j) {
            record_applied(shard, intents[j].sequence);
          }
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      {
        std::lock_guard lock(shard.mutex);
        shard.damaged.insert(lba);
      }
      std::lock_guard lock(mutex_);
      metrics_.torn_blocks_detected += 1;
      damaged.push_back(lba);
    }
  }
  return damaged;
}

std::vector<Lba> ReplicaEngine::damaged_blocks() const {
  std::vector<Lba> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    out.insert(out.end(), shard->damaged.begin(), shard->damaged.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::unique_ptr<PrinsEngine>> ReplicaEngine::promote(
    EngineConfig config) {
  // Finish crash recovery first: the intent log is what separates applied
  // writes from torn ones after a hard kill (idempotent if already run).
  PRINS_ASSIGN_OR_RETURN(std::vector<Lba> damaged, recover_intents());
  if (!damaged.empty()) {
    return failed_precondition(
        "cannot promote: " + std::to_string(damaged.size()) +
        " torn block(s) await full-block repair");
  }
  // Highest applied sequence across the striped dedup windows: the new
  // primary's writes must sequence above anything a survivor may already
  // have seen, or its dedup window would swallow them.
  std::uint64_t max_sequence = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (std::uint64_t sequence : shard->applied_fifo) {
      max_sequence = std::max(max_sequence, sequence);
    }
  }
  // Fence the old primary: everything from here on happens one epoch up,
  // and this replica keeps NAKing the old epoch if the zombie reappears.
  std::uint64_t epoch =
      cluster_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (config.cluster_epoch > epoch) {
    epoch_current(config.cluster_epoch);  // adopt an operator-forced epoch
    epoch = config.cluster_epoch;
  }
  config.cluster_epoch = epoch;
  config.keep_trap_log = true;  // survivors catch up with delta resyncs
  auto engine = std::make_unique<PrinsEngine>(local_, config);
  PRINS_RETURN_IF_ERROR(engine->adopt_recovered_state(
      max_sequence + 1, applied_timestamp(), trap_log_));
  return engine;
}

Result<ReplicationMessage> ReplicaEngine::apply_verify(
    const MessageView& message) {
  PRINS_ASSIGN_OR_RETURN(std::vector<BlockChecksum> sums,
                         unpack_checksums(message.payload));
  std::vector<std::uint64_t> mismatched;
  Bytes block(local_->block_size());
  for (const auto& sum : sums) {
    if (sum.lba >= local_->num_blocks()) {
      mismatched.push_back(sum.lba);
      continue;
    }
    const Status read = local_->read(sum.lba, block);
    if (read.code() == ErrorCode::kDataCorruption) {
      mismatched.push_back(sum.lba);  // unreadable == mismatched: repair it
      continue;
    }
    PRINS_RETURN_IF_ERROR(read);
    if (crc32c(block) != sum.crc) mismatched.push_back(sum.lba);
  }
  {
    std::lock_guard lock(mutex_);
    metrics_.verify_requests += 1;
  }
  ReplicationMessage reply;
  reply.kind = MessageKind::kVerifyReply;
  reply.sequence = message.sequence;
  reply.payload = pack_lbas(mismatched);
  return reply;
}

ReplicaMetrics ReplicaEngine::metrics() const {
  ReplicaMetrics m;
  {
    std::lock_guard lock(mutex_);
    m = metrics_;
  }
  m.apply_queue_peak = apply_queue_peak_.load(std::memory_order_relaxed);
  if (cache_) {
    const CacheStats stats = cache_->stats();
    m.cache_hits = stats.hits;
    m.cache_misses = stats.misses;
  }
  if (config_.intent_log) {
    const WriteIntentLog::Stats stats = config_.intent_log->stats();
    m.intent_records = stats.records;
    m.intent_fsyncs = stats.fsyncs;
  }
  return m;
}

std::uint64_t ReplicaEngine::applied_timestamp() const {
  return applied_timestamp_us_.load(std::memory_order_acquire);
}

// ---- ReplicaPipeline ------------------------------------------------------

struct ReplicaPipeline::WorkItem {
  enum class Kind : std::uint8_t { kWrite, kClientRead, kControl };
  std::shared_ptr<Session> session;
  Bytes wire;  // owning buffer; view.payload aliases it
  MessageView view{};
  Kind kind = Kind::kWrite;
};

struct ReplicaPipeline::ShardQueue {
  std::mutex m;
  std::condition_variable cv;
  std::deque<WorkItem> q;
  bool closed = false;
};

struct ReplicaPipeline::Completion {
  std::uint64_t sequence = 0;
  Lba lba = 0;
  ReplicaEngine::ApplyOutcome outcome = ReplicaEngine::ApplyOutcome::kApplied;
};

struct ReplicaPipeline::Session {
  std::shared_ptr<Transport> transport;
  std::function<void(bool)> pause;
  std::mutex send_mutex;  // one reply frame on the wire at a time

  std::mutex m;
  std::condition_variable idle_cv;
  std::size_t in_flight = 0;  // writes + client reads dispatched, not done
  bool paused = false;        // front end told to stop delivering
  bool blocked = false;       // a control frame is waiting or running
  bool flushing = false;      // a worker is draining `completions`
  bool detached = false;      // front end delivers nothing more
  std::optional<WorkItem> pending_control;  // waits for in_flight == 0
  std::vector<Completion> completions;
  Status error;  // first fatal error

  bool idle() const { return in_flight == 0 && !blocked && !flushing; }

  /// `m` held: resume the front end once the session is neither waiting
  /// on a control frame nor over half its in-flight cap.
  void maybe_resume() {
    if (!paused || blocked || detached) return;
    if (in_flight > kMaxInFlight / 2) return;
    paused = false;
    pause(false);
  }

  /// `m` held: wake finish() if nothing is left in flight.
  void notify_if_idle() {
    if (idle()) idle_cv.notify_all();
  }
};

ReplicaPipeline::ReplicaPipeline(ReplicaEngine& replica) : replica_(replica) {
  const std::size_t nshards = replica_.apply_shards();
  queues_.reserve(nshards);
  workers_.reserve(nshards);
  for (std::size_t i = 0; i < nshards; ++i) {
    queues_.push_back(std::make_unique<ShardQueue>());
  }
  for (std::size_t i = 0; i < nshards; ++i) {
    workers_.emplace_back([this, queue = queues_[i].get()] {
      worker_loop(*queue);
    });
  }
}

ReplicaPipeline::~ReplicaPipeline() {
  for (auto& queue : queues_) {
    std::lock_guard lock(queue->m);
    queue->closed = true;
    queue->cv.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

std::shared_ptr<ReplicaPipeline::Session> ReplicaPipeline::open(
    std::shared_ptr<Transport> transport, std::function<void(bool)> pause) {
  auto session = std::make_shared<Session>();
  session->transport = std::move(transport);
  session->pause = std::move(pause);
  return session;
}

void ReplicaPipeline::deliver(const std::shared_ptr<Session>& session,
                              Bytes&& wire) {
  {
    std::lock_guard lock(replica_.mutex_);
    replica_.metrics_.bytes_received += wire.size();
  }
  auto msg = ReplicationMessage::decode_view(wire);
  if (!msg.is_ok()) {
    // A torn frame is the link's fault, not the session's: NAK so the
    // primary retransmits.  Sequence 0 = "couldn't even read the header";
    // the primary resends everything un-acked and dedup absorbs overlap.
    {
      std::lock_guard lock(replica_.mutex_);
      replica_.metrics_.naks_sent += 1;
    }
    ReplicationMessage nak;
    nak.kind = MessageKind::kNak;
    nak.cluster_epoch = replica_.cluster_epoch();
    answer(*session, nak);
    return;
  }
  using Kind = WorkItem::Kind;
  const Kind kind = is_write_kind(msg->kind) ? Kind::kWrite
                    : msg->kind == MessageKind::kClientReadRequest
                        ? Kind::kClientRead
                        : Kind::kControl;
  // Moving the owning Bytes relocates the vector header only; the heap
  // bytes the view's payload aliases stay put.
  WorkItem item{session, std::move(wire), *msg, kind};
  {
    std::lock_guard lock(session->m);
    if (session->detached) return;
    if (kind != Kind::kControl) {
      // Client reads pipeline exactly like writes: no session quiesce,
      // just FIFO order behind same-stripe applies (the freshness check
      // runs under the stripe's shard lock).
      ++session->in_flight;
      if (!session->paused && session->in_flight >= kMaxInFlight) {
        session->paused = true;
        session->pause(true);
      }
    } else {
      // Barriers, verifies, hashes, hellos, read-blocks, leases: rare
      // control frames whose answers must observe every earlier write on
      // this session.  Pause the front end; apply once in-flight drains.
      session->blocked = true;
      if (!session->paused) {
        session->paused = true;
        session->pause(true);
      }
      if (session->in_flight > 0) {
        session->pending_control = std::move(item);
        return;
      }
    }
  }
  dispatch(std::move(item));
}

void ReplicaPipeline::detach(Session& session) {
  std::optional<WorkItem> dropped;  // destroyed outside the lock
  std::lock_guard lock(session.m);
  session.detached = true;
  if (session.pending_control) {
    dropped = std::move(session.pending_control);
    session.pending_control.reset();
    session.blocked = false;
  }
  session.notify_if_idle();
}

Status ReplicaPipeline::finish(Session& session) {
  detach(session);
  std::unique_lock lock(session.m);
  session.idle_cv.wait(lock, [&] { return session.idle(); });
  return session.error;
}

void ReplicaPipeline::dispatch(WorkItem&& item) {
  // Control frames all ride stripe 0: they are rare, and their session is
  // already quiesced, so any worker may serve one.
  const std::size_t index = item.kind == WorkItem::Kind::kControl
                                ? 0
                                : item.view.lba & (queues_.size() - 1);
  ShardQueue& queue = *queues_[index];
  std::uint64_t depth = 0;
  {
    std::lock_guard lock(queue.m);
    queue.q.push_back(std::move(item));
    depth = queue.q.size();
  }
  queue.cv.notify_one();
  std::atomic<std::uint64_t>& peak_ref = replica_.apply_queue_peak_;
  std::uint64_t peak = peak_ref.load(std::memory_order_relaxed);
  while (depth > peak && !peak_ref.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

void ReplicaPipeline::worker_loop(ShardQueue& queue) {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock lock(queue.m);
      queue.cv.wait(lock, [&] { return !queue.q.empty() || queue.closed; });
      if (queue.q.empty()) return;  // closed and drained
      item = std::move(queue.q.front());
      queue.q.pop_front();
    }
    Session& session = *item.session;
    switch (item.kind) {
      case WorkItem::Kind::kWrite:
        run_write(item);
        break;
      case WorkItem::Kind::kClientRead:
        // The answer is a block, not an ack: reply directly, uncoalesced.
        answer(session, replica_.serve_client_read(item.view));
        settle(session);
        break;
      case WorkItem::Kind::kControl: {
        answer(session, replica_.apply_view(item.view));
        std::lock_guard lock(session.m);
        session.blocked = false;
        session.maybe_resume();
        session.notify_if_idle();
        break;
      }
    }
  }
}

void ReplicaPipeline::run_write(WorkItem& item) {
  Session& session = *item.session;
  auto outcome = replica_.apply_write_message(item.view);
  bool flush = false;
  if (outcome.is_ok()) {
    std::lock_guard lock(session.m);
    session.completions.push_back(
        Completion{item.view.sequence, item.view.lba, *outcome});
    flush = !std::exchange(session.flushing, true);
  } else {
    fail(session, outcome.status());
  }
  settle(session);
  if (flush) flush_acks(session);
}

void ReplicaPipeline::answer(Session& session,
                             const Result<ReplicationMessage>& reply) {
  Status sent =
      reply.is_ok() ? send(session, *reply, reply->payload) : reply.status();
  // The peer hanging up is a clean end of session (the front end sees the
  // same close); anything else is fatal.
  if (!sent.is_ok() && sent.code() != ErrorCode::kUnavailable) {
    fail(session, sent);
  }
}

void ReplicaPipeline::settle(Session& session) {
  std::optional<WorkItem> control;
  {
    std::lock_guard lock(session.m);
    --session.in_flight;
    if (session.in_flight == 0 && session.pending_control) {
      control = std::move(session.pending_control);
      session.pending_control.reset();
    }
    session.maybe_resume();
    session.notify_if_idle();
  }
  if (control) dispatch(std::move(*control));
}

void ReplicaPipeline::flush_acks(Session& session) {
  const std::size_t chunk = replica_.config_.ack_coalesce_max;
  std::vector<Completion> batch;
  for (;;) {
    {
      std::lock_guard lock(session.m);
      if (session.completions.empty()) {
        session.flushing = false;
        session.notify_if_idle();
        return;
      }
      batch.swap(session.completions);
    }
    for (std::size_t off = 0; off < batch.size(); off += chunk) {
      Status sent = send_ack_chunk(session, batch.data() + off,
                                   std::min(chunk, batch.size() - off));
      if (!sent.is_ok()) {
        if (sent.code() != ErrorCode::kUnavailable) fail(session, sent);
        break;  // as answer(): a peer hangup ends the session cleanly
      }
    }
    batch.clear();
  }
}

Status ReplicaPipeline::send_ack_chunk(Session& session,
                                       const Completion* completions,
                                       std::size_t count) {
  std::vector<std::uint64_t> acked;
  acked.reserve(count);
  Lba last_lba = 0;
  std::uint64_t newest = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Completion& c = completions[i];
    if (c.outcome == ReplicaEngine::ApplyOutcome::kApplied) {
      acked.push_back(c.sequence);
      if (c.sequence >= newest) {
        newest = c.sequence;
        last_lba = c.lba;
      }
      continue;
    }
    // NAKs are the holes: they stay individual frames so the primary can
    // match each to its entry (and read the reason byte).
    ReplicationMessage nak;
    nak.kind = MessageKind::kNak;
    nak.cluster_epoch = replica_.cluster_epoch();
    nak.sequence = c.sequence;
    nak.lba = c.lba;
    Byte reason = static_cast<Byte>(NakReason::kNeedFullBlock);
    ByteSpan payload;
    if (c.outcome == ReplicaEngine::ApplyOutcome::kNakFullBlock) {
      payload = ByteSpan(&reason, 1);
    } else if (c.outcome == ReplicaEngine::ApplyOutcome::kNakStaleEpoch) {
      reason = static_cast<Byte>(NakReason::kStaleEpoch);
      payload = ByteSpan(&reason, 1);
    }
    PRINS_RETURN_IF_ERROR(send(session, nak, payload));
  }
  if (acked.empty()) return Status::ok();
  ReplicationMessage ack;
  ack.cluster_epoch = replica_.cluster_epoch();
  ack.sequence = newest;
  ack.lba = last_lba;
  if (acked.size() == 1) {
    // A lone completion acks plainly — byte-compatible with the
    // one-frame-at-a-time resync and heal exchanges.
    ack.kind = MessageKind::kAck;
    return send(session, ack, {});
  }
  const std::vector<AckRange> ranges = coalesce_ack_ranges(acked);
  Bytes payload;
  payload.reserve(4 + ranges.size() * 12);
  append_le32(payload, static_cast<std::uint32_t>(ranges.size()));
  for (const AckRange& range : ranges) {
    append_le64(payload, range.first_sequence);
    append_le32(payload, range.count);
  }
  ack.kind = MessageKind::kAckBatch;
  PRINS_RETURN_IF_ERROR(send(session, ack, payload));
  std::lock_guard lock(replica_.mutex_);
  replica_.metrics_.ack_batches += 1;
  replica_.metrics_.acks_batched += acked.size();
  return Status::ok();
}

Status ReplicaPipeline::send(Session& session, const ReplicationMessage& meta,
                             ByteSpan payload) {
  std::lock_guard lock(session.send_mutex);
  return send_framed(*session.transport, meta, payload);
}

void ReplicaPipeline::fail(Session& session, const Status& error) {
  {
    std::lock_guard lock(session.m);
    if (!session.error.is_ok()) return;  // already failing
    session.error = error;
  }
  PRINS_LOG(kWarn) << "replica session failed: " << error.to_string();
  session.transport->close();  // wakes the front end out of recv()
}

std::thread replica_serve_in_background(std::shared_ptr<ReplicaEngine> replica,
                                        std::shared_ptr<Listener> listener) {
  return std::thread([replica = std::move(replica),
                      listener = std::move(listener)] {
    std::vector<std::thread> sessions;
    int consecutive_failures = 0;
    for (;;) {
      auto conn = listener->accept();
      if (!conn.is_ok()) {
        // A closed listener is the shutdown signal; anything else is a
        // transient accept failure (ECONNABORTED, an injected listener
        // fault) — retry, but don't spin forever if accept() only fails.
        if (conn.status().code() == ErrorCode::kUnavailable) break;
        PRINS_LOG(kWarn) << "replica accept: " << conn.status().to_string();
        if (++consecutive_failures >= 64) {
          PRINS_LOG(kError)
              << "replica accept failing persistently; stopping the loop";
          break;
        }
        continue;
      }
      consecutive_failures = 0;
      sessions.emplace_back(
          [replica, conn = std::shared_ptr<Transport>(std::move(*conn))] {
            Status s = replica->serve(*conn);
            if (!s.is_ok()) {
              PRINS_LOG(kWarn) << "replica session error: " << s.to_string();
            }
          });
    }
    for (std::thread& session : sessions) session.join();
  });
}

}  // namespace prins
