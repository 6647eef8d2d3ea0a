#include "prins/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "common/crc32c.h"
#include "common/env.h"
#include "common/logging.h"
#include "parity/xor.h"
#include "prins/verify.h"

namespace prins {
namespace {

// Codec frames add at most a small header plus bounded expansion over the
// raw payload; reserving a bit beyond the block size keeps steady-state
// frame encodes from growing the pooled buffer.
std::size_t frame_capacity_for(std::size_t block_size) {
  return block_size + block_size / 8 + 64;
}

/// Exponential backoff with ±25% jitter before retry `attempt` (1-based):
/// base · multiplier^(attempt−1), capped at `cap`.  The jitter decorrelates
/// simultaneous retries across links.
std::chrono::steady_clock::duration backoff_delay(
    std::chrono::milliseconds base, std::chrono::milliseconds cap,
    double multiplier, std::size_t attempt, Rng& jitter) {
  const auto exponent = std::clamp<std::size_t>(attempt, 1, 31) - 1;
  double ms = static_cast<double>(base.count()) *
              std::pow(multiplier, static_cast<double>(exponent));
  ms = std::min(ms, static_cast<double>(cap.count()));
  ms *= 0.75 + 0.5 * jitter.next_double();
  if (ms <= 0.0) ms = 0.0;
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// CAS-max: raise `value` to at least `floor`.
void raise_to(std::atomic<std::uint64_t>& value, std::uint64_t floor) {
  std::uint64_t seen = value.load(std::memory_order_relaxed);
  while (seen < floor && !value.compare_exchange_weak(seen, floor)) {
  }
}

/// Bind a link entering the engine to the engine's loop.  Fails when a
/// decorator hides the link's HandlerTransport (does not forward
/// underlying()): the sender could not install its handlers on it.
Status bind_to_loop(Transport& link, const std::shared_ptr<Reactor>& loop) {
  auto* events = dynamic_cast<HandlerTransport*>(link.underlying());
  if (events == nullptr) {
    return invalid_argument("replica link " + link.describe() +
                            " hides its HandlerTransport (a decorator must "
                            "forward underlying())");
  }
  events->set_loop(loop);
  return Status::ok();
}

}  // namespace

PrinsEngine::PrinsEngine(std::shared_ptr<BlockDevice> local,
                         EngineConfig config)
    : local_(std::move(local)),
      config_(config),
      block_pool_(local_->block_size(), config_.pool_max_free),
      frame_pool_(frame_capacity_for(local_->block_size()),
                  config_.pool_max_free) {
  assert(local_ != nullptr);
  init_shards();
}

PrinsEngine::PrinsEngine(std::shared_ptr<RaidArray> local_raid,
                         EngineConfig config)
    : local_(local_raid),
      raid_(local_raid.get()),
      config_(config),
      block_pool_(local_->block_size(), config_.pool_max_free),
      frame_pool_(frame_capacity_for(local_->block_size()),
                  config_.pool_max_free) {
  assert(local_ != nullptr);
  init_shards();
  raid_->set_parity_observer(
      [this](Lba lba, ByteSpan delta, std::size_t dirty) {
        std::lock_guard lock(tap_mutex_);
        tap_deltas_[lba] = TapDelta{to_bytes(delta), dirty};
      });
}

PrinsEngine::PrinsEngine(std::shared_ptr<Raid6Array> local_raid6,
                         EngineConfig config)
    : local_(local_raid6),
      raid6_(local_raid6.get()),
      config_(config),
      block_pool_(local_->block_size(), config_.pool_max_free),
      frame_pool_(frame_capacity_for(local_->block_size()),
                  config_.pool_max_free) {
  assert(local_ != nullptr);
  init_shards();
  raid6_->set_parity_observer(
      [this](Lba lba, ByteSpan delta, std::size_t dirty) {
        std::lock_guard lock(tap_mutex_);
        tap_deltas_[lba] = TapDelta{to_bytes(delta), dirty};
      });
}

void PrinsEngine::init_shards() {
  const std::size_t n = resolve_shard_count(config_.write_shards, 64);
  config_.write_shards = n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<WriteShard>();
    if (config_.read_from_replicas) {
      shard->recent =
          std::make_unique<WriteShard::RecentSlot[]>(WriteShard::kRecentRing);
    }
    shards_.push_back(std::move(shard));
  }
  shard_mask_ = n - 1;
  if (config_.reactor == nullptr) {
    auto reactor = Reactor::create();
    if (!reactor.is_ok()) {
      PRINS_LOG(kError) << "engine cannot start its reactor: "
                        << reactor.status().to_string();
      std::abort();
    }
    config_.reactor = std::move(*reactor);
  }
  sender_guard_ = std::make_shared<SenderGuard>();
  sender_guard_->engine = this;
}

std::uint64_t PrinsEngine::clock_tick() {
  return clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
}

PrinsEngine::~PrinsEngine() {
  // Silence the sender callbacks first: each message/close handler, wheel
  // timer, and posted pump holds the guard lock for its whole run, so once
  // `engine` is nulled under that lock, none is in flight and none will
  // start.
  {
    std::lock_guard g(sender_guard_->m);
    sender_guard_->engine = nullptr;
  }
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    queue_cv_.notify_all();
    for (auto& link : replicas_) cancel_link_timer_locked(link.get());
  }
  for (auto& link : replicas_) {
    if (link->healer.joinable()) link->healer.join();
  }
  if (raid_ != nullptr) raid_->set_parity_observer(nullptr);
  if (raid6_ != nullptr) raid6_->set_parity_observer(nullptr);
  for (auto& link : replicas_) {
    clear_link_handlers(*link);
    link->transport->close();
  }
}

void PrinsEngine::add_replica(std::unique_ptr<Transport> link) {
  assert(link != nullptr);
  if (Status s = bind_to_loop(*link, config_.reactor); !s.is_ok()) {
    PRINS_LOG(kError) << "add_replica: " << s.to_string();
    std::abort();
  }
  auto replica = std::make_unique<ReplicaLink>();
  replica->transport = std::move(link);
  ReplicaLink* raw = replica.get();
  {
    std::lock_guard lock(mutex_);
    raw->index = replicas_.size();
    raw->jitter = Rng(0x9e3779b97f4a7c15ull + raw->index);
    replicas_.push_back(std::move(replica));
  }
  // A backlog queued before this link existed is impossible (outboxes are
  // per-link), so the first distribute() schedules the first pump.
  install_link_handlers(raw);
}

std::size_t PrinsEngine::replica_count() const {
  std::lock_guard lock(mutex_);
  return replicas_.size();
}

Status PrinsEngine::reattach_replica(std::size_t index,
                                     std::unique_ptr<Transport> link) {
  if (link == nullptr) return invalid_argument("null transport");
  PRINS_RETURN_IF_ERROR(bind_to_loop(*link, config_.reactor));
  ReplicaLink* replica = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (index >= replicas_.size()) {
      return invalid_argument("no replica at index " + std::to_string(index));
    }
    replica = replicas_[index].get();
  }
  {
    // Take the link mutex so no send is mid-flight on the old transport
    // while we swap it.
    std::lock_guard link_lock(replica->mutex);
    // An engine-initiated close must not fire the old transport's close
    // handler into fail_round.
    clear_link_handlers(*replica);
    replica->transport->close();
    replica->transport = std::move(link);
  }
  {
    std::lock_guard lock(mutex_);
    replica->failed = false;
    replica->unhealable = false;
    replica->heal_failures = 0;
    // Clear the sticky error only once *every* link is healthy again:
    // reattaching replica 0 must not silently absolve a still-failed
    // replica 1.  The journal stays frozen until resync_replica delivers
    // what the outage dropped.
    release_if_all_live_locked(/*clear_error=*/true,
                               /*unfreeze_journal=*/false);
    // Wakes a heal thread sleeping out its backoff, so the fresh link is
    // picked up now, not at the old deadline.
    queue_cv_.notify_all();
  }

  // Re-arm the sender on the fresh transport.
  std::lock_guard link_lock(replica->mutex);
  std::unique_lock lock(mutex_);
  if (replica->phase == ReplicaLink::Phase::kHealing) {
    // The heal thread owns the link; the notify above woke it, it will
    // observe failed == false and resume the event-driven path itself
    // (installing handlers on this fresh transport).
    return Status::ok();
  }
  cancel_link_timer_locked(replica);
  lock.unlock();
  resume_link(replica);
  return Status::ok();
}

Status PrinsEngine::write(Lba lba, ByteSpan data) {
  PRINS_RETURN_IF_ERROR(check_io(lba, data.size()));
  const std::uint32_t bs = block_size();
  const std::uint64_t blocks = data.size() / bs;

  for (std::uint64_t i = 0; i < blocks; ++i) {
    const Lba b = lba + i;
    WriteShard& shard = shard_for(b);
    // Writers to different stripes run fully concurrently; only same-block
    // writers serialize (which the replica XOR chains require).
    std::lock_guard shard_lock(shard.mutex);
    PRINS_RETURN_IF_ERROR(
        write_block_locked(shard, b, data.subspan(i * bs, bs)));
  }
  return Status::ok();
}

Status PrinsEngine::write_block_locked(WriteShard& shard, Lba b,
                                       ByteSpan new_block) {
  const std::uint32_t bs = block_size();
  PooledBuffer delta;
  Bytes tap_delta;
  ByteSpan delta_span;
  std::size_t dirty = 0;
  const bool need_delta = ships_parity(config_.policy) ||
                          config_.keep_trap_log || raid_ != nullptr ||
                          raid6_ != nullptr;

  if (raid_ != nullptr || raid6_ != nullptr) {
    // Tap mode: the array computes P' (and its dirty count) during its
    // small-write path.
    const Status wrote = local_->write(b, new_block);
    // Consume the tap entry on *every* exit path — a stale delta left
    // behind by a failed write would poison the next write to this LBA.
    bool have_tap = false;
    {
      std::lock_guard lock(tap_mutex_);
      auto it = tap_deltas_.find(b);
      if (it != tap_deltas_.end()) {
        tap_delta = std::move(it->second.delta);
        dirty = it->second.dirty;
        have_tap = true;
        tap_deltas_.erase(it);
      }
    }
    if (!wrote.is_ok()) return wrote;
    if (!have_tap) {
      return internal_error("RAID tap produced no delta for block " +
                            std::to_string(b));
    }
    delta_span = tap_delta;
  } else if (need_delta) {
    PooledBuffer old_block = block_pool_.acquire(bs);
    Status step = local_->read(b, old_block.mutable_bytes());
    if (step.is_ok()) step = local_->write(b, new_block);
    if (!step.is_ok()) return step;
    // Fused kernel: one pass produces both P' and its dirty-byte count.
    delta = block_pool_.acquire(bs);
    dirty = xor_to_and_count(delta.mutable_bytes(), new_block,
                             old_block.span());
    delta_span = delta.span();
  } else {
    PRINS_RETURN_IF_ERROR(local_->write(b, new_block));
  }
  return replicate_block(shard, b, new_block, delta_span, dirty);
}

Status PrinsEngine::replicate_block(WriteShard& shard, Lba lba,
                                    ByteSpan new_block, ByteSpan delta,
                                    std::size_t dirty) {
  const Codec& codec = payload_codec(config_.policy);
  const ByteSpan raw_payload =
      ships_parity(config_.policy) ? delta : new_block;

  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = config_.policy;
  msg.cluster_epoch = config_.cluster_epoch;
  msg.block_size = block_size();
  msg.lba = lba;

  // Encode the codec frame straight into a pooled buffer; the flat wire
  // message is never materialized (senders frame with scatter-gather I/O).
  PooledBuffer payload = frame_pool_.acquire(0);
  encode_frame_into(codec, raw_payload, payload.mutable_bytes());

  // Coalescing needs the pre-codec payload to fold; share one copy across
  // every link's outbox until a fold copies-on-write.
  PooledBuffer raw;
  if (config_.coalesce_writes) {
    raw = block_pool_.acquire(raw_payload.size());
    std::copy(raw_payload.begin(), raw_payload.end(),
              raw.mutable_bytes().begin());
  }

  // Publish a journal-watermark floor *before* taking the sequence:
  // between the fetch_add and the outbox insert this write is invisible to
  // outstanding_, and the watermark must not advance past it once the
  // journal append lands.
  SubmitSlot slot(shard, next_sequence_.load(std::memory_order_seq_cst));
  msg.sequence = next_sequence_.fetch_add(1, std::memory_order_seq_cst);
  slot.tighten(msg.sequence);
  msg.timestamp_us = clock_tick();

  shard.writes += 1;
  shard.raw_bytes += new_block.size();
  shard.payload_bytes += payload.size();
  shard.payload_sizes.record(payload.size());
  if (ships_parity(config_.policy)) {
    shard.dirty_bytes.record(dirty);
  }

  if (config_.keep_trap_log) {
    PRINS_RETURN_IF_ERROR(trap_log_.append(lba, msg.timestamp_us, delta));
  }
  // Publish into the conflict window BEFORE the outboxes see the write:
  // a reader must never classify this lba conflict-free while the write
  // is travelling to the replicas.
  if (config_.read_from_replicas) {
    record_recent_write_locked(shard, lba, msg.sequence);
  }
  return enqueue(msg, std::move(payload), std::move(raw), &shard);
}

void PrinsEngine::record_recent_write_locked(WriteShard& shard, Lba lba,
                                             std::uint64_t sequence) {
  WriteShard::RecentSlot& slot =
      shard.recent[shard.recent_next++ & (WriteShard::kRecentRing - 1)];
  // The evicted entry's history must stay visible: if its write was still
  // above the read floor (possibly un-acked somewhere), fold its sequence
  // into evicted_max so ring misses stay conservative.
  const std::uint64_t old_version =
      slot.version.load(std::memory_order_relaxed);
  if (old_version != 0) {
    const std::uint64_t old_seq =
        slot.sequence.load(std::memory_order_relaxed);
    if (old_seq > read_floor_.load(std::memory_order_acquire)) {
      std::uint64_t prev = shard.evicted_max.load(std::memory_order_relaxed);
      while (old_seq > prev && !shard.evicted_max.compare_exchange_weak(
                                   prev, old_seq, std::memory_order_acq_rel)) {
      }
    }
  }
  // Seqlock publish: odd version while the pair is torn, even when stable.
  slot.version.store(old_version + 1, std::memory_order_release);
  slot.lba.store(lba, std::memory_order_relaxed);
  slot.sequence.store(sequence, std::memory_order_relaxed);
  slot.version.store(old_version + 2, std::memory_order_release);
}

PrinsEngine::ReadClass PrinsEngine::classify_read(
    Lba lba, std::uint64_t* min_sequence) const {
  *min_sequence = 0;
  if (!config_.read_from_replicas) return ReadClass::kLocal;
  const WriteShard& shard = shard_for(lba);
  // Lock-free seqlock scan for the newest ring entry matching `lba`.  A
  // torn or racing slot read degrades to kLocal — always safe, never stale.
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < WriteShard::kRecentRing; ++i) {
    const WriteShard::RecentSlot& slot = shard.recent[i];
    std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0) continue;  // never written
    bool stable = false;
    std::uint64_t slot_lba = 0;
    std::uint64_t slot_seq = 0;
    for (int attempt = 0; attempt < 4 && !stable; ++attempt) {
      if (v1 & 1) {  // writer mid-publish; reload
        v1 = slot.version.load(std::memory_order_acquire);
        continue;
      }
      slot_lba = slot.lba.load(std::memory_order_relaxed);
      slot_seq = slot.sequence.load(std::memory_order_relaxed);
      const std::uint64_t v2 = slot.version.load(std::memory_order_acquire);
      if (v1 == v2) {
        stable = true;
      } else {
        v1 = v2;
      }
    }
    if (!stable) return ReadClass::kLocal;  // hot slot: serve locally
    if (slot_lba == lba && slot_seq > best) best = slot_seq;
  }
  const std::uint64_t floor = read_floor_.load(std::memory_order_acquire);
  if (best == 0) {
    // No ring entry for this lba.  Its writes (if any) were either evicted
    // — bounded by evicted_max — or recycled after sinking below the floor.
    const std::uint64_t evicted =
        shard.evicted_max.load(std::memory_order_acquire);
    if (evicted > floor) return ReadClass::kLocal;
    *min_sequence = evicted;
    return ReadClass::kOffloadable;
  }
  if (best > floor) return ReadClass::kLocal;  // in-flight conflict
  *min_sequence = best;
  return ReadClass::kOffloadable;
}

Status PrinsEngine::enqueue(const ReplicationMessage& meta,
                            PooledBuffer payload, PooledBuffer raw,
                            WriteShard* submit_shard) {
  if (config_.journal != nullptr) {
    // Durable before queued: a crash between these two steps re-sends the
    // message (at-least-once), never loses it.  The payload travels
    // alongside the header, so no flat message copy is built here either.
    PRINS_RETURN_IF_ERROR(config_.journal->append(meta, payload.span()));
  }
  return distribute(meta, std::move(payload), std::move(raw), submit_shard);
}

Status PrinsEngine::distribute(const ReplicationMessage& meta,
                               PooledBuffer payload, PooledBuffer raw,
                               WriteShard* submit_shard) {
  const bool coalescable = config_.coalesce_writes && bool(raw) &&
                           meta.kind == MessageKind::kWrite;
  // Canonical wire size (header + frame + CRC), for traffic accounting.
  const std::size_t wire_size =
      ReplicationMessage::kWireHeaderSize + payload.size() + 4;

  submit_global_locks_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  queue_cv_.wait(lock, [this] {
    return stopping_.load(std::memory_order_relaxed) ||
           outboxes_below_capacity_locked();
  });
  if (stopping_.load(std::memory_order_relaxed)) {
    return unavailable("engine is shutting down");
  }
  if (!worker_error_.is_ok()) return worker_error_;

  last_distributed_seq_ = std::max(last_distributed_seq_, meta.sequence);
  // The message is now visible to the watermark bookkeeping in this
  // critical section (last_distributed_seq_ above, outstanding_ below), so
  // the pre-sequence floor slot has done its job.  Clearing it here — while
  // mutex_ is still held — lets the ack_watermark_locked() call below
  // advance the read floor over a write that completes instantly (no
  // replicas); the SubmitSlot destructor's store(0) stays as an idempotent
  // backstop for early-error returns.
  if (submit_shard != nullptr) {
    submit_shard->submitting_seq.store(0, std::memory_order_seq_cst);
  }
  if (replicas_.empty()) {
    // Nothing to ship: the write is trivially replicated everywhere.
    metrics_.message_bytes += wire_size;
    const std::uint64_t watermark = ack_watermark_locked();
    lock.unlock();
    advance_journal_watermark(watermark);
    return Status::ok();
  }

  if (ack_node_pool_.empty()) {
    outstanding_.emplace(meta.sequence,
                         PendingAck{replicas_.size(), wire_size, false});
  } else {
    // Reuse a recycled map node: ack bookkeeping is the last per-write
    // heap allocation on the submit path, and this makes it free in
    // steady state.
    auto node = std::move(ack_node_pool_.back());
    ack_node_pool_.pop_back();
    node.key() = meta.sequence;
    node.mapped() = PendingAck{replicas_.size(), wire_size, false};
    outstanding_.insert(std::move(node));
  }
  for (auto& link : replicas_) {
    append_to_outbox_locked(*link, meta, payload, raw, coalescable);
    schedule_pump_locked(link.get());
  }
  return Status::ok();
}

void PrinsEngine::append_to_outbox_locked(ReplicaLink& link,
                                          const ReplicationMessage& meta,
                                          const PooledBuffer& payload,
                                          const PooledBuffer& raw,
                                          bool coalescable) {
  if (coalescable) {
    const auto it = link.fold_slots.find(meta.lba);
    if (it != link.fold_slots.end()) {
      OutMessage& entry = link.outbox[it->second - link.first_slot];
      if (ships_parity(config_.policy)) {
        // Deltas telescope: applying d1 then d2 equals applying d1 ⊕ d2,
        // so fold the new delta into the queued one.  Copy-on-write first:
        // the payload may still be shared with other links' outboxes.
        if (entry.raw.use_count() > 1) {
          PooledBuffer copy = block_pool_.acquire(entry.raw.size());
          std::copy(entry.raw.span().begin(), entry.raw.span().end(),
                    copy.mutable_bytes().begin());
          entry.raw = std::move(copy);
        }
        xor_into(entry.raw.mutable_bytes(), raw.span());
        entry.payload.reset();  // stale; sender re-encodes from raw
        entry.needs_encode = true;
      } else {
        // Full-block payloads: last write wins, and the new message's
        // frame is exactly the folded entry's.
        entry.raw = raw;
        entry.payload = payload;
        entry.needs_encode = false;
      }
      entry.meta.sequence = meta.sequence;
      entry.meta.timestamp_us = meta.timestamp_us;
      entry.extra_covered.push_back(meta.sequence);
      return;
    }
  }

  OutMessage item;
  item.meta = meta;
  item.payload = payload;
  item.raw = raw;
  item.coalescable = coalescable;
  item.first_covered = meta.sequence;
  link.outbox.push_back(std::move(item));
  if (coalescable) {
    link.fold_slots[meta.lba] = link.first_slot + link.outbox.size() - 1;
  } else {
    // A non-foldable message (e.g. a sync block) is an ordering barrier
    // for its LBA: later writes must not fold to a position before it.
    link.fold_slots.erase(meta.lba);
  }
}

void PrinsEngine::drop_locked(OutMessage& entry, const Status& why) {
  if (entry.reply) {
    entry.reply->set_value(why);
  } else {
    complete_locked(entry, /*acked=*/false);
  }
}

void PrinsEngine::complete_locked(const OutMessage& item, bool acked) {
  // A coalesced ACK acknowledges every write the entry carries.
  if (acked) metrics_.acks += item.covered_count();
  const auto settle = [&](std::uint64_t seq) {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    if (!acked) it->second.dropped = true;
    if (--it->second.remaining == 0) {
      if (it->second.dropped) {
        // An undelivered write must stay replayable: freeze the journal
        // watermark until a recovery replays it.
        journal_frozen_ = true;
      } else {
        metrics_.message_bytes += it->second.wire_bytes;
      }
      if (ack_node_pool_.size() < config_.queue_capacity) {
        ack_node_pool_.push_back(outstanding_.extract(it));
      } else {
        outstanding_.erase(it);
      }
    }
  };
  settle(item.first_covered);
  for (const std::uint64_t seq : item.extra_covered) settle(seq);
}

bool PrinsEngine::outboxes_below_capacity_locked() const {
  for (const auto& link : replicas_) {
    if (link->outbox.size() >= config_.queue_capacity) return false;
  }
  return true;
}

bool PrinsEngine::healable_locked(const ReplicaLink& link) const {
  return link.failed && !link.unhealable && config_.reconnect != nullptr &&
         config_.keep_trap_log;
}

bool PrinsEngine::idle_locked() const {
  for (const auto& link : replicas_) {
    if (!link->outbox.empty() || link->in_flight != 0) return false;
    // A degraded link with a pending self-heal is work in progress:
    // drain() must wait for the heal's verdict, not report a stale error.
    if (healable_locked(*link)) return false;
  }
  return true;
}

std::uint64_t PrinsEngine::ack_watermark_locked() const {
  if (journal_frozen_) return 0;
  std::uint64_t mark = outstanding_.empty()
                           ? last_distributed_seq_
                           : outstanding_.begin()->first - 1;
  // Clamp below any sequence still travelling between the counter and the
  // outboxes (see WriteShard::submitting_seq): such a write may already be
  // journaled but is invisible to outstanding_.
  for (const auto& shard : shards_) {
    const std::uint64_t slot =
        shard->submitting_seq.load(std::memory_order_seq_cst);
    if (slot != 0) mark = std::min(mark, slot - 1);
  }
  // The watermark doubles as the read-offload floor: everything at or
  // below it is acked by every replica, hence applied there.  CAS-max so
  // the floor only ever rises (and freezes with the journal on a drop).
  std::uint64_t floor = read_floor_.load(std::memory_order_relaxed);
  while (mark > floor && !read_floor_.compare_exchange_weak(
                             floor, mark, std::memory_order_acq_rel)) {
  }
  return mark;
}

void PrinsEngine::advance_journal_watermark(std::uint64_t sequence) {
  if (config_.journal == nullptr || sequence == 0) return;
  std::lock_guard lock(journal_mutex_);
  if (sequence <= journal_marked_) return;
  const Status s = config_.journal->mark_acked(sequence);
  if (!s.is_ok()) {
    std::lock_guard elock(mutex_);
    if (worker_error_.is_ok()) worker_error_ = s;
    return;
  }
  journal_marked_ = sequence;
}

Status PrinsEngine::send_entry_locked(ReplicaLink& link, OutMessage& entry) {
  if (entry.needs_encode) {
    // This entry absorbed folds; rebuild its frame once, here, on this
    // link's thread.
    PooledBuffer fresh = frame_pool_.acquire(0);
    encode_frame_into(payload_codec(entry.meta.policy), entry.raw.span(),
                      fresh.mutable_bytes());
    entry.payload = std::move(fresh);
    entry.needs_encode = false;
  }
  // Scatter-gather framing: the payload frame is the shared pooled buffer,
  // never copied into a flat wire message.
  return send_framed(*link.transport, entry.meta, entry.payload.span());
}

void PrinsEngine::convert_to_repair_locked(OutMessage& entry) {
  if (entry.meta.kind != MessageKind::kWrite || !ships_parity(config_.policy)) {
    // Full-block policies already carry the whole contents; a plain resend
    // is the repair.
    return;
  }
  if (!config_.keep_trap_log) {
    // Without delta history we cannot reconstruct the block as of this
    // entry's timestamp; let the retry loop exhaust and the link fail
    // sticky (a link without the trap log is not healable).
    return;
  }
  // A same-block write between the device and the trap log would make the
  // rollback below reconstruct a state the log cannot explain; owning the
  // block's stripe excludes that.  Never *wait* for the stripe — a producer
  // holding it may be blocked on *this* link's full outbox, which only the
  // caller can drain — just let the next retry round convert.
  WriteShard& shard = shard_for(entry.meta.lba);
  std::unique_lock shard_lock(shard.mutex, std::try_to_lock);
  if (!shard_lock.owns_lock()) return;
  Bytes content(block_size());
  if (!local_->read(entry.meta.lba, content).is_ok()) return;
  auto at_ts = trap_log_.recover_block(entry.meta.lba,
                                       entry.meta.timestamp_us, content);
  if (!at_ts.is_ok()) return;
  content = std::move(*at_ts);
  {
    std::lock_guard lock(mutex_);
    metrics_.nak_full_repairs += 1;
  }
  // Rebuild in place.  Sequence and timestamp are kept: the replica never
  // applied the original (that is what the NAK said), so ack matching and
  // dedup see one message that simply changed its clothes.  Deltas queued
  // behind this entry still telescope, because the payload is the block
  // exactly as of this entry's own write.
  entry.meta.kind = MessageKind::kRepairBlock;
  entry.payload =
      PooledBuffer::heap(encode_frame(codec_for(CodecId::kLz), content));
  entry.raw.reset();
  entry.coalescable = false;
  entry.needs_encode = false;
  PRINS_LOG(kWarn) << "replica NAK'd damaged block " << entry.meta.lba
                   << "; resending as a full-block repair";
}

std::chrono::steady_clock::time_point PrinsEngine::next_heal_locked(
    ReplicaLink& link) {
  const auto now = std::chrono::steady_clock::now();
  if (link.heal_failures == 0) return now;
  const RetryPolicy& r = config_.retry;
  constexpr std::chrono::milliseconds kFloor{1};
  return now + backoff_delay(std::max(r.base_backoff, kFloor),
                             std::max(r.max_backoff, kFloor), r.multiplier,
                             link.heal_failures, link.jitter);
}

void PrinsEngine::heal_failed(ReplicaLink* link, const Status& why) {
  std::lock_guard lock(mutex_);
  link->heal_failures += 1;
  link->next_heal = next_heal_locked(*link);
  PRINS_LOG(kWarn) << "self-heal of replica " << link->index
                   << " failed (attempt " << link->heal_failures
                   << "): " << why.to_string();
}

void PrinsEngine::attempt_heal(ReplicaLink* link) {
  std::lock_guard link_lock(link->mutex);
  auto fresh = config_.reconnect(link->index);
  if (!fresh.is_ok()) return heal_failed(link, fresh.status());
  if (Status s = bind_to_loop(**fresh, config_.reactor); !s.is_ok()) {
    return heal_failed(link, s);
  }
  link->transport->close();
  link->transport = std::move(*fresh);

  // Healed.  heal_main retransmits the open round and pumps the outbox on
  // the fresh connection, and that replay is the probe: the replica's
  // sequence dedup absorbs whatever already landed, a kStaleEpoch NAK
  // fences the engine, and a dead replica fails the round into the next
  // heal.  Until a round finishes here the attempt counts as failed, so
  // that next heal backs off.
  std::uint64_t watermark = 0;
  {
    std::lock_guard lock(mutex_);
    link->failed = false;
    link->heal_failures += 1;
    metrics_.reconnects += 1;
    release_if_all_live_locked(/*clear_error=*/true,
                               /*unfreeze_journal=*/true);
    watermark = ack_watermark_locked();
    if (idle_locked()) drain_cv_.notify_all();
    queue_cv_.notify_all();
  }
  advance_journal_watermark(watermark);
  PRINS_LOG(kInfo) << "replica " << link->index
                   << " reconnected; replaying its open round";
}

bool PrinsEngine::release_if_all_live_locked(bool clear_error,
                                             bool unfreeze_journal) {
  for (const auto& r : replicas_) {
    if (r->failed) return false;
  }
  if (clear_error) worker_error_ = Status::ok();
  if (unfreeze_journal) {
    // Writes a failure marked undelivered have since arrived, so the
    // journal freeze has nothing left to guard.
    for (auto& [seq, pending] : outstanding_) pending.dropped = false;
    journal_frozen_ = false;
  }
  return true;
}

// ---- Event-driven sender ----------------------------------------------------
//
// Each link is a state machine on the reactor: pump_link() (a posted
// closure) pops a window and transmits it, on_link_reply() (the transport's
// message handler) collects the replies, and the wheel timer plays the
// per-round op_timeout and the retry backoff.  A ReactorTcpTransport runs
// the handlers on its own loop, an in-process end on the engine's (bound
// where the link entered).  Lock order
// everywhere: sender guard, then link mutex, then engine mutex_, with the
// guard outermost so teardown can fence callbacks.

void PrinsEngine::install_link_handlers(ReplicaLink* link) {
  // underlying() sees through decorators (FaultyTransport et al.), so a
  // fault-injected link still delivers by handler; bind_to_loop checked
  // the cast where the link entered.
  auto* events =
      static_cast<HandlerTransport*>(link->transport->underlying());
  auto guard = sender_guard_;
  events->set_close_handler([guard, link](const Status& why) {
    std::lock_guard g(guard->m);
    if (guard->engine == nullptr) return;
    // Lock-free pre-check: never block a loop thread on the link mutex
    // behind a reconnect.
    if (link->healing.load(std::memory_order_relaxed)) return;
    guard->engine->on_link_closed(link, why);
  });
  events->set_message_handler([guard, link](Bytes&& reply) {
    std::lock_guard g(guard->m);
    if (guard->engine == nullptr) return;
    if (link->healing.load(std::memory_order_relaxed)) return;
    guard->engine->on_link_reply(link, std::move(reply));
  });
}

void PrinsEngine::clear_link_handlers(ReplicaLink& link) {
  auto* events = static_cast<HandlerTransport*>(link.transport->underlying());
  events->set_close_handler(nullptr);
  events->set_message_handler(nullptr);
}

void PrinsEngine::arm_link_timer_locked(
    ReplicaLink* link, std::chrono::steady_clock::time_point deadline) {
  const std::uint64_t epoch =
      link->timer_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  link->timer_armed = true;
  auto guard = sender_guard_;
  link->timer = config_.reactor->add_timer_at(deadline, [guard, link, epoch] {
    std::lock_guard g(guard->m);
    // Guard first: `link` is only safe to touch while the engine lives.
    if (guard->engine == nullptr) return;
    if (link->timer_epoch.load(std::memory_order_relaxed) != epoch) return;
    if (link->healing.load(std::memory_order_relaxed)) return;
    guard->engine->on_link_timer(link);
  });
}

void PrinsEngine::cancel_link_timer_locked(ReplicaLink* link) {
  // The epoch bump retires a callback the wheel already dequeued and that
  // cancel_timer can no longer reach.
  link->timer_epoch.fetch_add(1, std::memory_order_relaxed);
  if (link->timer_armed) {
    link->timer_armed = false;
    config_.reactor->cancel_timer(link->timer);
  }
}

void PrinsEngine::schedule_pump_locked(ReplicaLink* link) {
  if (link->pump_scheduled || stopping_.load(std::memory_order_relaxed)) {
    return;
  }
  if (link->phase != ReplicaLink::Phase::kIdle) return;
  if (link->outbox.empty()) return;
  // A degraded link holds its traffic for the heal; only a sticky-dead
  // link's pump runs (to drop the queue, below).
  if (link->failed && healable_locked(*link)) return;
  link->pump_scheduled = true;
  auto guard = sender_guard_;
  config_.reactor->post([guard, link] {
    std::lock_guard g(guard->m);
    if (guard->engine == nullptr) return;
    if (link->healing.load(std::memory_order_relaxed)) return;
    guard->engine->pump_link(link);
  });
}

void PrinsEngine::pump_link(ReplicaLink* link) {
  std::lock_guard link_lock(link->mutex);
  std::unique_lock lock(mutex_);
  link->pump_scheduled = false;
  if (stopping_.load(std::memory_order_relaxed)) return;
  if (link->failed) {
    if (healable_locked(*link)) return;  // held for the healed link
    // Sticky, non-healable failure: drop queued traffic so producers and
    // drain() never block behind a dead link.
    if (link->outbox.empty()) return;
    const Status down = unavailable("replica " + std::to_string(link->index) +
                                    " is down");
    while (!link->outbox.empty()) {
      const auto it = link->fold_slots.find(link->outbox.front().meta.lba);
      if (it != link->fold_slots.end() && it->second == link->first_slot) {
        link->fold_slots.erase(it);
      }
      OutMessage item = std::move(link->outbox.front());
      link->outbox.pop_front();
      ++link->first_slot;
      drop_locked(item, down);
    }
    const std::uint64_t watermark = ack_watermark_locked();
    queue_cv_.notify_all();
    if (idle_locked()) drain_cv_.notify_all();
    lock.unlock();
    advance_journal_watermark(watermark);
    return;
  }
  if (link->phase != ReplicaLink::Phase::kIdle || link->outbox.empty()) {
    return;
  }

  const std::size_t window = std::max<std::size_t>(1, config_.pipeline_depth);
  while (!link->outbox.empty() && link->round.size() < window) {
    // A popped entry can no longer absorb folds.
    const auto it = link->fold_slots.find(link->outbox.front().meta.lba);
    if (it != link->fold_slots.end() && it->second == link->first_slot) {
      link->fold_slots.erase(it);
    }
    link->round.push_back(std::move(link->outbox.front()));
    link->outbox.pop_front();
    ++link->first_slot;
  }
  link->round_acked.assign(link->round.size(), false);
  link->round_attempt = 0;
  link->round_sent = 0;
  link->round_covered = 0;
  link->round_progress = false;
  link->in_flight += link->round.size();
  link->phase = ReplicaLink::Phase::kAwaitingAcks;
  queue_cv_.notify_all();  // wake producers blocked on outbox capacity
  lock.unlock();
  transmit_round(link);
}

void PrinsEngine::transmit_round(ReplicaLink* link) {
  // An in-process end never waits on capacity from the loop it is bound
  // to (the window bounds what a round sends), and a ReactorTcpTransport
  // queues into its outbox, blocking an off-loop sender only past the
  // outbox's byte limit.
  std::size_t sent = 0;
  for (std::size_t i = 0; i < link->round.size(); ++i) {
    if (link->round_acked[i]) continue;
    if (Status s = send_entry_locked(*link, link->round[i]); !s.is_ok()) {
      // A send only fails once the connection is dead; classification
      // (degraded heal vs. sticky) happens in fail_round.
      fail_round(link, s);
      return;
    }
    ++sent;
  }
  std::lock_guard lock(mutex_);
  if (link->phase != ReplicaLink::Phase::kAwaitingAcks) return;
  link->round_sent = sent;
  if (config_.retry.op_timeout.count() > 0) {
    arm_link_timer_locked(
        link, std::chrono::steady_clock::now() + config_.retry.op_timeout);
  }
}

void PrinsEngine::on_link_reply(ReplicaLink* link, Bytes reply) {
  std::lock_guard link_lock(link->mutex);
  std::unique_lock lock(mutex_);
  if (stopping_.load(std::memory_order_relaxed) || link->round.empty()) {
    return;  // stale reply from an earlier round/life of the link
  }
  if (link->phase != ReplicaLink::Phase::kAwaitingAcks &&
      link->phase != ReplicaLink::Phase::kBackoff) {
    return;
  }
  // Coverage counts the replies that answer this transmission attempt; a
  // reply landing during a backoff still settles its entry but does not
  // count toward the attempt that already closed.
  const bool counting = link->phase == ReplicaLink::Phase::kAwaitingAcks;

  // Settle entry i.  An operator entry's slot is answered by the caller;
  // replicated traffic is completed on the books.
  const auto mark = [&](std::size_t i) {
    link->round_acked[i] = true;
    link->round_progress = true;
    const OutMessage& entry = link->round[i];
    if (entry.reply) return;
    complete_locked(entry, /*acked=*/true);
    const std::uint64_t ts = entry.meta.timestamp_us;
    if (ts > link->acked_timestamp.load(std::memory_order_relaxed)) {
      link->acked_timestamp.store(ts, std::memory_order_relaxed);
    }
  };
  const auto all_acked = [&] {
    return std::all_of(link->round_acked.begin(), link->round_acked.end(),
                       [](bool a) { return a; });
  };

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t convert_index = kNone;
  auto msg = ReplicationMessage::decode(reply);
  if (!msg.is_ok()) {
    if (counting) ++link->round_covered;  // torn reply; retransmit covers it
  } else if (msg->kind == MessageKind::kAckBatch) {
    auto ranges = unpack_ack_ranges(msg->payload);
    if (!ranges.is_ok()) {
      if (counting) ++link->round_covered;  // damaged; dedup re-acks
    } else {
      for (const AckRange& range : *ranges) {
        if (counting) link->round_covered += range.count;
        for (std::size_t i = 0; i < link->round.size(); ++i) {
          const std::uint64_t seq = link->round[i].meta.sequence;
          if (link->round_acked[i] || !range.covers(seq)) continue;
          if (link->round[i].reply) {  // answered as the plain kAck it is
            ReplicationMessage ack;
            ack.kind = MessageKind::kAck;
            ack.sequence = seq;
            ack.cluster_epoch = msg->cluster_epoch;
            link->round[i].reply->set_value(std::move(ack));
          }
          mark(i);
        }
      }
    }
  } else if (msg->kind == MessageKind::kNak && !msg->payload.empty() &&
             msg->payload[0] == static_cast<Byte>(NakReason::kStaleEpoch)) {
    // Fenced by a promoted successor: sticky, unhealable failure.
    lock.unlock();
    fail_round(link, fenced_by_replica(*link, msg->cluster_epoch));
    return;
  } else {
    std::size_t i = 0;
    while (i < link->round.size() &&
           (link->round_acked[i] ||
            link->round[i].meta.sequence != msg->sequence)) {
      ++i;
    }
    if (i == link->round.size()) {
      // A reply that answers no open entry is late: a duplicate ack, or
      // the second answer to a resent request.  Ignore it.  A NAK of
      // sequence 0 is the replica failing to read one of our frames.
      if (counting && msg->kind == MessageKind::kNak && msg->sequence == 0) {
        ++link->round_covered;
      }
    } else {
      if (counting) ++link->round_covered;
      OutMessage& entry = link->round[i];
      if (msg->kind == MessageKind::kAck ||
          (entry.reply && !is_write_kind(entry.meta.kind))) {
        // A request takes whatever answers it, a NAK included; a write
        // only its ack.
        if (entry.reply) entry.reply->set_value(std::move(*msg));
        mark(i);
      } else if (msg->kind == MessageKind::kNak && !msg->payload.empty() &&
                 msg->payload[0] ==
                     static_cast<Byte>(NakReason::kNeedFullBlock)) {
        convert_index = i;
      }
      // A plain NAK of a write (torn frame at the replica) is covered by
      // the attempt's retransmit.
    }
  }

  if (convert_index != kNone) {
    // convert_to_repair_locked takes mutex_ (metrics) and a stripe lock
    // itself; call it with only the link mutex held.
    lock.unlock();
    convert_to_repair_locked(link->round[convert_index]);
    lock.lock();
  }

  if (all_acked()) {
    finish_round(link, lock);
    return;
  }
  if (counting && link->round_covered >= link->round_sent) {
    // Every reply for this attempt arrived, entries still open: drops or
    // NAKs upstream — retransmit after the backoff.
    round_retry_or_fail(
        link, lock, timeout_error("replica replies incomplete; retransmitting"));
    return;
  }
  // Partial progress: settled entries may already move the watermark.
  const std::uint64_t watermark = ack_watermark_locked();
  lock.unlock();
  advance_journal_watermark(watermark);
}

void PrinsEngine::on_link_closed(ReplicaLink* link, const Status& why) {
  std::lock_guard link_lock(link->mutex);
  {
    std::lock_guard lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed) || link->failed) return;
    // Nothing in flight: the next send fails on the dead connection
    // (every transport refuses sends once closed) and fails the round it
    // opens.
    if (link->round.empty()) return;
  }
  fail_round(link,
             why.is_ok() ? unavailable("replica connection closed") : why);
}

void PrinsEngine::on_link_timer(ReplicaLink* link) {
  std::lock_guard link_lock(link->mutex);
  std::unique_lock lock(mutex_);
  if (stopping_.load(std::memory_order_relaxed) || !link->timer_armed) return;
  link->timer_armed = false;
  switch (link->phase) {
    case ReplicaLink::Phase::kAwaitingAcks:
      // op_timeout expired with replies missing.
      round_retry_or_fail(link, lock,
                          timeout_error("replica reply timed out"));
      return;
    case ReplicaLink::Phase::kBackoff:
      lock.unlock();
      resend_round(link);
      return;
    default:
      return;
  }
}

void PrinsEngine::round_retry_or_fail(ReplicaLink* link,
                                      std::unique_lock<std::mutex>& lock,
                                      const Status& why) {
  link->round_attempt =
      link->round_progress ? 1 : link->round_attempt + 1;
  link->round_progress = false;
  if (link->round_attempt > config_.retry.max_attempts) {
    lock.unlock();
    fail_round(link, why);
    return;
  }
  metrics_.retries += 1;
  link->phase = ReplicaLink::Phase::kBackoff;
  cancel_link_timer_locked(link);  // an op_timeout may still be ticking
  const RetryPolicy& r = config_.retry;
  arm_link_timer_locked(
      link, std::chrono::steady_clock::now() +
                backoff_delay(r.base_backoff, r.max_backoff, r.multiplier,
                              link->round_attempt, link->jitter));
  lock.unlock();
}

void PrinsEngine::resend_round(ReplicaLink* link) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_.load(std::memory_order_relaxed) || link->failed ||
        link->round.empty()) {
      return;
    }
    link->phase = ReplicaLink::Phase::kAwaitingAcks;
    link->round_sent = 0;
    link->round_covered = 0;
    link->round_progress = false;
  }
  transmit_round(link);
}

void PrinsEngine::close_round_locked(ReplicaLink& link, const Status& why) {
  link.in_flight -= link.round.size();
  for (std::size_t i = 0; i < link.round.size(); ++i) {
    // Entries acked before the round closed were settled at ack time.
    if (!link.round_acked[i]) drop_locked(link.round[i], why);
  }
  link.round.clear();
  link.round_acked.clear();
  link.round_attempt = 0;
  link.round_sent = 0;
  link.round_covered = 0;
  link.round_progress = false;
}

void PrinsEngine::finish_round(ReplicaLink* link,
                               std::unique_lock<std::mutex>& lock) {
  close_round_locked(*link, Status::ok());  // every entry is acked
  cancel_link_timer_locked(link);
  link->phase = ReplicaLink::Phase::kIdle;
  if (link->heal_failures != 0) {
    // The link carried a round: the heal that brought it back held.
    metrics_.auto_resyncs += 1;
    link->heal_failures = 0;
  }
  const std::uint64_t watermark = ack_watermark_locked();
  queue_cv_.notify_all();
  if (idle_locked()) drain_cv_.notify_all();
  schedule_pump_locked(link);
  lock.unlock();
  advance_journal_watermark(watermark);
}

void PrinsEngine::fail_round(ReplicaLink* link, const Status& why) {
  bool spawn_heal = false;
  std::uint64_t watermark = 0;
  {
    std::lock_guard lock(mutex_);
    if (link->failed) return;  // a close and a timeout can race; first wins
    cancel_link_timer_locked(link);
    link->failed = true;
    link->next_heal = next_heal_locked(*link);
    // On a healable link the failure is *degraded*, not broken: the round
    // stays open and writes keep queueing, and the heal reconnects and
    // replays both (the replica's sequence dedup absorbs what already
    // landed).  Operator requests do not wait for the heal: they fail
    // now.  Otherwise the round is settled here as dropped.
    if (healable_locked(*link)) {
      PRINS_LOG(kWarn) << "replica " << link->index
                       << " degraded; self-heal scheduled: "
                       << why.to_string();
      link->phase = ReplicaLink::Phase::kHealing;
      link->healing.store(true, std::memory_order_relaxed);
      spawn_heal = true;
      hold_round_for_heal_locked(*link, why);
    } else {
      close_round_locked(*link, why);
      link->phase = ReplicaLink::Phase::kIdle;
      // No heal runs for this failure, so the link must not look healable
      // either: drain() would wait for the heal, and the pump would hold
      // the queue for it.  reattach_replica clears this.
      link->unhealable = true;
      if (worker_error_.is_ok()) {
        worker_error_ = why;
        PRINS_LOG(kError) << "replication failed: " << why.to_string();
      }
      // Queued traffic behind a sticky-dead link must still drain.
      schedule_pump_locked(link);
    }
    watermark = ack_watermark_locked();
    queue_cv_.notify_all();
    if (idle_locked()) drain_cv_.notify_all();
  }
  // The dying transport's callbacks must go quiet: the heal will close
  // and replace it, and a sticky-dead link's late frames mean nothing.
  clear_link_handlers(*link);
  advance_journal_watermark(watermark);
  if (spawn_heal) {
    // The previous heal episode's thread (if any) exited before this
    // link could fail again, so the join is immediate.
    if (link->healer.joinable()) link->healer.join();
    link->healer = std::thread([this, link] { heal_main(link); });
  }
}

void PrinsEngine::hold_round_for_heal_locked(ReplicaLink& link,
                                             const Status& why) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < link.round.size(); ++i) {
    OutMessage& entry = link.round[i];
    if (entry.reply && !link.round_acked[i]) entry.reply->set_value(why);
    // Acked entries were settled at ack time: nothing to replay.
    if (entry.reply || link.round_acked[i]) continue;
    link.round[kept++] = std::move(entry);
  }
  link.in_flight -= link.round.size() - kept;
  link.round.resize(kept);
  link.round_acked.assign(kept, false);

  // Queued requests go too; the fold slots of what stays are renumbered.
  std::deque<OutMessage> queued;
  link.fold_slots.clear();
  for (OutMessage& entry : link.outbox) {
    if (entry.reply) {
      entry.reply->set_value(why);
      continue;
    }
    const std::uint64_t slot = link.first_slot + queued.size();
    if (entry.coalescable) {
      link.fold_slots[entry.meta.lba] = slot;
    } else {
      link.fold_slots.erase(entry.meta.lba);
    }
    queued.push_back(std::move(entry));
  }
  link.outbox = std::move(queued);
}

void PrinsEngine::heal_main(ReplicaLink* link) {
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      // Sleep out the heal backoff.  Teardown and reattach_replica notify
      // queue_cv_, so neither waits for the deadline.
      queue_cv_.wait_until(lock, link->next_heal, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               !healable_locked(*link);
      });
      if (stopping_.load(std::memory_order_relaxed)) {
        link->healing.store(false, std::memory_order_relaxed);
        return;
      }
      if (!healable_locked(*link)) break;  // healed or reattached
    }
    attempt_heal(link);
  }
  // Hand the link back to the event path: handlers on the fresh transport,
  // then the open round's replay or a pump of the outbox.
  std::lock_guard link_lock(link->mutex);
  link->healing.store(false, std::memory_order_relaxed);
  if (!stopping_.load(std::memory_order_relaxed)) resume_link(link);
}

void PrinsEngine::resume_link(ReplicaLink* link) {
  install_link_handlers(link);
  std::lock_guard lock(mutex_);
  if (!link->round.empty()) {
    // A round was open when the old transport failed: retransmit its
    // un-acked entries on the fresh one (replica dedup absorbs overlap),
    // with a fresh retry budget.  An immediate wheel timer reuses the
    // kBackoff resend path.
    link->round_attempt = 0;
    link->phase = ReplicaLink::Phase::kBackoff;
    arm_link_timer_locked(link, std::chrono::steady_clock::now());
  } else {
    link->phase = ReplicaLink::Phase::kIdle;
    schedule_pump_locked(link);
  }
}

std::future<Result<ReplicationMessage>> PrinsEngine::request(
    ReplicaLink& link, ReplicationMessage msg) {
  auto reply = std::make_shared<std::promise<Result<ReplicationMessage>>>();
  std::future<Result<ReplicationMessage>> answer = reply->get_future();
  if (config_.reactor->on_loop_thread()) {
    reply->set_value(failed_precondition(
        "an operator request cannot wait on the engine's loop thread, "
        "which delivers its answer"));
    return answer;
  }
  msg.cluster_epoch = config_.cluster_epoch;
  msg.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  PooledBuffer payload;
  if (!msg.payload.empty()) payload = PooledBuffer::heap(std::move(msg.payload));
  msg.payload.clear();

  std::lock_guard lock(mutex_);
  if (stopping_.load(std::memory_order_relaxed)) {
    reply->set_value(unavailable("engine is shutting down"));
  } else if (link.failed) {
    reply->set_value(unavailable("replica " + std::to_string(link.index) +
                                 " is down"));
  } else {
    // Not coalescable, so the entry is also an ordering barrier for its
    // LBA: no later write folds in ahead of a repair.
    append_to_outbox_locked(link, msg, payload, PooledBuffer(),
                            /*coalescable=*/false);
    link.outbox.back().reply = std::move(reply);
    schedule_pump_locked(&link);
  }
  return answer;
}

Status PrinsEngine::drain() {
  std::unique_lock lock(mutex_);
  drain_cv_.wait(lock, [this] { return idle_locked() || stopping_; });
  const Status result = worker_error_;
  // Senders mark the journal after releasing mutex_, so a drain() waiter
  // can wake before the last mark lands; settle it here so "drained"
  // implies "journal watermark current".
  const std::uint64_t watermark = ack_watermark_locked();
  lock.unlock();
  advance_journal_watermark(watermark);
  return result;
}

Status PrinsEngine::flush() {
  PRINS_RETURN_IF_ERROR(drain());
  return local_->flush();
}

Status PrinsEngine::enqueue_sync_block(Lba lba, const Codec& codec,
                                       Bytes& scratch) {
  WriteShard& shard = shard_for(lba);
  // Hold the block's stripe so the read and the enqueue see one write
  // generation, and publish a watermark slot like any submit.
  std::lock_guard shard_lock(shard.mutex);
  PRINS_RETURN_IF_ERROR(local_->read(lba, scratch));
  ReplicationMessage msg;
  msg.kind = MessageKind::kSyncBlock;
  msg.policy = config_.policy;
  msg.cluster_epoch = config_.cluster_epoch;
  msg.block_size = block_size();
  msg.lba = lba;
  SubmitSlot slot(shard, next_sequence_.load(std::memory_order_seq_cst));
  msg.sequence = next_sequence_.fetch_add(1, std::memory_order_seq_cst);
  slot.tighten(msg.sequence);
  // Sync is not a logical write: read the clock, do not advance it.
  msg.timestamp_us = clock_.load(std::memory_order_seq_cst);
  return enqueue(msg, PooledBuffer::heap(encode_frame(codec, scratch)),
                 PooledBuffer(), &shard);
}

Status PrinsEngine::full_sync() {
  Bytes block(block_size());
  const Codec& codec = codec_for(CodecId::kLz);
  for (Lba lba = 0; lba < num_blocks(); ++lba) {
    PRINS_RETURN_IF_ERROR(enqueue_sync_block(lba, codec, block));
  }
  return drain();
}

Status PrinsEngine::sync_blocks(const std::vector<Lba>& lbas) {
  Bytes block(block_size());
  const Codec& codec = codec_for(CodecId::kLz);
  for (Lba lba : lbas) {
    if (lba >= num_blocks()) {
      return out_of_range("sync_blocks lba " + std::to_string(lba) +
                          " exceeds device of " +
                          std::to_string(num_blocks()) + " blocks");
    }
    PRINS_RETURN_IF_ERROR(enqueue_sync_block(lba, codec, block));
  }
  return drain();
}

Status PrinsEngine::flat_verify(ReplicaLink& link, Lba start,
                                std::uint64_t count, std::uint64_t& repaired) {
  const std::uint32_t bs = block_size();
  constexpr std::uint64_t kBatch = 1024;  // checksums per request message
  Bytes block(bs);
  for (std::uint64_t off = 0; off < count; off += kBatch) {
    const std::uint64_t n = std::min(kBatch, count - off);
    std::vector<BlockChecksum> sums;
    sums.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Lba lba = start + off + i;
      PRINS_RETURN_IF_ERROR(local_->read(lba, block));
      sums.push_back(BlockChecksum{lba, crc32c(block)});
    }
    ReplicationMessage req;
    req.kind = MessageKind::kVerifyRequest;
    req.block_size = bs;
    req.payload = pack_checksums(sums);
    PRINS_ASSIGN_OR_RETURN(ReplicationMessage reply,
                           request(link, std::move(req)).get());
    if (reply.kind != MessageKind::kVerifyReply) {
      return failed_precondition("replica sent non-verify reply");
    }
    PRINS_ASSIGN_OR_RETURN(std::vector<std::uint64_t> bad,
                           unpack_lbas(reply.payload));
    std::vector<std::future<Result<ReplicationMessage>>> repairs;
    for (std::uint64_t lba : bad) {
      // Read and queue under the block's stripe: a write to it is then
      // either in the repair or queued behind it, never both.
      WriteShard& shard = shard_for(lba);
      std::lock_guard shard_lock(shard.mutex);
      PRINS_RETURN_IF_ERROR(local_->read(lba, block));
      ReplicationMessage repair;
      repair.kind = MessageKind::kRepairBlock;
      repair.block_size = bs;
      repair.lba = lba;
      repair.payload = encode_frame(codec_for(CodecId::kLz), block);
      repairs.push_back(request(link, std::move(repair)));
    }
    // A write kind is answered only by its ack.
    for (auto& answer : repairs) {
      PRINS_RETURN_IF_ERROR(answer.get().status());
      ++repaired;
    }
  }
  return Status::ok();
}

Result<std::uint64_t> PrinsEngine::verify_and_repair(Lba start,
                                                     std::uint64_t count) {
  if (start >= num_blocks() || count > num_blocks() - start) {
    return out_of_range("verify range exceeds device");
  }
  std::uint64_t repaired = 0;
  for (auto& link : replicas_) {
    PRINS_RETURN_IF_ERROR(flat_verify(*link, start, count, repaired));
  }
  return repaired;
}

Result<std::uint64_t> PrinsEngine::verify_and_repair_hierarchical(
    Lba start, std::uint64_t count) {
  if (start >= num_blocks() || count > num_blocks() - start) {
    return out_of_range("verify range exceeds device");
  }
  constexpr unsigned kFanout = 16;       // subranges per split
  constexpr std::uint64_t kLeaf = 64;    // blocks: below this, go flat

  std::uint64_t repaired = 0;
  for (auto& link : replicas_) {
    std::vector<BlockRange> frontier{BlockRange{start, count}};
    std::vector<BlockRange> leaves;

    while (!frontier.empty()) {
      // Ask the replica to fingerprint the whole frontier in one message.
      ReplicationMessage req;
      req.kind = MessageKind::kHashRequest;
      req.block_size = block_size();
      req.payload = pack_ranges(frontier);
      PRINS_ASSIGN_OR_RETURN(ReplicationMessage reply,
                             request(*link, std::move(req)).get());
      if (reply.kind != MessageKind::kHashReply) {
        return failed_precondition("replica sent non-hash reply");
      }
      PRINS_ASSIGN_OR_RETURN(std::vector<std::uint64_t> remote,
                             unpack_hashes(reply.payload));
      if (remote.size() != frontier.size()) {
        return corruption("hash reply count mismatch");
      }

      std::vector<BlockRange> next;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const BlockRange& range = frontier[i];
        PRINS_ASSIGN_OR_RETURN(std::uint64_t local,
                               hash_block_range(*local_, range));
        if (local == remote[i]) continue;  // range agrees; skip entirely
        if (range.count <= kLeaf) {
          leaves.push_back(range);
          continue;
        }
        // Split the disagreeing range into kFanout children.
        const std::uint64_t step =
            (range.count + kFanout - 1) / kFanout;
        for (std::uint64_t off = 0; off < range.count; off += step) {
          next.push_back(BlockRange{
              range.lba + off, std::min(step, range.count - off)});
        }
      }
      frontier = std::move(next);
    }

    for (const BlockRange& leaf : leaves) {
      PRINS_RETURN_IF_ERROR(flat_verify(*link, leaf.lba, leaf.count, repaired));
    }
  }
  return repaired;
}

Status PrinsEngine::fetch_block_from_replica(Lba lba, MutByteSpan out) {
  if (out.size() != block_size()) {
    return invalid_argument("fetch_block_from_replica reads exactly one block");
  }
  if (lba >= num_blocks()) {
    return out_of_range("block " + std::to_string(lba) + " beyond device end");
  }
  std::size_t count = 0;
  {
    std::lock_guard lock(mutex_);
    count = replicas_.size();
  }
  Status last = unavailable("no replicas attached");
  bool any_nak = false;
  for (std::size_t i = 0; i < count; ++i) {
    ReplicaLink* link = nullptr;
    {
      std::lock_guard lock(mutex_);
      link = replicas_[i].get();
    }
    ReplicationMessage req;
    req.kind = MessageKind::kReadBlockRequest;
    req.block_size = block_size();
    req.lba = lba;
    auto reply = request(*link, std::move(req)).get();
    if (!reply.is_ok()) {
      last = reply.status();  // fenced, down, silent or misplaced: next one
      continue;
    }
    if (reply->kind == MessageKind::kNak) {
      any_nak = true;
      last = corruption_error("replica " + std::to_string(i) +
                              " cannot serve block " + std::to_string(lba));
      continue;
    }
    if (reply->kind != MessageKind::kReadBlockReply || reply->lba != lba) {
      last = failed_precondition("unexpected reply to read-block request");
      continue;
    }
    auto block = decode_frame(reply->payload);
    if (!block.is_ok()) {
      last = block.status();
      continue;
    }
    if (block->size() != out.size()) {
      last = corruption("read-block reply has the wrong block size");
      continue;
    }
    std::copy(block->begin(), block->end(), out.begin());
    return Status::ok();
  }
  // If at least one replica answered "my copy is damaged too", surface that
  // over a transport error: the caller's next escalation differs.
  if (any_nak && last.code() != ErrorCode::kDataCorruption) {
    return corruption_error("every replica copy of block " +
                            std::to_string(lba) + " is damaged");
  }
  return last;
}

Result<ScrubStats> PrinsEngine::scrub(const ScrubberConfig& config,
                                      std::vector<RepairSource> extra_sources) {
  // Quiesce: pause writers first by locking every stripe (writers take
  // exactly one, so any consistent order is deadlock-free), *then* drain,
  // so nothing can slip into an outbox between the drain and the pass —
  // a half-replicated write under a repaired LBA would resurrect stale
  // bytes.  Writers stay paused for the whole pass; the replica pulls
  // ride the round machine, which needs no stripe.
  std::vector<std::unique_lock<std::mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (auto& shard : shards_) shard_locks.emplace_back(shard->mutex);
  PRINS_RETURN_IF_ERROR(drain());

  Scrubber scrubber(local_, config);
  for (RepairSource& source : extra_sources) {
    scrubber.add_source(std::move(source));
  }
  if (raid_ != nullptr) {
    scrubber.add_source(RepairSource{
        "raid",
        [this](Lba lba, MutByteSpan out) {
          return raid_->repair_block(lba, out);
        },
        /*in_place=*/true});
  }
  if (raid6_ != nullptr) {
    scrubber.add_source(RepairSource{
        "raid6",
        [this](Lba lba, MutByteSpan out) {
          return raid6_->repair_block(lba, out);
        },
        /*in_place=*/true});
  }
  bool have_replicas = false;
  {
    std::lock_guard lock(mutex_);
    have_replicas = !replicas_.empty();
  }
  if (have_replicas) {
    scrubber.add_source(RepairSource{
        "replica",
        [this](Lba lba, MutByteSpan out) {
          return fetch_block_from_replica(lba, out);
        },
        /*in_place=*/false});
  }

  PRINS_ASSIGN_OR_RETURN(ScrubStats pass, scrubber.run_pass());
  if (raid_ != nullptr || raid6_ != nullptr) {
    // Repair write-backs went through the array's small-write path and left
    // parity-observer deltas behind; they are not logical writes and must
    // not leak into the next write's tap lookup.
    std::lock_guard lock(tap_mutex_);
    tap_deltas_.clear();
  }
  {
    std::lock_guard lock(mutex_);
    metrics_.scrub_passes += 1;
    metrics_.scrub_corruptions += pass.corruptions_found;
    metrics_.scrub_repaired += pass.repaired;
    metrics_.scrub_quarantined += pass.quarantined;
  }
  if (pass.quarantined > 0) {
    PRINS_LOG(kError) << "scrub pass quarantined " << pass.quarantined
                      << " unrepairable block(s)";
  }
  return pass;
}

Status PrinsEngine::replay_journal() {
  if (config_.journal == nullptr) {
    return failed_precondition("engine has no journal configured");
  }
  PRINS_ASSIGN_OR_RETURN(std::vector<ReplicationMessage> pending,
                         config_.journal->pending());
  // Fast-forward counters past everything ever journaled so new writes do
  // not collide with replayed sequences (CAS-max; replay runs before new
  // writes, but stay safe against concurrent submitters anyway).
  raise_to(next_sequence_, config_.journal->max_sequence() + 1);
  for (const auto& msg : pending) raise_to(clock_, msg.timestamp_us);
  for (auto& msg : pending) {
    // The journaled wire bakes in the epoch of the engine that wrote it;
    // ship the replay under *this* engine's epoch, or replicas that already
    // adopted a promoted successor would fence its own recovery traffic.
    msg.cluster_epoch = config_.cluster_epoch;
    // Straight to the outboxes: the message is already in the journal.
    PooledBuffer payload = msg.payload.empty()
                               ? PooledBuffer()
                               : PooledBuffer::heap(std::move(msg.payload));
    msg.payload.clear();
    PRINS_RETURN_IF_ERROR(
        distribute(msg, std::move(payload), PooledBuffer()));
  }
  return Status::ok();
}

Result<std::uint64_t> PrinsEngine::resync_replica(std::size_t index) {
  if (!config_.keep_trap_log) {
    return failed_precondition(
        "resync_replica requires EngineConfig::keep_trap_log");
  }
  ReplicaLink* link = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (index >= replicas_.size()) {
      return invalid_argument("no replica at index " + std::to_string(index));
    }
    link = replicas_[index].get();
  }
  PRINS_RETURN_IF_ERROR(drain());  // quiesce the senders

  const std::uint32_t bs = block_size();
  const Bytes zeros(bs, 0);

  // Ask the replica where it really is before picking the fold base.  A
  // promoted primary attaches survivors with no ack history
  // (acked_timestamp == 0), and folding the whole trap log onto a replica
  // that already applied a prefix would XOR-undo that prefix; the hello's
  // applied timestamp anchors the fold at the replica's true position.
  ReplicationMessage hello;
  hello.kind = MessageKind::kHello;
  PRINS_ASSIGN_OR_RETURN(ReplicationMessage position,
                         request(*link, std::move(hello)).get());
  if (position.kind != MessageKind::kAck) {
    return failed_precondition("replica refused the hello");
  }
  const std::uint64_t since =
      std::max(link->acked_timestamp.load(std::memory_order_relaxed),
               position.timestamp_us);
  std::uint64_t newest = since;
  // Replies are matched by sequence, so every fold is queued before the
  // first wait.
  std::vector<std::future<Result<ReplicationMessage>>> folds;
  for (Lba lba : trap_log_.blocks_changed_since(since)) {
    // Fold every delta the replica missed: XOR of entries newer than
    // `since` == A_now ⊕ A_since (recover_block on a zero buffer).
    PRINS_ASSIGN_OR_RETURN(Bytes fold,
                           trap_log_.recover_block(lba, since, zeros));
    if (all_zero(fold)) continue;  // missed writes cancelled out

    ReplicationMessage msg;
    msg.kind = MessageKind::kWrite;
    msg.policy = ReplicationPolicy::kPrinsRle;
    msg.block_size = bs;
    msg.lba = lba;
    msg.payload = encode_frame(codec_for(CodecId::kZeroRle), fold);
    msg.timestamp_us = clock_.load(std::memory_order_seq_cst);
    newest = msg.timestamp_us;
    folds.push_back(request(*link, std::move(msg)));
  }
  // A write kind is answered only by its ack.
  for (auto& answer : folds) PRINS_RETURN_IF_ERROR(answer.get().status());
  const std::uint64_t resynced = folds.size();
  link->acked_timestamp.store(newest, std::memory_order_relaxed);

  // The replica is caught up.  If it was the last straggler, release the
  // journal watermark (it would otherwise stay frozen for the life of the
  // engine and the journal would grow without bound).
  std::uint64_t watermark = 0;
  {
    std::lock_guard lock(mutex_);
    if (release_if_all_live_locked(/*clear_error=*/false,
                                   /*unfreeze_journal=*/true)) {
      watermark = ack_watermark_locked();
    }
  }
  advance_journal_watermark(watermark);
  return resynced;
}

Status PrinsEngine::adopt_recovered_state(std::uint64_t next_sequence,
                                          std::uint64_t applied_timestamp_us,
                                          TrapLog& recovered_trap_log) {
  {
    std::lock_guard lock(mutex_);
    if (!replicas_.empty() || last_distributed_seq_ != 0 ||
        !outstanding_.empty()) {
      return failed_precondition(
          "adopt_recovered_state must run on a fresh engine, before "
          "replicas attach and before the first write");
    }
  }
  // CAS-max both counters: a journal replay that ran first keeps whichever
  // seed is larger, so replayed and recovered sequences never collide.
  raise_to(next_sequence_, next_sequence);
  raise_to(clock_, applied_timestamp_us);
  // The replica's CDP history becomes ours: resync_replica() folds it to
  // catch survivors up to everything the dead primary shipped us.
  recovered_trap_log.move_into(trap_log_);
  return Status::ok();
}

Status PrinsEngine::fenced_by_replica(ReplicaLink& link,
                                      std::uint64_t replica_epoch) {
  Status why = failed_precondition(
      "fenced: replica holds cluster epoch " + std::to_string(replica_epoch) +
      ", this engine stamps " + std::to_string(config_.cluster_epoch) +
      " — a newer primary was promoted");
  std::lock_guard lock(mutex_);
  metrics_.stale_epoch_naks += 1;
  // No heal can outrun a promotion: folding our history onto the new
  // epoch's replicas would corrupt the cluster's surviving timeline.  Keep
  // the journal frozen so an operator can audit what this primary had in
  // flight when it lost the crown.
  link.unhealable = true;
  journal_frozen_ = true;
  if (worker_error_.is_ok()) worker_error_ = why;
  queue_cv_.notify_all();
  if (idle_locked()) drain_cv_.notify_all();
  PRINS_LOG(kError) << "replica " << link.index << " fenced this engine: "
                    << why.to_string();
  return why;
}

std::size_t PrinsEngine::tap_backlog() const {
  std::lock_guard lock(tap_mutex_);
  return tap_deltas_.size();
}

EngineMetrics PrinsEngine::metrics() const {
  EngineMetrics out;
  {
    std::lock_guard lock(mutex_);
    out = metrics_;
    out.journal_frozen = journal_frozen_ ? 1 : 0;
  }
  out.cluster_epoch = config_.cluster_epoch;
  out.replica_reads = replica_reads_.load(std::memory_order_relaxed);
  out.stale_read_retries =
      stale_read_retries_.load(std::memory_order_relaxed);
  out.read_conflicts_local =
      read_conflicts_local_.load(std::memory_order_relaxed);
  if (config_.journal != nullptr) {
    const JournalStats js = config_.journal->stats();
    out.journal_watermark = js.acked_sequence;
    out.journal_pending = js.pending_records;
    out.journal_pending_bytes = js.pending_bytes;
    out.journal_spills = js.spills;
  }
  // Merge the per-shard hot-path counters.  Shard locks are taken *after*
  // releasing mutex_: writers hold a shard lock while waiting for mutex_
  // in distribute(), so nesting the other way would deadlock.
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    out.writes += shard->writes;
    out.raw_bytes += shard->raw_bytes;
    out.payload_bytes += shard->payload_bytes;
    out.payload_sizes.merge(shard->payload_sizes);
    out.dirty_bytes.merge(shard->dirty_bytes);
  }
  return out;
}

std::string PrinsEngine::describe() const {
  return "prins-engine[" + std::string(policy_name(config_.policy)) + "](" +
         local_->describe() + ")";
}

}  // namespace prins
