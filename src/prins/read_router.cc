#include "prins/read_router.h"

#include <algorithm>

#include "common/endian.h"
#include "common/logging.h"

namespace prins {

ReadRouter::ReadRouter(std::shared_ptr<PrinsEngine> engine,
                       ReadRouterConfig config)
    : engine_(std::move(engine)), config_(config) {
  if (config_.degrade_after == 0) config_.degrade_after = 1;
  if (config_.op_timeout <= std::chrono::milliseconds::zero()) {
    config_.op_timeout = std::chrono::milliseconds(1000);
  }
}

ReadRouter::~ReadRouter() {
  for (auto& link : links_) link->transport->close();
}

void ReadRouter::add_read_replica(std::unique_ptr<Transport> link) {
  auto entry = std::make_unique<ReadLink>();
  entry->transport = std::move(link);
  links_.push_back(std::move(entry));
}

std::size_t ReadRouter::healthy_links() const {
  std::size_t n = 0;
  for (const auto& link : links_) {
    n += !link->degraded.load(std::memory_order_acquire);
  }
  return n;
}

std::string ReadRouter::describe() const {
  return "read-router[" + std::to_string(links_.size()) + " mirrors](" +
         engine_->describe() + ")";
}

Status ReadRouter::read(Lba lba, MutByteSpan out) {
  PRINS_RETURN_IF_ERROR(check_io(lba, out.size()));
  const std::uint32_t bs = block_size();
  const std::uint64_t blocks = out.size() / bs;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    PRINS_RETURN_IF_ERROR(
        read_fresh(lba + i, out.subspan(i * bs, bs), /*min_sequence=*/0));
  }
  return Status::ok();
}

Status ReadRouter::read_fresh(Lba lba, MutByteSpan out,
                              std::uint64_t min_sequence) {
  std::uint64_t window_min = 0;
  const PrinsEngine::ReadClass cls = engine_->classify_read(lba, &window_min);
  if (cls == PrinsEngine::ReadClass::kLocal) {
    // In-flight conflict (or offload disabled): the primary is the only
    // node guaranteed to hold the write already.
    if (!links_.empty()) engine_->note_read_conflict_local();
    return engine_->read(lba, out);
  }
  // The replica must cover both the caller's explicit demand and the
  // conflict window's bound on this LBA's history.
  const std::uint64_t demand = std::max(min_sequence, window_min);
  ReadLink* link = pick_link();
  if (link != nullptr) {
    link->outstanding.fetch_add(1, std::memory_order_relaxed);
    const Status served = read_from_replica(*link, lba, out, demand);
    link->outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (served.is_ok()) {
      engine_->note_replica_read();
      return Status::ok();
    }
  }
  // Fallback: the primary satisfies any demand.  This is what keeps
  // availability at 100% no matter what the mirrors or links do.
  return engine_->read(lba, out);
}

ReadRouter::ReadLink* ReadRouter::pick_link() {
  const std::size_t n = links_.size();
  if (n == 0) return nullptr;
  if (config_.policy == ReadPolicy::kLeastOutstanding) {
    ReadLink* best = nullptr;
    std::size_t best_depth = 0;
    for (const auto& link : links_) {
      if (link->degraded.load(std::memory_order_acquire)) continue;
      const std::size_t depth =
          link->outstanding.load(std::memory_order_relaxed);
      if (best == nullptr || depth < best_depth) {
        best = link.get();
        best_depth = depth;
      }
    }
    return best;
  }
  // Round-robin: rotate, skipping degraded links.
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const std::size_t index =
        rr_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
    if (!links_[index]->degraded.load(std::memory_order_acquire)) {
      return links_[index].get();
    }
  }
  return nullptr;
}

Status ReadRouter::read_from_replica(ReadLink& link, Lba lba, MutByteSpan out,
                                     std::uint64_t min_sequence) {
  std::lock_guard lock(link.mutex);
  if (link.degraded.load(std::memory_order_acquire)) {
    return unavailable("read link degraded");
  }
  maybe_renew_lease(link);

  ReplicationMessage req;
  req.kind = MessageKind::kClientReadRequest;
  req.cluster_epoch = engine_->cluster_epoch();
  req.block_size = block_size();
  req.lba = lba;
  req.sequence = next_exchange_.fetch_add(1, std::memory_order_relaxed);
  Byte demand[8];
  store_le64(demand, min_sequence);
  if (Status sent = send_framed(*link.transport, req, demand); !sent.is_ok()) {
    note_failure(link);
    return sent;
  }
  Bytes wire;  // backs the reply view until the block is copied out
  auto reply =
      await_reply(link, MessageKind::kClientReadReply, req.sequence, wire);
  if (!reply.is_ok()) {
    note_failure(link);
    return reply.status();
  }
  if (reply->kind == MessageKind::kNak) {
    if (!reply->payload.empty() &&
        reply->payload[0] == static_cast<Byte>(NakReason::kStaleEpoch)) {
      // A successor primary owns this mirror now; nothing it serves can be
      // trusted by this epoch again.
      PRINS_LOG(kWarn) << "read link fenced at epoch "
                       << reply->cluster_epoch << "; degrading";
      link.degraded.store(true, std::memory_order_release);
      return failed_precondition("read link fenced by promoted replica");
    }
    note_success(link);  // the link is healthy; the data just isn't there yet
    if (!reply->payload.empty() &&
        reply->payload[0] == static_cast<Byte>(NakReason::kStaleRead)) {
      engine_->note_stale_read_retry();
      return unavailable("replica behind demanded sequence");
    }
    return unavailable("replica cannot serve the block");
  }
  if (reply->lba != lba || reply->payload.size() != out.size()) {
    note_failure(link);
    return failed_precondition("unexpected reply to client read");
  }
  note_success(link);
  std::copy(reply->payload.begin(), reply->payload.end(), out.begin());
  return Status::ok();
}

Result<MessageView> ReadRouter::await_reply(ReadLink& link,
                                            MessageKind reply_kind,
                                            std::uint64_t exchange_id,
                                            Bytes& wire) {
  // A prior exchange that timed out here can leave its late reply buffered
  // on the transport; skim past anything that is not ours.  Lease acks echo
  // the floor and read exchange ids count from 1 too, so the sequence alone
  // cannot tell a late lease ack from a read reply: match the kind as well.
  for (int tries = 0; tries < 16; ++tries) {
    PRINS_ASSIGN_OR_RETURN(wire, link.transport->recv_for(config_.op_timeout));
    auto reply = ReplicationMessage::decode_view(wire);
    if (!reply.is_ok()) continue;           // torn frame; keep listening
    if (reply->sequence != exchange_id) continue;  // stale reply
    if (reply->kind != reply_kind && reply->kind != MessageKind::kNak) {
      continue;  // another exchange's late reply under the same number
    }
    return *reply;
  }
  return timeout_error("no reply to client read exchange");
}

void ReadRouter::maybe_renew_lease(ReadLink& link) {
  if (config_.lease_renew_every == 0) return;
  const std::uint64_t floor = engine_->read_floor();
  if (floor <= link.lease_published) return;
  if (link.lease_published != 0 &&
      floor - link.lease_published < config_.lease_renew_every) {
    return;
  }
  ReplicationMessage lease;
  lease.kind = MessageKind::kReadLease;
  lease.cluster_epoch = engine_->cluster_epoch();
  lease.sequence = floor;  // the lease value travels in the sequence field
  if (!link.transport->send(lease.encode()).is_ok()) return;
  Bytes wire;
  auto ack = await_reply(link, MessageKind::kAck, floor, wire);
  if (ack.is_ok() && ack->kind == MessageKind::kAck) {
    link.lease_published = floor;
  }
  // Any other outcome is soft: per-LBA freshness proofs still work, and a
  // sick link will fail its next read exchange and degrade there.
}

void ReadRouter::note_success(ReadLink& link) { link.failure_streak = 0; }

void ReadRouter::note_failure(ReadLink& link) {
  if (++link.failure_streak >= config_.degrade_after) {
    PRINS_LOG(kWarn) << "read link failed " << link.failure_streak
                     << " exchanges in a row; degrading";
    link.degraded.store(true, std::memory_order_release);
  }
}

}  // namespace prins
