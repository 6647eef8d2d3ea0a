#include "prins/message.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/endian.h"
#include "net/transport.h"

namespace prins {
namespace {

constexpr Byte kMagic[4] = {'P', 'R', 'r', 'p'};
constexpr std::size_t kHeaderSize = ReplicationMessage::kWireHeaderSize;

bool valid_kind(std::uint8_t k) {
  return k >= static_cast<std::uint8_t>(MessageKind::kWrite) &&
         k <= static_cast<std::uint8_t>(MessageKind::kClientWriteReply);
}

bool valid_policy(std::uint8_t p) {
  return p <= static_cast<std::uint8_t>(ReplicationPolicy::kPrinsRle);
}

}  // namespace

Bytes pack_ack_ranges(const std::vector<AckRange>& ranges) {
  Bytes out;
  out.reserve(4 + ranges.size() * 12);
  append_le32(out, static_cast<std::uint32_t>(ranges.size()));
  for (const AckRange& range : ranges) {
    append_le64(out, range.first_sequence);
    append_le32(out, range.count);
  }
  return out;
}

Result<std::vector<AckRange>> unpack_ack_ranges(ByteSpan payload) {
  if (payload.size() < 4) return corruption("ack batch payload too short");
  const std::uint32_t count = load_le32(payload.first(4));
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 12) {
    return corruption("ack batch payload length mismatch");
  }
  std::vector<AckRange> ranges;
  ranges.reserve(count);
  std::size_t pos = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    AckRange range;
    range.first_sequence = load_le64(payload.subspan(pos, 8));
    range.count = load_le32(payload.subspan(pos + 8, 4));
    if (range.count == 0) return corruption("empty ack range");
    ranges.push_back(range);
    pos += 12;
  }
  return ranges;
}

std::vector<AckRange> coalesce_ack_ranges(std::vector<std::uint64_t>& acked) {
  std::sort(acked.begin(), acked.end());
  std::vector<AckRange> ranges;
  for (std::uint64_t sequence : acked) {
    if (!ranges.empty()) {
      AckRange& last = ranges.back();
      if (last.covers(sequence)) continue;  // duplicate completion
      if (sequence == last.first_sequence + last.count) {
        ++last.count;
        continue;
      }
    }
    ranges.push_back(AckRange{sequence, 1});
  }
  return ranges;
}

ReplicationMessage MessageView::to_message() const {
  ReplicationMessage msg;
  msg.kind = kind;
  msg.policy = policy;
  msg.cluster_epoch = cluster_epoch;
  msg.block_size = block_size;
  msg.lba = lba;
  msg.sequence = sequence;
  msg.timestamp_us = timestamp_us;
  msg.payload = to_bytes(payload);
  return msg;
}

void ReplicationMessage::encode_header(MutByteSpan out,
                                       std::size_t payload_size) const {
  std::size_t pos = 0;
  std::copy(std::begin(kMagic), std::end(kMagic), out.begin());
  pos += 4;
  out[pos++] = static_cast<Byte>(kind);
  out[pos++] = static_cast<Byte>(policy);
  store_le64(out.subspan(pos, 8), cluster_epoch);
  pos += 8;
  store_le32(out.subspan(pos, 4), block_size);
  pos += 4;
  store_le64(out.subspan(pos, 8), lba);
  pos += 8;
  store_le64(out.subspan(pos, 8), sequence);
  pos += 8;
  store_le64(out.subspan(pos, 8), timestamp_us);
  pos += 8;
  store_le32(out.subspan(pos, 4),
             static_cast<std::uint32_t>(payload_size));
}

Bytes ReplicationMessage::encode() const {
  Bytes out;
  out.resize(kHeaderSize);
  encode_header(out, payload.size());
  out.reserve(kHeaderSize + payload.size() + 4);
  append(out, payload);
  append_le32(out, crc32c(out));
  return out;
}

Status send_framed(Transport& transport, const ReplicationMessage& meta,
                   ByteSpan payload) {
  Byte header[kHeaderSize];
  meta.encode_header(header, payload.size());
  std::uint32_t crc = crc32c(ByteSpan(header));
  crc = crc32c(payload, crc);
  Byte trailer[4];
  store_le32(trailer, crc);
  const ByteSpan parts[] = {ByteSpan(header), payload, ByteSpan(trailer)};
  return transport.send_vec(parts);
}

Result<MessageView> ReplicationMessage::decode_view(ByteSpan wire) {
  if (wire.size() < kHeaderSize + 4) {
    return corruption("replication message too short");
  }
  if (!std::equal(std::begin(kMagic), std::end(kMagic), wire.begin())) {
    return corruption("bad replication message magic");
  }
  const std::uint32_t want_crc = load_le32(wire.subspan(wire.size() - 4));
  if (crc32c(wire.first(wire.size() - 4)) != want_crc) {
    return corruption("replication message crc mismatch");
  }
  MessageView msg;
  std::size_t pos = 4;
  const std::uint8_t kind_raw = wire[pos++];
  if (!valid_kind(kind_raw)) {
    return corruption("bad message kind " + std::to_string(kind_raw));
  }
  msg.kind = static_cast<MessageKind>(kind_raw);
  const std::uint8_t policy_raw = wire[pos++];
  if (!valid_policy(policy_raw)) {
    return corruption("bad policy " + std::to_string(policy_raw));
  }
  msg.policy = static_cast<ReplicationPolicy>(policy_raw);
  msg.cluster_epoch = load_le64(wire.subspan(pos, 8));
  pos += 8;
  msg.block_size = load_le32(wire.subspan(pos, 4));
  pos += 4;
  msg.lba = load_le64(wire.subspan(pos, 8));
  pos += 8;
  msg.sequence = load_le64(wire.subspan(pos, 8));
  pos += 8;
  msg.timestamp_us = load_le64(wire.subspan(pos, 8));
  pos += 8;
  const std::uint32_t payload_len = load_le32(wire.subspan(pos, 4));
  pos += 4;
  if (wire.size() - 4 - pos != payload_len) {
    return corruption("replication message payload length mismatch");
  }
  msg.payload = wire.subspan(pos, payload_len);
  return msg;
}

Result<ReplicationMessage> ReplicationMessage::decode(ByteSpan wire) {
  PRINS_ASSIGN_OR_RETURN(MessageView view, decode_view(wire));
  return view.to_message();
}

MessageView ReplicationMessage::view() const {
  MessageView v;
  v.kind = kind;
  v.policy = policy;
  v.cluster_epoch = cluster_epoch;
  v.block_size = block_size;
  v.lba = lba;
  v.sequence = sequence;
  v.timestamp_us = timestamp_us;
  v.payload = payload;
  return v;
}

}  // namespace prins
