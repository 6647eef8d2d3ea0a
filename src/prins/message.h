// Replication wire messages between a PRINS engine and its replicas.
//
// Layout (little-endian):
//   magic "PRrp" (4) | kind (1) | policy (1) | cluster_epoch (8) |
//   block_size (4) | lba (8) | sequence (8) | timestamp_us (8) |
//   payload length (4) | payload | crc32c of everything before it (4)
//
// The payload of kWrite/kSyncBlock/kRepairBlock is a codec frame
// (codec.h); kAck and the verify messages use it for raw data.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "prins/replication_policy.h"

namespace prins {

class Transport;

using Lba = std::uint64_t;  // same alias as block/block_device.h

enum class MessageKind : std::uint8_t {
  kWrite = 1,        // one replicated block write (parity or full block)
  kSyncBlock = 2,    // initial sync: full block contents (compressed)
  kAck = 3,          // replica -> primary: sequence applied
  kVerifyRequest = 4,// primary -> replica: payload = packed (lba, crc) list
  kVerifyReply = 5,  // replica -> primary: payload = packed mismatched lbas
  kRepairBlock = 6,  // primary -> replica: full block contents
  kBarrier = 7,      // flush marker: replica acks when all prior applied
  kHashRequest = 8,  // primary -> replica: payload = packed (lba, count) ranges
  kHashReply = 9,    // replica -> primary: payload = packed range hashes
  kNak = 10,         // replica -> primary: frame arrived corrupt, resend
                     //   (payload byte 0 = NakReason; empty means kResend)
  kHello = 11,       // primary -> replica: report applied position (kAck
                     //   reply carries the replica's applied timestamp)
  kReadBlockRequest = 12,  // primary -> replica: send back block `lba`
  kReadBlockReply = 13,    // replica -> primary: payload = codec frame of
                           //   the requested block's contents
  kAckBatch = 14,          // replica -> primary: payload = packed sequence
                           //   ranges, each applied (cumulative-plus-holes
                           //   ack); `sequence` = newest covered sequence
  kClientReadRequest = 15, // reader -> replica: serve block `lba` if the
                           //   replica's applied state is at least as new
                           //   as the u64 LE `min_sequence` payload;
                           //   `sequence` = requester-local exchange id,
                           //   echoed back for reply matching
  kClientReadReply = 16,   // replica -> reader: payload = raw block bytes
                           //   (no codec frame — the read path trades wire
                           //   compression for zero decode cost);
                           //   `sequence` echoes the request's exchange id
  kReadLease = 17,         // primary -> replica: `sequence` carries the
                           //   primary's all-replicas-acked read floor; the
                           //   replica may serve any read demanding
                           //   min_sequence <= floor without a per-LBA
                           //   check (every write at or below the floor is
                           //   applied everywhere).  Replied with kAck.
  kClientWriteRequest = 18,// cluster client -> owning node: write the
                           //   payload's blocks at `lba`.  Payload = u64 LE
                           //   map epoch (the client's PgMap version), then
                           //   the raw block bytes.  `sequence` is a
                           //   requester-local exchange id, echoed back.
                           //   A node that does not own the LBA's placement
                           //   group under its current map answers kNak
                           //   with NakReason::kWrongPg.
  kClientWriteReply = 19,  // owning node -> client: the write applied (and,
                           //   in synchronous mode, replicated); `sequence`
                           //   echoes the request's exchange id
};

/// Client-frame map-epoch convention: cluster clients append their PgMap
/// epoch to the payloads of kClientWriteRequest (after the block data
/// prefix above) and kClientReadRequest (a second u64 LE after
/// min_sequence, then an optional u32 LE block count).  Plain replicas
/// parse only the fields they know (serve_client_read reads the first 8
/// payload bytes), so epoch-stamped frames stay compatible with
/// epoch-unaware peers; cluster nodes use the epoch to fence stale-map
/// clients with kWrongPg.

/// Optional first payload byte of a kNak, telling the primary how to
/// recover.  Absent payload means kResend (the frame itself was damaged).
enum class NakReason : std::uint8_t {
  kResend = 0,         // frame corrupt in flight: retransmit as-is
  kNeedFullBlock = 1,  // replica's stored A_old is damaged: a parity delta
                       //   cannot apply, send the full block instead
  kStaleEpoch = 2,     // sender's cluster_epoch is behind the replica's: a
                       //   newer primary was promoted, the sender is fenced
                       //   (the NAK header's cluster_epoch carries the
                       //   replica's current epoch)
  kStaleRead = 3,      // kClientReadRequest demanded a min_sequence newer
                       //   than the replica has applied for that LBA: the
                       //   reader should retry at the primary (the NAK's
                       //   `sequence` echoes the request's exchange id)
  kWrongPg = 4,        // a client I/O (kClientWriteRequest /
                       //   kClientReadRequest) landed on a node that does
                       //   not own the LBA's placement group under its
                       //   current map — the client's PgMap is stale or its
                       //   routing is wrong.  NAK payload bytes 1..8 carry
                       //   the node's map epoch (u64 LE) so the client
                       //   knows how far behind it is; it should refresh
                       //   its map and retry at the new owner.  The NAK's
                       //   `sequence` echoes the request's exchange id.
};

/// Kinds that change a replica's blocks and are answered by an ack (or a
/// NAK asking for a resend); every other request kind is answered by its
/// own reply.
inline bool is_write_kind(MessageKind kind) {
  return kind == MessageKind::kWrite || kind == MessageKind::kSyncBlock ||
         kind == MessageKind::kRepairBlock;
}

/// One contiguous run of applied sequences inside a kAckBatch payload.
/// The replica's ack stage coalesces per-worker completions into runs;
/// holes between runs are sequences still in flight (or NAK'd separately).
struct AckRange {
  std::uint64_t first_sequence = 0;
  std::uint32_t count = 0;

  bool covers(std::uint64_t sequence) const {
    return sequence >= first_sequence && sequence - first_sequence < count;
  }
};

/// kAckBatch payload codec: u32 range count, then per range u64 first
/// sequence + u32 run length.
Bytes pack_ack_ranges(const std::vector<AckRange>& ranges);
Result<std::vector<AckRange>> unpack_ack_ranges(ByteSpan payload);

/// Collapse a set of acked sequences into minimal ranges.  Sorts `acked`
/// in place; duplicates merge into their run.
std::vector<AckRange> coalesce_ack_ranges(std::vector<std::uint64_t>& acked);

struct ReplicationMessage;

/// Decoded message whose payload is a *view* into the wire buffer — the
/// zero-copy sibling of ReplicationMessage.  Valid only while the wire
/// buffer it was decoded from stays alive and unmodified.
struct MessageView {
  MessageKind kind = MessageKind::kWrite;
  ReplicationPolicy policy = ReplicationPolicy::kTraditional;
  std::uint64_t cluster_epoch = 0;  // fencing token; 0 = epoch-unaware peer
  std::uint32_t block_size = 0;
  Lba lba = 0;
  std::uint64_t sequence = 0;
  std::uint64_t timestamp_us = 0;
  ByteSpan payload;

  /// Deep copy into an owning message.
  ReplicationMessage to_message() const;
};

struct ReplicationMessage {
  MessageKind kind = MessageKind::kWrite;
  ReplicationPolicy policy = ReplicationPolicy::kTraditional;
  std::uint64_t cluster_epoch = 0;  // fencing token; 0 = epoch-unaware peer
  std::uint32_t block_size = 0;
  Lba lba = 0;
  std::uint64_t sequence = 0;
  std::uint64_t timestamp_us = 0;  // logical write timestamp (drives TRAP)
  Bytes payload;

  /// Bytes of the fixed wire header (magic through payload length); a full
  /// frame is kWireHeaderSize + payload + 4-byte trailing CRC.
  static constexpr std::size_t kWireHeaderSize =
      4 + 1 + 1 + 8 + 4 + 8 + 8 + 8 + 4;

  Bytes encode() const;

  /// Serialize just the header fields into `out` (exactly kWireHeaderSize
  /// bytes), declaring a payload of `payload_size` bytes.  Lets senders
  /// frame a message scatter-gather: stack header + payload span + trailing
  /// CRC via Transport::send_vec, no contiguous copy.  The trailing CRC
  /// covers header-then-payload, chained with crc32c's seed parameter.
  void encode_header(MutByteSpan out, std::size_t payload_size) const;

  /// Zero-copy decode: identical validation to decode(), but the returned
  /// view's payload aliases `wire`.
  static Result<MessageView> decode_view(ByteSpan wire);

  static Result<ReplicationMessage> decode(ByteSpan wire);

  /// View of this message (payload aliases this->payload).
  MessageView view() const;
};

/// Send `meta` with `payload` as one frame, scatter-gather: stack header +
/// payload span + chained-CRC trailer through Transport::send_vec.  The
/// peer receives exactly meta.encode() (with `payload` in place of
/// meta.payload), without the flat copy ever being built.
Status send_framed(Transport& transport, const ReplicationMessage& meta,
                   ByteSpan payload);

}  // namespace prins
