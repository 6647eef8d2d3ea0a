// iSCSI PDU encoding/decoding (RFC 3720 subset).
//
// Every PDU is a 48-byte big-endian Basic Header Segment followed by an
// optional data segment padded to a 4-byte boundary.  We implement the PDUs
// the PRINS testbed needs: Login, SCSI Command/Response, Data-In, Data-Out,
// R2T, NOP, Logout, Reject.  One transport message carries exactly one PDU.
//
// Field layouts follow RFC 3720 §10; unused fields are zero.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "net/transport.h"

namespace prins::iscsi {

enum class Opcode : std::uint8_t {
  // initiator -> target
  kNopOut = 0x00,
  kScsiCommand = 0x01,
  kLoginRequest = 0x03,
  kTextRequest = 0x04,
  kDataOut = 0x05,
  kLogoutRequest = 0x06,
  // target -> initiator
  kNopIn = 0x20,
  kScsiResponse = 0x21,
  kLoginResponse = 0x23,
  kTextResponse = 0x24,
  kDataIn = 0x25,
  kLogoutResponse = 0x26,
  kR2t = 0x31,
  kReject = 0x3f,
};

constexpr std::size_t kBhsSize = 48;

/// An encoded BHS plus, when negotiated, its CRC32C header digest.
struct PduHeader {
  std::array<Byte, kBhsSize + 4> bytes{};
  std::size_t size = kBhsSize;

  ByteSpan span() const { return ByteSpan(bytes.data(), size); }
};

struct PduView;

/// Decoded generic PDU: the BHS fields common to all opcodes plus the raw
/// opcode-specific bytes, which typed views below interpret.
struct Pdu {
  Opcode opcode = Opcode::kNopOut;
  bool immediate = false;       // I bit (byte 0, 0x40)
  std::uint8_t flags = 0;       // byte 1
  std::uint8_t byte2 = 0;       // opcode-specific
  std::uint8_t byte3 = 0;       // opcode-specific
  std::uint64_t lun = 0;        // bytes 8-15
  std::uint32_t itt = 0;        // initiator task tag, bytes 16-19
  std::uint32_t word5 = 0;      // bytes 20-23 (TTT / EDTL / CID...)
  std::uint32_t word6 = 0;      // bytes 24-27 (CmdSN / StatSN)
  std::uint32_t word7 = 0;      // bytes 28-31 (ExpStatSN / ExpCmdSN)
  std::uint32_t word8 = 0;      // bytes 32-35 (MaxCmdSN / CDB[0..3])
  std::uint32_t word9 = 0;      // bytes 36-39 (DataSN / CDB[4..7])
  std::uint32_t word10 = 0;     // bytes 40-43 (BufferOffset / CDB[8..11])
  std::uint32_t word11 = 0;     // bytes 44-47 (Residual / CDB[12..15])
  Bytes data;                   // data segment (unpadded)

  /// Serialize to BHS [+ CRC32C header digest] + padded data segment.
  /// The digest flag is per-connection state negotiated at login
  /// (HeaderDigest=CRC32C); login PDUs themselves are never digested.
  Bytes encode(bool header_digest = false) const;

  /// Serialize just the BHS [+ header digest], declaring a data segment of
  /// `data_len` bytes (this->data is ignored).  send_pdu() stacks it with
  /// a data span and the pad, so a payload goes out without a copy.
  PduHeader encode_header(bool header_digest, std::size_t data_len) const;

  /// Parse one PDU from a transport message; verifies the header digest
  /// when the connection negotiated one.
  static Result<Pdu> decode(ByteSpan message, bool header_digest = false);

  /// Zero-copy decode: identical validation to decode(), but the data
  /// segment aliases `message` (the returned view's pdu.data stays empty).
  static Result<PduView> decode_view(ByteSpan message,
                                     bool header_digest = false);
};

/// A decoded PDU whose data segment is a view into the received message;
/// valid only while that message stays alive and unmodified.
struct PduView {
  Pdu pdu;        // BHS fields; pdu.data is empty
  ByteSpan data;  // data segment (unpadded)
};

/// Send `pdu`'s header with `data` as its data segment, scatter-gather
/// (header, data span, pad) through Transport::send_vec: the peer receives
/// exactly what encode() would produce with `data` in place of pdu.data.
Status send_pdu(Transport& transport, const Pdu& pdu, ByteSpan data,
                bool header_digest);

// Flag bits.
inline constexpr std::uint8_t kFlagFinal = 0x80;      // F bit
inline constexpr std::uint8_t kFlagAck = 0x40;        // A bit (Data-In)
inline constexpr std::uint8_t kFlagRead = 0x40;       // R bit (SCSI Command)
inline constexpr std::uint8_t kFlagWrite = 0x20;      // W bit (SCSI Command)
inline constexpr std::uint8_t kFlagStatus = 0x01;     // S bit (Data-In)
inline constexpr std::uint8_t kLoginTransit = 0x80;   // T bit (Login)

/// Login stages (CSG/NSG values).
inline constexpr std::uint8_t kStageOperational = 1;
inline constexpr std::uint8_t kStageFullFeature = 3;

/// SCSI status codes carried in SCSI Response byte 3.
inline constexpr std::uint8_t kScsiGood = 0x00;
inline constexpr std::uint8_t kScsiCheckCondition = 0x02;

/// Encode/decode the login data segment's key=value pairs
/// (NUL-separated, RFC 3720 §5).
Bytes encode_login_kv(const std::map<std::string, std::string>& kv);
std::map<std::string, std::string> decode_login_kv(ByteSpan data);

/// Human-readable opcode name for logs and test failures.
std::string_view opcode_name(Opcode op);

}  // namespace prins::iscsi
