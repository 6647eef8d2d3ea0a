#include "iscsi/pdu.h"

#include "common/crc32c.h"
#include "common/endian.h"

namespace prins::iscsi {

PduHeader Pdu::encode_header(bool header_digest, std::size_t data_len) const {
  PduHeader header;
  const MutByteSpan out(header.bytes.data(), kBhsSize);
  out[0] = static_cast<Byte>(static_cast<std::uint8_t>(opcode) |
                             (immediate ? 0x40 : 0x00));
  out[1] = flags;
  out[2] = byte2;
  out[3] = byte3;
  // byte 4: TotalAHSLength = 0 (no additional header segments)
  store_be24(out.subspan(5, 3), static_cast<std::uint32_t>(data_len));
  store_be64(out.subspan(8, 8), lun);
  store_be32(out.subspan(16, 4), itt);
  store_be32(out.subspan(20, 4), word5);
  store_be32(out.subspan(24, 4), word6);
  store_be32(out.subspan(28, 4), word7);
  store_be32(out.subspan(32, 4), word8);
  store_be32(out.subspan(36, 4), word9);
  store_be32(out.subspan(40, 4), word10);
  store_be32(out.subspan(44, 4), word11);
  if (header_digest) {
    store_le32(MutByteSpan(header.bytes).subspan(kBhsSize, 4),
               crc32c(ByteSpan(out)));
    header.size = kBhsSize + 4;
  }
  return header;
}

Bytes Pdu::encode(bool header_digest) const {
  const PduHeader header = encode_header(header_digest, data.size());
  Bytes out;
  out.reserve(header.size + data.size() + 3);
  append(out, header.span());
  append(out, data);
  // Pad the data segment to a 4-byte boundary (RFC 3720 §10.2.3).
  while (out.size() % 4 != 0) out.push_back(0);
  return out;
}

Result<Pdu> Pdu::decode(ByteSpan message, bool header_digest) {
  PRINS_ASSIGN_OR_RETURN(PduView view, decode_view(message, header_digest));
  view.pdu.data = to_bytes(view.data);
  return std::move(view.pdu);
}

Result<PduView> Pdu::decode_view(ByteSpan message, bool header_digest) {
  const std::size_t header_bytes = kBhsSize + (header_digest ? 4 : 0);
  if (message.size() < header_bytes) {
    return corruption("PDU shorter than BHS: " +
                      std::to_string(message.size()) + " bytes");
  }
  PduView view;
  Pdu& pdu = view.pdu;
  const std::uint8_t op_byte = message[0];
  pdu.immediate = (op_byte & 0x40) != 0;
  const auto op = static_cast<Opcode>(op_byte & 0x3F);
  switch (op) {
    case Opcode::kNopOut:
    case Opcode::kScsiCommand:
    case Opcode::kLoginRequest:
    case Opcode::kTextRequest:
    case Opcode::kDataOut:
    case Opcode::kLogoutRequest:
    case Opcode::kNopIn:
    case Opcode::kScsiResponse:
    case Opcode::kLoginResponse:
    case Opcode::kTextResponse:
    case Opcode::kDataIn:
    case Opcode::kLogoutResponse:
    case Opcode::kR2t:
    case Opcode::kReject:
      pdu.opcode = op;
      break;
    default:
      return corruption("unknown iSCSI opcode 0x" + std::to_string(op_byte));
  }
  pdu.flags = message[1];
  pdu.byte2 = message[2];
  pdu.byte3 = message[3];
  if (message[4] != 0) {
    return unimplemented("AHS segments are not supported");
  }
  const std::uint32_t data_len = load_be24(message.subspan(5, 3));
  pdu.lun = load_be64(message.subspan(8, 8));
  pdu.itt = load_be32(message.subspan(16, 4));
  pdu.word5 = load_be32(message.subspan(20, 4));
  pdu.word6 = load_be32(message.subspan(24, 4));
  pdu.word7 = load_be32(message.subspan(28, 4));
  pdu.word8 = load_be32(message.subspan(32, 4));
  pdu.word9 = load_be32(message.subspan(36, 4));
  pdu.word10 = load_be32(message.subspan(40, 4));
  pdu.word11 = load_be32(message.subspan(44, 4));
  if (header_digest) {
    const std::uint32_t want = load_le32(message.subspan(kBhsSize, 4));
    if (crc32c(message.first(kBhsSize)) != want) {
      return corruption("iSCSI header digest mismatch");
    }
  }
  const std::size_t padded = (static_cast<std::size_t>(data_len) + 3) & ~3ull;
  if (message.size() < header_bytes + padded) {
    return corruption("PDU data segment truncated");
  }
  view.data = message.subspan(header_bytes, data_len);
  return view;
}

Status send_pdu(Transport& transport, const Pdu& pdu, ByteSpan data,
                bool header_digest) {
  static constexpr Byte kPad[3] = {0, 0, 0};
  const PduHeader header = pdu.encode_header(header_digest, data.size());
  const ByteSpan parts[] = {header.span(), data,
                            ByteSpan(kPad, (4 - data.size() % 4) % 4)};
  return transport.send_vec(parts);
}

Bytes encode_login_kv(const std::map<std::string, std::string>& kv) {
  Bytes out;
  for (const auto& [key, value] : kv) {
    append(out, as_bytes(key));
    out.push_back('=');
    append(out, as_bytes(value));
    out.push_back(0);
  }
  return out;
}

std::map<std::string, std::string> decode_login_kv(ByteSpan data) {
  std::map<std::string, std::string> kv;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= data.size(); ++i) {
    if (i == data.size() || data[i] == 0) {
      if (i > start) {
        std::string pair(reinterpret_cast<const char*>(data.data() + start),
                         i - start);
        auto eq = pair.find('=');
        if (eq != std::string::npos) {
          kv.emplace(pair.substr(0, eq), pair.substr(eq + 1));
        }
      }
      start = i + 1;
    }
  }
  return kv;
}

std::string_view opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNopOut: return "NOP-Out";
    case Opcode::kScsiCommand: return "SCSI-Command";
    case Opcode::kLoginRequest: return "Login-Request";
    case Opcode::kTextRequest: return "Text-Request";
    case Opcode::kDataOut: return "Data-Out";
    case Opcode::kLogoutRequest: return "Logout-Request";
    case Opcode::kNopIn: return "NOP-In";
    case Opcode::kScsiResponse: return "SCSI-Response";
    case Opcode::kLoginResponse: return "Login-Response";
    case Opcode::kTextResponse: return "Text-Response";
    case Opcode::kDataIn: return "Data-In";
    case Opcode::kLogoutResponse: return "Logout-Response";
    case Opcode::kR2t: return "R2T";
    case Opcode::kReject: return "Reject";
  }
  return "?";
}

}  // namespace prins::iscsi
