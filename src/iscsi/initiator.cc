#include "iscsi/initiator.h"

#include <algorithm>
#include <cstring>

#include "common/endian.h"
#include "iscsi/scsi.h"

namespace prins::iscsi {

Result<std::vector<std::string>> discover_targets(
    std::unique_ptr<Transport> transport, const std::string& initiator_name) {
  if (transport == nullptr) return invalid_argument("null transport");

  // Discovery login.
  Pdu login;
  login.opcode = Opcode::kLoginRequest;
  login.immediate = true;
  login.flags = static_cast<std::uint8_t>(
      kLoginTransit | (kStageOperational << 2) | kStageFullFeature);
  login.itt = 1;
  login.word6 = 1;
  login.data = encode_login_kv({{"InitiatorName", initiator_name},
                                {"SessionType", "Discovery"}});
  PRINS_RETURN_IF_ERROR(transport->send(login.encode()));
  PRINS_ASSIGN_OR_RETURN(Bytes login_wire, transport->recv());
  PRINS_ASSIGN_OR_RETURN(Pdu login_reply, Pdu::decode(login_wire));
  if (login_reply.opcode != Opcode::kLoginResponse) {
    return failed_precondition("expected Login-Response during discovery");
  }

  // SendTargets=All.
  Pdu text;
  text.opcode = Opcode::kTextRequest;
  text.flags = kFlagFinal;
  text.itt = 2;
  text.word5 = 0xFFFFFFFFu;
  text.word6 = 2;
  text.data = encode_login_kv({{"SendTargets", "All"}});
  PRINS_RETURN_IF_ERROR(transport->send(text.encode()));
  PRINS_ASSIGN_OR_RETURN(Bytes text_wire, transport->recv());
  PRINS_ASSIGN_OR_RETURN(Pdu text_reply, Pdu::decode(text_wire));
  if (text_reply.opcode != Opcode::kTextResponse) {
    return failed_precondition("expected Text-Response during discovery");
  }
  std::vector<std::string> targets;
  for (const auto& [key, value] : decode_login_kv(text_reply.data)) {
    if (key == "TargetName") targets.push_back(value);
  }

  // Goodbye.
  Pdu logout;
  logout.opcode = Opcode::kLogoutRequest;
  logout.flags = kFlagFinal;
  logout.itt = 3;
  logout.word6 = 3;
  if (transport->send(logout.encode()).is_ok()) {
    (void)transport->recv();
  }
  transport->close();
  return targets;
}

Result<std::unique_ptr<IscsiInitiator>> IscsiInitiator::login(
    std::unique_ptr<Transport> transport, InitiatorConfig config) {
  if (transport == nullptr) return invalid_argument("null transport");
  std::unique_ptr<IscsiInitiator> init(
      new IscsiInitiator(std::move(transport), std::move(config)));
  PRINS_RETURN_IF_ERROR(init->do_login());
  PRINS_RETURN_IF_ERROR(init->discover_geometry());
  return init;
}

IscsiInitiator::IscsiInitiator(std::unique_ptr<Transport> transport,
                               InitiatorConfig config)
    : transport_(std::move(transport)), config_(std::move(config)) {}

IscsiInitiator::~IscsiInitiator() {
  // Best-effort goodbye; errors on teardown are not actionable.
  (void)logout();
}

Status IscsiInitiator::do_login() {
  Pdu req;
  req.opcode = Opcode::kLoginRequest;
  req.immediate = true;
  req.flags = static_cast<std::uint8_t>(kLoginTransit |
                                        (kStageOperational << 2) |
                                        kStageFullFeature);
  req.itt = next_itt_++;
  req.word6 = cmd_sn_;
  std::map<std::string, std::string> offer{
      {"InitiatorName", config_.initiator_name},
      {"SessionType", "Normal"},
      {"MaxRecvDataSegmentLength", std::to_string(config_.max_data_segment)},
  };
  if (config_.request_header_digest) offer["HeaderDigest"] = "CRC32C,None";
  req.data = encode_login_kv(offer);
  PRINS_RETURN_IF_ERROR(transport_->send(req.encode()));

  PRINS_ASSIGN_OR_RETURN(Bytes message, transport_->recv());
  PRINS_ASSIGN_OR_RETURN(Pdu resp, Pdu::decode(message));
  if (resp.opcode != Opcode::kLoginResponse) {
    return failed_precondition("expected Login-Response, got " +
                               std::string(opcode_name(resp.opcode)));
  }
  // Status class/detail live in bytes 36-37 == top half of word9.
  const std::uint8_t status_class = static_cast<std::uint8_t>(resp.word9 >> 24);
  if (status_class != 0) {
    return unavailable("login rejected, status class " +
                       std::to_string(status_class));
  }
  auto kv = decode_login_kv(resp.data);
  if (auto it = kv.find("TargetName"); it != kv.end()) {
    target_name_ = it->second;
  }
  if (auto it = kv.find("MaxRecvDataSegmentLength"); it != kv.end()) {
    const unsigned long v = std::strtoul(it->second.c_str(), nullptr, 10);
    if (v > 0) {
      config_.max_data_segment = std::min<std::uint32_t>(
          config_.max_data_segment, static_cast<std::uint32_t>(v));
      config_.max_immediate_data =
          std::min(config_.max_immediate_data, config_.max_data_segment);
    }
  }
  if (auto it = kv.find("HeaderDigest");
      it != kv.end() && it->second == "CRC32C") {
    header_digest_ = true;
  }
  exp_stat_sn_ = resp.word6 + 1;
  return Status::ok();
}

Status IscsiInitiator::discover_geometry() {
  Bytes inquiry(36);
  {
    std::lock_guard lock(mutex_);
    PRINS_RETURN_IF_ERROR(command(make_inquiry(36), {}, inquiry));
  }
  if ((inquiry[0] & 0x1F) != 0x00) {
    return failed_precondition("target LUN is not a direct-access device");
  }
  Bytes capacity(8);
  {
    std::lock_guard lock(mutex_);
    PRINS_RETURN_IF_ERROR(command(make_read_capacity10(), {}, capacity));
  }
  const std::uint32_t max_lba = load_be32(ByteSpan(capacity).subspan(0, 4));
  block_size_ = load_be32(ByteSpan(capacity).subspan(4, 4));
  num_blocks_ = static_cast<std::uint64_t>(max_lba) + 1;
  if (block_size_ == 0) {
    return corruption("target reported zero block size");
  }
  return Status::ok();
}

std::uint32_t IscsiInitiator::blocks_per_command() const {
  // READ(10)/WRITE(10) carry a 16-bit block count; also bound the payload
  // bytes so a command's data fits in a sane number of segments.
  const std::uint32_t by_payload =
      std::max<std::uint32_t>(1, (8u << 20) / block_size_);
  return std::min<std::uint32_t>(0xFFFF, by_payload);
}

Status IscsiInitiator::command(const Cdb& cdb, ByteSpan write_data,
                               MutByteSpan read_buf) {
  if (closed_) return unavailable("initiator is logged out");

  Pdu cmd;
  cmd.opcode = Opcode::kScsiCommand;
  cmd.flags = kFlagFinal;
  if (!read_buf.empty()) cmd.flags |= kFlagRead;
  if (!write_data.empty()) cmd.flags |= kFlagWrite;
  cmd.itt = next_itt_++;
  cmd.word5 = static_cast<std::uint32_t>(
      std::max(write_data.size(), read_buf.size()));  // EDTL
  cmd.word6 = cmd_sn_++;
  cmd.word7 = exp_stat_sn_;

  Byte cdb_bytes[kCdbSize];
  cdb.encode(cdb_bytes);
  cmd.word8 = load_be32(ByteSpan(cdb_bytes).subspan(0, 4));
  cmd.word9 = load_be32(ByteSpan(cdb_bytes).subspan(4, 4));
  cmd.word10 = load_be32(ByteSpan(cdb_bytes).subspan(8, 4));
  cmd.word11 = load_be32(ByteSpan(cdb_bytes).subspan(12, 4));

  // Immediate data: as much of the write payload as allowed rides along,
  // sent from the caller's span.
  const std::size_t immediate =
      std::min<std::size_t>(write_data.size(), config_.max_immediate_data);
  PRINS_RETURN_IF_ERROR(send_pdu(*transport_, cmd,
                                 write_data.first(immediate), header_digest_));

  std::size_t read_received = 0;
  for (;;) {
    PRINS_ASSIGN_OR_RETURN(Bytes message, transport_->recv());
    PRINS_ASSIGN_OR_RETURN(PduView in,
                           Pdu::decode_view(message, header_digest_));
    const Pdu& pdu = in.pdu;
    switch (pdu.opcode) {
      case Opcode::kDataIn: {
        if (pdu.itt != cmd.itt) {
          return failed_precondition("Data-In for unexpected ITT");
        }
        // One in-order sequence (DataPDUInOrder=Yes): each Data-In starts
        // where the last ended, so a duplicate cannot pass for coverage.
        const std::uint64_t off = pdu.word10;
        if (off != read_received) {
          return corruption("Data-In at offset " + std::to_string(off) +
                            ", expected " + std::to_string(read_received));
        }
        if (in.data.size() > read_buf.size() - off) {
          return corruption("Data-In overflows read buffer");
        }
        if (!in.data.empty()) {
          std::memcpy(read_buf.data() + off, in.data.data(), in.data.size());
        }
        read_received += in.data.size();
        if ((pdu.flags & kFlagStatus) == 0) break;
        // Status in the final Data-In (RFC 3720 §10.7.3): the command is
        // complete without a separate SCSI Response.
        return complete(pdu, /*sense_bytes=*/0, read_received,
                        read_buf.size());
      }
      case Opcode::kR2t: {
        if (pdu.itt != cmd.itt) {
          return failed_precondition("R2T for unexpected ITT");
        }
        std::uint64_t off = pdu.word10;
        std::uint64_t remaining = pdu.word11;
        if (off + remaining > write_data.size()) {
          return corruption("R2T requests bytes beyond the write payload");
        }
        std::uint32_t data_sn = 0;
        while (remaining > 0) {
          const std::uint64_t len =
              std::min<std::uint64_t>(remaining, config_.max_data_segment);
          Pdu dout;
          dout.opcode = Opcode::kDataOut;
          dout.itt = cmd.itt;
          dout.word5 = pdu.word5;  // target transfer tag
          dout.word7 = exp_stat_sn_;
          dout.word9 = data_sn++;
          dout.word10 = static_cast<std::uint32_t>(off);
          if (remaining == len) dout.flags |= kFlagFinal;
          PRINS_RETURN_IF_ERROR(send_pdu(*transport_, dout,
                                         write_data.subspan(off, len),
                                         header_digest_));
          off += len;
          remaining -= len;
        }
        break;
      }
      case Opcode::kScsiResponse: {
        if (pdu.itt != cmd.itt) {
          return failed_precondition("SCSI Response for unexpected ITT");
        }
        return complete(pdu, in.data.size(), read_received, read_buf.size());
      }
      default:
        return failed_precondition("unexpected PDU " +
                                   std::string(opcode_name(pdu.opcode)) +
                                   " during command");
    }
  }
}

Status IscsiInitiator::complete(const Pdu& status_pdu, std::size_t sense_bytes,
                                std::size_t read_received,
                                std::size_t read_expected) {
  exp_stat_sn_ = status_pdu.word6 + 1;
  if (status_pdu.byte3 != kScsiGood) {
    return io_error("SCSI status 0x" + std::to_string(status_pdu.byte3) +
                    " (sense " + std::to_string(sense_bytes) + " bytes)");
  }
  if (read_received < read_expected) {
    return corruption("short read: got " + std::to_string(read_received) +
                      " of " + std::to_string(read_expected) + " bytes");
  }
  return Status::ok();
}

Status IscsiInitiator::read(Lba lba, MutByteSpan out) {
  PRINS_RETURN_IF_ERROR(check_io(lba, out.size()));
  std::lock_guard lock(mutex_);
  const std::uint32_t chunk = blocks_per_command();
  std::uint64_t done_blocks = 0;
  const std::uint64_t total_blocks = out.size() / block_size_;
  while (done_blocks < total_blocks) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk, total_blocks - done_blocks));
    auto sub = out.subspan(done_blocks * block_size_,
                           static_cast<std::size_t>(n) * block_size_);
    const std::uint64_t at = lba + done_blocks;
    // READ(10) reaches 2 TiB at 512-byte blocks; beyond that use READ(16).
    const Cdb cdb = at + n - 1 <= 0xFFFFFFFFull
                        ? make_read10(static_cast<std::uint32_t>(at),
                                      static_cast<std::uint16_t>(n))
                        : make_read16(at, n);
    PRINS_RETURN_IF_ERROR(command(cdb, {}, sub));
    done_blocks += n;
  }
  return Status::ok();
}

Status IscsiInitiator::write(Lba lba, ByteSpan data) {
  PRINS_RETURN_IF_ERROR(check_io(lba, data.size()));
  std::lock_guard lock(mutex_);
  const std::uint32_t chunk = blocks_per_command();
  std::uint64_t done_blocks = 0;
  const std::uint64_t total_blocks = data.size() / block_size_;
  while (done_blocks < total_blocks) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk, total_blocks - done_blocks));
    auto sub = data.subspan(done_blocks * block_size_,
                            static_cast<std::size_t>(n) * block_size_);
    const std::uint64_t at = lba + done_blocks;
    const Cdb cdb = at + n - 1 <= 0xFFFFFFFFull
                        ? make_write10(static_cast<std::uint32_t>(at),
                                       static_cast<std::uint16_t>(n))
                        : make_write16(at, n);
    PRINS_RETURN_IF_ERROR(command(cdb, sub, {}));
    done_blocks += n;
  }
  return Status::ok();
}

Status IscsiInitiator::flush() {
  std::lock_guard lock(mutex_);
  return command(make_synchronize_cache10(), {}, {});
}

Result<std::vector<std::uint64_t>> IscsiInitiator::report_luns() {
  std::lock_guard lock(mutex_);
  if (closed_) return unavailable("initiator is logged out");
  // Standard two-step: fetch the 8-byte header for the list length, then
  // the exact list.
  Bytes header(8);
  PRINS_RETURN_IF_ERROR(command(make_report_luns(8), {}, header));
  const std::uint32_t list_bytes = load_be32(ByteSpan(header).first(4));
  std::vector<std::uint64_t> luns;
  if (list_bytes == 0) return luns;
  Bytes data(8 + list_bytes);
  PRINS_RETURN_IF_ERROR(
      command(make_report_luns(static_cast<std::uint32_t>(data.size())), {},
              data));
  for (std::uint32_t off = 8; off + 8 <= data.size(); off += 8) {
    luns.push_back(load_be64(ByteSpan(data).subspan(off, 8)));
  }
  return luns;
}

Status IscsiInitiator::ping() {
  std::lock_guard lock(mutex_);
  if (closed_) return unavailable("initiator is logged out");
  Pdu nop;
  nop.opcode = Opcode::kNopOut;
  nop.flags = kFlagFinal;
  nop.itt = next_itt_++;
  nop.word6 = cmd_sn_;
  nop.word7 = exp_stat_sn_;
  nop.data = to_bytes(as_bytes("prins-ping"));
  PRINS_RETURN_IF_ERROR(transport_->send(nop.encode(header_digest_)));
  PRINS_ASSIGN_OR_RETURN(Bytes message, transport_->recv());
  PRINS_ASSIGN_OR_RETURN(Pdu reply, Pdu::decode(message, header_digest_));
  if (reply.opcode != Opcode::kNopIn || reply.itt != nop.itt) {
    return failed_precondition("bad NOP-In reply");
  }
  return Status::ok();
}

Status IscsiInitiator::logout() {
  std::lock_guard lock(mutex_);
  if (closed_) return Status::ok();
  closed_ = true;
  Pdu req;
  req.opcode = Opcode::kLogoutRequest;
  req.flags = kFlagFinal;  // reason 0: close session
  req.itt = next_itt_++;
  req.word6 = cmd_sn_;
  req.word7 = exp_stat_sn_;
  Status sent = transport_->send(req.encode(header_digest_));
  if (sent.is_ok()) {
    (void)transport_->recv();  // LogoutResponse; ignore content
  }
  transport_->close();
  return Status::ok();
}

std::string IscsiInitiator::describe() const {
  return "iscsi(" + target_name_ + "," + std::to_string(num_blocks_) + "x" +
         std::to_string(block_size_) + ")";
}

}  // namespace prins::iscsi
