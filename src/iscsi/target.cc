#include "iscsi/target.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/endian.h"
#include "common/logging.h"
#include "iscsi/scsi.h"

namespace prins::iscsi {

IscsiTarget::IscsiTarget(std::shared_ptr<BlockDevice> device,
                         TargetConfig config)
    : device_(std::move(device)), config_(std::move(config)) {}

Status IscsiTarget::serve(Transport& transport) {
  Session session;
  for (;;) {
    auto message = transport.recv();
    if (!message.is_ok()) {
      // A disconnect after login is a normal way for a session to end.
      if (message.status().code() == ErrorCode::kUnavailable) {
        return Status::ok();
      }
      return message.status();
    }
    bool done = false;
    PRINS_RETURN_IF_ERROR(handle_frame(transport, session, *message, &done));
    if (done) return Status::ok();
  }
}

Status IscsiTarget::handle_frame(Transport& transport, Session& session,
                                 ByteSpan message, bool* done) {
  *done = false;
  // The data segment stays a view into `message`: immediate write data
  // reaches the device without a staging copy.
  PRINS_ASSIGN_OR_RETURN(PduView in,
                         Pdu::decode_view(message, session.header_digest));
  const Pdu& pdu = in.pdu;

  if (!session.logged_in && pdu.opcode != Opcode::kLoginRequest) {
    return failed_precondition("PDU " + std::string(opcode_name(pdu.opcode)) +
                               " before login");
  }
  if (session.pending.active) {
    // Mid data phase: the initiator owes us Data-Out for the pending
    // write; anything else is out of order.
    if (pdu.opcode != Opcode::kDataOut || pdu.itt != session.pending.itt) {
      return failed_precondition("expected Data-Out for ITT " +
                                 std::to_string(session.pending.itt));
    }
    return handle_data_out(transport, session, pdu, in.data);
  }

  switch (pdu.opcode) {
    case Opcode::kLoginRequest:
      PRINS_RETURN_IF_ERROR(handle_login(transport, session, pdu, in.data));
      break;
    case Opcode::kScsiCommand:
      commands_.fetch_add(1, std::memory_order_relaxed);
      PRINS_RETURN_IF_ERROR(handle_scsi(transport, session, pdu, in.data));
      break;
    case Opcode::kNopOut: {
      if (pdu.itt == 0xFFFFFFFFu) break;  // unsolicited ping, no reply
      Pdu reply;
      reply.opcode = Opcode::kNopIn;
      reply.flags = kFlagFinal;
      reply.itt = pdu.itt;
      reply.word6 = session.stat_sn++;
      reply.word7 = session.exp_cmd_sn;
      PRINS_RETURN_IF_ERROR(  // echo the ping payload
          send_pdu(transport, reply, in.data, session.header_digest));
      break;
    }
    case Opcode::kTextRequest: {
      // Discovery: answer SendTargets with the target we serve.
      auto kv = decode_login_kv(in.data);
      Pdu reply;
      reply.opcode = Opcode::kTextResponse;
      reply.flags = kFlagFinal;
      reply.itt = pdu.itt;
      reply.word5 = 0xFFFFFFFFu;  // no continuation
      reply.word6 = session.stat_sn++;
      reply.word7 = session.exp_cmd_sn;
      if (kv.contains("SendTargets")) {
        reply.data = encode_login_kv({{"TargetName", config_.target_name}});
      }
      PRINS_RETURN_IF_ERROR(
          transport.send(reply.encode(session.header_digest)));
      break;
    }
    case Opcode::kLogoutRequest: {
      Pdu reply;
      reply.opcode = Opcode::kLogoutResponse;
      reply.flags = kFlagFinal;
      reply.itt = pdu.itt;
      reply.word6 = session.stat_sn++;
      reply.word7 = session.exp_cmd_sn;
      PRINS_RETURN_IF_ERROR(
          transport.send(reply.encode(session.header_digest)));
      *done = true;
      break;
    }
    case Opcode::kDataOut:
      return failed_precondition("unsolicited Data-Out");
    default: {
      Pdu reject;
      reject.opcode = Opcode::kReject;
      reject.flags = kFlagFinal;
      reject.byte2 = 0x04;  // protocol error
      reject.itt = 0xFFFFFFFFu;
      reject.word6 = session.stat_sn++;
      PRINS_RETURN_IF_ERROR(
          transport.send(reject.encode(session.header_digest)));
      break;
    }
  }
  return Status::ok();
}

Status IscsiTarget::handle_login(Transport& transport, Session& session,
                                 const Pdu& request, ByteSpan data) {
  auto kv = decode_login_kv(data);
  PRINS_LOG(kDebug) << "login from "
                    << (kv.contains("InitiatorName") ? kv["InitiatorName"]
                                                     : "<anonymous>");
  Pdu reply;
  reply.opcode = Opcode::kLoginResponse;
  // Echo the transit request; move to full-feature phase.
  reply.flags = static_cast<std::uint8_t>(kLoginTransit |
                                          (kStageOperational << 2) |
                                          kStageFullFeature);
  reply.byte2 = 0x00;  // version-max
  reply.byte3 = 0x00;  // version-active
  reply.lun = request.lun;  // ISID echo lives in the same bytes
  reply.itt = request.itt;
  reply.word6 = session.stat_sn++;
  reply.word7 = session.exp_cmd_sn;
  reply.word8 = session.exp_cmd_sn;  // MaxCmdSN
  const bool want_digest =
      config_.allow_header_digest &&
      kv.contains("HeaderDigest") &&
      kv["HeaderDigest"].find("CRC32C") != std::string::npos;
  std::map<std::string, std::string> params{
      {"TargetName", config_.target_name},
      {"MaxRecvDataSegmentLength", std::to_string(config_.max_data_segment)},
      {"ImmediateData", "Yes"},
      {"InitialR2T", "No"},
      {"HeaderDigest", want_digest ? "CRC32C" : "None"},
  };
  reply.data = encode_login_kv(params);
  // The login response itself is never digested; the digest takes effect
  // from the first full-feature-phase PDU.
  PRINS_RETURN_IF_ERROR(transport.send(reply.encode()));
  session.logged_in = true;
  session.header_digest = want_digest;
  return Status::ok();
}

Status IscsiTarget::send_response(Transport& transport, Session& session,
                                  std::uint32_t itt, std::uint8_t scsi_status,
                                  ByteSpan sense) {
  Pdu resp;
  resp.opcode = Opcode::kScsiResponse;
  resp.flags = kFlagFinal;
  resp.byte2 = 0x00;  // response: command completed at target
  resp.byte3 = scsi_status;
  resp.itt = itt;
  resp.word6 = session.stat_sn++;
  resp.word7 = session.exp_cmd_sn;
  resp.word8 = session.exp_cmd_sn + 63;  // MaxCmdSN: generous window
  resp.data = to_bytes(sense);
  return transport.send(resp.encode(session.header_digest));
}

Status IscsiTarget::send_data_in(Transport& transport, Session& session,
                                 std::uint32_t itt, ByteSpan data) {
  if (data.empty()) return send_response(transport, session, itt, kScsiGood);
  // Stream the payload as Data-In PDUs of at most max_data_segment bytes,
  // straight from `data`.  The last one carries GOOD status (S bit, RFC
  // 3720 §10.7.3), so a read that fits one segment is one PDU.
  std::uint32_t data_sn = 0;
  for (std::size_t off = 0; off < data.size();
       off += config_.max_data_segment) {
    const std::size_t len =
        std::min<std::size_t>(config_.max_data_segment, data.size() - off);
    const bool last = off + len == data.size();
    Pdu din;
    din.opcode = Opcode::kDataIn;
    din.itt = itt;
    din.word5 = 0xFFFFFFFFu;  // TTT reserved
    din.word6 = last ? session.stat_sn++ : session.stat_sn;
    din.word7 = session.exp_cmd_sn;
    din.word8 = session.exp_cmd_sn + 63;  // MaxCmdSN, as send_response
    din.word9 = data_sn++;
    din.word10 = static_cast<std::uint32_t>(off);  // buffer offset
    if (last) {
      din.flags = kFlagFinal | kFlagStatus;
      din.byte3 = kScsiGood;
    }
    PRINS_RETURN_IF_ERROR(send_pdu(transport, din, data.subspan(off, len),
                                   session.header_digest));
  }
  return Status::ok();
}

Status IscsiTarget::finish_write(Transport& transport, Session& session,
                                 std::uint32_t itt, std::uint64_t lba,
                                 ByteSpan data) {
  if (!device_->write(lba, data).is_ok()) {
    return send_response(transport, session, itt, kScsiCheckCondition,
                         sense_medium_error());
  }
  return send_response(transport, session, itt, kScsiGood);
}

Status IscsiTarget::handle_scsi(Transport& transport, Session& session,
                                const Pdu& command, ByteSpan data) {
  session.exp_cmd_sn = command.word6 + 1;
  // The CDB occupies BHS bytes 32-47, i.e. words 8..11 in wire order.
  Byte cdb_bytes[kCdbSize];
  store_be32(MutByteSpan(cdb_bytes).subspan(0, 4), command.word8);
  store_be32(MutByteSpan(cdb_bytes).subspan(4, 4), command.word9);
  store_be32(MutByteSpan(cdb_bytes).subspan(8, 4), command.word10);
  store_be32(MutByteSpan(cdb_bytes).subspan(12, 4), command.word11);
  auto cdb = Cdb::decode(ByteSpan(cdb_bytes, kCdbSize));
  if (!cdb.is_ok()) {
    return send_response(transport, session, command.itt, kScsiCheckCondition,
                         sense_invalid_cdb());
  }

  switch (cdb->op) {
    case ScsiOp::kTestUnitReady:
      return send_response(transport, session, command.itt, kScsiGood);
    case ScsiOp::kSynchronizeCache10: {
      Status s = device_->flush();
      if (!s.is_ok()) {
        return send_response(transport, session, command.itt,
                             kScsiCheckCondition, sense_medium_error());
      }
      return send_response(transport, session, command.itt, kScsiGood);
    }
    case ScsiOp::kInquiry: {
      Bytes reply = make_inquiry_data();
      if (reply.size() > cdb->alloc_len) reply.resize(cdb->alloc_len);
      return send_data_in(transport, session, command.itt, reply);
    }
    case ScsiOp::kReportLuns: {
      Bytes reply = make_report_luns_data({0});
      if (reply.size() > cdb->alloc_len) reply.resize(cdb->alloc_len);
      return send_data_in(transport, session, command.itt, reply);
    }
    case ScsiOp::kReadCapacity10:
      return send_data_in(
          transport, session, command.itt,
          make_read_capacity10_data(device_->num_blocks(),
                                    device_->block_size()));
    case ScsiOp::kRead10:
    case ScsiOp::kRead16:
      return do_read(transport, session, command, cdb->lba, cdb->blocks);
    case ScsiOp::kWrite10:
    case ScsiOp::kWrite16:
      return do_write(transport, session, command, data, cdb->lba,
                      cdb->blocks);
  }
  return send_response(transport, session, command.itt, kScsiCheckCondition,
                       sense_invalid_cdb());
}

Status IscsiTarget::do_read(Transport& transport, Session& session,
                            const Pdu& cmd, std::uint64_t lba,
                            std::uint32_t blocks) {
  const std::uint32_t bs = device_->block_size();
  const std::uint64_t total = static_cast<std::uint64_t>(blocks) * bs;
  if (blocks == 0 ||
      lba >= device_->num_blocks() ||
      blocks > device_->num_blocks() - lba) {
    return send_response(transport, session, cmd.itt, kScsiCheckCondition,
                         sense_lba_out_of_range());
  }
  Bytes buffer(total);
  Status s = device_->read(lba, buffer);
  if (!s.is_ok()) {
    return send_response(transport, session, cmd.itt, kScsiCheckCondition,
                         sense_medium_error());
  }
  return send_data_in(transport, session, cmd.itt, buffer);
}

Status IscsiTarget::do_write(Transport& transport, Session& session,
                             const Pdu& cmd, ByteSpan immediate,
                             std::uint64_t lba, std::uint32_t blocks) {
  const std::uint32_t bs = device_->block_size();
  const std::uint64_t total = static_cast<std::uint64_t>(blocks) * bs;
  if (blocks == 0 ||
      lba >= device_->num_blocks() ||
      blocks > device_->num_blocks() - lba) {
    return send_response(transport, session, cmd.itt, kScsiCheckCondition,
                         sense_lba_out_of_range());
  }
  // Immediate data arrives in the command PDU itself.  When it covers the
  // whole transfer the device writes straight from the PDU's data segment.
  const std::uint64_t received =
      std::min<std::uint64_t>(immediate.size(), total);
  if (received == total) {
    return finish_write(transport, session, cmd.itt, lba,
                        immediate.first(total));
  }
  // Ask for the rest with one R2T covering the remainder, after parking
  // the partial buffer in the session: the data phase completes as
  // Data-Out PDUs arrive (handle_frame routes them to handle_data_out), so
  // no nested recv() loop blocks the caller mid-command.
  PendingWrite& pending = session.pending;
  pending.active = true;
  pending.itt = cmd.itt;
  pending.lba = lba;
  pending.total = total;
  pending.received = received;
  pending.buffer.assign(total, 0);
  if (received > 0) {
    std::memcpy(pending.buffer.data(), immediate.data(), received);
  }
  Pdu r2t;
  r2t.opcode = Opcode::kR2t;
  r2t.flags = kFlagFinal;
  r2t.itt = cmd.itt;
  r2t.word5 = session.next_ttt++;
  r2t.word6 = session.stat_sn;
  r2t.word7 = session.exp_cmd_sn;
  r2t.word9 = 0;  // R2TSN
  r2t.word10 = static_cast<std::uint32_t>(received);          // offset
  r2t.word11 = static_cast<std::uint32_t>(total - received);  // length
  return transport.send(r2t.encode(session.header_digest));
}

Status IscsiTarget::handle_data_out(Transport& transport, Session& session,
                                    const Pdu& dout, ByteSpan data) {
  PendingWrite& pending = session.pending;
  // The R2T asked for one in-order sequence (DataPDUInOrder=Yes): each
  // Data-Out must start where the last one ended and stay inside the
  // transfer.  Counting bytes instead would let a duplicated or
  // overlapping PDU complete the write early, with zero-filled holes.
  const std::uint64_t off = dout.word10;
  if (off != pending.received || data.size() > pending.total - off) {
    const std::uint32_t itt = pending.itt;
    pending = PendingWrite{};
    return send_response(transport, session, itt, kScsiCheckCondition,
                         sense_data_phase_error());
  }
  std::memcpy(pending.buffer.data() + off, data.data(), data.size());
  pending.received += data.size();
  if (pending.received < pending.total) return Status::ok();

  // Data phase complete: land the write and retire the pending state.
  const std::uint32_t itt = pending.itt;
  const std::uint64_t lba = pending.lba;
  const Bytes buffer = std::move(pending.buffer);
  pending = PendingWrite{};
  return finish_write(transport, session, itt, lba, buffer);
}

}  // namespace prins::iscsi
