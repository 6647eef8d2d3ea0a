// IscsiTarget: serves a BlockDevice to iSCSI initiators.
//
// This is the home of the PRINS engine in the paper's architecture: the
// engine is "a software module inside the iSCSI target".  The target is
// storage-agnostic — hand it a MemDisk, a RaidArray, or a PRINS-decorated
// device and it serves READ/WRITE over any Transport.
//
// Supported flow per connection: login negotiation (operational ->
// full-feature), SCSI commands with immediate write data (written to the
// device straight from the PDU), R2T + Data-Out for writes larger than the
// negotiated immediate limit (one in-order sequence), chunked Data-In for
// reads with GOOD status in the final Data-In (a good single-segment READ
// is one PDU; errors still get a SCSI Response with sense), NOP ping,
// logout.  One connection at a time per serve() call; run several
// serve()s on threads for multiple initiators, or serve many initiators on
// O(1) threads with ReactorIscsiServer (iscsi/reactor_target.h).
//
// The PDU loop is a pure state machine: handle_frame() consumes one PDU
// and never calls recv() — a write awaiting Data-Out after an R2T parks
// its partial buffer in the session (PendingWrite) instead of nesting a
// receive loop, so the same code drives both the blocking serve() loop
// and the reactor's handler-driven fan-in.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "block/block_device.h"
#include "iscsi/pdu.h"
#include "net/transport.h"

namespace prins::iscsi {

struct TargetConfig {
  std::string target_name = "iqn.2006-04.edu.uri.hpcl:storage.prins";
  /// Largest data segment we send in one Data-In PDU and accept in one
  /// SCSI Command / Data-Out PDU.
  std::uint32_t max_data_segment = 64 * 1024;
  /// Writes with at most this much immediate data skip the R2T round trip.
  std::uint32_t max_immediate_data = 64 * 1024;
  /// Accept HeaderDigest=CRC32C when the initiator offers it.
  bool allow_header_digest = true;
};

class IscsiTarget {
 public:
  IscsiTarget(std::shared_ptr<BlockDevice> device, TargetConfig config = {});

  /// Serve one initiator connection until logout or disconnect.
  /// Returns OK on clean logout/disconnect, an error on protocol violations.
  Status serve(Transport& transport);

  std::uint64_t commands_served() const { return commands_.load(); }

 private:
  // The reactor-hosted server drives handle_frame() per connection from
  // loop-thread callbacks instead of a blocking recv() loop.
  friend class ReactorIscsiServer;

  /// A write command mid-flight: the R2T went out and the session is
  /// collecting Data-Out PDUs into `buffer` until `received` covers the
  /// transfer.  Data-Out must arrive in order: each starts at `received`.
  /// While active, any PDU other than the matching Data-Out is a protocol
  /// error (the initiator owes us the data phase).
  struct PendingWrite {
    bool active = false;
    std::uint32_t itt = 0;
    std::uint64_t lba = 0;
    std::uint64_t total = 0;
    std::uint64_t received = 0;
    Bytes buffer;
  };

  struct Session {
    bool logged_in = false;
    bool header_digest = false;  // negotiated at login
    std::uint32_t stat_sn = 1;
    std::uint32_t exp_cmd_sn = 1;
    std::uint32_t next_ttt = 1;
    PendingWrite pending;
  };

  /// Consume exactly one wire message (PDU): decode, dispatch, send any
  /// replies.  Never calls transport.recv().  Sets *done on logout.
  Status handle_frame(Transport& transport, Session& session,
                      ByteSpan message, bool* done);

  // `data` is the PDU's data segment, a view into the received message.
  Status handle_login(Transport& transport, Session& session,
                      const Pdu& request, ByteSpan data);
  Status handle_data_out(Transport& transport, Session& session,
                         const Pdu& dout, ByteSpan data);
  Status handle_scsi(Transport& transport, Session& session,
                     const Pdu& command, ByteSpan data);
  Status do_read(Transport& transport, Session& session, const Pdu& cmd,
                 std::uint64_t lba, std::uint32_t blocks);
  Status do_write(Transport& transport, Session& session, const Pdu& cmd,
                  ByteSpan immediate, std::uint64_t lba, std::uint32_t blocks);
  /// Answer a read-type command with `data` as Data-In PDUs, the last one
  /// carrying GOOD status (no separate SCSI Response).
  Status send_data_in(Transport& transport, Session& session,
                      std::uint32_t itt, ByteSpan data);
  /// Write `data` at `lba` and answer with the SCSI Response.
  Status finish_write(Transport& transport, Session& session,
                      std::uint32_t itt, std::uint64_t lba, ByteSpan data);
  Status send_response(Transport& transport, Session& session,
                       std::uint32_t itt, std::uint8_t scsi_status,
                       ByteSpan sense = {});

  std::shared_ptr<BlockDevice> device_;
  TargetConfig config_;
  std::atomic<std::uint64_t> commands_{0};
};

}  // namespace prins::iscsi
