// IscsiInitiator: a remote iSCSI LUN exposed as a local BlockDevice.
//
// Mirrors the paper's architecture where the database host's initiator
// talks to the PRINS-enabled target, and where the PRINS engine's own
// "communication module is another iSCSI initiator" talking to the replica
// target.  login() performs the login exchange, INQUIRY and READ
// CAPACITY(10), after which the device geometry is known and read/write
// translate to READ(10)/WRITE(10) commands (chunked to the negotiated
// limits, R2T + Data-Out for large writes).  Write data goes out from the
// caller's span and Data-In lands straight in the caller's buffer; a
// command completes on a SCSI Response or on a Data-In carrying status.
//
// One outstanding command at a time; calls are serialized by a mutex.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "block/block_device.h"
#include "iscsi/pdu.h"
#include "net/transport.h"

namespace prins::iscsi {

struct InitiatorConfig {
  std::string initiator_name = "iqn.2006-04.edu.uri.hpcl:initiator";
  std::uint32_t max_data_segment = 64 * 1024;  // per Data-Out PDU
  std::uint32_t max_immediate_data = 64 * 1024;
  /// Offer HeaderDigest=CRC32C at login; used if the target accepts.
  bool request_header_digest = false;
};

/// Discovery session: log in with SessionType=Discovery, issue
/// SendTargets=All, and return the target names the portal offers.
/// Consumes the transport (logs out and closes it before returning).
Result<std::vector<std::string>> discover_targets(
    std::unique_ptr<Transport> transport,
    const std::string& initiator_name = "iqn.2006-04.edu.uri.hpcl:discovery");

class IscsiInitiator final : public BlockDevice {
 public:
  /// Log in over `transport` and discover the LUN geometry.
  static Result<std::unique_ptr<IscsiInitiator>> login(
      std::unique_ptr<Transport> transport, InitiatorConfig config = {});

  ~IscsiInitiator() override;

  std::uint32_t block_size() const override { return block_size_; }
  std::uint64_t num_blocks() const override { return num_blocks_; }

  Status read(Lba lba, MutByteSpan out) override;
  Status write(Lba lba, ByteSpan data) override;
  Status flush() override;
  std::string describe() const override;

  /// Graceful logout (also closes the transport).  Idempotent.
  Status logout();

  /// Liveness probe: NOP-Out ping, waits for the echo.
  Status ping();

  /// REPORT LUNS: the LUN inventory the target exposes.
  Result<std::vector<std::uint64_t>> report_luns();

  /// True when the connection negotiated CRC32C header digests.
  bool header_digest() const { return header_digest_; }

  const std::string& target_name() const { return target_name_; }

 private:
  IscsiInitiator(std::unique_ptr<Transport> transport, InitiatorConfig config);

  Status do_login();
  Status discover_geometry();

  /// Issue one SCSI command; for reads, fills `read_buf`.  `write_data` is
  /// the full write payload (immediate + R2T flow handled inside).
  Status command(const struct Cdb& cdb, ByteSpan write_data,
                 MutByteSpan read_buf);

  /// Retire the command on its status (a SCSI Response, or a Data-In with
  /// the S bit): record StatSN, map the SCSI status, check the read landed
  /// in full.
  Status complete(const Pdu& status_pdu, std::size_t sense_bytes,
                  std::size_t read_received, std::size_t read_expected);

  /// One READ(10)/WRITE(10) worth of blocks per command.
  std::uint32_t blocks_per_command() const;

  std::unique_ptr<Transport> transport_;
  InitiatorConfig config_;
  std::mutex mutex_;
  bool closed_ = false;
  std::uint32_t next_itt_ = 1;
  std::uint32_t cmd_sn_ = 1;
  std::uint32_t exp_stat_sn_ = 1;
  std::uint32_t block_size_ = 0;
  std::uint64_t num_blocks_ = 0;
  bool header_digest_ = false;
  std::string target_name_;
};

}  // namespace prins::iscsi
