// SCSI command descriptor blocks (CDBs) and sense data.
//
// The subset a block-storage initiator needs: INQUIRY, TEST UNIT READY,
// READ CAPACITY(10), READ/WRITE(10) and their 64-bit-LBA (16) forms,
// REPORT LUNS, SYNCHRONIZE CACHE(10).
// CDBs ride in bytes 32-47 of a SCSI Command PDU.
#pragma once

#include <cstdint>

#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace prins::iscsi {

enum class ScsiOp : std::uint8_t {
  kTestUnitReady = 0x00,
  kInquiry = 0x12,
  kReadCapacity10 = 0x25,
  kRead10 = 0x28,
  kWrite10 = 0x2A,
  kSynchronizeCache10 = 0x35,
  kRead16 = 0x88,
  kWrite16 = 0x8A,
  kReportLuns = 0xA0,
};

constexpr std::size_t kCdbSize = 16;

/// A parsed CDB.  lba/blocks are meaningful for READ/WRITE/READ CAPACITY;
/// alloc_len for INQUIRY.
struct Cdb {
  ScsiOp op = ScsiOp::kTestUnitReady;
  std::uint64_t lba = 0;   // 32-bit in the (10) forms, 64-bit in the (16)
  std::uint32_t blocks = 0;
  std::uint32_t alloc_len = 0;

  /// Serialize into a 16-byte CDB buffer.
  void encode(MutByteSpan out) const;

  /// Parse a 16-byte CDB.
  static Result<Cdb> decode(ByteSpan cdb);
};

// CDB builders used by the initiator.
Cdb make_test_unit_ready();
Cdb make_inquiry(std::uint16_t alloc_len);
Cdb make_read_capacity10();
Cdb make_read10(std::uint32_t lba, std::uint16_t blocks);
Cdb make_write10(std::uint32_t lba, std::uint16_t blocks);
Cdb make_synchronize_cache10();
Cdb make_read16(std::uint64_t lba, std::uint32_t blocks);
Cdb make_write16(std::uint64_t lba, std::uint32_t blocks);
Cdb make_report_luns(std::uint32_t alloc_len);

/// Standard INQUIRY data (36 bytes): direct-access device, vendor "PRINS".
Bytes make_inquiry_data();

/// READ CAPACITY(10) response: 8 bytes, {max LBA, block size} big-endian.
Bytes make_read_capacity10_data(std::uint64_t num_blocks,
                                std::uint32_t block_size);

/// REPORT LUNS response: 8-byte header + one 8-byte entry per LUN.
Bytes make_report_luns_data(const std::vector<std::uint64_t>& luns);

/// Fixed-format sense data (18 bytes) for CHECK CONDITION responses.
/// sense_key: 0x5 illegal request; asc/ascq detail the error.
Bytes make_sense(std::uint8_t sense_key, std::uint8_t asc, std::uint8_t ascq);

// Common sense triples.
inline Bytes sense_lba_out_of_range() { return make_sense(0x5, 0x21, 0x00); }
inline Bytes sense_invalid_cdb() { return make_sense(0x5, 0x24, 0x00); }
inline Bytes sense_medium_error() { return make_sense(0x3, 0x11, 0x00); }
/// ABORTED COMMAND, DATA PHASE ERROR: a Data-Out outside the R2T's
/// in-order sequence.
inline Bytes sense_data_phase_error() { return make_sense(0xB, 0x4B, 0x00); }

}  // namespace prins::iscsi
