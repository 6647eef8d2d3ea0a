// Tests for the mini-iSCSI layer: PDU wire format, CDBs, full
// initiator/target sessions over in-proc and TCP transports, and raw-PDU
// sessions that pin what crosses the wire (one Data-In per good READ,
// in-order Data-Out and Data-In).
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "block/mem_disk.h"
#include "common/endian.h"
#include "common/rng.h"
#include "iscsi/initiator.h"
#include "iscsi/pdu.h"
#include "iscsi/reactor_target.h"
#include "iscsi/scsi.h"
#include "iscsi/target.h"
#include "net/inproc.h"
#include "net/reactor_tcp.h"

namespace prins::iscsi {
namespace {

TEST(PduTest, EncodeDecodeRoundTrip) {
  Pdu pdu;
  pdu.opcode = Opcode::kScsiCommand;
  pdu.immediate = true;
  pdu.flags = kFlagFinal | kFlagWrite;
  pdu.byte2 = 0x12;
  pdu.byte3 = 0x34;
  pdu.lun = 0x0102030405060708ull;
  pdu.itt = 0xDEADBEEF;
  pdu.word5 = 1;
  pdu.word6 = 2;
  pdu.word7 = 3;
  pdu.word8 = 4;
  pdu.word9 = 5;
  pdu.word10 = 6;
  pdu.word11 = 7;
  pdu.data = {1, 2, 3, 4, 5};

  const Bytes wire = pdu.encode();
  EXPECT_EQ(wire.size() % 4, 0u);  // padded
  auto back = Pdu::decode(wire);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->opcode, pdu.opcode);
  EXPECT_TRUE(back->immediate);
  EXPECT_EQ(back->flags, pdu.flags);
  EXPECT_EQ(back->byte2, 0x12);
  EXPECT_EQ(back->byte3, 0x34);
  EXPECT_EQ(back->lun, pdu.lun);
  EXPECT_EQ(back->itt, pdu.itt);
  EXPECT_EQ(back->word5, 1u);
  EXPECT_EQ(back->word11, 7u);
  EXPECT_EQ(back->data, pdu.data);
}

TEST(PduTest, ScatterGatherSendMatchesEncodeAndViewAliasesTheFrame) {
  Pdu pdu;
  pdu.opcode = Opcode::kDataIn;
  pdu.flags = kFlagFinal | kFlagStatus;
  pdu.itt = 9;
  pdu.word6 = 4;
  pdu.data = {1, 2, 3, 4, 5};  // 3 pad bytes on the wire
  for (bool digest : {false, true}) {
    auto [a, b] = make_inproc_pair();
    ASSERT_TRUE(send_pdu(*a, pdu, pdu.data, digest).is_ok());
    auto wire = b->recv();
    ASSERT_TRUE(wire.is_ok());
    EXPECT_EQ(*wire, pdu.encode(digest)) << "digest " << digest;
    auto view = Pdu::decode_view(*wire, digest);
    ASSERT_TRUE(view.is_ok()) << view.status().to_string();
    EXPECT_TRUE(view->pdu.data.empty());
    EXPECT_EQ(to_bytes(view->data), pdu.data);
    EXPECT_EQ(view->data.data(), wire->data() + kBhsSize + (digest ? 4 : 0));
    EXPECT_EQ(view->pdu.itt, 9u);
    EXPECT_EQ(view->pdu.flags, kFlagFinal | kFlagStatus);
  }
}

TEST(PduTest, AllOpcodesRoundTrip) {
  for (Opcode op : {Opcode::kNopOut, Opcode::kScsiCommand,
                    Opcode::kLoginRequest, Opcode::kDataOut,
                    Opcode::kLogoutRequest, Opcode::kNopIn,
                    Opcode::kScsiResponse, Opcode::kLoginResponse,
                    Opcode::kDataIn, Opcode::kLogoutResponse, Opcode::kR2t,
                    Opcode::kReject}) {
    Pdu pdu;
    pdu.opcode = op;
    auto back = Pdu::decode(pdu.encode());
    ASSERT_TRUE(back.is_ok()) << opcode_name(op);
    EXPECT_EQ(back->opcode, op);
    EXPECT_FALSE(opcode_name(op).empty());
  }
}

TEST(PduTest, RejectsTruncatedAndBogus) {
  EXPECT_FALSE(Pdu::decode(Bytes(10, 0)).is_ok());
  Bytes bogus(48, 0);
  bogus[0] = 0x3E;  // unknown opcode
  EXPECT_FALSE(Pdu::decode(bogus).is_ok());
  // Declared data longer than what follows the BHS.
  Pdu pdu;
  pdu.opcode = Opcode::kNopOut;
  pdu.data = Bytes(100, 1);
  Bytes wire = pdu.encode();
  wire.resize(60);
  EXPECT_FALSE(Pdu::decode(wire).is_ok());
}

TEST(PduTest, LoginKvRoundTrip) {
  const std::map<std::string, std::string> kv{
      {"InitiatorName", "iqn.test:init"},
      {"MaxRecvDataSegmentLength", "65536"},
      {"SessionType", "Normal"},
  };
  const auto back = decode_login_kv(encode_login_kv(kv));
  EXPECT_EQ(back, kv);
}

TEST(PduTest, LoginKvIgnoresGarbage) {
  const Bytes garbage =
      to_bytes(as_bytes(std::string_view("novalue\0=x\0ok=1\0", 16)));
  const auto kv = decode_login_kv(garbage);
  EXPECT_EQ(kv.size(), 2u);  // "=x" parses with empty key; novalue dropped
  EXPECT_EQ(kv.at("ok"), "1");
}

TEST(CdbTest, ReadWriteRoundTrip) {
  Byte buf[kCdbSize];
  make_read10(0x00ABCDEF, 77).encode(buf);
  auto read = Cdb::decode(ByteSpan(buf, kCdbSize));
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read->op, ScsiOp::kRead10);
  EXPECT_EQ(read->lba, 0x00ABCDEFu);
  EXPECT_EQ(read->blocks, 77u);

  make_write10(123, 456).encode(buf);
  auto write = Cdb::decode(ByteSpan(buf, kCdbSize));
  ASSERT_TRUE(write.is_ok());
  EXPECT_EQ(write->op, ScsiOp::kWrite10);
  EXPECT_EQ(write->lba, 123u);
  EXPECT_EQ(write->blocks, 456u);
}

TEST(CdbTest, UnsupportedOpcodeRejected) {
  Byte buf[kCdbSize] = {0xFF};
  EXPECT_FALSE(Cdb::decode(ByteSpan(buf, kCdbSize)).is_ok());
}

TEST(CdbTest, ReadCapacityDataSaturates) {
  Bytes d = make_read_capacity10_data(0x200000000ull, 512);
  // > 2^32 blocks: max LBA pinned to 0xFFFFFFFF
  EXPECT_EQ(d[0], 0xFF);
  EXPECT_EQ(d[3], 0xFF);
  d = make_read_capacity10_data(100, 4096);
  EXPECT_EQ(d[3], 99);
}

// ---- full sessions --------------------------------------------------------------

struct SessionFixture {
  std::shared_ptr<MemDisk> disk;
  std::shared_ptr<IscsiTarget> target;
  std::thread server;
  std::unique_ptr<IscsiInitiator> initiator;

  explicit SessionFixture(TargetConfig target_config = {},
                          InitiatorConfig initiator_config = {}) {
    disk = std::make_shared<MemDisk>(256, 512);
    target = std::make_shared<IscsiTarget>(disk, target_config);
    auto [client_end, server_end] = make_inproc_pair();
    server = std::thread(
        [t = target, s = std::shared_ptr<Transport>(std::move(server_end))] {
          ASSERT_TRUE(t->serve(*s).is_ok());
        });
    auto init = IscsiInitiator::login(std::move(client_end), initiator_config);
    EXPECT_TRUE(init.is_ok()) << init.status().to_string();
    if (init.is_ok()) initiator = std::move(*init);
  }

  ~SessionFixture() {
    initiator.reset();  // logs out
    if (server.joinable()) server.join();
  }
};

TEST(IscsiSessionTest, DiscoversGeometry) {
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  EXPECT_EQ(fx.initiator->block_size(), 512u);
  EXPECT_EQ(fx.initiator->num_blocks(), 256u);
  EXPECT_NE(fx.initiator->target_name().find("iqn."), std::string::npos);
}

TEST(IscsiSessionTest, ReadWriteRoundTrip) {
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  Rng rng(1);
  Bytes data(512 * 3);
  rng.fill(data);
  ASSERT_TRUE(fx.initiator->write(10, data).is_ok());
  Bytes out(512 * 3);
  ASSERT_TRUE(fx.initiator->read(10, out).is_ok());
  EXPECT_EQ(out, data);
  // The remote disk really has the bytes.
  Bytes direct(512 * 3);
  ASSERT_TRUE(fx.disk->read(10, direct).is_ok());
  EXPECT_EQ(direct, data);
}

TEST(IscsiSessionTest, LargeWriteTakesR2tPath) {
  TargetConfig target_config;
  target_config.max_immediate_data = 1024;  // force R2T beyond 2 blocks
  target_config.max_data_segment = 1024;
  InitiatorConfig initiator_config;
  initiator_config.max_immediate_data = 1024;
  initiator_config.max_data_segment = 1024;
  SessionFixture fx(target_config, initiator_config);
  ASSERT_NE(fx.initiator, nullptr);

  Rng rng(2);
  Bytes data(512 * 32);  // 16 KB >> 1 KB immediate limit
  rng.fill(data);
  ASSERT_TRUE(fx.initiator->write(0, data).is_ok());
  Bytes out(512 * 32);
  ASSERT_TRUE(fx.initiator->read(0, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(IscsiSessionTest, OutOfRangeIoFailsWithScsiError) {
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  Bytes block(512);
  EXPECT_EQ(fx.initiator->read(256, block).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(fx.initiator->write(300, block).code(), ErrorCode::kOutOfRange);
  // In-range traffic still works afterwards.
  EXPECT_TRUE(fx.initiator->write(0, block).is_ok());
}

TEST(IscsiSessionTest, PingAndFlush) {
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  EXPECT_TRUE(fx.initiator->ping().is_ok());
  EXPECT_TRUE(fx.initiator->flush().is_ok());
  EXPECT_GT(fx.target->commands_served(), 0u);
}

TEST(IscsiSessionTest, LogoutIsIdempotentAndFinal) {
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  EXPECT_TRUE(fx.initiator->logout().is_ok());
  EXPECT_TRUE(fx.initiator->logout().is_ok());
  Bytes block(512);
  EXPECT_EQ(fx.initiator->read(0, block).code(), ErrorCode::kUnavailable);
}

TEST(IscsiSessionTest, WorksOverTcp) {
  auto disk = std::make_shared<MemDisk>(64, 4096);
  auto target = std::make_shared<IscsiTarget>(disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorIscsiServer::start(target, *pool);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  auto transport = ReactorTcpTransport::connect(
      (*pool)->at(0).shared_from_this(), "127.0.0.1", (*server)->port());
  ASSERT_TRUE(transport.is_ok());
  auto initiator = IscsiInitiator::login(std::move(*transport));
  ASSERT_TRUE(initiator.is_ok()) << initiator.status().to_string();
  Rng rng(3);
  Bytes data(4096 * 2);
  rng.fill(data);
  ASSERT_TRUE((*initiator)->write(5, data).is_ok());
  Bytes out(4096 * 2);
  ASSERT_TRUE((*initiator)->read(5, out).is_ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE((*initiator)->logout().is_ok());
  (*server)->stop();
}

TEST(CdbTest, SixteenByteFormsRoundTrip) {
  Byte buf[kCdbSize];
  make_read16(0x123456789ABCull, 0x12345).encode(buf);
  auto read = Cdb::decode(ByteSpan(buf, kCdbSize));
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read->op, ScsiOp::kRead16);
  EXPECT_EQ(read->lba, 0x123456789ABCull);
  EXPECT_EQ(read->blocks, 0x12345u);

  make_write16(0xFFFFFFFF00ull, 7).encode(buf);
  auto write = Cdb::decode(ByteSpan(buf, kCdbSize));
  ASSERT_TRUE(write.is_ok());
  EXPECT_EQ(write->op, ScsiOp::kWrite16);
  EXPECT_EQ(write->lba, 0xFFFFFFFF00ull);

  make_report_luns(4096).encode(buf);
  auto rl = Cdb::decode(ByteSpan(buf, kCdbSize));
  ASSERT_TRUE(rl.is_ok());
  EXPECT_EQ(rl->op, ScsiOp::kReportLuns);
  EXPECT_EQ(rl->alloc_len, 4096u);
}

TEST(PduTest, HeaderDigestRoundTripAndDetection) {
  Pdu pdu;
  pdu.opcode = Opcode::kScsiCommand;
  pdu.itt = 42;
  pdu.data = {1, 2, 3};
  Bytes wire = pdu.encode(/*header_digest=*/true);
  EXPECT_EQ(wire.size(), (48u + 4 + 3 + 3) & ~3u);
  auto back = Pdu::decode(wire, /*header_digest=*/true);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->itt, 42u);
  EXPECT_EQ(back->data, pdu.data);
  // Flip a BHS bit: the digest must catch it.
  wire[17] ^= 0x01;
  auto bad = Pdu::decode(wire, true);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("digest"), std::string::npos);
  // Decoding a digested PDU without the flag mis-frames and must not
  // silently succeed with the right payload.
  wire[17] ^= 0x01;  // restore
  auto misread = Pdu::decode(wire, false);
  if (misread.is_ok()) {
    EXPECT_NE(misread->data, pdu.data);
  }
}

TEST(IscsiSessionTest, ReportLunsListsTheLun) {
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  auto luns = fx.initiator->report_luns();
  ASSERT_TRUE(luns.is_ok()) << luns.status().to_string();
  ASSERT_EQ(luns->size(), 1u);
  EXPECT_EQ((*luns)[0], 0u);
}

TEST(IscsiSessionTest, HeaderDigestNegotiatedAndWorking) {
  InitiatorConfig initiator_config;
  initiator_config.request_header_digest = true;
  SessionFixture fx(TargetConfig{}, initiator_config);
  ASSERT_NE(fx.initiator, nullptr);
  EXPECT_TRUE(fx.initiator->header_digest());
  Rng rng(5);
  Bytes data(512 * 4);
  rng.fill(data);
  ASSERT_TRUE(fx.initiator->write(8, data).is_ok());
  Bytes out(512 * 4);
  ASSERT_TRUE(fx.initiator->read(8, out).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(fx.initiator->ping().is_ok());
}

TEST(IscsiSessionTest, HeaderDigestDeclinedWhenTargetForbidsIt) {
  TargetConfig target_config;
  target_config.allow_header_digest = false;
  InitiatorConfig initiator_config;
  initiator_config.request_header_digest = true;
  SessionFixture fx(target_config, initiator_config);
  ASSERT_NE(fx.initiator, nullptr);
  EXPECT_FALSE(fx.initiator->header_digest());
  Bytes block(512, 0x42);
  EXPECT_TRUE(fx.initiator->write(0, block).is_ok());
}

TEST(IscsiSessionTest, DiscoverySessionListsTargets) {
  auto disk = std::make_shared<MemDisk>(16, 512);
  TargetConfig config;
  config.target_name = "iqn.2006-04.test:vol0";
  auto target = std::make_shared<IscsiTarget>(disk, config);
  auto [client_end, server_end] = make_inproc_pair();
  std::thread server(
      [t = target, s = std::shared_ptr<Transport>(std::move(server_end))] {
        ASSERT_TRUE(t->serve(*s).is_ok());
      });
  auto targets = discover_targets(std::move(client_end));
  ASSERT_TRUE(targets.is_ok()) << targets.status().to_string();
  ASSERT_EQ(targets->size(), 1u);
  EXPECT_EQ((*targets)[0], "iqn.2006-04.test:vol0");
  server.join();
}

TEST(IscsiSessionTest, DiscoveryThenNormalLoginWorkflow) {
  // The standard flow: discover the target name first, then log in to it.
  auto disk = std::make_shared<MemDisk>(16, 512);
  auto target = std::make_shared<IscsiTarget>(disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorIscsiServer::start(target, *pool);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  const auto connect = [&] {
    return ReactorTcpTransport::connect((*pool)->at(0).shared_from_this(),
                                        "127.0.0.1", (*server)->port());
  };

  auto discovery_conn = connect();
  ASSERT_TRUE(discovery_conn.is_ok());
  auto targets = discover_targets(std::move(*discovery_conn));
  ASSERT_TRUE(targets.is_ok());
  ASSERT_FALSE(targets->empty());

  auto session_conn = connect();
  ASSERT_TRUE(session_conn.is_ok());
  auto initiator = IscsiInitiator::login(std::move(*session_conn));
  ASSERT_TRUE(initiator.is_ok());
  EXPECT_EQ((*initiator)->target_name(), (*targets)[0]);
  ASSERT_TRUE((*initiator)->logout().is_ok());
  (*server)->stop();
}

TEST(IscsiSessionTest, ProtocolViolationsAreRejected) {
  // Speak raw PDUs at the target: commands before login are fatal, and a
  // target-opcode PDU after login draws a Reject.
  auto disk = std::make_shared<MemDisk>(16, 512);
  auto target = std::make_shared<IscsiTarget>(disk);

  {
    // SCSI command before login: session terminated with an error.
    auto [client, server_end] = make_inproc_pair();
    std::thread server(
        [t = target, s = std::shared_ptr<Transport>(std::move(server_end))] {
          EXPECT_FALSE(t->serve(*s).is_ok());
        });
    Pdu premature;
    premature.opcode = Opcode::kScsiCommand;
    ASSERT_TRUE(client->send(premature.encode()).is_ok());
    server.join();
  }
  {
    // Target-to-initiator opcode after login: Reject PDU, session lives.
    auto [client, server_end] = make_inproc_pair();
    std::thread server(
        [t = target, s = std::shared_ptr<Transport>(std::move(server_end))] {
          (void)t->serve(*s);
        });
    Pdu login;
    login.opcode = Opcode::kLoginRequest;
    login.flags = static_cast<std::uint8_t>(
        kLoginTransit | (kStageOperational << 2) | kStageFullFeature);
    login.itt = 1;
    ASSERT_TRUE(client->send(login.encode()).is_ok());
    ASSERT_TRUE(client->recv().is_ok());  // login response

    Pdu bogus;
    bogus.opcode = Opcode::kNopIn;  // only targets send NOP-In
    bogus.itt = 2;
    ASSERT_TRUE(client->send(bogus.encode()).is_ok());
    auto reply = client->recv();
    ASSERT_TRUE(reply.is_ok());
    auto decoded = Pdu::decode(*reply);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded->opcode, Opcode::kReject);
    client->close();
    server.join();
  }
}

TEST(IscsiSessionTest, InitiatorIsABlockDevice) {
  // The initiator can stand in anywhere a BlockDevice is expected — the
  // property the PRINS engine's "communication module" relies on.
  SessionFixture fx;
  ASSERT_NE(fx.initiator, nullptr);
  BlockDevice& dev = *fx.initiator;
  Bytes block(512, 0x5A);
  ASSERT_TRUE(dev.write(1, block).is_ok());
  Bytes out(512);
  ASSERT_TRUE(dev.read(1, out).is_ok());
  EXPECT_EQ(out, block);
  EXPECT_EQ(dev.capacity_bytes(), 256u * 512u);
}

// ---- raw-PDU sessions ------------------------------------------------------
//
// These drive one side of a session PDU by PDU over an inproc pair, so a
// test sees exactly which PDUs cross the wire and what they carry.

using namespace std::chrono_literals;

Result<Pdu> recv_pdu(Transport& transport) {
  PRINS_ASSIGN_OR_RETURN(Bytes message, transport.recv_for(5s));
  return Pdu::decode(message);
}

Pdu scsi_command(const Cdb& cdb, std::uint8_t flags, std::uint32_t itt,
                 std::uint32_t cmd_sn, std::uint32_t edtl) {
  Pdu cmd;
  cmd.opcode = Opcode::kScsiCommand;
  cmd.flags = static_cast<std::uint8_t>(kFlagFinal | flags);
  cmd.itt = itt;
  cmd.word5 = edtl;
  cmd.word6 = cmd_sn;
  Byte cdb_bytes[kCdbSize];
  cdb.encode(cdb_bytes);
  cmd.word8 = load_be32(ByteSpan(cdb_bytes).subspan(0, 4));
  cmd.word9 = load_be32(ByteSpan(cdb_bytes).subspan(4, 4));
  cmd.word10 = load_be32(ByteSpan(cdb_bytes).subspan(8, 4));
  cmd.word11 = load_be32(ByteSpan(cdb_bytes).subspan(12, 4));
  return cmd;
}

/// A real IscsiTarget served on a thread, spoken to in raw PDUs.
struct RawTargetSession {
  std::shared_ptr<MemDisk> disk;
  std::unique_ptr<Transport> client;
  std::thread server;
  std::uint32_t login_stat_sn = 0;

  RawTargetSession(std::uint64_t blocks, std::uint32_t block_size,
                   TargetConfig config = {}) {
    disk = std::make_shared<MemDisk>(blocks, block_size);
    auto target = std::make_shared<IscsiTarget>(disk, config);
    auto [client_end, server_end] = make_inproc_pair();
    client = std::move(client_end);
    server = std::thread(
        [target, s = std::shared_ptr<Transport>(std::move(server_end))] {
          EXPECT_TRUE(target->serve(*s).is_ok());
        });
    Pdu login;
    login.opcode = Opcode::kLoginRequest;
    login.immediate = true;
    login.flags = static_cast<std::uint8_t>(
        kLoginTransit | (kStageOperational << 2) | kStageFullFeature);
    login.itt = 100;
    EXPECT_TRUE(client->send(login.encode()).is_ok());
    auto reply = recv_pdu(*client);
    EXPECT_TRUE(reply.is_ok() && reply->opcode == Opcode::kLoginResponse);
    if (reply.is_ok()) login_stat_sn = reply->word6;
  }

  ~RawTargetSession() {
    client->close();
    server.join();
  }
};

TEST(IscsiSessionTest, GoodReadIsOneDataInCarryingStatus) {
  RawTargetSession raw(16, 8192);
  Bytes block(8192);
  Rng rng(11);
  rng.fill(block);
  ASSERT_TRUE(raw.disk->write(3, block).is_ok());

  // READ(10) of one 8 KiB block: one Data-In with F|S and GOOD status.
  ASSERT_TRUE(raw.client
                  ->send(scsi_command(make_read10(3, 1), kFlagRead, 1, 1, 8192)
                             .encode())
                  .is_ok());
  auto din = recv_pdu(*raw.client);
  ASSERT_TRUE(din.is_ok()) << din.status().to_string();
  EXPECT_EQ(din->opcode, Opcode::kDataIn);
  EXPECT_EQ(din->itt, 1u);
  EXPECT_EQ(din->flags, kFlagFinal | kFlagStatus);
  EXPECT_EQ(din->byte3, kScsiGood);
  EXPECT_EQ(din->word6, raw.login_stat_sn + 1);  // StatSN
  EXPECT_EQ(din->word8, 2u + 63u);               // MaxCmdSN
  EXPECT_EQ(din->word9, 0u);                     // DataSN
  EXPECT_EQ(din->word10, 0u);                    // buffer offset
  EXPECT_EQ(din->data, block);

  // The next PDU is the WRITE's own response — no SCSI Response for the
  // READ sits in between — and StatSN stays gap-free through the WRITE
  // and a SYNCHRONIZE CACHE.
  Bytes fresh(8192, 0x5C);
  Pdu write = scsi_command(make_write10(4, 1), kFlagWrite, 2, 2, 8192);
  write.data = fresh;
  ASSERT_TRUE(raw.client->send(write.encode()).is_ok());
  auto wresp = recv_pdu(*raw.client);
  ASSERT_TRUE(wresp.is_ok());
  EXPECT_EQ(wresp->opcode, Opcode::kScsiResponse);
  EXPECT_EQ(wresp->itt, 2u);
  EXPECT_EQ(wresp->byte3, kScsiGood);
  EXPECT_EQ(wresp->word6, raw.login_stat_sn + 2);
  Bytes landed(8192);
  ASSERT_TRUE(raw.disk->read(4, landed).is_ok());
  EXPECT_EQ(landed, fresh);

  ASSERT_TRUE(
      raw.client
          ->send(scsi_command(make_synchronize_cache10(), 0, 3, 3, 0).encode())
          .is_ok());
  auto sresp = recv_pdu(*raw.client);
  ASSERT_TRUE(sresp.is_ok());
  EXPECT_EQ(sresp->opcode, Opcode::kScsiResponse);
  EXPECT_EQ(sresp->itt, 3u);
  EXPECT_EQ(sresp->word6, raw.login_stat_sn + 3);
}

TEST(IscsiSessionTest, SplitReadCarriesStatusOnlyOnItsLastDataIn) {
  TargetConfig config;
  config.max_data_segment = 2048;
  RawTargetSession raw(16, 8192, config);
  Bytes block(8192);
  Rng rng(12);
  rng.fill(block);
  ASSERT_TRUE(raw.disk->write(0, block).is_ok());

  ASSERT_TRUE(raw.client
                  ->send(scsi_command(make_read10(0, 1), kFlagRead, 1, 1, 8192)
                             .encode())
                  .is_ok());
  Bytes assembled;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto din = recv_pdu(*raw.client);
    ASSERT_TRUE(din.is_ok()) << din.status().to_string();
    ASSERT_EQ(din->opcode, Opcode::kDataIn) << i;
    EXPECT_EQ(din->word9, i);          // DataSN
    EXPECT_EQ(din->word10, i * 2048);  // in-order offsets
    EXPECT_EQ(din->data.size(), 2048u);
    const bool last = i == 3;
    EXPECT_EQ(din->flags, last ? kFlagFinal | kFlagStatus : 0) << i;
    if (last) {
      EXPECT_EQ(din->byte3, kScsiGood);
      EXPECT_EQ(din->word6, raw.login_stat_sn + 1);
    }
    append(assembled, din->data);
  }
  EXPECT_EQ(assembled, block);

  // StatSN advanced once for the whole READ.
  ASSERT_TRUE(
      raw.client
          ->send(scsi_command(make_synchronize_cache10(), 0, 2, 2, 0).encode())
          .is_ok());
  auto sresp = recv_pdu(*raw.client);
  ASSERT_TRUE(sresp.is_ok());
  EXPECT_EQ(sresp->opcode, Opcode::kScsiResponse);
  EXPECT_EQ(sresp->word6, raw.login_stat_sn + 2);
}

TEST(IscsiSessionTest, TargetRejectsOverlappingDataOut) {
  // A duplicated Data-Out adds up to the transfer length but leaves a hole.
  // The target must not count bytes: it answers CHECK CONDITION and the
  // device keeps its old contents.
  RawTargetSession raw(16, 512);
  const Bytes before(2048, 0xAA);
  ASSERT_TRUE(raw.disk->write(2, before).is_ok());

  // WRITE(10) of 4 blocks with no immediate data: the target asks for all
  // 2048 bytes with one R2T.
  ASSERT_TRUE(raw.client
                  ->send(scsi_command(make_write10(2, 4), kFlagWrite, 1, 1,
                                      2048)
                             .encode())
                  .is_ok());
  auto r2t = recv_pdu(*raw.client);
  ASSERT_TRUE(r2t.is_ok());
  ASSERT_EQ(r2t->opcode, Opcode::kR2t);
  EXPECT_EQ(r2t->word10, 0u);
  EXPECT_EQ(r2t->word11, 2048u);
  for (int copy = 0; copy < 2; ++copy) {  // the first half, twice
    Pdu dout;
    dout.opcode = Opcode::kDataOut;
    dout.flags = copy == 1 ? kFlagFinal : 0;
    dout.itt = 1;
    dout.word5 = r2t->word5;
    dout.word9 = static_cast<std::uint32_t>(copy);
    dout.word10 = 0;
    dout.data.assign(1024, 0x11);
    ASSERT_TRUE(raw.client->send(dout.encode()).is_ok());
  }
  auto resp = recv_pdu(*raw.client);
  ASSERT_TRUE(resp.is_ok());
  ASSERT_EQ(resp->opcode, Opcode::kScsiResponse);
  EXPECT_EQ(resp->itt, 1u);
  EXPECT_EQ(resp->byte3, kScsiCheckCondition);
  Bytes after(2048);
  ASSERT_TRUE(raw.disk->read(2, after).is_ok());
  EXPECT_EQ(after, before);

  // The session survives: an in-order retry lands.
  Pdu retry = scsi_command(make_write10(2, 4), kFlagWrite, 2, 2, 2048);
  retry.data.assign(2048, 0x22);
  ASSERT_TRUE(raw.client->send(retry.encode()).is_ok());
  auto retry_resp = recv_pdu(*raw.client);
  ASSERT_TRUE(retry_resp.is_ok());
  EXPECT_EQ(retry_resp->byte3, kScsiGood);
  ASSERT_TRUE(raw.disk->read(2, after).is_ok());
  EXPECT_EQ(after, retry.data);
}

/// Plays a target that reports status in a separate SCSI Response: answers
/// login, INQUIRY and READ CAPACITY, hands each READ to `on_read`, and
/// returns at logout or disconnect.
void script_target(
    Transport& transport, std::uint32_t block_size, std::uint32_t blocks,
    const std::function<void(Transport&, const Pdu& cmd,
                             std::uint32_t& stat_sn)>& on_read) {
  std::uint32_t stat_sn = 1;
  for (;;) {
    auto pdu = recv_pdu(transport);
    if (!pdu.is_ok()) return;
    Pdu reply;
    reply.itt = pdu->itt;
    switch (pdu->opcode) {
      case Opcode::kLoginRequest:
        reply.opcode = Opcode::kLoginResponse;
        reply.flags = static_cast<std::uint8_t>(
            kLoginTransit | (kStageOperational << 2) | kStageFullFeature);
        reply.word6 = stat_sn++;
        reply.data = encode_login_kv({{"TargetName", "iqn.scripted"}});
        ASSERT_TRUE(transport.send(reply.encode()).is_ok());
        break;
      case Opcode::kLogoutRequest:
        reply.opcode = Opcode::kLogoutResponse;
        reply.flags = kFlagFinal;
        reply.word6 = stat_sn++;
        (void)transport.send(reply.encode());
        return;
      case Opcode::kScsiCommand: {
        Byte cdb_bytes[kCdbSize];
        store_be32(MutByteSpan(cdb_bytes).subspan(0, 4), pdu->word8);
        store_be32(MutByteSpan(cdb_bytes).subspan(4, 4), pdu->word9);
        store_be32(MutByteSpan(cdb_bytes).subspan(8, 4), pdu->word10);
        store_be32(MutByteSpan(cdb_bytes).subspan(12, 4), pdu->word11);
        auto cdb = Cdb::decode(cdb_bytes);
        ASSERT_TRUE(cdb.is_ok());
        if (cdb->op == ScsiOp::kRead10) {
          on_read(transport, *pdu, stat_sn);
          break;
        }
        Pdu din;
        din.opcode = Opcode::kDataIn;
        din.flags = kFlagFinal;  // no S bit: status follows separately
        din.itt = pdu->itt;
        din.data = cdb->op == ScsiOp::kInquiry
                       ? make_inquiry_data()
                       : make_read_capacity10_data(blocks, block_size);
        if (cdb->op == ScsiOp::kInquiry) din.data.resize(cdb->alloc_len);
        ASSERT_TRUE(transport.send(din.encode()).is_ok());
        reply.opcode = Opcode::kScsiResponse;
        reply.flags = kFlagFinal;
        reply.byte3 = kScsiGood;
        reply.word6 = stat_sn++;
        ASSERT_TRUE(transport.send(reply.encode()).is_ok());
        break;
      }
      default:
        FAIL() << "unexpected " << opcode_name(pdu->opcode);
    }
  }
}

/// Send `chunks` as Data-In PDUs at the given offsets (no S bit), then a
/// GOOD SCSI Response.
void send_data_then_status(Transport& transport, const Pdu& cmd,
                           std::uint32_t& stat_sn,
                           const std::vector<std::pair<std::uint32_t, Bytes>>&
                               chunks) {
  std::uint32_t data_sn = 0;
  for (const auto& [offset, bytes] : chunks) {
    Pdu din;
    din.opcode = Opcode::kDataIn;
    din.itt = cmd.itt;
    din.word9 = data_sn++;
    din.word10 = offset;
    din.data = bytes;
    if (data_sn == chunks.size()) din.flags = kFlagFinal;
    ASSERT_TRUE(transport.send(din.encode()).is_ok());
  }
  Pdu resp;
  resp.opcode = Opcode::kScsiResponse;
  resp.flags = kFlagFinal;
  resp.byte3 = kScsiGood;
  resp.itt = cmd.itt;
  resp.word6 = stat_sn++;
  ASSERT_TRUE(transport.send(resp.encode()).is_ok());
}

TEST(IscsiSessionTest, InitiatorCompletesOnSeparateScsiResponse) {
  // A target that never sets the S bit still completes every command: the
  // initiator keeps reading until the SCSI Response.
  Bytes block(4096);
  Rng rng(13);
  rng.fill(block);
  auto [client_end, server_end] = make_inproc_pair();
  std::thread target([&, server = std::move(server_end)] {
    script_target(*server, 4096, 8,
                  [&](Transport& t, const Pdu& cmd, std::uint32_t& stat_sn) {
                    send_data_then_status(t, cmd, stat_sn, {{0, block}});
                  });
  });
  auto init = IscsiInitiator::login(std::move(client_end));
  ASSERT_TRUE(init.is_ok()) << init.status().to_string();
  EXPECT_EQ((*init)->block_size(), 4096u);
  EXPECT_EQ((*init)->num_blocks(), 8u);
  Bytes out(4096);
  ASSERT_TRUE((*init)->read(5, out).is_ok());
  EXPECT_EQ(out, block);
  init->reset();  // logs out; the scripted target returns
  target.join();
}

TEST(IscsiSessionTest, InitiatorRejectsOverlappingDataIn) {
  // Two Data-Ins for the first half add up to the transfer length; counted
  // by bytes they would pass for a full read with a hole in it.
  auto [client_end, server_end] = make_inproc_pair();
  std::thread target([server = std::move(server_end)] {
    script_target(*server, 4096, 8,
                  [](Transport& t, const Pdu& cmd, std::uint32_t& stat_sn) {
                    const Bytes half(2048, 0x33);
                    send_data_then_status(t, cmd, stat_sn,
                                          {{0, half}, {0, half}});
                  });
  });
  auto init = IscsiInitiator::login(std::move(client_end));
  ASSERT_TRUE(init.is_ok()) << init.status().to_string();
  Bytes out(4096);
  EXPECT_EQ((*init)->read(0, out).code(), ErrorCode::kCorruption);
  init->reset();  // logs out (skimming the stale response)
  target.join();
}

}  // namespace
}  // namespace prins::iscsi
