// Tests for the block-device layer: MemDisk, FileDisk, decorators.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "block/faulty_disk.h"
#include "block/file_disk.h"
#include "block/mem_disk.h"
#include "block/stats_disk.h"
#include "common/rng.h"

namespace prins {
namespace {

Bytes random_block(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Bytes b(n);
  rng.fill(b);
  return b;
}

TEST(MemDiskTest, ReadsBackWrites) {
  MemDisk disk(64, 512);
  EXPECT_EQ(disk.block_size(), 512u);
  EXPECT_EQ(disk.num_blocks(), 64u);
  EXPECT_EQ(disk.capacity_bytes(), 64u * 512u);

  const Bytes data = random_block(1, 512);
  ASSERT_TRUE(disk.write(10, data).is_ok());
  Bytes out(512);
  ASSERT_TRUE(disk.read(10, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(MemDiskTest, FreshDiskIsZeroed) {
  MemDisk disk(4, 256);
  Bytes out(256, 0xFF);
  ASSERT_TRUE(disk.read(3, out).is_ok());
  EXPECT_TRUE(all_zero(out));
}

TEST(MemDiskTest, MultiBlockIo) {
  MemDisk disk(16, 128);
  const Bytes data = random_block(2, 4 * 128);
  ASSERT_TRUE(disk.write(4, data).is_ok());
  Bytes out(4 * 128);
  ASSERT_TRUE(disk.read(4, out).is_ok());
  EXPECT_EQ(out, data);
  // And individual blocks line up with the bulk write.
  Bytes one(128);
  ASSERT_TRUE(disk.read(5, one).is_ok());
  EXPECT_EQ(one, to_bytes(ByteSpan(data).subspan(128, 128)));
}

TEST(MemDiskTest, RejectsBadGeometryIo) {
  MemDisk disk(8, 512);
  Bytes small(100);
  EXPECT_EQ(disk.read(0, small).code(), ErrorCode::kInvalidArgument);
  Bytes empty;
  EXPECT_EQ(disk.write(0, empty).code(), ErrorCode::kInvalidArgument);
  Bytes block(512);
  EXPECT_EQ(disk.read(8, block).code(), ErrorCode::kOutOfRange);
  Bytes two(1024);
  EXPECT_EQ(disk.write(7, two).code(), ErrorCode::kOutOfRange);
}

TEST(MemDiskTest, LastBlockIsWritable) {
  MemDisk disk(8, 512);
  const Bytes data = random_block(3, 512);
  EXPECT_TRUE(disk.write(7, data).is_ok());
}

// ---- FileDisk ----------------------------------------------------------------

class FileDiskTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("prins_filedisk_" + std::to_string(::getpid()) + "_" +
                        std::to_string(counter_++)))
                          .string();
  static int counter_;

  void TearDown() override { std::remove(path_.c_str()); }
};
int FileDiskTest::counter_ = 0;

TEST_F(FileDiskTest, PersistsAcrossReopen) {
  const Bytes data = random_block(4, 4096);
  {
    auto disk = FileDisk::open(path_, 32, 4096);
    ASSERT_TRUE(disk.is_ok()) << disk.status().to_string();
    ASSERT_TRUE((*disk)->write(5, data).is_ok());
    ASSERT_TRUE((*disk)->flush().is_ok());
  }
  {
    auto disk = FileDisk::open(path_, 32, 4096);
    ASSERT_TRUE(disk.is_ok());
    Bytes out(4096);
    ASSERT_TRUE((*disk)->read(5, out).is_ok());
    EXPECT_EQ(out, data);
  }
}

TEST_F(FileDiskTest, FreshFileReadsZero) {
  auto disk = FileDisk::open(path_, 8, 512);
  ASSERT_TRUE(disk.is_ok());
  Bytes out(512, 0xEE);
  ASSERT_TRUE((*disk)->read(7, out).is_ok());
  EXPECT_TRUE(all_zero(out));
}

TEST_F(FileDiskTest, RejectsZeroGeometry) {
  EXPECT_FALSE(FileDisk::open(path_, 0, 512).is_ok());
  EXPECT_FALSE(FileDisk::open(path_, 8, 0).is_ok());
}

TEST_F(FileDiskTest, BoundsChecked) {
  auto disk = FileDisk::open(path_, 4, 512);
  ASSERT_TRUE(disk.is_ok());
  Bytes block(512);
  EXPECT_EQ((*disk)->read(4, block).code(), ErrorCode::kOutOfRange);
}

// ---- FaultyDisk ----------------------------------------------------------------

TEST(FaultyDiskTest, PassesThroughWhenHealthy) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  FaultyDisk disk(inner, {});
  const Bytes data = random_block(5, 256);
  ASSERT_TRUE(disk.write(2, data).is_ok());
  Bytes out(256);
  ASSERT_TRUE(disk.read(2, out).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(disk.ops_seen(), 2u);
}

TEST(FaultyDiskTest, InjectsReadErrorsAtConfiguredRate) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  FaultyDisk::Config config;
  config.read_error_p = 1.0;
  FaultyDisk disk(inner, config);
  Bytes out(256);
  EXPECT_EQ(disk.read(0, out).code(), ErrorCode::kIoError);
  EXPECT_TRUE(disk.write(0, out).is_ok());  // writes unaffected
}

TEST(FaultyDiskTest, FailAfterKillsTheDisk) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  FaultyDisk disk(inner, {});
  disk.fail_after(2);
  Bytes block(256);
  EXPECT_TRUE(disk.read(0, block).is_ok());
  EXPECT_FALSE(disk.read(0, block).is_ok());  // second op trips the wire
  EXPECT_TRUE(disk.is_dead());
  EXPECT_FALSE(disk.write(0, block).is_ok());
  EXPECT_FALSE(disk.flush().is_ok());
  disk.set_dead(false);
  EXPECT_TRUE(disk.read(0, block).is_ok());
}

TEST(FaultyDiskTest, CorruptionFlipsBytes) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  const Bytes data = random_block(6, 256);
  ASSERT_TRUE(inner->write(0, data).is_ok());
  FaultyDisk::Config config;
  config.corrupt_p = 1.0;
  FaultyDisk disk(inner, config);
  Bytes out(256);
  ASSERT_TRUE(disk.read(0, out).is_ok());
  EXPECT_NE(out, data);  // silently corrupted
}

TEST(FaultyDiskTest, PersistentCorruptionLandsOnTheInnerDevice) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  const Bytes data = random_block(9, 256);
  ASSERT_TRUE(inner->write(0, data).is_ok());
  FaultyDisk::Config config;
  config.corrupt_p = 1.0;
  config.corrupt_persistent = true;
  FaultyDisk disk(inner, config);
  Bytes out(256);
  ASSERT_TRUE(disk.read(0, out).is_ok());
  EXPECT_NE(out, data);
  // The flip was written back: the inner device is corrupt at rest.
  Bytes stored(256);
  ASSERT_TRUE(inner->read(0, stored).is_ok());
  EXPECT_EQ(stored, out);
  EXPECT_NE(stored, data);
}

TEST(FaultyDiskTest, TornWritePersistsOnlyAPrefix) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  FaultyDisk::Config config;
  config.torn_write_p = 1.0;
  FaultyDisk disk(inner, config);
  const Bytes data(256, 0xAB);  // inner starts zeroed
  ASSERT_TRUE(disk.write(3, data).is_ok());  // the disk lies: reports success
  EXPECT_EQ(disk.torn_writes(), 1u);
  Bytes out(256);
  ASSERT_TRUE(inner->read(3, out).is_ok());
  // Some non-empty strict prefix landed; the rest still holds old bytes.
  std::size_t kept = 0;
  while (kept < out.size() && out[kept] == 0xAB) ++kept;
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, out.size());
  for (std::size_t i = kept; i < out.size(); ++i) EXPECT_EQ(out[i], 0u);
}

TEST(FaultyDiskTest, CrashAfterTearsTheFatalWriteThenDies) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  FaultyDisk disk(inner, {});
  const Bytes data(256, 0xCD);
  disk.crash_after(2);
  Bytes out(256);
  ASSERT_TRUE(disk.read(0, out).is_ok());                     // op 1
  EXPECT_EQ(disk.write(5, data).code(), ErrorCode::kIoError);  // op 2: crash
  EXPECT_TRUE(disk.is_dead());
  EXPECT_EQ(disk.torn_writes(), 1u);
  // A strict prefix of the dying write persisted.
  ASSERT_TRUE(inner->read(5, out).is_ok());
  std::size_t kept = 0;
  while (kept < out.size() && out[kept] == 0xCD) ++kept;
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, out.size());
  // "Restart" revives the device with the torn state intact.
  disk.set_dead(false);
  Bytes again(256);
  ASSERT_TRUE(disk.read(5, again).is_ok());
  EXPECT_EQ(again, out);
}

TEST(FaultyDiskTest, MarkBadFailsReadsUntilRewritten) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  FaultyDisk disk(inner, {});
  disk.mark_bad(4);
  Bytes block(256);
  EXPECT_EQ(disk.read(4, block).code(), ErrorCode::kDataCorruption);
  // Multi-block reads covering the bad block fail too.
  Bytes two(512);
  EXPECT_EQ(disk.read(3, two).code(), ErrorCode::kDataCorruption);
  EXPECT_TRUE(disk.read(5, block).is_ok());  // neighbours unaffected
  ASSERT_TRUE(disk.write(4, Bytes(256, 0x11)).is_ok());
  EXPECT_TRUE(disk.read(4, block).is_ok());  // rewrite clears the mark
}

TEST(FaultyDiskTest, CorruptBlockIsDeterministicAndSilent) {
  auto inner = std::make_shared<MemDisk>(8, 256);
  const Bytes data = random_block(10, 256);
  ASSERT_TRUE(inner->write(2, data).is_ok());
  FaultyDisk disk(inner, {});
  ASSERT_TRUE(disk.corrupt_block(2, 17).is_ok());
  Bytes out(256);
  ASSERT_TRUE(disk.read(2, out).is_ok());  // silent: the read succeeds
  Bytes expect = data;
  expect[17] ^= 0xFF;
  EXPECT_EQ(out, expect);
  EXPECT_EQ(disk.corrupt_block(9, 0).code(), ErrorCode::kOutOfRange);
}

// ---- StatsDisk ----------------------------------------------------------------

TEST(StatsDiskTest, CountsOpsAndBytes) {
  auto inner = std::make_shared<MemDisk>(8, 512);
  StatsDisk disk(inner);
  Bytes two(1024);
  ASSERT_TRUE(disk.write(0, two).is_ok());
  Bytes one(512);
  ASSERT_TRUE(disk.read(1, one).is_ok());
  ASSERT_TRUE(disk.flush().is_ok());
  const auto c = disk.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.bytes_written, 1024u);
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.bytes_read, 512u);
  EXPECT_EQ(c.flushes, 1u);
  disk.reset();
  EXPECT_EQ(disk.counters().writes, 0u);
}

TEST(StatsDiskTest, FailedOpsNotCounted) {
  auto inner = std::make_shared<MemDisk>(8, 512);
  StatsDisk disk(inner);
  Bytes block(512);
  EXPECT_FALSE(disk.read(100, block).is_ok());
  EXPECT_EQ(disk.counters().reads, 0u);
}

}  // namespace
}  // namespace prins
