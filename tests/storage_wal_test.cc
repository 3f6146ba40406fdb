// WAL unit tests over the fault-injecting in-memory filesystem: append/scan
// roundtrips, the record bytes and their Checksum64 pinned, torn-tail and
// corrupt-record detection, segment rotation, healed append retries after
// injected failures, ENOSPC, and retention deletes. Every degradation must
// be a typed Status plus the longest checksummed-valid prefix — never an
// abort, never silent loss.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "storage/fault_fs.h"
#include "storage/wal.h"

namespace ldp {
namespace {

constexpr char kDir[] = "/wal";

WalOptions AlwaysSync() {
  WalOptions options;
  options.sync = WalSyncPolicy::kAlways;
  return options;
}

Status AppendOne(Wal* wal, uint64_t user, const std::string& bytes) {
  const WalFrameRef ref{user, bytes};
  return wal->Append(std::span<const WalFrameRef>(&ref, 1));
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    hex.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return hex;
}

// Checksum64 guards WAL records, snapshots and report frames, and keys plan
// fingerprints. These outputs were recorded from the byte-at-a-time
// implementation: every length 0-17 (each partial-word tail, with bytes
// >= 0x80), a few whole words and a long input.
TEST(Checksum64Test, OutputsArePinned) {
  const std::pair<size_t, uint64_t> kGoldens[] = {
      {0, 0x429f02c248a3aad2ULL},    {1, 0x06d39ee532290f87ULL},
      {2, 0x66247857ec4edbb6ULL},    {3, 0xddababd7b52e5d80ULL},
      {4, 0x563351aaedb14de1ULL},    {5, 0xda221458db79c619ULL},
      {6, 0xab3fa9cb03dc10f5ULL},    {7, 0xdc983018f74bcfb3ULL},
      {8, 0x12df5d255369a9efULL},    {9, 0xdd817ade69d4e0a0ULL},
      {10, 0xc6048af2bc512427ULL},   {11, 0x04cd93348ea5e525ULL},
      {12, 0xbe5c2c2ff06004feULL},   {13, 0x8985f40fb913c301ULL},
      {14, 0xf616cd5c8f78e846ULL},   {15, 0xf1d06e98932c630dULL},
      {16, 0xf08cf8f28505e4dbULL},   {17, 0x079853f25dd31eeaULL},
      {64, 0xe2868361c7d07acdULL},   {4096, 0xeacbfeacffb1e426ULL},
  };
  for (const auto& [len, expected] : kGoldens) {
    std::string bytes(len, '\0');
    for (size_t i = 0; i < len; ++i) bytes[i] = static_cast<char>(i * 37 + 11);
    EXPECT_EQ(Checksum64(bytes), expected) << "length " << len;
  }
}

// The exact segment bytes of one 3-frame record (an empty frame, bytes
// >= 0x80 and a user id using all 8 bytes among them), recorded before the
// record was encoded into one buffer: the format must not drift.
TEST(WalTest, RecordBytesArePinned) {
  FaultFs fs;
  auto wal = Wal::Open(&fs, kDir, AlwaysSync(), nullptr).ValueOrDie();
  const std::string third("\x00\xffLDPR\x80", 7);
  const WalFrameRef frames[] = {
      {1, "abc"}, {2, ""}, {0xfedcba9876543210ULL, third}};
  ASSERT_TRUE(wal->Append(frames).ok());
  const std::vector<std::string> names = fs.ListDir(kDir).ValueOrDie();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "wal-0000000000000001.log");
  EXPECT_EQ(Hex(fs.ReadFileToString(JoinPath(kDir, names[0])).ValueOrDie()),
            "4c4450570100000001000000000000003a0000009d7f52707f3e4e010100"
            "0000000000000300000001000000000000000300000061626302000000000000"
            "00000000001032547698badcfe0700000000ff4c44505280");
}

TEST(WalTest, EmptyDirectoryOpensAtSeqOne) {
  FaultFs fs;
  WalScan scan;
  auto wal = Wal::Open(&fs, kDir, AlwaysSync(), &scan).ValueOrDie();
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.tail.ok());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.next_seq, 1u);
  EXPECT_EQ(wal->next_seq(), 1u);
}

TEST(WalTest, RoundTripAcrossReopen) {
  FaultFs fs;
  {
    auto wal = Wal::Open(&fs, kDir, AlwaysSync(), nullptr).ValueOrDie();
    ASSERT_TRUE(AppendOne(wal.get(), 1, "alpha").ok());
    const std::string b = "bravo";
    const std::string c = "charlie";
    const WalFrameRef multi[] = {WalFrameRef{2, b}, WalFrameRef{3, c}};
    ASSERT_TRUE(wal->Append(multi).ok());
    EXPECT_EQ(wal->next_seq(), 3u);
  }
  WalScan scan;
  auto wal = Wal::Open(&fs, kDir, AlwaysSync(), &scan).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(scan.tail.ok());
  EXPECT_EQ(scan.records[0].seq, 1u);
  ASSERT_EQ(scan.records[0].frames.size(), 1u);
  EXPECT_EQ(scan.records[0].frames[0].user, 1u);
  EXPECT_EQ(scan.records[0].frames[0].bytes, "alpha");
  EXPECT_EQ(scan.records[1].seq, 2u);
  ASSERT_EQ(scan.records[1].frames.size(), 2u);
  EXPECT_EQ(scan.records[1].frames[0].user, 2u);
  EXPECT_EQ(scan.records[1].frames[1].user, 3u);
  EXPECT_EQ(scan.records[1].frames[1].bytes, "charlie");
  EXPECT_EQ(wal->next_seq(), 3u);
}

TEST(WalTest, TornTailAfterCrashDegradesToValidPrefix) {
  FaultFs fs;
  WalOptions options;
  options.sync = WalSyncPolicy::kNever;
  {
    auto wal = Wal::Open(&fs, kDir, options, nullptr).ValueOrDie();
    ASSERT_TRUE(AppendOne(wal.get(), 1, "one").ok());
    ASSERT_TRUE(AppendOne(wal.get(), 2, "two").ok());
    ASSERT_TRUE(wal->SyncNow().ok());  // records 1-2 reach the platter
    ASSERT_TRUE(AppendOne(wal.get(), 3, "three").ok());  // page cache only
  }
  fs.Reboot(FaultFs::TearMode::kTearUnsynced);  // half of record 3 survives

  WalScan scan;
  auto wal = Wal::Open(&fs, kDir, options, &scan).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.tail.ok());
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_GT(scan.dropped_bytes, 0u);
  EXPECT_EQ(wal->next_seq(), 3u);  // seq 3 never committed; it is reused
  ASSERT_TRUE(AppendOne(wal.get(), 3, "three-retry").ok());
  ASSERT_TRUE(wal->SyncNow().ok());

  // The retried seq lands in a fresh segment and the scan heals across the
  // torn boundary: all three records, tail OK.
  WalScan healed;
  (void)Wal::Open(&fs, kDir, options, &healed).ValueOrDie();
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_TRUE(healed.tail.ok());
  EXPECT_EQ(healed.records[2].frames[0].bytes, "three-retry");
}

TEST(WalTest, DroppedUnsyncedTailIsCleanLoss) {
  FaultFs fs;
  WalOptions options;
  options.sync = WalSyncPolicy::kNever;
  {
    auto wal = Wal::Open(&fs, kDir, options, nullptr).ValueOrDie();
    ASSERT_TRUE(AppendOne(wal.get(), 1, "one").ok());
    ASSERT_TRUE(wal->SyncNow().ok());
    ASSERT_TRUE(AppendOne(wal.get(), 2, "two").ok());  // never synced
  }
  fs.Reboot(FaultFs::TearMode::kDropUnsynced);
  WalScan scan;
  (void)Wal::Open(&fs, kDir, options, &scan).ValueOrDie();
  // Record 2 vanished wholesale: the log simply ends after record 1.
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.tail.ok());
  EXPECT_FALSE(scan.torn_tail);
}

TEST(WalTest, CorruptRecordStopsScanWithTypedStatus) {
  FaultFs fs;
  std::string path;
  {
    auto wal = Wal::Open(&fs, kDir, AlwaysSync(), nullptr).ValueOrDie();
    ASSERT_TRUE(AppendOne(wal.get(), 1, "one").ok());
    ASSERT_TRUE(AppendOne(wal.get(), 2, "two").ok());
    ASSERT_TRUE(AppendOne(wal.get(), 3, "sixteen").ok());
  }
  // Flip a byte inside record 2's body. Records 2 and 3 carry 3- and
  // 7-byte payloads: record = 12 header + (8 seq + 4 count + 12 + len) body.
  const uint64_t record3_size = 12 + 24 + 7;
  fs.CorruptByte(JoinPath(kDir, "wal-0000000000000001.log"),
                 record3_size + 4);

  WalScan scan;
  auto wal = Wal::Open(&fs, kDir, AlwaysSync(), &scan).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_FALSE(scan.tail.ok());
  EXPECT_FALSE(scan.torn_tail);  // checksum failure, not a short tail
  EXPECT_GT(scan.dropped_bytes, 0u);
  // The log still accepts new records (in a fresh segment at seq 2).
  ASSERT_TRUE(AppendOne(wal.get(), 2, "two-retry").ok());
  WalScan healed;
  (void)Wal::Open(&fs, kDir, AlwaysSync(), &healed).ValueOrDie();
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_TRUE(healed.tail.ok());
  EXPECT_EQ(healed.records[1].frames[0].bytes, "two-retry");
}

TEST(WalTest, RotationSplitsSegmentsAndRetentionDeletesThem) {
  FaultFs fs;
  WalOptions options = AlwaysSync();
  options.segment_bytes = 1;  // every append rotates
  auto wal = Wal::Open(&fs, kDir, options, nullptr).ValueOrDie();
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(AppendOne(wal.get(), i, "payload").ok());
  }
  EXPECT_TRUE(fs.FileExists(JoinPath(kDir, "wal-0000000000000001.log"))
                  .ValueOrDie());
  ASSERT_TRUE(wal->DeleteSegmentsThrough(3).ok());
  EXPECT_FALSE(fs.FileExists(JoinPath(kDir, "wal-0000000000000001.log"))
                   .ValueOrDie());
  EXPECT_FALSE(fs.FileExists(JoinPath(kDir, "wal-0000000000000003.log"))
                   .ValueOrDie());
  WalScan scan;
  (void)Wal::Open(&fs, kDir, options, &scan).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 4u);
  EXPECT_EQ(scan.records[1].seq, 5u);
  EXPECT_TRUE(scan.tail.ok());
}

TEST(WalTest, EnospcFailsTypedAndPreservesPrefix) {
  FaultFs::Options fault;
  fault.disk_budget_bytes = 200;
  FaultFs fs(fault);
  auto wal = Wal::Open(&fs, kDir, AlwaysSync(), nullptr).ValueOrDie();
  uint64_t committed = 0;
  Status first_failure = Status::OK();
  for (uint64_t i = 1; i <= 64; ++i) {
    const Status appended = AppendOne(wal.get(), i, "padding-padding");
    if (!appended.ok()) {
      first_failure = appended;
      break;
    }
    ++committed;
  }
  ASSERT_FALSE(first_failure.ok());
  EXPECT_EQ(first_failure.code(), StatusCode::kIoError);
  EXPECT_GT(committed, 0u);

  fs.Reboot(FaultFs::TearMode::kDropUnsynced);
  WalScan scan;
  (void)Wal::Open(&fs, kDir, AlwaysSync(), &scan).ValueOrDie();
  // Every committed (synced) record survives; the short-written one is
  // detected and set aside, never half-replayed.
  EXPECT_EQ(scan.records.size(), committed);
}

TEST(WalTest, InjectedShortWritesHealAcrossRetries) {
  FaultFs::Options fault;
  fault.short_write_every = 5;
  FaultFs fs(fault);
  auto wal = Wal::Open(&fs, kDir, AlwaysSync(), nullptr).ValueOrDie();
  uint64_t committed = 0;
  uint64_t failures = 0;
  while (committed < 8) {
    const Status appended =
        AppendOne(wal.get(), committed + 1, "frame-payload");
    if (appended.ok()) {
      ++committed;
    } else {
      ++failures;
      ASSERT_LT(failures, 64u) << "append never recovered";
    }
  }
  ASSERT_GT(failures, 0u);  // the fault actually fired
  WalScan scan;
  (void)Wal::Open(&fs, kDir, AlwaysSync(), &scan).ValueOrDie();
  ASSERT_EQ(scan.records.size(), 8u);
  EXPECT_TRUE(scan.tail.ok());  // every torn boundary healed by a retry
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
    EXPECT_EQ(scan.records[i].frames[0].user, i + 1);
  }
}

TEST(WalTest, SyncPolicyNameRoundTrip) {
  for (const WalSyncPolicy policy :
       {WalSyncPolicy::kNever, WalSyncPolicy::kBatch, WalSyncPolicy::kAlways}) {
    EXPECT_EQ(WalSyncPolicyFromString(WalSyncPolicyName(policy)).ValueOrDie(),
              policy);
  }
  EXPECT_FALSE(WalSyncPolicyFromString("sometimes").ok());
}

}  // namespace
}  // namespace ldp
