// Snapshot file tests: checksummed roundtrip, the file bytes pinned,
// quarantine-and-fall-back on corruption (flipped header byte, malformed
// entry section), spec mismatch refusal, retention deletes, and .tmp
// leftovers being invisible to recovery.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/fault_fs.h"
#include "storage/snapshot.h"

namespace ldp {
namespace {

constexpr char kDir[] = "/snap";
constexpr char kSpec[] = "spec-v1";

SnapshotData MakeData(uint64_t wal_seq, uint64_t accepted) {
  SnapshotData data;
  data.wal_seq = wal_seq;
  data.accepted = accepted;
  data.duplicate = 2;
  data.corrupt = 3;
  data.rejected = 1;
  data.spec = kSpec;
  for (uint64_t i = 0; i < accepted; ++i) {
    AppendSnapshotEntry(&data, 100 + i,
                        "payload-" + std::to_string(wal_seq) + "-" +
                            std::to_string(i));
  }
  return data;
}

Status Write(Fs& fs, const SnapshotData& data) {
  return WriteSnapshotFile(fs, kDir, data);
}

/// The entries of a section, copied out of it, in order.
std::vector<std::pair<uint64_t, std::string>> Entries(
    std::string_view section) {
  std::vector<std::pair<uint64_t, std::string>> entries;
  SnapshotEntry entry;
  for (size_t pos = 0; NextSnapshotEntry(section, &pos, &entry);) {
    entries.emplace_back(entry.user, std::string(entry.payload));
  }
  return entries;
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

TEST(SnapshotTest, WriteLoadRoundTrip) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  const SnapshotData data = MakeData(/*wal_seq=*/7, /*accepted=*/4);
  ASSERT_TRUE(Write(fs, data).ok());

  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.quarantined, 0u);
  EXPECT_TRUE(load.note.ok());
  EXPECT_EQ(load.data.wal_seq, 7u);
  EXPECT_EQ(load.data.accepted, 4u);
  EXPECT_EQ(load.data.duplicate, 2u);
  EXPECT_EQ(load.data.corrupt, 3u);
  EXPECT_EQ(load.data.rejected, 1u);
  EXPECT_EQ(load.data.spec, kSpec);
  EXPECT_EQ(load.data.entry_count, 4u);
  EXPECT_EQ(load.data.entries, data.entries);  // the section, byte for byte
  const auto entries = Entries(load.data.entries);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].first, 100u);
  EXPECT_EQ(entries[3].first, 103u);
  EXPECT_EQ(entries[3].second, "payload-7-3");
}

// The exact bytes of a 3-entry snapshot (an empty payload, bytes >= 0x80 and
// a user id using all 8 bytes among them), recorded before the retained
// sequence was held in this encoding: the format must not drift.
TEST(SnapshotTest, FileBytesArePinned) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  SnapshotData data;
  data.wal_seq = 7;
  data.accepted = 3;
  data.duplicate = 2;
  data.corrupt = 1;
  data.rejected = 4;
  data.spec = kSpec;
  AppendSnapshotEntry(&data, 100, "p0");
  AppendSnapshotEntry(&data, 0x0123456789abcdefULL, "");
  AppendSnapshotEntry(&data, 102, std::string("\x00\xff\x80z", 4));
  ASSERT_EQ(data.entry_count, 3u);
  ASSERT_TRUE(Write(fs, data).ok());
  const std::string bytes =
      fs.ReadFileToString(JoinPath(kDir, SnapshotFileName(7))).ValueOrDie();
  EXPECT_EQ(Hex(bytes),
            "4c44505301000000b3a89b9c5950075f070000000000000003000000000000"
            "0002000000000000000100000000000000040000000000000007000000737065"
            "632d763103000000000000006400000000000000020000007030efcdab896745"
            "23010000000066000000000000000400000000ff807a");
}

// A checksum-valid body whose entry section ends inside an entry, or runs
// past the last one, is a writer bug: the load quarantines the file rather
// than trust its offsets.
TEST(SnapshotTest, MalformedEntrySectionIsQuarantined) {
  for (const bool cut_short : {true, false}) {
    SnapshotData data = MakeData(/*wal_seq=*/5, /*accepted=*/2);
    if (cut_short) {
      data.entries.pop_back();
    } else {
      data.entries.push_back('x');
    }
    FaultFs fs;
    ASSERT_TRUE(fs.CreateDir(kDir).ok());
    ASSERT_TRUE(Write(fs, data).ok());
    const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
    EXPECT_FALSE(load.loaded) << cut_short;
    EXPECT_EQ(load.quarantined, 1u) << cut_short;
  }
}

TEST(SnapshotTest, NoDirectoryMeansEmptyLoad) {
  FaultFs fs;
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  EXPECT_FALSE(load.loaded);
  EXPECT_EQ(load.quarantined, 0u);
}

TEST(SnapshotTest, NewestWins) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  ASSERT_TRUE(Write(fs, MakeData(9, 6)).ok());
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.data.wal_seq, 9u);
  EXPECT_EQ(load.data.entry_count, 6u);
  EXPECT_EQ(Entries(load.data.entries).size(), 6u);
}

TEST(SnapshotTest, FlippedHeaderByteQuarantinesAndFallsBackToOlder) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  ASSERT_TRUE(Write(fs, MakeData(9, 6)).ok());
  // Flip a byte in the newest snapshot's checksum field (header byte 8).
  const std::string newest = JoinPath(kDir, SnapshotFileName(9));
  const uint64_t size =
      fs.ReadFileToString(newest).ValueOrDie().size();
  fs.CorruptByte(newest, size - 9);

  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.data.wal_seq, 5u);  // older generation took over
  EXPECT_EQ(load.quarantined, 1u);
  EXPECT_FALSE(load.note.ok());
  // The corrupt file was renamed out of the scan, not deleted.
  EXPECT_FALSE(fs.FileExists(newest).ValueOrDie());
  EXPECT_TRUE(fs.FileExists(newest + ".quarantined").ValueOrDie());
}

TEST(SnapshotTest, CorruptOnlySnapshotFallsBackToEmpty) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  fs.CorruptByte(JoinPath(kDir, SnapshotFileName(5)), 0);  // body tail
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  EXPECT_FALSE(load.loaded);  // caller degrades to full WAL replay
  EXPECT_EQ(load.quarantined, 1u);
  EXPECT_FALSE(load.note.ok());
}

TEST(SnapshotTest, SpecMismatchRefusesRecovery) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  const auto load = LoadLatestSnapshot(fs, kDir, "some-other-spec");
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, TmpLeftoverIsInvisible) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  // A crash between .tmp write and rename leaves this file behind.
  auto tmp =
      fs.OpenAppend(JoinPath(kDir, SnapshotFileName(9) + ".tmp")).ValueOrDie();
  ASSERT_TRUE(tmp->Append("half-written garbage").ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  EXPECT_EQ(load.data.wal_seq, 5u);
  EXPECT_EQ(load.quarantined, 0u);
}

TEST(SnapshotTest, RemoveSnapshotsBelowKeepsNewerGenerations) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, MakeData(3, 1)).ok());
  ASSERT_TRUE(Write(fs, MakeData(5, 2)).ok());
  ASSERT_TRUE(Write(fs, MakeData(9, 3)).ok());
  ASSERT_TRUE(RemoveSnapshotsBelow(fs, kDir, 5).ok());
  EXPECT_FALSE(
      fs.FileExists(JoinPath(kDir, SnapshotFileName(3))).ValueOrDie());
  EXPECT_TRUE(
      fs.FileExists(JoinPath(kDir, SnapshotFileName(5))).ValueOrDie());
  EXPECT_TRUE(
      fs.FileExists(JoinPath(kDir, SnapshotFileName(9))).ValueOrDie());
}

}  // namespace
}  // namespace ldp
