// Snapshot file tests: checksummed roundtrip, the file bytes pinned,
// quarantine-and-fall-back on corruption (flipped header byte, malformed
// entry section), spec mismatch refusal, retention deletes, and .tmp
// leftovers being invisible to recovery. The writer streams the entry
// section chunk by chunk, so its piecewise checksum must equal Checksum64
// of the whole file body however the bytes are split.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
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

/// The entries of a section, copied out of its chunks, in order.
std::vector<std::pair<uint64_t, std::string>> Entries(
    const std::vector<std::string>& chunks) {
  std::vector<std::pair<uint64_t, std::string>> entries;
  SnapshotEntry entry;
  for (const std::string& chunk : chunks) {
    for (size_t pos = 0; NextSnapshotEntry(chunk, &pos, &entry);) {
      entries.emplace_back(entry.user, std::string(entry.payload));
    }
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
      data.entries.back().pop_back();
    } else {
      data.entries.back().push_back('x');
    }
    FaultFs fs;
    ASSERT_TRUE(fs.CreateDir(kDir).ok());
    ASSERT_TRUE(Write(fs, data).ok());
    const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
    EXPECT_FALSE(load.loaded) << cut_short;
    EXPECT_EQ(load.quarantined, 1u) << cut_short;
  }
}

// Random strings split at random: empty pieces, pieces of 1-15 bytes (so
// cuts fall inside 8-byte words, and a word can span three pieces), and
// longer ones; then every cut of a 24-byte string into two and three pieces.
TEST(Checksum64StreamTest, PiecewiseEqualsChecksum64OfTheConcatenation) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = rng.UniformInt(trial < 1000 ? 40 : 400);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformInt(256));
    Checksum64Stream stream(len);
    size_t pos = 0;
    do {
      const uint64_t kind = rng.UniformInt(4);
      size_t piece = kind == 0   ? 0
                     : kind < 3 ? 1 + rng.UniformInt(15)
                                : rng.UniformInt(100);
      piece = std::min(piece, len - pos);
      stream.Update(std::string_view(bytes).substr(pos, piece));
      pos += piece;
    } while (pos < len || rng.UniformInt(2) == 0);
    EXPECT_EQ(stream.Finish(), Checksum64(bytes)) << "trial " << trial;
  }
  std::string word3(24, '\0');
  for (size_t i = 0; i < word3.size(); ++i) {
    word3[i] = static_cast<char>(0x80 + 7 * i);
  }
  const std::string_view all(word3);
  for (size_t a = 0; a <= all.size(); ++a) {
    for (size_t b = a; b <= all.size(); ++b) {
      Checksum64Stream stream(all.size());
      stream.Update(all.substr(0, a));
      stream.Update(all.substr(a, b - a));
      stream.Update(all.substr(b));
      EXPECT_EQ(stream.Finish(), Checksum64(all)) << a << " " << b;
    }
  }
}

// A section of many chunks writes the same file as the same entries
// appended to one string would: the entries are the bytes, chunk borders
// are not.
TEST(SnapshotTest, ChunkedSectionWritesTheContiguousBytes) {
  SnapshotData data = MakeData(/*wal_seq=*/3, /*accepted=*/0);
  std::string contiguous;
  const std::string payload(1000, 'p');
  while (data.entries.size() < 4) {
    const uint64_t user = data.entry_count;
    AppendSnapshotEntry(&data, user, payload);
    PutU64(&contiguous, user);
    PutU32(&contiguous, static_cast<uint32_t>(payload.size()));
    contiguous += payload;
  }
  data.accepted = data.entry_count;
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir(kDir).ok());
  ASSERT_TRUE(Write(fs, data).ok());
  const SnapshotLoad load = LoadLatestSnapshot(fs, kDir, kSpec).ValueOrDie();
  ASSERT_TRUE(load.loaded);
  ASSERT_EQ(load.data.entries.size(), 1u);  // a load is one chunk
  EXPECT_EQ(load.data.entries[0], contiguous);
  EXPECT_EQ(load.data.entry_count, data.entry_count);
  EXPECT_EQ(Entries(load.data.entries), Entries(data.entries));
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
