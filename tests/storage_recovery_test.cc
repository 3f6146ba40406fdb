// Crash-recovery tests for the durable CollectionServer: recovered servers
// must be *bit-identical* to a process that never crashed — same estimates,
// same IngestStats (quarantine counters included), same dedup decisions —
// across thread counts and with the estimate cache on or off. Degraded
// artifacts (torn WAL tails, corrupt snapshots) must shrink recovery to the
// longest checksummed-valid prefix with a typed Status, never abort it.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "engine/protocol.h"
#include "obs/metrics.h"
#include "storage/fault_fs.h"

namespace ldp {
namespace {

constexpr char kDir[] = "/campaign";

Schema TestSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("age", 54).ok());
  EXPECT_TRUE(schema.AddCategorical("state", 6).ok());
  return schema;
}

const std::vector<std::vector<Interval>>& QueryBoxes() {
  static const auto* boxes = new std::vector<std::vector<Interval>>{
      {{10, 40}, {2, 2}},
      {{0, 53}, {0, 5}},
      {{5, 12}, {1, 4}},
  };
  return *boxes;
}

struct Workload {
  CollectionSpec spec;
  std::vector<std::string> frames;  // wire bytes, ingest order
  std::vector<uint64_t> users;
};

// `n` frames mixing the three non-accepted fates in: every 7th frame (mod 3)
// repeats the previous frame's user (duplicate), every 11th (mod 5) has a
// flipped payload byte (corrupt). The durable server must replay all of them
// to the same fates the reference server decides.
Workload MakeWorkload(uint64_t n) {
  Workload w;
  MechanismParams params;
  params.epsilon = 2.0;
  w.spec = CollectionSpec::FromSchema(TestSchema(), MechanismKind::kHio,
                                      params);
  const LdpClient client = LdpClient::Create(w.spec).ValueOrDie();
  Rng rng(41);
  Rng data_rng(42);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t user = (i > 0 && i % 7 == 3) ? w.users[i - 1] : i;
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(data_rng.UniformInt(54)),
        static_cast<uint32_t>(data_rng.UniformInt(6))};
    std::string frame = client.EncodeUser(values, rng).ValueOrDie();
    if (i % 11 == 5) frame.back() ^= 0x5a;  // fails the frame checksum
    w.frames.push_back(std::move(frame));
    w.users.push_back(user);
  }
  return w;
}

struct Observed {
  IngestStats stats;
  uint64_t num_reports = 0;
  std::vector<double> estimates;  // one per query box; empty if none accepted
};

Observed Observe(const CollectionServer& server) {
  Observed o;
  o.stats = server.ingest_stats();
  o.num_reports = server.num_reports();
  if (o.stats.accepted > 0) {
    const WeightVector weights = WeightVector::Ones(1000);
    for (const auto& box : QueryBoxes()) {
      o.estimates.push_back(server.EstimateBox(box, weights).ValueOrDie());
    }
  }
  return o;
}

void ExpectIdentical(const Observed& recovered, const Observed& reference) {
  EXPECT_EQ(recovered.stats.accepted, reference.stats.accepted);
  EXPECT_EQ(recovered.stats.duplicate, reference.stats.duplicate);
  EXPECT_EQ(recovered.stats.corrupt, reference.stats.corrupt);
  EXPECT_EQ(recovered.stats.rejected, reference.stats.rejected);
  EXPECT_EQ(recovered.num_reports, reference.num_reports);
  ASSERT_EQ(recovered.estimates.size(), reference.estimates.size());
  for (size_t b = 0; b < reference.estimates.size(); ++b) {
    // Bitwise equality, not approximate: recovery must replay the exact
    // accepted sequence through the exact deterministic estimators.
    EXPECT_EQ(recovered.estimates[b], reference.estimates[b]) << "box " << b;
  }
}

// Reference: a never-durable server fed the same frames one at a time.
Observed ReferenceRun(const Workload& w, uint64_t n) {
  CollectionServer server = CollectionServer::Create(w.spec).ValueOrDie();
  for (uint64_t i = 0; i < n; ++i) {
    (void)server.Ingest(w.frames[i], w.users[i]);
  }
  return Observe(server);
}

StorageOptions MakeStorage(FaultFs* fs, uint64_t snapshot_every) {
  StorageOptions storage;
  storage.dir = kDir;
  storage.fs = fs;
  storage.sync = WalSyncPolicy::kAlways;
  storage.snapshot_every_frames = snapshot_every;
  return storage;
}

TEST(StorageRecoveryTest, EmptyDirectoryIsAFreshServer) {
  const Workload w = MakeWorkload(4);
  FaultFs fs;
  CollectionServer server =
      CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 0))
          .ValueOrDie();
  ASSERT_NE(server.recovery_info(), nullptr);
  EXPECT_FALSE(server.recovery_info()->snapshot_loaded);
  EXPECT_EQ(server.recovery_info()->replayed_frames, 0u);
  EXPECT_TRUE(server.recovery_info()->degradation.ok());
  for (uint64_t i = 0; i < 4; ++i) {
    (void)server.Ingest(w.frames[i], w.users[i]);
  }
  EXPECT_EQ(server.ingest_stats().total(), 4u);
}

TEST(StorageRecoveryTest, EmptyWalRecoversToEmptyServer) {
  const Workload w = MakeWorkload(1);
  FaultFs fs;
  { // Open (creating the directory and nothing else), then "crash".
    (void)CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 0))
        .ValueOrDie();
  }
  fs.Reboot(FaultFs::TearMode::kDropUnsynced);
  CollectionServer recovered =
      CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 0))
          .ValueOrDie();
  EXPECT_EQ(recovered.num_reports(), 0u);
  EXPECT_EQ(recovered.ingest_stats().total(), 0u);
  EXPECT_TRUE(recovered.recovery_info()->degradation.ok());
  // Estimating from nothing stays a typed error, exactly like a fresh server.
  const auto estimate =
      recovered.EstimateBox(QueryBoxes()[0], WeightVector::Ones(1000));
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kFailedPrecondition);
}

// The full matrix the acceptance criteria name: num_threads x estimate
// cache, each recovering the same crashed directory bit-identically.
TEST(StorageRecoveryTest, RecoveredStateMatchesReferenceAcrossThreadsAndCache) {
  constexpr uint64_t kFrames = 48;
  const Workload w = MakeWorkload(kFrames);
  const Observed reference = ReferenceRun(w, kFrames);

  for (const int num_threads : {1, 8}) {
    for (const size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
      FaultFs fs;
      {
        CollectionServer server =
            CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 16),
                                            num_threads)
                .ValueOrDie();
        if (cache_bytes > 0) server.EnableEstimateCache(cache_bytes);
        for (uint64_t i = 0; i < kFrames; ++i) {
          (void)server.Ingest(w.frames[i], w.users[i]);
        }
        ExpectIdentical(Observe(server), reference);
      }
      fs.Reboot(FaultFs::TearMode::kDropUnsynced);  // hard power cut

      CollectionServer recovered =
          CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 16),
                                          num_threads)
              .ValueOrDie();
      if (cache_bytes > 0) recovered.EnableEstimateCache(cache_bytes);
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " cache=" + std::to_string(cache_bytes));
      ASSERT_NE(recovered.recovery_info(), nullptr);
      EXPECT_TRUE(recovered.recovery_info()->snapshot_loaded);
      ExpectIdentical(Observe(recovered), reference);
      // Second read exercises the estimate-cache hit path when enabled and
      // must reproduce the same doubles.
      ExpectIdentical(Observe(recovered), reference);
      // Dedup state survived: an accepted user's retry is still a duplicate.
      EXPECT_TRUE(recovered.has_report(0));
      const Status retry = recovered.Ingest(w.frames[0], w.users[0]);
      EXPECT_EQ(retry.code(), StatusCode::kAlreadyExists);
    }
  }
}

TEST(StorageRecoveryTest, BatchIngestRecoversIdentically) {
  constexpr uint64_t kFrames = 45;
  const Workload w = MakeWorkload(kFrames);

  // Reference uses the batch path too (its fates are Ingest-equivalent).
  CollectionServer reference = CollectionServer::Create(w.spec).ValueOrDie();
  std::vector<CollectionServer::ReportFrame> frames;
  for (uint64_t i = 0; i < kFrames; ++i) {
    frames.push_back(CollectionServer::ReportFrame{w.frames[i], w.users[i]});
  }
  const std::span<const CollectionServer::ReportFrame> all(frames);
  ASSERT_TRUE(reference.IngestBatch(all.subspan(0, 15)).ok());
  ASSERT_TRUE(reference.IngestBatch(all.subspan(15, 15)).ok());
  ASSERT_TRUE(reference.IngestBatch(all.subspan(30, 15)).ok());
  const Observed expected = Observe(reference);

  FaultFs fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 20),
                                        /*num_threads=*/8)
            .ValueOrDie();
    ASSERT_TRUE(server.IngestBatch(all.subspan(0, 15)).ok());
    ASSERT_TRUE(server.IngestBatch(all.subspan(15, 15)).ok());
    ASSERT_TRUE(server.IngestBatch(all.subspan(30, 15)).ok());
    ASSERT_TRUE(server.Flush().ok());
  }
  fs.Reboot(FaultFs::TearMode::kDropUnsynced);
  CollectionServer recovered =
      CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 20),
                                      /*num_threads=*/8)
          .ValueOrDie();
  ExpectIdentical(Observe(recovered), expected);
  EXPECT_GT(GlobalMetrics().counter("storage.wal_appends")->value(), 0u);
  EXPECT_GT(
      GlobalMetrics().counter("storage.recovery_replayed_frames")->value(),
      0u);
}

// A snapshot that does not fit on the disk fails, and the next automatic
// attempt waits a full interval: retrying on every later ingest call would
// re-serialize the whole retained sequence each time. The server reopens a
// directory whose WAL already holds 192 frames, so every snapshot carries
// them and outgrows the space left, while the disk budget is exactly the WAL
// of the whole run (measured by a run without snapshots): every WAL append
// fits, every snapshot fails, and its partial .tmp file is removed.
TEST(StorageRecoveryTest, FailedSnapshotWaitsAFullInterval) {
  constexpr uint64_t kRestored = 192;
  constexpr uint64_t kFrames = 128;  // ingested after the reopen
  constexpr uint64_t kBatch = 4;
  constexpr uint64_t kEvery = 64;
  const Workload w = MakeWorkload(kRestored + kFrames);
  std::vector<CollectionServer::ReportFrame> frames;
  for (uint64_t i = 0; i < kRestored + kFrames; ++i) {
    frames.push_back(CollectionServer::ReportFrame{w.frames[i], w.users[i]});
  }
  const std::span<const CollectionServer::ReportFrame> all(frames);
  // Ingests the first kRestored frames, reopens with `snapshot_every`, and
  // returns the reopened server after `before_batch` runs ahead of each of
  // its batches.
  const auto run = [&](FaultFs* fs, uint64_t snapshot_every,
                       const std::function<void(uint64_t)>& before_batch) {
    {
      CollectionServer server =
          CollectionServer::CreateDurable(w.spec, MakeStorage(fs, 0))
              .ValueOrDie();
      for (uint64_t i = 0; i < kRestored; i += kBatch) {
        EXPECT_TRUE(server.IngestBatch(all.subspan(i, kBatch)).ok());
      }
    }
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(fs, snapshot_every))
            .ValueOrDie();
    for (uint64_t i = 0; i < kFrames; i += kBatch) {
      before_batch(i);
      EXPECT_TRUE(server.IngestBatch(all.subspan(kRestored + i, kBatch)).ok())
          << "frame " << i;
    }
    return server;
  };

  uint64_t wal_bytes = 0;
  {
    FaultFs fs;
    (void)run(&fs, 0, [](uint64_t) {});
    const std::vector<std::string> names = fs.ListDir(kDir).ValueOrDie();
    for (const std::string& name : names) {
      wal_bytes +=
          fs.ReadFileToString(JoinPath(kDir, name)).ValueOrDie().size();
    }
  }

  FaultFs::Options options;
  options.disk_budget_bytes = wal_bytes;
  FaultFs fs(options);
  Counter* failures = GlobalMetrics().counter("storage.snapshot_failures");
  Counter* writes = GlobalMetrics().counter("storage.snapshot_writes");
  const uint64_t failures0 = failures->value();
  const uint64_t writes0 = writes->value();
  const CollectionServer server = run(&fs, kEvery, [&](uint64_t i) {
    // Before frame i, only the intervals that ended by frame i may have
    // had their one attempt.
    EXPECT_LE(failures->value() - failures0, i / kEvery) << "frame " << i;
  });
  EXPECT_EQ(writes->value() - writes0, 0u);
  EXPECT_EQ(failures->value() - failures0, kFrames / kEvery);
  EXPECT_FALSE(server.last_snapshot_status().ok());
}

// A batch whose WAL append fails (the disk fills mid-record) must leave the
// live server exactly as it was: the decode that runs beside the append
// writes only the call's own per-frame slots, and nothing is committed
// before the append returns OK.
TEST(StorageRecoveryTest, FailedWalAppendLeavesTheLiveServerUntouched) {
  constexpr uint64_t kBatch = 20;
  const Workload w = MakeWorkload(3 * kBatch);
  std::vector<CollectionServer::ReportFrame> frames;
  for (uint64_t i = 0; i < 3 * kBatch; ++i) {
    frames.push_back(CollectionServer::ReportFrame{w.frames[i], w.users[i]});
  }
  const std::span<const CollectionServer::ReportFrame> all(frames);

  // The disk holds exactly the WAL of the first two batches (measured on an
  // unbounded disk), so the third batch's append is a short write.
  uint64_t budget = 0;
  {
    FaultFs fs;
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 0))
            .ValueOrDie();
    ASSERT_TRUE(server.IngestBatch(all.subspan(0, kBatch)).ok());
    ASSERT_TRUE(server.IngestBatch(all.subspan(kBatch, kBatch)).ok());
    const std::vector<std::string> names = fs.ListDir(kDir).ValueOrDie();
    for (const std::string& name : names) {
      budget += fs.ReadFileToString(JoinPath(kDir, name)).ValueOrDie().size();
    }
  }

  for (const int num_threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    FaultFs::Options options;
    options.disk_budget_bytes = budget;
    FaultFs fs(options);
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 0),
                                        num_threads)
            .ValueOrDie();
    ASSERT_TRUE(server.IngestBatch(all.subspan(0, kBatch)).ok());
    ASSERT_TRUE(server.IngestBatch(all.subspan(kBatch, kBatch)).ok());
    const Observed before = Observe(server);
    std::vector<bool> had_report;
    for (const uint64_t user : w.users) {
      had_report.push_back(server.has_report(user));
    }
    ASSERT_FALSE(had_report[2 * kBatch]);  // the failed batch brings new users

    const Status failed = server.IngestBatch(all.subspan(2 * kBatch, kBatch));
    EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
    ExpectIdentical(Observe(server), before);
    for (size_t i = 0; i < w.users.size(); ++i) {
      EXPECT_EQ(server.has_report(w.users[i]), had_report[i]) << "frame " << i;
    }
  }
}

// The reopened server restores from the snapshot section its store adopted,
// and replay and later ingest append to that section, so its next snapshot
// is byte for byte the one a server that never restarted writes at the same
// WAL position.
TEST(StorageRecoveryTest, ReopenedServerWritesTheSameNextSnapshot) {
  constexpr uint64_t kBatch = 10;
  const Workload w = MakeWorkload(6 * kBatch);
  std::vector<CollectionServer::ReportFrame> frames;
  for (uint64_t i = 0; i < 6 * kBatch; ++i) {
    frames.push_back(CollectionServer::ReportFrame{w.frames[i], w.users[i]});
  }
  const std::span<const CollectionServer::ReportFrame> all(frames);
  const auto ingest = [&](CollectionServer& server, uint64_t first_batch,
                          uint64_t end_batch) {
    for (uint64_t b = first_batch; b < end_batch; ++b) {
      ASSERT_TRUE(server.IngestBatch(all.subspan(b * kBatch, kBatch)).ok());
    }
  };

  // Never restarted: a snapshot every 2 batches, the third at WAL seq 6.
  FaultFs steady_fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec,
                                        MakeStorage(&steady_fs, 2 * kBatch))
            .ValueOrDie();
    ingest(server, 0, 6);
  }
  // Restarted after 3 batches: it reopens from the snapshot at seq 2 plus
  // one replayed record, with a 3-batch interval so that its next snapshot
  // is due at seq 6 too.
  FaultFs restarted_fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec,
                                        MakeStorage(&restarted_fs, 2 * kBatch))
            .ValueOrDie();
    ingest(server, 0, 3);
  }
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec,
                                        MakeStorage(&restarted_fs, 3 * kBatch))
            .ValueOrDie();
    ASSERT_TRUE(server.recovery_info()->snapshot_loaded);
    EXPECT_EQ(server.recovery_info()->snapshot_wal_seq, 2u);
    EXPECT_EQ(server.recovery_info()->replayed_records, 1u);
    ingest(server, 3, 6);
  }

  const std::string name = JoinPath(kDir, SnapshotFileName(6));
  const std::string steady = steady_fs.ReadFileToString(name).ValueOrDie();
  EXPECT_EQ(restarted_fs.ReadFileToString(name).ValueOrDie(), steady);
}

// The same, with a retained section of many chunks: HI reports over OUE
// (~250 bytes each) in batches sized so that the snapshot at WAL seq 6
// holds more than 4 chunks. The restarted server's section is the adopted
// snapshot (one chunk) plus the chunks it appended since, so its chunk
// borders differ from the steady server's; its restored estimates must
// equal those of a server that never restarted, and its next snapshot the
// steady server's bytes.
TEST(StorageRecoveryTest, ManyChunkSectionRecoversAndWritesTheSameSnapshot) {
  MechanismParams params;
  params.epsilon = 2.0;
  params.fo_kind = FoKind::kOue;
  const CollectionSpec spec =
      CollectionSpec::FromSchema(TestSchema(), MechanismKind::kHi, params);
  const LdpClient client = LdpClient::Create(spec).ValueOrDie();
  Rng rng(43);
  const auto encode = [&](uint64_t i) {
    const std::vector<uint32_t> values = {static_cast<uint32_t>(i % 54),
                                          static_cast<uint32_t>(i % 6)};
    return client.EncodeUser(values, rng).ValueOrDie();
  };
  std::vector<std::string> bytes = {encode(0)};
  const uint64_t entry_bytes = 12 + bytes[0].size() - kReportFrameHeaderBytes;
  const uint64_t batch = 4 * kSnapshotChunkBytes / (5 * entry_bytes) + 1;
  for (uint64_t i = 1; i < 6 * batch; ++i) bytes.push_back(encode(i));
  std::vector<CollectionServer::ReportFrame> frames;
  for (uint64_t i = 0; i < bytes.size(); ++i) frames.push_back({bytes[i], i});
  const std::span<const CollectionServer::ReportFrame> all(frames);
  const auto ingest = [&](CollectionServer& server, uint64_t first_batch,
                          uint64_t end_batch) {
    for (uint64_t b = first_batch; b < end_batch; ++b) {
      ASSERT_TRUE(server.IngestBatch(all.subspan(b * batch, batch)).ok());
    }
  };
  const WeightVector weights = WeightVector::Ones(bytes.size());
  const auto estimates = [&](const CollectionServer& server) {
    std::vector<double> out;
    for (const auto& box : QueryBoxes()) {
      out.push_back(server.EstimateBox(box, weights).ValueOrDie());
    }
    return out;
  };

  FaultFs steady_fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(spec, MakeStorage(&steady_fs,
                                                          2 * batch),
                                        /*num_threads=*/4)
            .ValueOrDie();
    ingest(server, 0, 6);
  }
  CollectionServer never_restarted =
      CollectionServer::Create(spec, /*num_threads=*/4).ValueOrDie();
  ingest(never_restarted, 0, 3);
  FaultFs restarted_fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(spec, MakeStorage(&restarted_fs,
                                                          2 * batch),
                                        /*num_threads=*/4)
            .ValueOrDie();
    ingest(server, 0, 3);
  }
  {
    CollectionServer server =
        CollectionServer::CreateDurable(spec, MakeStorage(&restarted_fs,
                                                          3 * batch),
                                        /*num_threads=*/4)
            .ValueOrDie();
    ASSERT_TRUE(server.recovery_info()->snapshot_loaded);
    EXPECT_EQ(server.recovery_info()->snapshot_wal_seq, 2u);
    EXPECT_EQ(server.recovery_info()->replayed_records, 1u);
    EXPECT_EQ(server.num_reports(), never_restarted.num_reports());
    const std::vector<double> restored = estimates(server);
    const std::vector<double> expected = estimates(never_restarted);
    for (size_t b = 0; b < expected.size(); ++b) {
      EXPECT_EQ(restored[b], expected[b]) << "box " << b;
    }
    ingest(server, 3, 6);
  }

  const std::string name = JoinPath(kDir, SnapshotFileName(6));
  const std::string steady = steady_fs.ReadFileToString(name).ValueOrDie();
  EXPECT_GT(steady.size(), 4 * kSnapshotChunkBytes);
  EXPECT_EQ(restarted_fs.ReadFileToString(name).ValueOrDie(), steady);
}

TEST(StorageRecoveryTest, WalWithOnlyATornFinalRecordRecoversEmpty) {
  const Workload w = MakeWorkload(2);
  FaultFs fs;
  {
    StorageOptions storage = MakeStorage(&fs, 0);
    storage.sync = WalSyncPolicy::kNever;  // nothing reaches the platter
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, storage).ValueOrDie();
    ASSERT_TRUE(server.Ingest(w.frames[0], w.users[0]).ok());
  }
  fs.Reboot(FaultFs::TearMode::kTearUnsynced);  // half the record survives

  CollectionServer recovered =
      CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 0))
          .ValueOrDie();
  EXPECT_EQ(recovered.num_reports(), 0u);
  EXPECT_EQ(recovered.ingest_stats().total(), 0u);
  ASSERT_NE(recovered.recovery_info(), nullptr);
  EXPECT_TRUE(recovered.recovery_info()->wal_tail_torn);
  EXPECT_FALSE(recovered.recovery_info()->degradation.ok());
  EXPECT_GT(recovered.recovery_info()->wal_dropped_bytes, 0u);
  // The degraded server still serves: new ingest works immediately.
  ASSERT_TRUE(recovered.Ingest(w.frames[1], w.users[1]).ok());
  EXPECT_EQ(recovered.num_reports(), 1u);
}

TEST(StorageRecoveryTest, CorruptNewestSnapshotFallsBackToOlderLosslessly) {
  constexpr uint64_t kFrames = 24;
  const Workload w = MakeWorkload(kFrames);
  const Observed reference = ReferenceRun(w, kFrames);

  FaultFs fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 8))
            .ValueOrDie();
    for (uint64_t i = 0; i < kFrames; ++i) {
      (void)server.Ingest(w.frames[i], w.users[i]);
    }
  }
  // Retention keeps the latest two snapshot generations; find and corrupt
  // the newest .ldps file's checksum header.
  std::vector<std::string> snapshots;
  const std::vector<std::string> names = fs.ListDir(kDir).ValueOrDie();
  for (const std::string& name : names) {
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ldps") {
      snapshots.push_back(name);
    }
  }
  ASSERT_EQ(snapshots.size(), 2u);
  const std::string newest = JoinPath(kDir, snapshots.back());
  const uint64_t size = fs.ReadFileToString(newest).ValueOrDie().size();
  fs.CorruptByte(newest, size - 9);  // header checksum byte
  fs.Reboot(FaultFs::TearMode::kDropUnsynced);

  CollectionServer recovered =
      CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 8))
          .ValueOrDie();
  ASSERT_NE(recovered.recovery_info(), nullptr);
  EXPECT_EQ(recovered.recovery_info()->snapshots_quarantined, 1u);
  EXPECT_TRUE(recovered.recovery_info()->snapshot_loaded);  // older one
  EXPECT_FALSE(recovered.recovery_info()->degradation.ok());
  ExpectIdentical(Observe(recovered), reference);
}

TEST(StorageRecoveryTest, CorruptOnlySnapshotFallsBackToFullWalReplay) {
  constexpr uint64_t kFrames = 10;
  const Workload w = MakeWorkload(kFrames);
  const Observed reference = ReferenceRun(w, kFrames);

  FaultFs fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 8))
            .ValueOrDie();
    for (uint64_t i = 0; i < kFrames; ++i) {
      (void)server.Ingest(w.frames[i], w.users[i]);
    }
  }
  std::string snapshot_name;
  const std::vector<std::string> names = fs.ListDir(kDir).ValueOrDie();
  for (const std::string& name : names) {
    if (name.size() > 5 && name.substr(name.size() - 5) == ".ldps") {
      ASSERT_TRUE(snapshot_name.empty()) << "expected a single snapshot";
      snapshot_name = name;
    }
  }
  ASSERT_FALSE(snapshot_name.empty());
  fs.CorruptByte(JoinPath(kDir, snapshot_name), 0);
  fs.Reboot(FaultFs::TearMode::kDropUnsynced);

  CollectionServer recovered =
      CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 8))
          .ValueOrDie();
  ASSERT_NE(recovered.recovery_info(), nullptr);
  EXPECT_EQ(recovered.recovery_info()->snapshots_quarantined, 1u);
  EXPECT_FALSE(recovered.recovery_info()->snapshot_loaded);
  EXPECT_EQ(recovered.recovery_info()->replayed_frames, kFrames);
  ExpectIdentical(Observe(recovered), reference);
}

TEST(StorageRecoveryTest, WrongSpecDirectoryIsRefused) {
  const Workload w = MakeWorkload(10);
  FaultFs fs;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, MakeStorage(&fs, 4))
            .ValueOrDie();
    for (uint64_t i = 0; i < 10; ++i) {
      (void)server.Ingest(w.frames[i], w.users[i]);
    }
  }
  CollectionSpec other = w.spec;
  other.params.epsilon = 4.0;  // a different campaign
  const auto recovered =
      CollectionServer::CreateDurable(other, MakeStorage(&fs, 4));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
}

// The real-disk smoke test: everything above runs on FaultFs; this one
// proves PosixFs wiring (open/append/fsync/rename/list) works end to end.
TEST(StorageRecoveryTest, PosixFilesystemRoundTrip) {
  constexpr uint64_t kFrames = 12;
  const Workload w = MakeWorkload(kFrames);
  const Observed reference = ReferenceRun(w, kFrames);

  const std::string dir =
      ::testing::TempDir() + "ldp_storage_posix_roundtrip";
  // A previous crashed run may have left a campaign behind; start fresh.
  if (const auto stale = PosixFs().ListDir(dir); stale.ok()) {
    for (const std::string& name : stale.value()) {
      (void)PosixFs().RemoveFile(JoinPath(dir, name));
    }
  }
  StorageOptions storage;
  storage.dir = dir;  // fs == nullptr -> PosixFs()
  storage.sync = WalSyncPolicy::kBatch;
  storage.sync_every_appends = 4;
  storage.snapshot_every_frames = 5;
  {
    CollectionServer server =
        CollectionServer::CreateDurable(w.spec, storage).ValueOrDie();
    for (uint64_t i = 0; i < kFrames; ++i) {
      (void)server.Ingest(w.frames[i], w.users[i]);
    }
    ASSERT_TRUE(server.Flush().ok());
  }
  CollectionServer recovered =
      CollectionServer::CreateDurable(w.spec, storage).ValueOrDie();
  ExpectIdentical(Observe(recovered), reference);

  // Clean up the temp campaign directory.
  const std::vector<std::string> leftover = PosixFs().ListDir(dir).ValueOrDie();
  for (const std::string& name : leftover) {
    (void)PosixFs().RemoveFile(JoinPath(dir, name));
  }
}

}  // namespace
}  // namespace ldp
