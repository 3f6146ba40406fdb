#include "storage/durable_store.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace ldp {

namespace {

Counter* ReplayedFramesCounter() {
  static Counter* counter =
      GlobalMetrics().counter("storage.recovery_replayed_frames");
  return counter;
}

}  // namespace

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const StorageOptions& options, std::string_view spec_serialized,
    SnapshotLoad* snapshot_out, WalScan* replay_out, RecoveryInfo* info_out) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("StorageOptions::dir must be set");
  }
  Fs* fs = options.fs != nullptr ? options.fs : &PosixFs();
  auto store = std::unique_ptr<DurableStore>(new DurableStore(options, fs));
  store->retained_.spec = std::string(spec_serialized);

  LDP_ASSIGN_OR_RETURN(
      SnapshotLoad snapshot,
      LoadLatestSnapshot(*fs, options.dir, spec_serialized));

  WalOptions wal_options;
  wal_options.sync = options.sync;
  wal_options.sync_every_appends = options.sync_every_appends;
  wal_options.segment_bytes = options.segment_bytes;
  WalScan scan;
  LDP_ASSIGN_OR_RETURN(store->wal_,
                       Wal::Open(fs, options.dir, wal_options, &scan));

  // Replay only the WAL suffix past the snapshot. Records at or below its
  // wal_seq are already folded in (a crash between snapshot publish and WAL
  // truncation legitimately leaves such records behind).
  if (snapshot.loaded) {
    std::erase_if(scan.records, [&](const WalRecord& record) {
      return record.seq <= snapshot.data.wal_seq;
    });
    store->last_snapshot_seq_ = snapshot.data.wal_seq;
    // Snapshot restore counts as frames toward the next automatic snapshot
    // only via future ingest; the retained sequence starts as its entries,
    // adopted rather than copied (a loaded section is one chunk).
    store->retained_.entries = std::move(snapshot.data.entries);
    store->retained_.entry_count = snapshot.data.entry_count;
    snapshot.data.entries.clear();
  }

  RecoveryInfo info;
  info.snapshot_loaded = snapshot.loaded;
  info.snapshot_wal_seq = snapshot.loaded ? snapshot.data.wal_seq : 0;
  info.snapshot_entries = snapshot.loaded ? snapshot.data.entry_count : 0;
  info.snapshots_quarantined = snapshot.quarantined;
  info.replayed_records = scan.records.size();
  for (const WalRecord& record : scan.records) {
    info.replayed_frames += record.frames.size();
  }
  info.wal_tail_torn = scan.torn_tail;
  info.wal_dropped_bytes = scan.dropped_bytes;
  if (!scan.tail.ok()) {
    info.degradation = scan.tail;
  } else if (!snapshot.note.ok()) {
    info.degradation = snapshot.note;
  }
  ReplayedFramesCounter()->Add(info.replayed_frames);
  store->recovery_info_ = info;

  if (snapshot_out != nullptr) *snapshot_out = std::move(snapshot);
  if (replay_out != nullptr) *replay_out = std::move(scan);
  if (info_out != nullptr) *info_out = info;
  return store;
}

Status DurableStore::AppendFrames(std::span<const WalFrameRef> frames) {
  LDP_RETURN_NOT_OK(wal_->Append(frames));
  frames_since_snapshot_ += frames.size();
  return Status::OK();
}

bool DurableStore::ShouldSnapshot() const {
  return options_.snapshot_every_frames != 0 &&
         frames_since_snapshot_ >= options_.snapshot_every_frames;
}

Status DurableStore::WriteSnapshotNow(uint64_t accepted, uint64_t duplicate,
                                      uint64_t corrupt, uint64_t rejected) {
  retained_.wal_seq = wal_->next_seq() - 1;
  retained_.accepted = accepted;
  retained_.duplicate = duplicate;
  retained_.corrupt = corrupt;
  retained_.rejected = rejected;

  const Status written = WriteSnapshotFile(*fs_, options_.dir, retained_);
  last_snapshot_status_ = written;
  // A failed attempt restarts the count like a written one: retrying on
  // every later ingest call would rewrite the whole retained sequence each
  // time, and the WAL still covers every frame until the next attempt.
  frames_since_snapshot_ = 0;
  if (!written.ok()) return written;

  // Retention: the previous snapshot (and the WAL suffix past it) stays
  // until the *next* snapshot supersedes it, so a single corrupt file never
  // loses data. Failures below are cosmetic — extra files, never lost ones.
  const uint64_t floor = last_snapshot_seq_;
  prev_snapshot_seq_ = floor;
  last_snapshot_seq_ = retained_.wal_seq;
  const Status rotated = wal_->StartNewSegment();
  if (rotated.ok()) {
    (void)wal_->DeleteSegmentsThrough(floor);
  } else {
    last_snapshot_status_ = rotated;
  }
  (void)RemoveSnapshotsBelow(*fs_, options_.dir, floor);
  return last_snapshot_status_;
}

}  // namespace ldp
