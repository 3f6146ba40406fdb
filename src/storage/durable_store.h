#ifndef LDPMDA_STORAGE_DURABLE_STORE_H_
#define LDPMDA_STORAGE_DURABLE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/snapshot.h"
#include "storage/wal.h"

namespace ldp {

/// Knobs for a durable CollectionServer. One directory per campaign; it
/// holds the WAL segments and snapshot files side by side.
struct StorageOptions {
  std::string dir;
  /// Filesystem to operate on; null means the real disk (PosixFs()). Tests
  /// pass a FaultFs to inject short writes, ENOSPC, and kill-points.
  Fs* fs = nullptr;
  WalSyncPolicy sync = WalSyncPolicy::kBatch;
  uint64_t sync_every_appends = 16;
  uint64_t segment_bytes = 4u << 20;
  /// Snapshot after this many WAL-appended frames, counted from the last
  /// attempt (a failed one too); 0 disables automatic snapshots (the WAL
  /// alone still makes the server crash-recoverable).
  uint64_t snapshot_every_frames = 0;
};

/// What recovery found and did when a durable server opened its directory.
struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint64_t snapshot_wal_seq = 0;       ///< WAL prefix the snapshot covers
  uint64_t snapshot_entries = 0;       ///< accepted reports restored from it
  uint64_t snapshots_quarantined = 0;  ///< corrupt snapshots set aside
  uint64_t replayed_records = 0;       ///< WAL records replayed past it
  uint64_t replayed_frames = 0;        ///< frames inside those records
  bool wal_tail_torn = false;          ///< log ended in a partial record
  uint64_t wal_dropped_bytes = 0;      ///< bytes past the valid WAL prefix
  /// OK for a clean open; otherwise the typed description of the degradation
  /// (torn tail, corrupt record, quarantined snapshot). Recovery itself
  /// still succeeded — this is diagnosis, not failure.
  Status degradation = Status::OK();
  uint64_t recovery_ms = 0;
};

/// The durability engine behind a CollectionServer: a WAL of report-frame
/// batches plus periodic compacting snapshots of the accepted-report
/// sequence, with a recover-on-open handshake.
///
/// Protocol (write-ahead): every Ingest/IngestBatch first appends its frames
/// as one WAL record; only a durably appended record may mutate the
/// in-memory server, so the recovered state is always a batch-aligned prefix
/// of the ingest stream. Accepted reports are additionally retained in
/// memory (user + payload, acceptance order) so a snapshot can serialize the
/// canonical accumulator state without reaching into mechanism internals.
/// They are retained as the snapshot's own entry section — append-only
/// chunks in the on-disk encoding — so retaining a report is an append that
/// never moves earlier bytes, a snapshot streams the chunks as they are, and
/// Open adopts a loaded snapshot's section as the first chunk.
///
/// Retention: writing snapshot S_new rotates the WAL and deletes segments
/// covered by the *previous* snapshot S_prev, and snapshot files older than
/// S_prev. The latest snapshot plus the WAL suffix past S_prev therefore
/// always coexist, so a corrupt newest snapshot degrades to S_prev + longer
/// replay — and a corrupt only-snapshot to full WAL replay — losslessly.
class DurableStore {
 public:
  /// Opens (creating if needed) `options.dir`, loads the newest valid
  /// snapshot, scans the WAL, and returns the store positioned after the
  /// recovered prefix. The store adopts the loaded snapshot's entry section
  /// as its retained sequence (read it through retained_section() to
  /// restore the accepted reports); `snapshot_out` receives the rest of the
  /// snapshot (its `entries` empty, `loaded` false when none),
  /// `replay_out` the WAL records with seq past the snapshot, `info_out` the
  /// recovery diagnosis (timing filled in by the caller once replay is
  /// applied).
  static Result<std::unique_ptr<DurableStore>> Open(
      const StorageOptions& options, std::string_view spec_serialized,
      SnapshotLoad* snapshot_out, WalScan* replay_out, RecoveryInfo* info_out);

  /// Appends one record of frames (write-ahead; call before applying).
  Status AppendFrames(std::span<const WalFrameRef> frames);

  /// Records one accepted report for future snapshots (both live ingest and
  /// recovery replay call this, keeping the retained sequence canonical):
  /// appends it to the retained entry section.
  void RetainAccepted(uint64_t user, std::string_view payload) {
    AppendSnapshotEntry(&retained_, user, payload);
  }

  /// True when `snapshot_every_frames` frames accumulated since the last
  /// snapshot attempt, failed or not (or since open). The server checks
  /// after applying an ingest call.
  bool ShouldSnapshot() const;

  /// Writes a snapshot of the retained sequence + `stats`, then rotates the
  /// WAL and applies the retention policy. Failure is non-fatal (the WAL
  /// still covers everything): the caller keeps serving, the error is
  /// remembered in last_snapshot_status() and storage.snapshot_failures,
  /// and the next automatic attempt waits another `snapshot_every_frames`.
  Status WriteSnapshotNow(uint64_t accepted, uint64_t duplicate,
                          uint64_t corrupt, uint64_t rejected);

  /// Fsyncs the WAL regardless of policy (graceful shutdown).
  Status Flush() { return wal_->SyncNow(); }

  const Status& last_snapshot_status() const { return last_snapshot_status_; }
  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  /// Set by the owner once replay is applied (Open cannot time the apply).
  void set_recovery_ms(uint64_t ms) { recovery_info_.recovery_ms = ms; }
  uint64_t retained_entries() const { return retained_.entry_count; }
  /// The retained accepted sequence in snapshot entry encoding, in
  /// acceptance order: chunks of whole entries (walk each with
  /// NextSnapshotEntry). RetainAccepted only appends, so views into a chunk
  /// stay valid.
  const std::vector<std::string>& retained_section() const {
    return retained_.entries;
  }
  Wal& wal() { return *wal_; }

 private:
  DurableStore(const StorageOptions& options, Fs* fs)
      : options_(options), fs_(fs) {}

  StorageOptions options_;
  Fs* fs_;
  std::unique_ptr<Wal> wal_;
  /// The next snapshot: the campaign's spec and the accepted (user, payload)
  /// sequence as its entry section. WriteSnapshotNow fills in the other
  /// header fields.
  SnapshotData retained_;
  uint64_t frames_since_snapshot_ = 0;
  /// wal_seq of the newest durable snapshot (0 = none yet).
  uint64_t last_snapshot_seq_ = 0;
  /// wal_seq of the snapshot before that (retention floor).
  uint64_t prev_snapshot_seq_ = 0;
  Status last_snapshot_status_ = Status::OK();
  RecoveryInfo recovery_info_;
};

}  // namespace ldp

#endif  // LDPMDA_STORAGE_DURABLE_STORE_H_
