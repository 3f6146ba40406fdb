#ifndef LDPMDA_STORAGE_WAL_H_
#define LDPMDA_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/fs.h"

namespace ldp {

/// When the WAL calls WritableFile::Sync after an append.
enum class WalSyncPolicy {
  kNever,   ///< never fsync; a crash can lose everything since open
  kBatch,   ///< fsync every `sync_every_appends` appends (and on rotation)
  kAlways,  ///< fsync after every append — full durability, slowest
};

std::string WalSyncPolicyName(WalSyncPolicy policy);
Result<WalSyncPolicy> WalSyncPolicyFromString(std::string_view name);

struct WalOptions {
  WalSyncPolicy sync = WalSyncPolicy::kBatch;
  uint64_t sync_every_appends = 16;    ///< kBatch period
  uint64_t segment_bytes = 4u << 20;   ///< rotate segments past this size
};

/// One report frame inside a WAL record — the framed wire bytes exactly as
/// received (corrupt ones included, so replay re-quarantines them and the
/// recovered IngestStats match the pre-crash stats bit for bit).
struct WalFrameRef {
  uint64_t user = 0;
  std::string_view bytes;
};

/// A decoded WAL record: one Ingest/IngestBatch call's frames, owned.
struct WalRecord {
  uint64_t seq = 0;
  struct Frame {
    uint64_t user = 0;
    std::string bytes;
  };
  std::vector<Frame> frames;
};

/// What a directory scan recovered. `records` is the longest valid prefix of
/// the log: scanning stops at the first torn or checksum-failing record
/// (`tail` carries the typed reason; trailing garbage never aborts recovery).
struct WalScan {
  std::vector<WalRecord> records;
  uint64_t next_seq = 1;       ///< sequence the next append will use
  Status tail = Status::OK();  ///< OK, or why the scan stopped early
  bool torn_tail = false;      ///< tail was a partial record (crash mid-write)
  uint64_t dropped_bytes = 0;  ///< bytes past the valid prefix, set aside
};

/// A segmented, checksummed write-ahead log of report-frame batches.
///
/// Segment files are named `wal-<first_seq:016x>.log` and start with a
/// 16-byte header (magic "LDPW", version, first sequence). Each record is
///
///   [0, 4)   u32 body length
///   [4, 12)  u64 Checksum64 of the body
///   [12, ..) body: u64 seq, u32 frame_count,
///            then per frame u64 user, u32 byte_count, bytes
///
/// so any torn tail, short write or bit flip is detected on open and the log
/// degrades to its longest checksummed-valid prefix — never garbage replay.
/// Appends assign consecutive sequence numbers starting at 1; a failed
/// append poisons the current segment and the next append retries the same
/// sequence in a fresh segment, which the reader follows across the torn
/// boundary.
class Wal {
 public:
  /// Scans `dir` (creating it if missing) and opens the log for appending
  /// after the recovered prefix. `scan_out` (optional) receives the records
  /// to replay plus the tail diagnosis.
  static Result<std::unique_ptr<Wal>> Open(Fs* fs, std::string dir,
                                           const WalOptions& options,
                                           WalScan* scan_out);

  /// Appends one record holding `frames` and applies the sync policy.
  /// On failure the record is not committed (the caller's in-memory state
  /// must not advance) and the segment is rotated on the next append.
  Status Append(std::span<const WalFrameRef> frames);

  /// Forces an fsync of the current segment now (used at graceful close and
  /// by kBatch on rotation). A successful one is counted in storage.fsyncs
  /// and timed in the storage.fsync_ns histogram.
  Status SyncNow();

  /// Closes the current segment and starts a new one at next_seq — called
  /// after a snapshot so old segments become whole-file deletable.
  Status StartNewSegment();

  /// Deletes closed segments whose records all have seq <= `seq`.
  Status DeleteSegmentsThrough(uint64_t seq);

  /// Sequence number the next successful Append will write.
  uint64_t next_seq() const { return next_seq_; }
  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    std::string name;
    uint64_t first_seq = 0;
  };

  Wal(Fs* fs, std::string dir, const WalOptions& options)
      : fs_(fs), dir_(std::move(dir)), options_(options) {}

  Status OpenSegmentForAppend();

  Fs* fs_;
  std::string dir_;
  WalOptions options_;
  std::vector<Segment> segments_;  ///< sorted by first_seq; last is current
  std::unique_ptr<WritableFile> file_;  ///< current segment, null before first append
  uint64_t next_seq_ = 1;
  uint64_t segment_bytes_written_ = 0;
  uint64_t appends_since_sync_ = 0;
  bool rotate_needed_ = false;  ///< current segment poisoned by a failed append
};

}  // namespace ldp

#endif  // LDPMDA_STORAGE_WAL_H_
