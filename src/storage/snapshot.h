#ifndef LDPMDA_STORAGE_SNAPSHOT_H_
#define LDPMDA_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/fs.h"

namespace ldp {

/// One accepted report inside a snapshot: the user id and the serialized
/// LdpReport payload, in acceptance order. The accumulator state of every
/// mechanism is a deterministic function of this sequence (the combiner
/// contract PR 2 proved), so replaying it rebuilds bit-identical estimates —
/// the snapshot *is* the canonical serialization of the ReportStore.
/// `payload` views the entry section it was read from.
struct SnapshotEntry {
  uint64_t user = 0;
  std::string_view payload;
};

/// The durable server state a snapshot captures.
struct SnapshotData {
  /// WAL records with seq <= wal_seq are folded into this snapshot; a
  /// restart replays only the suffix past it.
  uint64_t wal_seq = 0;
  /// Full IngestStats, so quarantine/duplicate counters survive a crash
  /// even though quarantined frames themselves are compacted away.
  uint64_t accepted = 0;
  uint64_t duplicate = 0;
  uint64_t corrupt = 0;
  uint64_t rejected = 0;
  /// CollectionSpec::Serialize() of the owning campaign; recovery refuses a
  /// snapshot written under a different spec.
  std::string spec;
  /// The accepted reports as the file's entry section, byte for byte: per
  /// entry u64 user, u32 payload_len, payload (see the format below), held
  /// as consecutive chunks of whole entries. Chunks are append-only, so the
  /// bytes already retained never move: AppendSnapshotEntry fills the last
  /// chunk up to its reserved capacity and then starts another. A file is
  /// written chunk by chunk and loads as one chunk (the file's own buffer),
  /// so no entry is ever re-encoded or the section copied whole. Walk a
  /// chunk with NextSnapshotEntry.
  std::vector<std::string> entries;
  uint64_t entry_count = 0;  ///< entries in `entries`
};

/// Capacity each new entry-section chunk reserves (an entry larger than
/// that gets a chunk of its own size). Appends within a chunk never
/// reallocate; at 1 MiB a 1M-report campaign holds ~50 chunks, and the
/// measured cost of retaining and snapshotting was flat from 256 KiB to
/// 4 MiB (DESIGN.md §12).
inline constexpr size_t kSnapshotChunkBytes = 1 << 20;

/// Appends one accepted report to `data`'s entry section.
void AppendSnapshotEntry(SnapshotData* data, uint64_t user,
                         std::string_view payload);

/// Reads the entry at byte `*pos` of an entry-section chunk into `*entry` (a
/// view into `chunk`) and advances `*pos` past it. Returns false, leaving
/// both unchanged, when the bytes left hold no whole entry — at the end of a
/// chunk that AppendSnapshotEntry built or a load validated.
bool NextSnapshotEntry(std::string_view chunk, size_t* pos,
                       SnapshotEntry* entry);

/// File format `snap-<wal_seq:016x>.ldps` (little-endian):
///
///   [0, 4)   magic "LDPS"
///   [4, 5)   version (0x01)
///   [5, 8)   zero padding
///   [8, 16)  u64 Checksum64 of everything after this field
///   [16, ..) u64 wal_seq; u64 accepted/duplicate/corrupt/rejected;
///            u32 spec_len, spec bytes; u64 entry_count,
///            then the entry section: per entry u64 user, u32 payload_len,
///            payload
///
/// Written to a `.tmp` name, synced, then atomically renamed, so a crash
/// mid-snapshot leaves the previous snapshot set intact.
inline constexpr uint8_t kSnapshotVersion = 1;

std::string SnapshotFileName(uint64_t wal_seq);

/// Writes `data` as the snapshot file for `data.wal_seq`: the header, then
/// the entry section's chunks as they are, with the checksum computed
/// piecewise over them (Checksum64Stream) beforehand. Records its wall time
/// in the storage.snapshot_ns histogram when it succeeds.
Status WriteSnapshotFile(Fs& fs, const std::string& dir,
                         const SnapshotData& data);

/// Outcome of hunting for the newest usable snapshot in `dir`.
struct SnapshotLoad {
  bool loaded = false;
  SnapshotData data;
  /// Snapshot files whose checksum/structure failed validation; each is
  /// renamed to `<name>.quarantined` and the scan falls back to the next
  /// older snapshot (or to full WAL replay when none is left).
  uint64_t quarantined = 0;
  /// OK, or the typed reason the newest snapshot(s) were unusable.
  Status note = Status::OK();
};

/// Scans `dir` newest-first. `expected_spec` guards against pointing a
/// server at another campaign's directory: a structurally valid snapshot
/// with a different spec fails the open (InvalidArgument) rather than being
/// quarantined. kNotFound directory means "no snapshots" (empty load).
Result<SnapshotLoad> LoadLatestSnapshot(Fs& fs, const std::string& dir,
                                        std::string_view expected_spec);

/// Deletes snapshot files with wal_seq strictly below `keep_from_seq`
/// (retention: the caller passes the previous snapshot's seq, so the latest
/// two generations always survive a single-file corruption).
Status RemoveSnapshotsBelow(Fs& fs, const std::string& dir,
                            uint64_t keep_from_seq);

}  // namespace ldp

#endif  // LDPMDA_STORAGE_SNAPSHOT_H_
