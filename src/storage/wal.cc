#include "storage/wal.h"

#include <algorithm>
#include <chrono>

#include "common/coding.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "storage/coding.h"

namespace ldp {

namespace {

using storage::HexToSeq;
using storage::SeqToHex;

constexpr std::string_view kSegmentMagic = "LDPW";
constexpr uint8_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;  // magic, version, pad, first_seq
constexpr size_t kRecordHeaderBytes = 12;   // u32 body_len, u64 checksum
constexpr uint32_t kMaxRecordBody = 1u << 30;

/// GlobalMetrics handles for the WAL (`storage.*`), resolved once.
struct WalCounters {
  Counter* appends;
  Counter* bytes;
  Counter* fsyncs;
  Counter* torn_tails;
  Counter* corrupt_drops;
  Counter* segments_deleted;
  LatencyHistogram* fsync_ns;
};
const WalCounters& WalMetrics() {
  static const WalCounters counters = {
      GlobalMetrics().counter("storage.wal_appends"),
      GlobalMetrics().counter("storage.wal_bytes"),
      GlobalMetrics().counter("storage.fsyncs"),
      GlobalMetrics().counter("storage.wal_torn_tails"),
      GlobalMetrics().counter("storage.wal_corrupt_drops"),
      GlobalMetrics().counter("storage.wal_segments_deleted"),
      GlobalMetrics().histogram("storage.fsync_ns"),
  };
  return counters;
}

std::string SegmentName(uint64_t first_seq) {
  return "wal-" + SeqToHex(first_seq) + ".log";
}

/// Parses `name` as a segment file name; false for anything else.
bool ParseSegmentName(std::string_view name, uint64_t* first_seq) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  return HexToSeq(name.substr(kPrefix.size(), 16), first_seq);
}

std::string EncodeSegmentHeader(uint64_t first_seq) {
  std::string header(kSegmentMagic);
  header.push_back(static_cast<char>(kSegmentVersion));
  header.append(3, '\0');
  PutU64(&header, first_seq);
  return header;
}

/// Outcome of scanning one segment's bytes.
enum class SegmentEnd {
  kClean,    ///< consumed every byte
  kTorn,     ///< partial record at the tail (crash or failed append)
  kCorrupt,  ///< checksum / structure / sequence violation — stop the scan
};

/// Appends the segment's valid records to `scan`; `*expected_seq` advances.
SegmentEnd ScanSegmentBytes(std::string_view content, uint64_t* expected_seq,
                            WalScan* scan, Status* why) {
  // A zero-byte segment is a rotation whose header never reached the disk
  // (crash right after a snapshot). It holds no records, so nothing was
  // lost — clean, not torn.
  if (content.empty()) return SegmentEnd::kClean;
  if (content.size() < kSegmentHeaderBytes ||
      content.substr(0, kSegmentMagic.size()) != kSegmentMagic ||
      static_cast<uint8_t>(content[4]) != kSegmentVersion) {
    *why = Status::ParseError("WAL segment header corrupt or truncated");
    scan->dropped_bytes += content.size();
    return content.size() < kSegmentHeaderBytes ? SegmentEnd::kTorn
                                                : SegmentEnd::kCorrupt;
  }
  const uint64_t header_seq = GetU64(content.substr(8, 8));
  if (header_seq != *expected_seq) {
    *why = Status::ParseError(
        "WAL segment starts at seq " + std::to_string(header_seq) +
        ", expected " + std::to_string(*expected_seq));
    scan->dropped_bytes += content.size();
    return SegmentEnd::kCorrupt;
  }
  size_t pos = kSegmentHeaderBytes;
  while (pos < content.size()) {
    const std::string_view rest = content.substr(pos);
    if (rest.size() < kRecordHeaderBytes) {
      *why = Status::ParseError("torn WAL record header (" +
                                std::to_string(rest.size()) + " bytes)");
      scan->dropped_bytes += rest.size();
      return SegmentEnd::kTorn;
    }
    const uint32_t body_len = GetU32(rest);
    if (body_len < 12 || body_len > kMaxRecordBody) {
      *why = Status::ParseError("implausible WAL record length " +
                                std::to_string(body_len));
      scan->dropped_bytes += rest.size();
      return SegmentEnd::kCorrupt;
    }
    if (rest.size() < kRecordHeaderBytes + body_len) {
      *why = Status::ParseError(
          "torn WAL record: header says " + std::to_string(body_len) +
          " body bytes, " +
          std::to_string(rest.size() - kRecordHeaderBytes) + " present");
      scan->dropped_bytes += rest.size();
      return SegmentEnd::kTorn;
    }
    const uint64_t checksum = GetU64(rest.substr(4, 8));
    const std::string_view body = rest.substr(kRecordHeaderBytes, body_len);
    if (Checksum64(body) != checksum) {
      *why = Status::ParseError("WAL record checksum mismatch at seq " +
                                std::to_string(*expected_seq));
      scan->dropped_bytes += rest.size();
      return SegmentEnd::kCorrupt;
    }
    const uint64_t seq = GetU64(body);
    if (seq != *expected_seq) {
      *why = Status::ParseError("WAL sequence gap: record " +
                                std::to_string(seq) + ", expected " +
                                std::to_string(*expected_seq));
      scan->dropped_bytes += rest.size();
      return SegmentEnd::kCorrupt;
    }
    WalRecord record;
    record.seq = seq;
    const uint32_t frame_count = GetU32(body.substr(8, 4));
    size_t bpos = 12;
    bool malformed = false;
    for (uint32_t f = 0; f < frame_count; ++f) {
      if (body.size() < bpos + 12) {
        malformed = true;
        break;
      }
      WalRecord::Frame frame;
      frame.user = GetU64(body.substr(bpos, 8));
      const uint32_t len = GetU32(body.substr(bpos + 8, 4));
      bpos += 12;
      if (body.size() < bpos + len) {
        malformed = true;
        break;
      }
      frame.bytes.assign(body.substr(bpos, len));
      bpos += len;
      record.frames.push_back(std::move(frame));
    }
    if (malformed || bpos != body.size()) {
      // A checksummed body that does not decode: only possible via a
      // checksum collision or a writer bug; treat as corruption.
      *why = Status::ParseError("WAL record body malformed at seq " +
                                std::to_string(seq));
      scan->dropped_bytes += rest.size();
      return SegmentEnd::kCorrupt;
    }
    scan->records.push_back(std::move(record));
    ++*expected_seq;
    pos += kRecordHeaderBytes + body_len;
  }
  return SegmentEnd::kClean;
}

}  // namespace

std::string WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kNever:
      return "never";
    case WalSyncPolicy::kBatch:
      return "batch";
    case WalSyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

Result<WalSyncPolicy> WalSyncPolicyFromString(std::string_view name) {
  if (name == "never") return WalSyncPolicy::kNever;
  if (name == "batch") return WalSyncPolicy::kBatch;
  if (name == "always") return WalSyncPolicy::kAlways;
  return Status::InvalidArgument("unknown WAL sync policy '" +
                                 std::string(name) +
                                 "' (want never|batch|always)");
}

Result<std::unique_ptr<Wal>> Wal::Open(Fs* fs, std::string dir,
                                       const WalOptions& options,
                                       WalScan* scan_out) {
  LDP_RETURN_NOT_OK(fs->CreateDir(dir));
  auto names_or = fs->ListDir(dir);
  std::vector<std::string> names;
  if (names_or.ok()) {
    names = std::move(names_or).value();
  } else if (names_or.status().code() != StatusCode::kNotFound) {
    return names_or.status();
  }

  auto wal = std::unique_ptr<Wal>(new Wal(fs, std::move(dir), options));
  for (const std::string& name : names) {
    uint64_t first_seq = 0;
    if (ParseSegmentName(name, &first_seq)) {
      wal->segments_.push_back(Segment{name, first_seq});
    }
  }
  std::sort(wal->segments_.begin(), wal->segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.first_seq < b.first_seq;
            });

  WalScan scan;
  if (!wal->segments_.empty()) {
    uint64_t expected = wal->segments_.front().first_seq;
    for (size_t i = 0; i < wal->segments_.size(); ++i) {
      const Segment& segment = wal->segments_[i];
      LDP_ASSIGN_OR_RETURN(
          const std::string content,
          fs->ReadFileToString(JoinPath(wal->dir_, segment.name)));
      Status why = Status::OK();
      const SegmentEnd end = ScanSegmentBytes(content, &expected, &scan, &why);
      if (end == SegmentEnd::kClean) continue;
      // An invalid tail followed by a segment that starts exactly at the
      // expected seq is a healed append failure (the writer rotates and
      // retries the same sequence after any failed append) — keep scanning.
      // Anything else ends the valid prefix: the remaining segments are set
      // aside under a `.dropped` name (out of future scans, bytes preserved
      // for forensics) and the typed reason is surfaced.
      const bool healed = i + 1 < wal->segments_.size() &&
                          wal->segments_[i + 1].first_seq == expected;
      if (healed) continue;
      for (size_t j = i + 1; j < wal->segments_.size(); ++j) {
        const std::string path =
            JoinPath(wal->dir_, wal->segments_[j].name);
        LDP_ASSIGN_OR_RETURN(const std::string later,
                             fs->ReadFileToString(path));
        scan.dropped_bytes += later.size();
        (void)fs->RenameFile(path, path + ".dropped");
      }
      wal->segments_.resize(i + 1);
      scan.tail = why;
      scan.torn_tail = end == SegmentEnd::kTorn;
      if (end == SegmentEnd::kTorn) {
        WalMetrics().torn_tails->Add(1);
      } else {
        WalMetrics().corrupt_drops->Add(1);
      }
      break;
    }
    scan.next_seq = expected;
  }
  wal->next_seq_ = scan.next_seq;
  if (scan_out != nullptr) *scan_out = std::move(scan);
  return wal;
}

Status Wal::OpenSegmentForAppend() {
  const std::string name = SegmentName(next_seq_);
  const std::string path = JoinPath(dir_, name);
  // The only way this name can already exist is a previous open that failed
  // (possibly before registering the segment) or a segment that never
  // committed a record at this sequence — either way its content is entirely
  // invalid, so remove it before reopening for append.
  if (!segments_.empty() && segments_.back().first_seq == next_seq_) {
    segments_.pop_back();
  }
  (void)fs_->RemoveFile(path);
  LDP_ASSIGN_OR_RETURN(file_, fs_->OpenAppend(path));
  const std::string header = EncodeSegmentHeader(next_seq_);
  const Status appended = file_->Append(header);
  if (!appended.ok()) {
    file_.reset();
    return appended;
  }
  segments_.push_back(Segment{name, next_seq_});
  segment_bytes_written_ = header.size();
  rotate_needed_ = false;
  return Status::OK();
}

Status Wal::Append(std::span<const WalFrameRef> frames) {
  if (file_ == nullptr || rotate_needed_ ||
      segment_bytes_written_ >= options_.segment_bytes) {
    if (file_ != nullptr && options_.sync != WalSyncPolicy::kNever) {
      // Make the outgoing segment durable before records move past it.
      LDP_RETURN_NOT_OK(SyncNow());
    }
    if (file_ != nullptr) (void)file_->Close();
    file_.reset();
    LDP_RETURN_NOT_OK(OpenSegmentForAppend());
  }

  // One buffer: the record header is reserved, the body encoded after it,
  // then the body's length and checksum are patched into the header.
  size_t body_bytes = 12;  // u64 seq, u32 frame_count
  for (const WalFrameRef& frame : frames) body_bytes += 12 + frame.bytes.size();
  std::string record;
  record.reserve(kRecordHeaderBytes + body_bytes);
  record.resize(kRecordHeaderBytes);
  PutU64(&record, next_seq_);
  PutU32(&record, static_cast<uint32_t>(frames.size()));
  for (const WalFrameRef& frame : frames) {
    PutU64(&record, frame.user);
    PutU32(&record, static_cast<uint32_t>(frame.bytes.size()));
    record.append(frame.bytes);
  }
  const std::string_view body =
      std::string_view(record).substr(kRecordHeaderBytes);
  EncodeU32(record.data(), static_cast<uint32_t>(body.size()));
  EncodeU64(record.data() + 4, Checksum64(body));

  const Status appended = file_->Append(record);
  if (!appended.ok()) {
    // Any prefix of the record may be on disk; never append after it.
    rotate_needed_ = true;
    return appended;
  }
  ++next_seq_;
  segment_bytes_written_ += record.size();
  WalMetrics().appends->Add(1);
  WalMetrics().bytes->Add(record.size());

  switch (options_.sync) {
    case WalSyncPolicy::kNever:
      break;
    case WalSyncPolicy::kAlways:
      LDP_RETURN_NOT_OK(SyncNow());
      break;
    case WalSyncPolicy::kBatch:
      if (++appends_since_sync_ >= options_.sync_every_appends) {
        LDP_RETURN_NOT_OK(SyncNow());
      }
      break;
  }
  return Status::OK();
}

Status Wal::SyncNow() {
  appends_since_sync_ = 0;
  if (file_ == nullptr) return Status::OK();
  const auto start = std::chrono::steady_clock::now();
  const Status synced = file_->Sync();
  if (!synced.ok()) {
    rotate_needed_ = true;
    return synced;
  }
  WalMetrics().fsyncs->Add(1);
  WalMetrics().fsync_ns->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return Status::OK();
}

Status Wal::StartNewSegment() {
  if (file_ != nullptr) {
    if (options_.sync != WalSyncPolicy::kNever) LDP_RETURN_NOT_OK(SyncNow());
    (void)file_->Close();
    file_.reset();
  }
  return OpenSegmentForAppend();
}

Status Wal::DeleteSegmentsThrough(uint64_t seq) {
  // A closed segment's records are all below the next segment's first_seq;
  // the open (last) segment is never deleted.
  std::vector<Segment> kept;
  Status first_error = Status::OK();
  for (size_t i = 0; i < segments_.size(); ++i) {
    const bool closed = i + 1 < segments_.size();
    if (closed && segments_[i + 1].first_seq <= seq + 1) {
      const Status removed =
          fs_->RemoveFile(JoinPath(dir_, segments_[i].name));
      if (removed.ok()) {
        WalMetrics().segments_deleted->Add(1);
        continue;
      }
      if (first_error.ok()) first_error = removed;
    }
    kept.push_back(segments_[i]);
  }
  segments_ = std::move(kept);
  return first_error;
}

}  // namespace ldp
