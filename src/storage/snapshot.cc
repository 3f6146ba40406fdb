#include "storage/snapshot.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/coding.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "storage/coding.h"

namespace ldp {

namespace {

using storage::HexToSeq;
using storage::SeqToHex;

constexpr std::string_view kSnapshotMagic = "LDPS";
constexpr size_t kSnapshotHeaderBytes = 16;  // magic, version, pad, checksum
/// The body's fixed-width fields: wal_seq, the four stats, spec_len and
/// entry_count.
constexpr size_t kBodyFixedBytes = 5 * 8 + 4 + 8;

struct SnapshotCounters {
  Counter* writes;
  Counter* failures;
  Counter* quarantined;
  LatencyHistogram* write_ns;
};
const SnapshotCounters& SnapshotMetrics() {
  static const SnapshotCounters counters = {
      GlobalMetrics().counter("storage.snapshot_writes"),
      GlobalMetrics().counter("storage.snapshot_failures"),
      GlobalMetrics().counter("storage.snapshot_quarantined"),
      GlobalMetrics().histogram("storage.snapshot_ns"),
  };
  return counters;
}

bool ParseSnapshotName(std::string_view name, uint64_t* wal_seq) {
  constexpr std::string_view kPrefix = "snap-";
  constexpr std::string_view kSuffix = ".ldps";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  return HexToSeq(name.substr(kPrefix.size(), 16), wal_seq);
}

/// The file up to its entry section (header, then the body's fixed fields
/// and spec), its checksum field patched in: the checksum runs piecewise
/// over the body's part here and then every section chunk.
std::string EncodeSnapshotHead(const SnapshotData& data) {
  std::string head;
  head.reserve(kSnapshotHeaderBytes + kBodyFixedBytes + data.spec.size());
  head.append(kSnapshotMagic);
  head.push_back(static_cast<char>(kSnapshotVersion));
  head.append(3, '\0');
  head.append(8, '\0');  // checksum, patched in below
  PutU64(&head, data.wal_seq);
  PutU64(&head, data.accepted);
  PutU64(&head, data.duplicate);
  PutU64(&head, data.corrupt);
  PutU64(&head, data.rejected);
  PutU32(&head, static_cast<uint32_t>(data.spec.size()));
  head.append(data.spec);
  PutU64(&head, data.entry_count);
  const std::string_view body_head =
      std::string_view(head).substr(kSnapshotHeaderBytes);
  uint64_t body_bytes = body_head.size();
  for (const std::string& chunk : data.entries) body_bytes += chunk.size();
  Checksum64Stream checksum(body_bytes);
  checksum.Update(body_head);
  for (const std::string& chunk : data.entries) checksum.Update(chunk);
  EncodeU64(head.data() + 8, checksum.Finish());
  return head;
}

/// Validates a snapshot file and decodes it; the returned entry section is
/// one chunk, `bytes` itself with the header and prefix erased in place.
Result<SnapshotData> DecodeSnapshot(std::string bytes) {
  const std::string_view file = bytes;
  if (file.size() < kSnapshotHeaderBytes ||
      file.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Status::ParseError("snapshot magic missing or file truncated");
  }
  if (static_cast<uint8_t>(file[4]) != kSnapshotVersion) {
    return Status::ParseError(
        "unsupported snapshot version " +
        std::to_string(static_cast<uint8_t>(file[4])));
  }
  const uint64_t checksum = GetU64(file.substr(8, 8));
  const std::string_view body = file.substr(kSnapshotHeaderBytes);
  if (Checksum64(body) != checksum) {
    return Status::ParseError("snapshot checksum mismatch");
  }
  // Checksummed body: structural errors below mean a writer bug or a
  // checksum collision, but stay typed rather than trusting offsets.
  if (body.size() < kBodyFixedBytes) {
    return Status::ParseError("snapshot body truncated");
  }
  SnapshotData data;
  data.wal_seq = GetU64(body.substr(0, 8));
  data.accepted = GetU64(body.substr(8, 8));
  data.duplicate = GetU64(body.substr(16, 8));
  data.corrupt = GetU64(body.substr(24, 8));
  data.rejected = GetU64(body.substr(32, 8));
  const uint32_t spec_len = GetU32(body.substr(40, 4));
  size_t pos = 44;
  if (body.size() < pos + spec_len + 8) {
    return Status::ParseError("snapshot spec truncated");
  }
  data.spec.assign(body.substr(pos, spec_len));
  pos += spec_len;
  data.entry_count = GetU64(body.substr(pos, 8));
  pos += 8;
  const std::string_view section = body.substr(pos);
  size_t entry_pos = 0;
  SnapshotEntry entry;
  for (uint64_t i = 0; i < data.entry_count; ++i) {
    if (!NextSnapshotEntry(section, &entry_pos, &entry)) {
      return Status::ParseError("snapshot entry " + std::to_string(i) +
                                " truncated");
    }
  }
  if (entry_pos != section.size()) {
    return Status::ParseError("snapshot carries trailing bytes");
  }
  if (!section.empty()) {
    const size_t section_offset = kSnapshotHeaderBytes + pos;
    data.entries.push_back(std::move(bytes));
    data.entries.back().erase(0, section_offset);
  }
  return data;
}

}  // namespace

void AppendSnapshotEntry(SnapshotData* data, uint64_t user,
                         std::string_view payload) {
  const size_t bytes = 12 + payload.size();
  if (data->entries.empty() ||
      data->entries.back().capacity() - data->entries.back().size() < bytes) {
    data->entries.emplace_back().reserve(std::max(kSnapshotChunkBytes, bytes));
  }
  std::string& chunk = data->entries.back();
  PutU64(&chunk, user);
  PutU32(&chunk, static_cast<uint32_t>(payload.size()));
  chunk.append(payload);
  ++data->entry_count;
}

bool NextSnapshotEntry(std::string_view chunk, size_t* pos,
                       SnapshotEntry* entry) {
  const std::string_view rest = chunk.substr(*pos);
  if (rest.size() < 12) return false;
  const uint32_t len = GetU32(rest.substr(8, 4));
  if (rest.size() - 12 < len) return false;
  entry->user = GetU64(rest.substr(0, 8));
  entry->payload = rest.substr(12, len);
  *pos += 12 + len;
  return true;
}

std::string SnapshotFileName(uint64_t wal_seq) {
  return "snap-" + SeqToHex(wal_seq) + ".ldps";
}

Status WriteSnapshotFile(Fs& fs, const std::string& dir,
                         const SnapshotData& data) {
  const auto start = std::chrono::steady_clock::now();
  const std::string final_path = JoinPath(dir, SnapshotFileName(data.wal_seq));
  const std::string tmp_path = final_path + ".tmp";
  const std::string head = EncodeSnapshotHead(data);

  const Status written = [&]() -> Status {
    LDP_ASSIGN_OR_RETURN(auto file, fs.OpenAppend(tmp_path));
    LDP_RETURN_NOT_OK(file->Append(head));
    for (const std::string& chunk : data.entries) {
      if (!chunk.empty()) LDP_RETURN_NOT_OK(file->Append(chunk));
    }
    // Snapshots are always synced before the rename publishes them,
    // whatever the WAL's fsync policy: the atomic rename must never expose
    // a file whose bytes could still be lost.
    LDP_RETURN_NOT_OK(file->Sync());
    LDP_RETURN_NOT_OK(file->Close());
    return fs.RenameFile(tmp_path, final_path);
  }();
  if (!written.ok()) {
    SnapshotMetrics().failures->Add(1);
    (void)fs.RemoveFile(tmp_path);  // best effort; recovery ignores .tmp
    return written;
  }
  SnapshotMetrics().writes->Add(1);
  SnapshotMetrics().write_ns->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return Status::OK();
}

Result<SnapshotLoad> LoadLatestSnapshot(Fs& fs, const std::string& dir,
                                        std::string_view expected_spec) {
  SnapshotLoad load;
  auto names_or = fs.ListDir(dir);
  if (!names_or.ok()) {
    if (names_or.status().code() == StatusCode::kNotFound) return load;
    return names_or.status();
  }
  std::vector<std::pair<uint64_t, std::string>> snapshots;
  for (const std::string& name : names_or.value()) {
    uint64_t wal_seq = 0;
    if (ParseSnapshotName(name, &wal_seq)) snapshots.emplace_back(wal_seq, name);
  }
  std::sort(snapshots.begin(), snapshots.end());

  // Newest first; a corrupt file is quarantined (renamed out of the scan)
  // and the next older generation is tried — degradation, never an abort.
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    const std::string path = JoinPath(dir, it->second);
    LDP_ASSIGN_OR_RETURN(std::string bytes, fs.ReadFileToString(path));
    auto decoded = DecodeSnapshot(std::move(bytes));
    if (!decoded.ok()) {
      ++load.quarantined;
      SnapshotMetrics().quarantined->Add(1);
      load.note = Status::ParseError(
          "snapshot '" + it->second + "' quarantined (" +
          decoded.status().message() + "); falling back to " +
          (std::next(it) != snapshots.rend() ? "older snapshot"
                                             : "full WAL replay"));
      (void)fs.RenameFile(path, path + ".quarantined");
      continue;
    }
    if (decoded.value().spec != expected_spec) {
      return Status::InvalidArgument(
          "snapshot '" + it->second +
          "' belongs to a different collection spec; refusing to recover");
    }
    load.loaded = true;
    load.data = std::move(decoded).value();
    break;
  }
  return load;
}

Status RemoveSnapshotsBelow(Fs& fs, const std::string& dir,
                            uint64_t keep_from_seq) {
  auto names_or = fs.ListDir(dir);
  if (!names_or.ok()) {
    if (names_or.status().code() == StatusCode::kNotFound) return Status::OK();
    return names_or.status();
  }
  Status first_error = Status::OK();
  for (const std::string& name : names_or.value()) {
    uint64_t wal_seq = 0;
    if (!ParseSnapshotName(name, &wal_seq)) continue;
    if (wal_seq >= keep_from_seq) continue;
    const Status removed = fs.RemoveFile(JoinPath(dir, name));
    if (!removed.ok() && first_error.ok()) first_error = removed;
  }
  return first_error;
}

}  // namespace ldp
