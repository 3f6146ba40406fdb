#include "engine/protocol.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/coding.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "mech/multi.h"
#include "obs/metrics.h"

namespace ldp {

namespace {

/// GlobalMetrics mirrors of IngestStats (ingest.*). The per-server struct
/// stays the authoritative view; these aggregate across all servers in the
/// process for the exported snapshot.
struct IngestCounters {
  Counter* accepted;
  Counter* duplicate;
  Counter* corrupt;
  Counter* rejected;
};
const IngestCounters& IngestMetrics() {
  static const IngestCounters counters = {
      GlobalMetrics().counter("ingest.accepted"),
      GlobalMetrics().counter("ingest.duplicate"),
      GlobalMetrics().counter("ingest.corrupt"),
      GlobalMetrics().counter("ingest.rejected"),
  };
  return counters;
}

LatencyHistogram* RecoveryMsHistogram() {
  static LatencyHistogram* histogram =
      GlobalMetrics().histogram("storage.recovery_ms");
  return histogram;
}

constexpr std::string_view kHeader = "ldpmda-collection-spec v1";
constexpr std::string_view kFrameMagic = "LDPR";

/// The mechanism instance a spec describes: the MultiMechanism composite
/// when the spec lists several kinds, the single kind otherwise. Shared by
/// the client and server halves so both always agree on the wire format.
Result<std::unique_ptr<Mechanism>> BuildSpecMechanism(
    const CollectionSpec& spec, const Schema& schema) {
  if (spec.mechanisms.size() > 1) {
    LDP_ASSIGN_OR_RETURN(
        auto multi,
        MultiMechanism::Create(schema, spec.params, spec.mechanisms));
    return std::unique_ptr<Mechanism>(std::move(multi));
  }
  const MechanismKind kind =
      spec.mechanisms.empty() ? spec.mechanism : spec.mechanisms[0];
  return CreateMechanism(kind, schema, spec.params);
}

}  // namespace

CollectionSpec CollectionSpec::FromSchema(const Schema& schema,
                                          MechanismKind kind,
                                          const MechanismParams& params) {
  CollectionSpec spec;
  spec.mechanism = kind;
  spec.params = params;
  for (const int attr : schema.sensitive_dims()) {
    spec.sensitive_attributes.push_back(schema.attribute(attr));
  }
  return spec;
}

CollectionSpec CollectionSpec::FromSchema(const Schema& schema,
                                          std::span<const MechanismKind> kinds,
                                          const MechanismParams& params) {
  CollectionSpec spec = FromSchema(
      schema, kinds.empty() ? MechanismKind::kHio : kinds[0], params);
  if (kinds.size() > 1) {
    spec.mechanisms.assign(kinds.begin(), kinds.end());
  }
  return spec;
}

std::string CollectionSpec::Serialize() const {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "mechanism=";
  if (mechanisms.size() > 1) {
    for (size_t i = 0; i < mechanisms.size(); ++i) {
      if (i > 0) os << ",";
      os << ToLower(MechanismKindName(mechanisms[i]));
    }
  } else {
    os << ToLower(MechanismKindName(
        mechanisms.empty() ? mechanism : mechanisms[0]));
  }
  os << "\n";
  os << "epsilon=" << params.epsilon << "\n";
  os << "fanout=" << params.fanout << "\n";
  os << "fo=" << FoKindName(params.fo_kind) << "\n";
  os << "pool=" << params.hash_pool_size << "\n";
  if (params.population_hint != 0) {
    os << "hint=" << params.population_hint << "\n";
  }
  for (const Attribute& attr : sensitive_attributes) {
    os << "dim=" << attr.name << " "
       << (attr.kind == AttributeKind::kSensitiveOrdinal ? "ordinal"
                                                         : "categorical")
       << " " << attr.domain_size << "\n";
  }
  return os.str();
}

Result<CollectionSpec> CollectionSpec::Parse(std::string_view text) {
  const auto lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != kHeader) {
    return Status::ParseError("spec line 1: expected header '" +
                              std::string(kHeader) + "'");
  }
  CollectionSpec spec;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t lineno = i + 1;
    // Every diagnostic names the 1-based line and the field being parsed.
    const auto err = [lineno](std::string_view field, std::string_view what) {
      return Status::ParseError("spec line " + std::to_string(lineno) + ": " +
                                std::string(field) + ": " + std::string(what));
    };
    const std::string_view line = Trim(lines[i]);
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return err("line", "expected key=value, got '" + std::string(line) + "'");
    }
    const std::string_view key = Trim(line.substr(0, eq));
    const std::string_view value = Trim(line.substr(eq + 1));
    if (key == "mechanism") {
      // One kind, or a comma-separated multi-mechanism list (first wins the
      // primary slot). Duplicates are caught by MultiMechanism::Create.
      std::vector<MechanismKind> kinds;
      for (const std::string& part : Split(value, ',')) {
        const auto kind = MechanismKindFromString(Trim(part));
        if (!kind.ok()) return err(key, kind.status().message());
        kinds.push_back(kind.value());
      }
      if (kinds.empty()) return err(key, "expected at least one mechanism");
      spec.mechanism = kinds[0];
      if (kinds.size() > 1) spec.mechanisms = std::move(kinds);
    } else if (key == "epsilon") {
      const auto eps = ParseDouble(value);
      if (!eps.ok()) return err(key, eps.status().message());
      spec.params.epsilon = eps.value();
    } else if (key == "fanout") {
      const auto fanout = ParseInt64(value);
      if (!fanout.ok()) return err(key, fanout.status().message());
      if (fanout.value() < 2) {
        return err(key, "must be >= 2 (got '" + std::string(value) + "')");
      }
      spec.params.fanout = static_cast<uint32_t>(fanout.value());
    } else if (key == "fo") {
      const auto fo = FoKindFromString(value);
      if (!fo.ok()) return err(key, fo.status().message());
      spec.params.fo_kind = fo.value();
    } else if (key == "pool") {
      const auto pool = ParseInt64(value);
      if (!pool.ok()) return err(key, pool.status().message());
      if (pool.value() < 0) {
        return err(key, "must be >= 0 (got '" + std::string(value) + "')");
      }
      spec.params.hash_pool_size = static_cast<uint32_t>(pool.value());
    } else if (key == "hint") {
      const auto hint = ParseInt64(value);
      if (!hint.ok()) return err(key, hint.status().message());
      if (hint.value() < 0) {
        return err(key, "must be >= 0 (got '" + std::string(value) + "')");
      }
      spec.params.population_hint = static_cast<uint64_t>(hint.value());
    } else if (key == "dim") {
      const auto parts = Split(value, ' ');
      if (parts.size() != 3) {
        return err(key, "needs 'name kind domain', got '" +
                            std::string(value) + "'");
      }
      Attribute attr;
      attr.name = parts[0];
      if (parts[1] == "ordinal") {
        attr.kind = AttributeKind::kSensitiveOrdinal;
      } else if (parts[1] == "categorical") {
        attr.kind = AttributeKind::kSensitiveCategorical;
      } else {
        return err(key, "kind must be 'ordinal' or 'categorical', got '" +
                            parts[1] + "'");
      }
      const auto domain = ParseInt64(parts[2]);
      if (!domain.ok()) return err(key, domain.status().message());
      if (domain.value() <= 0) {
        return err(key, "domain must be > 0 (got '" + parts[2] + "')");
      }
      attr.domain_size = static_cast<uint64_t>(domain.value());
      spec.sensitive_attributes.push_back(std::move(attr));
    } else {
      return err(key, "unknown spec key");
    }
  }
  if (spec.sensitive_attributes.empty()) {
    return Status::ParseError(
        "spec line " + std::to_string(lines.size()) +
        ": dim: spec declares no sensitive dimensions");
  }
  return spec;
}

Result<Schema> CollectionSpec::ToSchema() const {
  Schema schema;
  for (const Attribute& attr : sensitive_attributes) {
    if (attr.kind == AttributeKind::kSensitiveOrdinal) {
      LDP_RETURN_NOT_OK(schema.AddOrdinal(attr.name, attr.domain_size));
    } else {
      LDP_RETURN_NOT_OK(schema.AddCategorical(attr.name, attr.domain_size));
    }
  }
  return schema;
}

std::string FrameReport(std::string_view payload) {
  std::string frame;
  frame.reserve(kReportFrameHeaderBytes + payload.size());
  frame.append(kFrameMagic);
  frame.push_back(static_cast<char>(kReportFrameVersion));
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, Checksum64(payload));
  frame.append(payload);
  return frame;
}

Result<std::string_view> UnframeReport(std::string_view frame) {
  if (frame.size() < kReportFrameHeaderBytes) {
    return Status::ParseError("report frame truncated before header (" +
                              std::to_string(frame.size()) + " bytes)");
  }
  if (frame.substr(0, kFrameMagic.size()) != kFrameMagic) {
    return Status::ParseError("bad report frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(frame[4]);
  if (version != kReportFrameVersion) {
    return Status::ParseError("unsupported report frame version " +
                              std::to_string(version));
  }
  const uint32_t payload_len = GetU32(frame.substr(5, 4));
  const uint64_t checksum = GetU64(frame.substr(9, 8));
  const std::string_view payload = frame.substr(kReportFrameHeaderBytes);
  if (payload.size() != payload_len) {
    return Status::ParseError(
        "report frame length mismatch: header says " +
        std::to_string(payload_len) + " payload bytes, frame carries " +
        std::to_string(payload.size()));
  }
  if (Checksum64(payload) != checksum) {
    return Status::ParseError("report frame checksum mismatch");
  }
  return payload;
}

Result<LdpClient> LdpClient::Create(const CollectionSpec& spec) {
  LDP_ASSIGN_OR_RETURN(Schema schema, spec.ToSchema());
  LDP_ASSIGN_OR_RETURN(auto mechanism, BuildSpecMechanism(spec, schema));
  return LdpClient(spec, std::move(schema), std::move(mechanism));
}

Result<std::string> LdpClient::EncodeUser(std::span<const uint32_t> values,
                                          Rng& rng) const {
  LDP_RETURN_NOT_OK(ValidateSensitiveValues(schema_, values));
  return FrameReport(mechanism_->EncodeUser(values, rng).Serialize());
}

Result<CollectionServer> CollectionServer::Create(const CollectionSpec& spec,
                                                  int num_threads) {
  LDP_ASSIGN_OR_RETURN(Schema schema, spec.ToSchema());
  auto exec = std::make_shared<ExecutionContext>(num_threads);
  LDP_ASSIGN_OR_RETURN(auto mechanism, BuildSpecMechanism(spec, schema));
  mechanism->set_execution_context(exec.get());
  return CollectionServer(spec, std::move(schema), std::move(exec),
                          std::move(mechanism));
}

Result<CollectionServer> CollectionServer::CreateDurable(
    const CollectionSpec& spec, const StorageOptions& storage,
    int num_threads) {
  const auto start = std::chrono::steady_clock::now();
  LDP_ASSIGN_OR_RETURN(CollectionServer server, Create(spec, num_threads));

  SnapshotLoad snapshot;
  WalScan replay;
  LDP_ASSIGN_OR_RETURN(
      std::shared_ptr<DurableStore> store,
      DurableStore::Open(storage, spec.Serialize(), &snapshot, &replay,
                         nullptr));

  // Phase 1 — snapshot restore: the accepted (user, payload) sequence in
  // acceptance order is the canonical accumulator state, so feeding it back
  // through AddReport rebuilds the mechanism bit-identically. AddReport
  // validates each entry again: these bytes come from disk. Stats are
  // restored from the header (the quarantined frames themselves were
  // compacted away, but their counts survive).
  if (snapshot.loaded) {
    // The store adopted the snapshot's entry section as its retained
    // sequence; restore from it (one chunk) before WAL replay appends to it.
    SnapshotEntry entry;
    for (const std::string& chunk : store->retained_section()) {
      for (size_t pos = 0; NextSnapshotEntry(chunk, &pos, &entry);) {
        auto report = LdpReport::Deserialize(entry.payload);
        if (!report.ok()) {
          // The snapshot passed its checksum, so this is a writer bug, not
          // disk corruption; refuse rather than recover a wrong state.
          return Status::Internal("snapshot entry for user " +
                                  std::to_string(entry.user) +
                                  " undecodable despite valid checksum: " +
                                  report.status().message());
        }
        LDP_RETURN_NOT_OK(server.mechanism_->AddReport(report.value(),
                                                       entry.user));
        server.users_.insert(entry.user);
      }
    }
    server.stats_.accepted = snapshot.data.accepted;
    server.stats_.duplicate = snapshot.data.duplicate;
    server.stats_.corrupt = snapshot.data.corrupt;
    server.stats_.rejected = snapshot.data.rejected;
  }

  // Phase 2 — WAL replay: each record holds the frames of one Ingest or
  // IngestBatch call, corrupt and duplicate ones included (they were logged
  // verbatim), and goes back through that call's pipeline without being
  // logged again, so post-recovery IngestStats match the pre-crash server
  // exactly.
  server.store_ = std::move(store);
  std::vector<ReportFrame> frames;
  for (const WalRecord& record : replay.records) {
    frames.clear();
    for (const WalRecord::Frame& frame : record.frames) {
      frames.push_back(ReportFrame{frame.bytes, frame.user});
    }
    LDP_RETURN_NOT_OK(server.IngestFrames(frames, {}, /*replay=*/true));
  }

  const uint64_t elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  server.store_->set_recovery_ms(elapsed_ms);
  RecoveryMsHistogram()->Record(elapsed_ms);
  return server;
}

Status CollectionServer::Ingest(std::string_view frame_bytes, uint64_t user) {
  const ReportFrame frame{frame_bytes, user};
  Status fate;
  LDP_RETURN_NOT_OK(IngestFrames(std::span<const ReportFrame>(&frame, 1),
                                 std::span<Status>(&fate, 1),
                                 /*replay=*/false));
  return fate;
}

Status CollectionServer::IngestBatch(std::span<const ReportFrame> frames) {
  return IngestFrames(frames, {}, /*replay=*/false);
}

Status CollectionServer::IngestFrames(std::span<const ReportFrame> frames,
                                      std::span<Status> fates, bool replay) {
  const uint64_t n = frames.size();
  if (n == 0) return Status::OK();

  // Phase A — one parallel pass. On a durable server task 0 appends the
  // whole batch as one WAL record; the other tasks unframe, deserialize and
  // structurally validate one contiguous chunk of frames each, writing only
  // their own slots. Decoding mutates no server state, so it may run beside
  // the append: nothing below starts until the append has returned OK, so
  // the log stays write-ahead and recovery batch-aligned — either the
  // entire batch replays or none of it does.
  enum : uint8_t { kDecoded = 0, kCorrupt = 1, kMisfit = 2 };
  std::vector<LdpReport> reports(n);
  std::vector<uint8_t> fate(n, kDecoded);
  // Decodes frame i into reports[i], or returns why it is corrupt or does
  // not fit the spec.
  const auto decode = [&](uint64_t i) -> Status {
    const auto payload = UnframeReport(frames[i].bytes);
    if (!payload.ok()) {
      fate[i] = kCorrupt;
      return payload.status();
    }
    auto report = LdpReport::Deserialize(payload.value());
    if (!report.ok()) {
      fate[i] = kCorrupt;
      return report.status();
    }
    Status valid = mechanism_->ValidateReport(report.value());
    if (!valid.ok()) {
      fate[i] = kMisfit;
      return valid;
    }
    reports[i] = std::move(report).value();
    return Status::OK();
  };
  const uint64_t threads = static_cast<uint64_t>(exec_->num_threads());
  const uint64_t chunk = (n + threads - 1) / threads;
  const uint64_t wal_tasks = store_ != nullptr && !replay ? 1 : 0;
  const uint64_t tasks = wal_tasks + (n + chunk - 1) / chunk;
  Status appended = Status::OK();
  const auto run_task = [&](uint64_t task) {
    if (task < wal_tasks) {
      std::vector<WalFrameRef> refs;
      refs.reserve(n);
      for (const ReportFrame& frame : frames) {
        refs.push_back(WalFrameRef{frame.user, frame.bytes});
      }
      appended = store_->AppendFrames(refs);
      return;
    }
    const uint64_t begin = (task - wal_tasks) * chunk;
    const uint64_t end = std::min(n, begin + chunk);
    for (uint64_t i = begin; i < end; ++i) {
      Status status = decode(i);
      if (!fates.empty()) fates[i] = std::move(status);
    }
  };
  if (tasks == wal_tasks + 1) {
    // One decode chunk has nothing to overlap with but the append, so both
    // run on the calling thread: a one-frame Ingest never wakes the pool.
    for (uint64_t task = 0; task < tasks; ++task) run_task(task);
  } else {
    exec_->ParallelFor(tasks, run_task);
  }
  // An append failure (ENOSPC, I/O error) leaves the whole batch un-applied.
  LDP_RETURN_NOT_OK(appended);

  // Phase B — serial commit, in frame order: the fate each frame gets when
  // the frames arrive one at a time (corrupt before duplicate before
  // rejected), including dedup against earlier frames of this same batch.
  std::vector<uint64_t> accepted;
  accepted.reserve(n);
  IngestStats batch;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t user = frames[i].user;
    if (fate[i] == kCorrupt) {
      ++batch.corrupt;
      continue;
    }
    // A rejected user stays un-seen, so a correct retry can still land.
    const bool seen =
        fate[i] == kMisfit ? users_.contains(user) : !users_.insert(user);
    if (seen) {
      ++batch.duplicate;
      if (!fates.empty()) {
        fates[i] = Status::AlreadyExists(
            "user " + std::to_string(user) +
            " already reported; duplicate discarded");
      }
    } else if (fate[i] == kMisfit) {
      ++batch.rejected;
    } else {
      ++batch.accepted;
      if (store_ != nullptr) {
        // fate != kCorrupt, so UnframeReport succeeded in phase A: the
        // payload is exactly the frame bytes past the header.
        store_->RetainAccepted(user,
                               frames[i].bytes.substr(kReportFrameHeaderBytes));
      }
      accepted.push_back(i);
    }
  }
  stats_.accepted += batch.accepted;
  stats_.duplicate += batch.duplicate;
  stats_.corrupt += batch.corrupt;
  stats_.rejected += batch.rejected;
  IngestMetrics().accepted->Add(batch.accepted);
  IngestMetrics().duplicate->Add(batch.duplicate);
  IngestMetrics().corrupt->Add(batch.corrupt);
  IngestMetrics().rejected->Add(batch.rejected);

  // Phase C — the accepted reports enter the mechanism in frame order, with
  // one shard per kExecChunkRows of them and at most one per worker (the
  // count AnalyticsEngine::Create uses). So a batch of at most kExecChunkRows
  // accepted reports is added straight into mechanism_. Each shard costs a
  // mechanism build and a merge; timed on 2 and 4 workers, sharding first
  // repaid that at about 4K accepted reports for SC, 8K for pooled
  // HIO+HDG+MG and 24K-32K for HIO, and far below that it was up to 8x
  // slower (DESIGN.md §8). kExecChunkRows sits inside that band. Larger
  // batches are added by workers over contiguous ranges into private
  // shards, and merging them in worker order reproduces the exact
  // frame-order sequence. Phase A validated every report, so none is
  // validated again here.
  const uint64_t m = accepted.size();
  const uint64_t num_workers = std::min<uint64_t>(
      threads, (m + kExecChunkRows - 1) / kExecChunkRows);
  if (num_workers <= 1) {
    for (const uint64_t i : accepted) {
      mechanism_->AddValidReportAt(reports[i], 0, frames[i].user);
    }
  } else {
    std::vector<std::unique_ptr<Mechanism>> shards(num_workers);
    for (auto& shard : shards) {
      LDP_ASSIGN_OR_RETURN(shard, mechanism_->NewShard());
    }
    exec_->ParallelFor(num_workers, [&](uint64_t w) {
      const uint64_t begin = w * m / num_workers;
      const uint64_t end = (w + 1) * m / num_workers;
      for (uint64_t j = begin; j < end; ++j) {
        const uint64_t i = accepted[j];
        shards[w]->AddValidReportAt(reports[i], 0, frames[i].user);
      }
    });
    for (auto& shard : shards) {
      LDP_RETURN_NOT_OK(mechanism_->Merge(std::move(*shard)));
    }
  }
  if (!replay) MaybeSnapshot();
  return Status::OK();
}

void CollectionServer::MaybeSnapshot() {
  if (store_ == nullptr || !store_->ShouldSnapshot()) return;
  // Failure is non-fatal: the WAL still covers everything this snapshot
  // would have compacted, so ingest keeps going. The error is observable
  // through last_snapshot_status() and storage.snapshot_failures.
  (void)store_->WriteSnapshotNow(stats_.accepted, stats_.duplicate,
                                 stats_.corrupt, stats_.rejected);
}

Result<double> CollectionServer::EstimateBox(std::span<const Interval> ranges,
                                             const WeightVector& weights) const {
  return mechanism_->EstimateBox(ranges, weights);
}

Result<double> CollectionServer::EstimateBoxForPopulation(
    std::span<const Interval> ranges, const WeightVector& weights,
    uint64_t intended_population) const {
  if (intended_population < stats_.accepted) {
    return Status::InvalidArgument(
        "intended population " + std::to_string(intended_population) +
        " smaller than the " + std::to_string(stats_.accepted) +
        " accepted reports");
  }
  LDP_ASSIGN_OR_RETURN(const double cohort, EstimateBox(ranges, weights));
  return cohort * static_cast<double>(intended_population) /
         static_cast<double>(stats_.accepted);
}

}  // namespace ldp
