#ifndef LDPMDA_ENGINE_PROTOCOL_H_
#define LDPMDA_ENGINE_PROTOCOL_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/user_set.h"
#include "exec/execution_context.h"
#include "mech/factory.h"
#include "storage/durable_store.h"

namespace ldp {

/// The server-published description of a collection campaign: everything a
/// client needs to produce a valid eps-LDP report — the mechanism, its
/// parameters, and the sensitive attributes with their domains. In a real
/// deployment the server ships this (signed) spec to the client app; here it
/// is a small line-based text format:
///
///   ldpmda-collection-spec v1
///   mechanism=hio
///   epsilon=2
///   fanout=5
///   fo=olh
///   pool=0
///   dim=age ordinal 54
///   dim=state categorical 6
///
/// A multi-mechanism campaign lists its kinds comma-separated
/// (`mechanism=hio,hdg`): clients then spend their full eps on one
/// uniformly drawn mechanism (user-partitioned budget — see
/// MultiMechanism) and the server hosts every listed kind over the one
/// report population. An optional `hint=<N>` line carries
/// MechanismParams::population_hint for mechanisms whose layout depends on
/// the expected population size (HDG, CALM); it is omitted when zero.
///
/// Reports travel back framed (version 1; all integers little-endian):
///
///   [0, 4)    magic "LDPR"
///   [4, 5)    frame version (0x01)
///   [5, 9)    u32 payload length
///   [9, 17)   u64 Checksum64 of the payload
///   [17, ...) payload: the LdpReport binary serialization (mechanism.h)
///
/// The length prefix and checksum let CollectionServer::Ingest reject any
/// truncated or bit-flipped report with a typed Status instead of feeding
/// garbage to the estimators; see "Failure model & degradation" in DESIGN.md.
struct CollectionSpec {
  MechanismKind mechanism = MechanismKind::kHio;
  /// Multi-mechanism campaign: when this holds two or more kinds it
  /// overrides `mechanism` and the client/server pair is built on the
  /// MultiMechanism composite. Empty (the default) or a single entry means
  /// the classic single-mechanism deployment described by `mechanism`.
  std::vector<MechanismKind> mechanisms;
  MechanismParams params;
  /// Sensitive attributes only (name, kind, domain), in report order.
  std::vector<Attribute> sensitive_attributes;

  /// Builds a spec advertising `schema`'s sensitive dimensions.
  static CollectionSpec FromSchema(const Schema& schema, MechanismKind kind,
                                   const MechanismParams& params);
  /// Multi-mechanism variant: registers every kind in `kinds` (first is the
  /// primary; at least one required).
  static CollectionSpec FromSchema(const Schema& schema,
                                   std::span<const MechanismKind> kinds,
                                   const MechanismParams& params);

  std::string Serialize() const;
  /// Parses a serialized spec. Every failure names the offending line number
  /// and field, e.g. "spec line 3: fanout: must be >= 2 (got '1')".
  static Result<CollectionSpec> Parse(std::string_view text);

  /// A schema holding exactly the sensitive dimensions (what the client and
  /// server mechanisms are instantiated from).
  Result<Schema> ToSchema() const;
};

/// Size of the wire-frame header prepended to every serialized report.
inline constexpr size_t kReportFrameHeaderBytes = 17;
/// Frame version emitted by FrameReport and accepted by UnframeReport.
inline constexpr uint8_t kReportFrameVersion = 1;

/// Wraps a serialized LdpReport payload in the framed wire format above.
std::string FrameReport(std::string_view payload);

/// Validates a frame (magic, version, length, checksum) and returns a view
/// of the payload inside `frame`, which must outlive the returned view.
/// Any malformed or corrupted frame yields a typed ParseError.
Result<std::string_view> UnframeReport(std::string_view frame);

/// Client-side half of the deployment: parses a spec and encodes one user's
/// values into framed wire bytes. Holds no user data between calls.
class LdpClient {
 public:
  static Result<LdpClient> Create(const CollectionSpec& spec);

  /// Encodes the user's sensitive values (spec order) into a framed,
  /// checksummed eps-LDP report ready to send.
  Result<std::string> EncodeUser(std::span<const uint32_t> values,
                                 Rng& rng) const;

  const CollectionSpec& spec() const { return spec_; }

 private:
  LdpClient(CollectionSpec spec, Schema schema,
            std::unique_ptr<Mechanism> mechanism)
      : spec_(std::move(spec)),
        schema_(std::move(schema)),
        mechanism_(std::move(mechanism)) {}

  CollectionSpec spec_;
  Schema schema_;
  std::shared_ptr<Mechanism> mechanism_;  // shared: LdpClient is copyable
};

/// What happened to every frame handed to CollectionServer::Ingest.
struct IngestStats {
  uint64_t accepted = 0;   ///< validated, first report for its user
  uint64_t duplicate = 0;  ///< retry echoes / repeats, ingested zero times
  uint64_t corrupt = 0;    ///< framing, checksum, or deserialize failure
  uint64_t rejected = 0;   ///< well-formed bytes that don't fit the spec

  /// Reports set aside instead of ingested (never fed to estimators).
  uint64_t quarantined() const { return corrupt + rejected; }
  /// Every frame seen, whatever its fate.
  uint64_t total() const { return accepted + duplicate + corrupt + rejected; }
};

/// Server-side half: ingests framed wire bytes and answers box queries. (The
/// AnalyticsEngine offers the richer SQL surface when the fact table lives
/// in-process; CollectionServer is the transport-level building block.)
///
/// Ingest is fault-tolerant: malformed bytes are quarantined with a typed
/// Status (never a crash or silent acceptance), repeats of a user's report
/// are deduplicated, and estimates are renormalized by the count of
/// *accepted* reports, so dropout shrinks the cohort instead of biasing it.
class CollectionServer {
 public:
  /// `num_threads` sizes the server's shard-parallel execution context
  /// (IngestBatch staging and estimation fan-out); <= 0 means one worker per
  /// hardware thread. Results are bit-identical for every value.
  static Result<CollectionServer> Create(const CollectionSpec& spec,
                                         int num_threads = 1);

  /// Like Create, but backed by a write-ahead log + snapshots in
  /// `storage.dir` (created if needed). If the directory already holds
  /// state from a previous run, recovery replays it before returning:
  /// the newest valid snapshot restores the accepted-report sequence and
  /// IngestStats, then each WAL record past it (the frames of one Ingest or
  /// IngestBatch call) goes back through the ingest pipeline without being
  /// logged again, so dedup, quarantine and renormalization decisions — and
  /// therefore every estimate — are bit-identical to a process that never
  /// crashed. A torn WAL tail or a corrupt snapshot degrades recovery to the
  /// longest checksummed-valid prefix (details in
  /// recovery_info()->degradation); it never fails the open and never
  /// silently invents or drops a durable record.
  static Result<CollectionServer> CreateDurable(const CollectionSpec& spec,
                                                const StorageOptions& storage,
                                                int num_threads = 1);

  /// Validates and ingests one framed report for user id `user`: a
  /// one-frame IngestBatch that runs on the calling thread and returns the
  /// frame's fate. Non-OK outcomes are typed: kParseError for corrupt frames
  /// or payloads, kAlreadyExists for a duplicate user, the mechanism's own
  /// code for well-formed reports that don't fit the spec, and the append's
  /// error (the frame left un-applied) when the WAL write fails. Never
  /// aborts the process.
  Status Ingest(std::string_view frame_bytes, uint64_t user);

  /// One framed report awaiting ingestion; `bytes` must stay alive for the
  /// duration of the IngestBatch call.
  struct ReportFrame {
    std::string_view bytes;
    uint64_t user = 0;
  };

  /// Ingests a batch of frames with the staged shard-parallel pipeline, the
  /// one ingest path (Ingest and WAL replay run it too):
  /// (A) one parallel pass: on a durable server one task appends the batch
  ///     as one WAL record while the others unframe, deserialize and
  ///     structurally validate a contiguous chunk of frames each
  ///     (ceil(frames / num_threads) per chunk); decoding mutates nothing.
  ///     With a single decode chunk both tasks run on the calling thread;
  /// (B) once the append returned OK, per-frame fate decisions (corrupt /
  ///     duplicate / rejected / accepted) serially in frame order — the
  ///     exact semantics of calling Ingest on each frame in order, including
  ///     intra-batch dedup;
  /// (C) accepted reports, validated once in (A), added straight into the
  ///     mechanism when there are at most kExecChunkRows of them, otherwise
  ///     into one shard mechanism per kExecChunkRows (at most one per
  ///     worker) over contiguous ranges, merged back in worker order. The
  ///     threshold lies inside the measured band where shards start to pay
  ///     for themselves (DESIGN.md §8).
  /// Afterwards the server state (stats, dedup set, accumulated reports) is
  /// bitwise what the serial Ingest loop would have produced, for any thread
  /// count. Per-frame failures are recorded in ingest_stats(), not returned;
  /// the Status is non-OK for a failed WAL append (kIoError and the like,
  /// with the server left untouched) and for internal pipeline failures.
  Status IngestBatch(std::span<const ReportFrame> frames);

  uint64_t num_reports() const { return mechanism_->num_reports(); }
  const IngestStats& ingest_stats() const { return stats_; }
  /// True when an accepted report from `user` is in the aggregate.
  bool has_report(uint64_t user) const { return users_.contains(user); }

  /// Unbiased weighted box estimate over the *accepted cohort* (one range
  /// per sensitive dimension, spec order); weights are the server-known
  /// public measures, indexed by user id. The mechanism's EstimateBox:
  /// kFailedPrecondition — never NaN — when zero reports survived ingest,
  /// and kInvalidArgument when `weights` has no entry for the largest
  /// accepted user id.
  Result<double> EstimateBox(std::span<const Interval> ranges,
                             const WeightVector& weights) const;

  /// Extrapolates the accepted-cohort estimate to an intended population of
  /// `intended_population` users by inverse-propensity scaling with the
  /// empirical response rate accepted / intended. Unbiased when dropout is
  /// independent of the users' sensitive values (missing completely at
  /// random); under selective dropout no estimator can recover the
  /// population total from the survivors alone.
  Result<double> EstimateBoxForPopulation(std::span<const Interval> ranges,
                                          const WeightVector& weights,
                                          uint64_t intended_population) const;

  const Mechanism& mechanism() const { return *mechanism_; }

  int num_threads() const { return exec_->num_threads(); }

  /// Opt into the cross-query estimate cache (same knob EngineOptions
  /// exposes); 0 bytes disables. Ingest invalidates it epoch-wise, so the
  /// cache never changes estimates — including across crash recovery.
  void EnableEstimateCache(size_t max_bytes) {
    mechanism_->EnableEstimateCache(max_bytes);
  }

  /// Null for a non-durable server; otherwise what recovery found on open.
  const RecoveryInfo* recovery_info() const {
    return store_ != nullptr ? &store_->recovery_info() : nullptr;
  }

  /// OK for a non-durable server or when the last automatic snapshot
  /// succeeded; otherwise the typed error (snapshot failures are non-fatal —
  /// the WAL still covers everything the snapshot would have compacted).
  Status last_snapshot_status() const {
    return store_ != nullptr ? store_->last_snapshot_status() : Status::OK();
  }

  /// Durable server: fsyncs the WAL regardless of sync policy (graceful
  /// shutdown). No-op for a non-durable server.
  Status Flush() {
    return store_ != nullptr ? store_->Flush() : Status::OK();
  }

 private:
  CollectionServer(CollectionSpec spec, Schema schema,
                   std::shared_ptr<ExecutionContext> exec,
                   std::unique_ptr<Mechanism> mechanism)
      : spec_(std::move(spec)),
        schema_(std::move(schema)),
        exec_(std::move(exec)),
        mechanism_(std::move(mechanism)) {}

  /// The ingest pipeline (phases A-C of IngestBatch). `fates`, when not
  /// empty, receives every frame's typed outcome, OK for an accepted one.
  /// `replay` marks frames recovered from the WAL: they are not appended
  /// again and trigger no snapshot. Retains accepted payloads in store_.
  Status IngestFrames(std::span<const ReportFrame> frames,
                      std::span<Status> fates, bool replay);

  /// Writes an automatic snapshot when the store says one is due. Failures
  /// are recorded in last_snapshot_status(), never surfaced to ingest, and
  /// the next attempt waits a full snapshot interval like after a success.
  void MaybeSnapshot();

  CollectionSpec spec_;
  Schema schema_;
  /// Declared before mechanism_: the mechanism holds a raw pointer into it.
  std::shared_ptr<ExecutionContext> exec_;
  std::shared_ptr<Mechanism> mechanism_;
  IngestStats stats_;
  UserSet users_;  // accepted users, for dedup
  /// Null for a non-durable server (Create); set by CreateDurable.
  std::shared_ptr<DurableStore> store_;
};

}  // namespace ldp

#endif  // LDPMDA_ENGINE_PROTOCOL_H_
