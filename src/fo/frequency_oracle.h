#ifndef LDPMDA_FO_FREQUENCY_ORACLE_H_
#define LDPMDA_FO_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ldp {

/// Shared GlobalMetrics handles for the oracles' weighted-histogram and
/// spectrum caches (`fo_cache.*`, see WeightSetCache): hits (a cached entry
/// that covers every report, served as is), builds (entries made: first
/// builds plus the replacements of stale ones), stale_rebuilds (the builds
/// that found a stale entry; OLH extends it by the appended reports, GRR and
/// HR rebuild it from all of them), evictions (least recently used entries
/// dropped at capacity), folded_reports (reports folded into entries by
/// builds: all of them for a first build or a full rebuild, only the
/// appended ones for an extended OLH histogram), build_ns (wall time of each
/// build — `fo_cache.histogram_build_ns`). Resolved once per process.
struct FoCacheCounters {
  Counter* hits;
  Counter* builds;
  Counter* stale_rebuilds;
  Counter* evictions;
  Counter* folded_reports;
  LatencyHistogram* build_ns;
};
const FoCacheCounters& FoCacheMetrics();

/// Shared GlobalMetrics handles for the estimate kernels. `nodes`
/// (`estimate.nodes`) counts the nodes (SC: sub-queries) an estimate
/// touches, cached or not; `batches` (`estimate.batches`) counts the kernel
/// tasks fanned out. `report_values` (`estimate.report_values`) counts
/// kernel inner-loop evaluations — one per (report, value) pair for raw
/// scans, (pool seed, value) for pooled OLH histograms, (spectrum entry,
/// value) for HR — so production per-report kernel throughput is
/// report_values over wall time, the same reports-per-second figure the
/// benches record.
struct FoEstimateCounters {
  Counter* nodes;
  Counter* batches;
  Counter* report_values;
};
const FoEstimateCounters& FoEstimateMetrics();

/// Which LDP frequency-oracle protocol to use as the building block.
/// The paper uses OLH (optimal local hashing, [35]); GRR, OUE and Hadamard
/// response are included as drop-in alternates for ablation studies.
/// kAdaptive applies [35]'s selection rule per domain: GRR when the domain
/// is smaller than 3 e^eps + 2 (where direct encoding has lower variance),
/// OLH otherwise — useful inside HI/HIO where shallow levels have tiny
/// domains and deep levels large ones.
enum class FoKind { kOlh, kGrr, kOue, kHr, kAdaptive };

std::string FoKindName(FoKind kind);
Result<FoKind> FoKindFromString(std::string_view name);

/// One LDP report produced by a frequency-oracle encoder.
/// OLH uses (seed, value); GRR uses value only; OUE uses the bit vector.
struct FoReport {
  uint32_t seed = 0;
  uint32_t value = 0;
  std::vector<uint64_t> bits;  // OUE only
};

/// A reusable per-user weight assignment (the public measure M, an all-ones
/// vector for COUNT, or measure x public-predicate indicator; Sections 3.1
/// and 7). The id keys every cache derived from the weights (accumulator
/// histograms, estimate-cache entries), so two instances share an id only
/// if their values are bit-identical.
class WeightVector {
 public:
  /// Takes a fresh, never-used id.
  explicit WeightVector(std::vector<double> weights);
  /// Reuses `id`, which must have been given to bit-identical `weights`:
  /// every cache keyed by it then stays valid. WeightStore is the only
  /// caller — it rebuilds an evicted vector from an unchanging table.
  WeightVector(std::vector<double> weights, uint64_t id);

  /// All-ones weights of length n (COUNT aggregation).
  static WeightVector Ones(uint64_t n);

  uint64_t id() const { return id_; }
  uint64_t size() const { return weights_.size(); }
  double operator[](uint64_t i) const { return weights_[i]; }
  const std::vector<double>& values() const { return weights_; }

  /// Sum of all weights.
  double total() const { return total_; }
  /// Sum of squared weights (M2_S in the paper's bounds).
  double sum_squares() const { return sum_squares_; }
  /// Whether every weight is exactly 1.0 (COUNT), so a sum of weights over
  /// any subset of users is that subset's size.
  bool unit() const { return unit_; }

 private:
  uint64_t id_;
  std::vector<double> weights_;
  double total_ = 0.0;
  double sum_squares_ = 0.0;
  bool unit_ = true;
};

/// Server-side state for one group of reports encoded with the same
/// protocol instance. Supports unbiased weighted-frequency estimation
/// (Prop. 4): an estimate of  f^M_S(v) = sum of w_t over users t in this
/// group with t[D] = v.
class FoAccumulator {
 public:
  virtual ~FoAccumulator() = default;

  /// Adds one report. `user` is the global row id of the reporting user and
  /// indexes into WeightVector at estimation time.
  virtual void Add(const FoReport& report, uint64_t user) = 0;

  virtual uint64_t num_reports() const = 0;

  /// --- Combiner interface (shard-parallel ingestion) ---
  /// Creates an empty accumulator of the same concrete type bound to the
  /// same protocol — a thread-private ingest shard. N workers Add() into
  /// private shards over contiguous report chunks, then the owner folds them
  /// back with Merge() in chunk order, which reproduces exactly the report
  /// order (and therefore the bit-exact estimates) of serial ingestion.
  virtual std::unique_ptr<FoAccumulator> NewShard() const = 0;

  /// Appends `other`'s reports after this accumulator's own, preserving
  /// their relative order. `other` must come from NewShard() of a compatible
  /// accumulator (same concrete type and protocol); it is consumed and left
  /// empty. Returns InvalidArgument on a type mismatch.
  virtual Status Merge(FoAccumulator&& other) = 0;

  /// The estimate entry point: out[i] receives an unbiased estimate of the
  /// total weight of users in this group holding values[i], with one pass
  /// over the reports (or one cached histogram fetch) amortized across the
  /// whole batch. `out.size()` must equal `values.size()`. The same reports
  /// may be estimated against any number of weight vectors
  /// (post-processing under LDP).
  ///
  /// Each value's floating-point accumulation order is the report order
  /// regardless of how a value set is split into batches, so callers may
  /// tile `values` freely — including in parallel over disjoint tiles, or
  /// one value at a time — and always get the same bits. Thread-safe against
  /// concurrent estimate and GroupWeight calls (estimation fan-out); NOT
  /// against a concurrent Add or Merge — ingestion and estimation are
  /// distinct stages.
  virtual void EstimateManyWeighted(std::span<const uint64_t> values,
                                    const WeightVector& w,
                                    std::span<double> out) const = 0;

  /// EstimateManyWeighted for one value.
  double EstimateWeighted(uint64_t value, const WeightVector& w) const {
    double out = 0.0;
    EstimateManyWeighted(std::span<const uint64_t>(&value, 1), w,
                         std::span<double>(&out, 1));
    return out;
  }

  /// Sum of w over users in this group (exact; weights are public).
  virtual double GroupWeight(const WeightVector& w) const = 0;
};

/// A configured LDP frequency-oracle protocol: client-side `Encode` plus a
/// factory for server-side accumulators.
class FrequencyOracle {
 public:
  virtual ~FrequencyOracle() = default;

  /// Creates a protocol with privacy budget `epsilon` (per report) over a
  /// domain of `domain_size` values. `hash_pool_size` restricts OLH seeds to
  /// a pool (0 = unbounded, exactly unbiased; finite pools trade a small
  /// conditional bias for O(pool) cell estimates); ignored by GRR/OUE.
  static Result<std::unique_ptr<FrequencyOracle>> Create(
      FoKind kind, double epsilon, uint64_t domain_size,
      uint32_t hash_pool_size = 0);

  /// Encodes a private value into an LDP report (runs on the client).
  virtual FoReport Encode(uint64_t value, Rng& rng) const = 0;

  /// Range check of a received report's payload: everything an accumulator's
  /// Add and estimate kernels assume of it (they index histograms and bit
  /// rows by its fields unchecked). OutOfRange when the payload could not
  /// have come from Encode; a report must pass it before reaching Add.
  virtual Status ValidateReport(const FoReport& report) const = 0;

  virtual std::unique_ptr<FoAccumulator> MakeAccumulator() const = 0;

  virtual FoKind kind() const = 0;
  virtual double epsilon() const = 0;
  virtual uint64_t domain_size() const = 0;

  /// Size of one serialized report in 64-bit words (Table 3 accounting).
  virtual uint64_t ReportSizeWords() const = 0;
};

/// A dense collection of (protocol, accumulator) pairs indexed by group id.
/// HI/HIO group by (multi-dim) level, SC by (dimension, level), MG has a
/// single group. Shared server-side plumbing for all mechanisms.
class ReportStore {
 public:
  /// Appends a group; group ids are assigned densely in call order.
  int AddGroup(std::unique_ptr<FrequencyOracle> oracle);

  int num_groups() const { return static_cast<int>(oracles_.size()); }

  const FrequencyOracle& oracle(int group) const { return *oracles_[group]; }
  FoAccumulator& accumulator(int group) { return *accumulators_[group]; }
  const FoAccumulator& accumulator(int group) const {
    return *accumulators_[group];
  }

  /// Encodes `value` with group `group`'s protocol (client side).
  FoReport Encode(int group, uint64_t value, Rng& rng) const {
    return oracles_[group]->Encode(value, rng);
  }

  /// Adds a report to group `group` (server side).
  void Add(int group, const FoReport& report, uint64_t user) {
    accumulators_[group]->Add(report, user);
  }

  /// Folds `other`'s per-group shard accumulators into this store's (group
  /// by group, appending after the existing reports). `other` must have been
  /// built from the same oracle configuration; it is consumed.
  Status MergeFrom(ReportStore&& other);

 private:
  std::vector<std::unique_ptr<FrequencyOracle>> oracles_;
  std::vector<std::unique_ptr<FoAccumulator>> accumulators_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_FREQUENCY_ORACLE_H_
