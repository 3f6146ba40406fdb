#ifndef LDPMDA_PLAN_STATS_STORE_H_
#define LDPMDA_PLAN_STATS_STORE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "obs/metrics.h"

namespace ldp {

/// One measured execution of a plan, as observed by the engine. Wall times
/// are nondeterministic timing data; nodes_touched and estimate_calls are
/// deterministic work measures (identical across thread counts, estimate
/// cache on/off, and SIMD levels).
struct PlanObservation {
  uint64_t wall_nanos = 0;
  uint64_t estimate_calls = 0;
  /// Hierarchy/grid nodes the execution touched, cached or not, as the
  /// `estimate.nodes` counter counts them — so the measure is invariant to
  /// the estimate cache. Best-effort while metrics are disabled, when that
  /// counter stands still.
  uint64_t nodes_touched = 0;
};

/// EWMA-smoothed per-fingerprint actuals.
struct PlanStats {
  uint64_t observations = 0;
  double ewma_wall_nanos = 0.0;
  double ewma_estimate_calls = 0.0;
  double ewma_nodes = 0.0;
};

/// Bounded, thread-safe store of measured plan costs, keyed by plan
/// fingerprint — the data source of EXPLAIN's predicted-vs-actual block.
/// AnalyticsEngine records one PlanObservation per Execute/ExecuteBatch plan
/// execution. The store is display data only: nothing in planning or
/// execution reads it.
///
/// Smoothing is a classic EWMA: the first observation seeds the value,
/// subsequent ones fold in as ewma += kAlpha * (v - ewma). Entries are
/// evicted least-recently-recorded first when the store exceeds
/// max_entries().
///
/// GlobalMetrics mirrors activity under `plan.feedback_records` and
/// `plan.feedback_evictions`.
class PlanStatsStore {
 public:
  /// EWMA smoothing factor.
  static constexpr double kAlpha = 0.25;
  /// Observations a fingerprint needs before EXPLAIN shows its actuals.
  static constexpr uint64_t kWarmupObservations = 3;

  explicit PlanStatsStore(size_t max_entries = 1024);

  /// Folds one measured execution into the fingerprint's EWMA entry,
  /// creating (and possibly evicting) as needed.
  void Record(uint64_t fingerprint, const PlanObservation& obs);

  /// The smoothed stats for a plan fingerprint, if recorded.
  std::optional<PlanStats> Lookup(uint64_t fingerprint) const;

  size_t max_entries() const { return max_entries_; }
  size_t size() const;

 private:
  struct Entry {
    PlanStats stats;
    std::list<uint64_t>::iterator lru_it;
  };

  size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  /// Least-recently-recorded order, front = evict first.
  std::list<uint64_t> lru_;
  Counter* m_records_;
  Counter* m_evictions_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_STATS_STORE_H_
