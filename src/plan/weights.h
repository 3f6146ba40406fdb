#ifndef LDPMDA_PLAN_WEIGHTS_H_
#define LDPMDA_PLAN_WEIGHTS_H_

#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "data/table.h"
#include "fo/frequency_oracle.h"
#include "query/aggregate.h"
#include "query/plan.h"
#include "query/predicate.h"

namespace ldp {

/// Builds and caches the per-user weight vectors behind ExactFilterOp: the
/// component's base weights (all-ones for COUNT, the measure expression for
/// SUM, its square for SUMSQ) with the term's public-dimension constraints
/// folded in exactly (a non-matching user contributes 0 — Section 7).
///
/// Weight vectors are shared across queries keyed by
/// (component, measure expression, public constraints). At most
/// kMaxCachedWeightVectors are resident; a miss at the cap evicts the least
/// recently used one. Each key keeps the id of its first build for the
/// store's lifetime, and a rebuild after eviction reuses it: the table never
/// changes, so the values are bit-identical, and the estimate-cache entries
/// and accumulator histograms keyed by that id stay valid. Remembering the
/// ids costs one small entry per distinct key ever seen. Thread-safe behind
/// one mutex (construction is rare; the hot path is a lookup).
///
/// GlobalMetrics: `weights.hits` and `weights.builds` (one of the two per
/// Get), `weights.evictions`, and the `weights.resident_bytes` gauge — the
/// bytes of the vectors every live store holds.
class WeightStore {
 public:
  explicit WeightStore(const Table& table) : table_(table) {}
  ~WeightStore();

  /// Canonical cache/dedup key — also used by the batch executor to merge
  /// identical estimate tasks across queries. Lossless: coefficients other
  /// than 1 and a nonzero constant are written as hex floats.
  static std::string Key(ComponentKind component, const MeasureExpr& expr,
                         const Schema& schema,
                         std::span<const Constraint> public_constraints);

  /// The weight vector for (component, expr, public constraints); built on
  /// first use or after eviction, then shared. Values are bit-identical to
  /// an uncached build.
  Result<std::shared_ptr<const WeightVector>> Get(
      ComponentKind component, const MeasureExpr& expr,
      std::span<const Constraint> public_constraints);

 private:
  /// Resident-vector cap: weight vectors are O(n) doubles (8 MB at 1M
  /// users), so a handful of live ones is plenty for templated workloads.
  static constexpr size_t kMaxCachedWeightVectors = 32;

  struct Entry {
    uint64_t id = 0;  // 0 until the first build
    std::shared_ptr<const WeightVector> vector;  // null while evicted
    std::list<std::string>::iterator recency;    // valid while resident
  };

  const Table& table_;
  std::mutex mu_;
  /// Every key built so far, resident or evicted.
  std::unordered_map<std::string, Entry> entries_;
  /// Resident keys, most recently used first.
  std::list<std::string> recency_;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_WEIGHTS_H_
