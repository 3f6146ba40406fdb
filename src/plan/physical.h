#ifndef LDPMDA_PLAN_PHYSICAL_H_
#define LDPMDA_PLAN_PHYSICAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mech/advisor.h"
#include "mech/mechanism.h"
#include "query/plan.h"

namespace ldp {

/// Physical operators a logical plan lowers to. The op list is the unit of
/// execution (PlanExecutor replays it in order) and of explanation
/// (ExplainPlan renders it); both consume the same structure, so what EXPLAIN
/// shows is what runs.
enum class PlanOpKind {
  /// Materializes (or reuses) the per-user weight vector for one
  /// (component, public-constraint set): the exact server-side pre-filter of
  /// public dimensions. Deduplicated across terms and components — two
  /// estimate ops with the same weight key share one filter op.
  kExactFilter,
  /// One mechanism box estimate: the term's sensitive box against the
  /// filter op's weights. The executor sends all of a plan's boxes to the
  /// mechanism in one EstimateBoxes call.
  kNodeEstimate,
  /// Combines the per-component totals into the final aggregate
  /// (AVG = SUM/COUNT, STDEV from SUMSQ/SUM/COUNT). Always the last op.
  kAggregateCompose,
};

const char* PlanOpKindName(PlanOpKind kind);

/// How the mechanism answers the plan's boxes — a descriptive label chosen by
/// the planner from the mechanism kind: the mechanism's native execution
/// shape. It never changes results.
enum class PlanStrategy {
  /// Per-level hierarchy/grid estimates summed over the canonical
  /// decomposition (HI, HIO, QuadTree, Haar).
  kDirectLevelGrid,
  /// Split-and-conquer dual path: per-dimension inner sums combined across
  /// the (dimension, level) report groups.
  kScDualPath,
  /// Marginal-grid cell streaming: the box sum enumerates grid cells.
  kMgCellStream,
  /// HDG: response-count weighted combination over the 1-D/2-D grids
  /// covering the constrained dimensions.
  kHdgGridCombine,
  /// CALM: response-count weighted combination over the covering size-k
  /// marginals' sub-boxes.
  kCalmMarginalCombine,
};

const char* PlanStrategyName(PlanStrategy strategy);

/// One physical operator. `deps` are indices of ops that must run first;
/// the planner emits ops pre-toposorted, so executing in list order always
/// satisfies them.
struct PlanOp {
  PlanOpKind kind = PlanOpKind::kNodeEstimate;
  /// Component this op contributes to (filter/estimate ops).
  ComponentKind component = ComponentKind::kCount;
  /// Index into LogicalPlan::terms (estimate ops; -1 otherwise).
  int term = -1;
  /// Index of the kExactFilter op whose weights this op consumes (-1 n/a).
  int weight_op = -1;
  std::vector<int> deps;
  /// Planner's node-count prediction for this op (cost annotation).
  uint64_t predicted_nodes = 0;
  /// kExactFilter only: the canonical weight key (WeightStore::Key) — also
  /// the batch executor's dedup handle.
  std::string weight_key;
};

/// A fully lowered, executable query plan: the logical plan plus the
/// mechanism-specific strategy, the op list, and the planner's cost
/// annotations. Immutable after planning; the plan cache shares instances
/// across queries via shared_ptr<const PhysicalPlan>.
struct PhysicalPlan {
  LogicalPlan logical;
  MechanismKind mechanism = MechanismKind::kHio;
  PlanStrategy strategy = PlanStrategy::kDirectLevelGrid;
  /// Advisor verdict for the workload this query implies (Section 5.4
  /// turning points); predicted_variance is the proxy for the mechanism the
  /// plan actually targets.
  MechanismAdvice advice;
  double predicted_variance = 0.0;
  /// Sum of per-op predicted node counts — the planner's cost proxy for the
  /// estimate fan-out (what the batch dedup reduces).
  uint64_t predicted_node_estimates = 0;
  /// Signed inclusion–exclusion volume fraction of the predicate (exact
  /// union volume of the boxes, as a fraction of the sensitive domain).
  double query_volume = 0.0;
  /// Number of sensitive dimensions the predicate constrains (>= 1).
  int query_dims = 1;
  /// Report-store epoch (Mechanism::num_reports) the plan was built at; the
  /// plan cache hard-drops entries whose epoch differs in either direction.
  uint64_t epoch = 0;
  /// Checksum of the canonical plan text (epoch excluded): two structurally
  /// identical plans have the same fingerprint across runs and processes.
  uint64_t fingerprint = 0;
  /// Per-candidate cost-model scores behind the mechanism choice, in
  /// candidate-registration order. Empty for single-mechanism planners (the
  /// choice is forced), so single-mechanism EXPLAIN output is unchanged.
  std::vector<MechanismScore> candidates;
  std::vector<PlanOp> ops;

  /// Stable human-readable EXPLAIN rendering. Deterministic: fixed field
  /// order, %.6g doubles, no pointers or hash-order iteration.
  std::string ToText(const Schema& schema) const;
  /// The same content as a single JSON object.
  std::string ToJson(const Schema& schema) const;
};

}  // namespace ldp

#endif  // LDPMDA_PLAN_PHYSICAL_H_
