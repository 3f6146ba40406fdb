#include "plan/executor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "fo/frequency_oracle.h"
#include "mech/multi.h"

namespace ldp {

namespace {

Counter* EstimateCalls() {
  static Counter* c = GlobalMetrics().counter("plan.estimate_calls");
  return c;
}
Counter* BatchDedupHits() {
  static Counter* c = GlobalMetrics().counter("plan.batch_dedup_hits");
  return c;
}

/// Dedup handle of one estimate op: the chosen mechanism, the weight key
/// (component + expr + public constraints) and the sensitive box —
/// everything the estimate depends on besides the reports. The mechanism
/// prefix keeps a multi-mechanism batch from sharing estimates across plans
/// that chose different mechanisms; on single-mechanism engines it is a
/// constant, so grouping is unchanged.
std::string TaskKey(const PlanOp& op, const PhysicalPlan& plan) {
  std::ostringstream key;
  key << MechanismKindName(plan.mechanism) << "|"
      << plan.ops[op.weight_op].weight_key << "|";
  for (const Interval& r : plan.logical.terms[op.term].sensitive) {
    key << r.lo << "-" << r.hi << ";";
  }
  return key.str();
}

/// Summed stats of the estimate caches `mechanism` probes: its own, or a
/// MultiMechanism's per-sub caches (the composite holds none itself).
EstimateCache::Stats CacheStatsOf(const Mechanism& mechanism) {
  EstimateCache::Stats sum;
  auto add = [&sum](const EstimateCache* cache) {
    if (cache == nullptr) return;
    const EstimateCache::Stats stats = cache->stats();
    sum.hits += stats.hits;
    sum.misses += stats.misses;
    sum.epoch_drops += stats.epoch_drops;
  };
  add(mechanism.estimate_cache());
  if (const auto* multi = dynamic_cast<const MultiMechanism*>(&mechanism)) {
    for (int i = 0; i < multi->num_sub_mechanisms(); ++i) {
      add(multi->sub(i).estimate_cache());
    }
  }
  return sum;
}

}  // namespace

struct PlanExecutor::RunState {
  /// task key -> estimate; shared across the ops (and plans) of one call.
  std::unordered_map<std::string, double> memo;
  bool dedup = false;
};

PlanExecutor::PlanExecutor(const Table& table, const Mechanism& mechanism,
                           const ExecutionContext& exec)
    : table_(table),
      mechanism_(mechanism),
      multi_(dynamic_cast<const MultiMechanism*>(&mechanism)),
      exec_(exec),
      weights_(std::make_unique<WeightStore>(table)) {}

Status PlanExecutor::AccumulateComponents(
    const PhysicalPlan& plan, RunState* state, QueryProfile* profile,
    double (&totals)[kNumComponentKinds]) const {
  // Gather, in op order: serve memo hits, fetch weights, and collect the
  // node-estimate boxes for one mechanism call.
  constexpr size_t kNoTask = static_cast<size_t>(-1);
  struct OpEstimate {
    const PlanOp* op = nullptr;
    double value = 0.0;    // set unless `task` names a gathered box
    size_t task = kNoTask;
  };
  std::vector<OpEstimate> estimates;
  std::vector<BoxTask> tasks;
  std::vector<std::shared_ptr<const WeightVector>> task_weights;
  std::unordered_map<std::string, size_t> task_of_key;  // dedup only
  for (const PlanOp& op : plan.ops) {
    if (op.kind != PlanOpKind::kNodeEstimate) {
      continue;  // filters resolve lazily below; compose happens after
    }
    const LogicalTerm& term = plan.logical.terms[op.term];
    std::string task_key;
    if (state->dedup) {
      task_key = TaskKey(op, plan);
      auto it = state->memo.find(task_key);
      if (it != state->memo.end()) {
        // Bit-exact reuse: EstimateBox is deterministic post-processing, so
        // the skipped call would have produced these very bits.
        BatchDedupHits()->Increment();
        estimates.push_back({&op, it->second, kNoTask});
        continue;
      }
      auto gathered = task_of_key.find(task_key);
      if (gathered != task_of_key.end()) {
        BatchDedupHits()->Increment();
        estimates.push_back({&op, 0.0, gathered->second});
        continue;
      }
    }
    TraceSpan fanout_span(profile, QueryProfile::kFanout);
    LDP_ASSIGN_OR_RETURN(
        auto weights,
        weights_->Get(op.component, plan.logical.query.aggregate.expr,
                      term.public_constraints));
    fanout_span.Stop();
    if (state->dedup) task_of_key.emplace(std::move(task_key), tasks.size());
    estimates.push_back({&op, 0.0, tasks.size()});
    tasks.push_back({term.sensitive, weights.get()});
    task_weights.push_back(std::move(weights));
  }

  // One mechanism call for every gathered box: a mechanism may share work
  // across them (SC hashes each piece once per plan) without changing any
  // estimate's bits.
  std::vector<double> box_estimates(tasks.size());
  if (!tasks.empty()) {
    TraceSpan estimate_span(profile, QueryProfile::kEstimate);
    if (multi_ != nullptr) {
      // Composite engine: dispatch to the mechanism this plan chose.
      LDP_RETURN_NOT_OK(
          multi_->EstimateBoxesWith(plan.mechanism, tasks, box_estimates));
    } else {
      LDP_RETURN_NOT_OK(mechanism_.EstimateBoxes(tasks, box_estimates));
    }
    estimate_span.Stop();
    EstimateCalls()->Add(tasks.size());
    if (profile != nullptr) {
      // Estimate calls and the estimate stage count boxes, one per task.
      profile->estimate_calls += tasks.size();
      profile->stages[QueryProfile::kEstimate].calls += tasks.size() - 1;
    }
    for (const auto& [key, task] : task_of_key) {
      state->memo.emplace(key, box_estimates[task]);
    }
  }

  // Totals in op order: each op adds coefficient * estimate to its
  // component, exactly as when every box was its own call.
  for (const OpEstimate& e : estimates) {
    const double estimate =
        e.task == kNoTask ? e.value : box_estimates[e.task];
    totals[static_cast<int>(e.op->component)] +=
        plan.logical.terms[e.op->term].coefficient * estimate;
  }
  if (profile != nullptr) {
    profile->ie_terms +=
        plan.logical.components.size() * plan.logical.terms.size();
  }
  return Status::OK();
}

double PlanExecutor::Compose(const PhysicalPlan& plan,
                             const double (&totals)[kNumComponentKinds]) const {
  const double count = totals[static_cast<int>(ComponentKind::kCount)];
  const double sum = totals[static_cast<int>(ComponentKind::kSum)];
  const double sum_sq = totals[static_cast<int>(ComponentKind::kSumSq)];
  switch (plan.logical.query.aggregate.kind) {
    case AggregateKind::kCount:
      return count;
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kAvg:
      if (count <= 0.0) return 0.0;  // noise swamped the group entirely
      return sum / count;
    case AggregateKind::kStdev: {
      if (count <= 0.0) return 0.0;
      const double mean = sum / count;
      return std::sqrt(std::max(0.0, sum_sq / count - mean * mean));
    }
  }
  return 0.0;
}

Result<PlanExecutor::Bounded> PlanExecutor::RunWithBound(
    const PhysicalPlan& plan) const {
  Bounded out;
  if (plan.logical.terms.empty()) return out;
  // A one-plan batch over a non-owning handle to `plan`.
  const std::shared_ptr<const PhysicalPlan> handle(
      std::shared_ptr<const PhysicalPlan>(), &plan);
  LDP_RETURN_NOT_OK(
      RunBatch(std::span(&handle, 1), std::span(&out.estimate, 1), nullptr));
  // Conservative combination across inclusion-exclusion terms: the term
  // errors may be correlated (they share reports), so bound the total
  // stddev by the sum of per-term |coef| * stddev bounds.
  const ComponentKind component = plan.logical.components[0];
  double stddev = 0.0;
  for (const LogicalTerm& term : plan.logical.terms) {
    LDP_ASSIGN_OR_RETURN(
        auto weights,
        weights_->Get(component, plan.logical.query.aggregate.expr,
                      term.public_constraints));
    double variance = 0.0;
    if (multi_ != nullptr) {
      // Composite engine: bound through the mechanism THIS plan chose, like
      // RunBatch's EstimateBoxesWith dispatch — the composite's own
      // VarianceBound re-scores the box shape and can name a different sub.
      LDP_ASSIGN_OR_RETURN(variance, multi_->VarianceBoundWith(
                                         plan.mechanism, term.sensitive,
                                         *weights));
    } else {
      LDP_ASSIGN_OR_RETURN(
          variance, mechanism_.VarianceBound(term.sensitive, *weights));
    }
    stddev += std::abs(term.coefficient) * std::sqrt(std::max(variance, 0.0));
  }
  out.stddev = stddev;
  return out;
}

Status PlanExecutor::RunBatch(
    std::span<const std::shared_ptr<const PhysicalPlan>> plans,
    std::span<double> out, QueryProfile* profile) const {
  if (out.size() < plans.size()) {
    return Status::InvalidArgument("RunBatch: output span too small");
  }
  RunState state;
  // One plan has no other plan to share estimates with.
  state.dedup = plans.size() > 1;
  for (size_t i = 0; i < plans.size(); ++i) {
    const PhysicalPlan& plan = *plans[i];
    if (plan.logical.terms.empty()) {
      out[i] = 0.0;  // unsatisfiable predicate
    } else {
      double totals[kNumComponentKinds] = {0.0, 0.0, 0.0};
      LDP_RETURN_NOT_OK(AccumulateComponents(plan, &state, profile, totals));
      out[i] = Compose(plan, totals);
    }
  }
  return Status::OK();
}

// --- ProfiledQueryScope ----------------------------------------------------

ProfiledQueryScope::ProfiledQueryScope(QueryProfile* profile,
                                       const Mechanism& mechanism,
                                       const ExecutionContext& exec,
                                       uint64_t num_queries)
    : profile_(profile),
      mechanism_(mechanism),
      exec_(exec),
      num_queries_(num_queries) {
  if (profile_ == nullptr) return;
  start_ = std::chrono::steady_clock::now();
  stage_nanos_before_ = StageNanos();
  chunks_before_ = exec_.chunks_dispatched();
  cache_before_ = CacheStatsOf(mechanism_);
  nodes_counter_before_ = FoEstimateMetrics().nodes->value();
}

ProfiledQueryScope::~ProfiledQueryScope() {
  if (profile_ == nullptr) return;
  const uint64_t total = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  profile_->total_nanos += total;
  profile_->queries += num_queries_;
  // The aggregate stage is everything done outside the explicitly spanned
  // stages (component assembly, AVG/STDEV combination), so the stage walls
  // partition the query wall.
  const uint64_t staged = StageNanos() - stage_nanos_before_;
  profile_->stages[QueryProfile::kAggregate].wall_nanos +=
      total > staged ? total - staged : 0;
  profile_->stages[QueryProfile::kAggregate].calls += num_queries_;
  profile_->exec_chunks += exec_.chunks_dispatched() - chunks_before_;
  const EstimateCache::Stats now = CacheStatsOf(mechanism_);
  const uint64_t hits = now.hits - cache_before_.hits;
  const uint64_t misses = now.misses - cache_before_.misses;
  profile_->cache_hits += hits;
  profile_->cache_misses += misses;
  profile_->cache_epoch_drops += now.epoch_drops - cache_before_.epoch_drops;
  // Every mechanism feeds the `estimate.nodes` counter with each node it
  // touches, cached or not, so the kernels estimated the touched nodes the
  // cache did not serve. The counter stands still while metrics are
  // disabled; every miss is still one kernel-estimated node then, but with
  // the cache off too nothing is counted (see QueryProfile).
  const uint64_t touched =
      FoEstimateMetrics().nodes->value() - nodes_counter_before_;
  profile_->nodes_estimated +=
      std::max(misses, touched > hits ? touched - hits : 0);
}

uint64_t ProfiledQueryScope::StageNanos() const {
  uint64_t nanos = 0;
  for (int s = 0; s < QueryProfile::kNumStages; ++s) {
    if (s == QueryProfile::kAggregate) continue;
    nanos += profile_->stages[s].wall_nanos;
  }
  return nanos;
}

}  // namespace ldp
