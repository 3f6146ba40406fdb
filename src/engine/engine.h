#ifndef LDPMDA_ENGINE_ENGINE_H_
#define LDPMDA_ENGINE_ENGINE_H_

#include <memory>
#include <span>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "data/table.h"
#include "exec/execution_context.h"
#include "mech/factory.h"
#include "obs/trace.h"
#include "plan/executor.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "query/exact.h"
#include "query/parser.h"

namespace ldp {

/// Configuration of a private-analytics deployment (Figure 1).
struct EngineOptions {
  MechanismKind mechanism = MechanismKind::kHio;
  /// Multi-mechanism deployment: when non-empty this OVERRIDES `mechanism`
  /// and registers every listed kind with one engine. With two or more
  /// kinds the population is user-partitioned across them (each simulated
  /// client spends its full eps on one uniformly drawn mechanism — see
  /// MultiMechanism) and the planner scores every registered candidate per
  /// query, executing each plan with the analytically best one. A single
  /// entry is identical to setting `mechanism`. Duplicates are rejected.
  std::vector<MechanismKind> mechanisms;
  MechanismParams params;
  /// Seed for the simulated clients' randomness.
  uint64_t seed = 42;
  /// Shard-parallel workers for collection (encode + ingest) and estimation.
  /// <= 0 means one per hardware thread. Estimates are bit-identical for any
  /// value: encoding uses fixed per-chunk RNG substreams and estimation uses
  /// fixed-chunk ordered reductions, so only wall-clock time changes.
  int num_threads = 1;
  /// Cross-query node-estimate cache (see EstimateCache; 32 MiB): repeated
  /// or overlapping queries reuse per-node estimates instead of re-scanning
  /// reports. Purely a performance knob — estimates are bit-identical with
  /// the cache on or off — so it defaults to on.
  bool enable_estimate_cache = true;
  /// Physical-plan cache (see PlanCache; 256 plans): a repeated query skips
  /// validate + rewrite + plan, a repeated SQL string additionally skips the
  /// parse. Plans are immutable and execution replays them exactly, so
  /// results are bit-identical with the cache on or off.
  bool enable_plan_cache = true;
};

/// End-to-end private MDA pipeline over one fact table (Section 2.3).
///
/// Create() simulates the collection phase: every row of `table` plays a
/// client, encodes its sensitive dimensions with the chosen mechanism's
/// eps-LDP encoder, and sends the report to the (in-process) server. The
/// server additionally knows the public columns (measures and non-sensitive
/// dimensions). Execute() then answers arbitrary MDA queries from the
/// reports alone:
///   * AND-OR predicates via DNF + inclusion–exclusion (Section 7),
///   * public-dimension constraints evaluated exactly and folded into the
///     per-user weights (Section 7),
///   * COUNT/SUM natively; AVG and STDEV as ratios of estimates (Section 7).
///
/// Query answering is staged through an explicit plan pipeline:
/// parse -> logical plan (BuildLogicalPlan: validate + rewrite) -> physical
/// plan (Planner: strategy + ops + cost annotations) -> PlanExecutor. The
/// engine's Execute* methods are thin wrappers over one body that obtains
/// (usually cached) plans and runs them as one PlanExecutor::RunBatch — a
/// single query is a one-plan batch; Explain* render the plan instead of
/// running it.
///
/// The engine keeps a reference to `table`: the sensitive columns are read
/// only during the simulated collection; estimation touches only reports and
/// public columns.
class AnalyticsEngine {
 public:
  /// Writes no process-wide state: the kernel level (SetSimdLevel) and the
  /// metrics switch (GlobalMetrics().set_enabled) stay as the caller set
  /// them.
  static Result<std::unique_ptr<AnalyticsEngine>> Create(
      const Table& table, const EngineOptions& options);

  /// Estimated answer P̄(q) to the MDA query. When `profile` is non-null the
  /// query's stage timings (rewrite / plan / fan-out / estimate / aggregate)
  /// and work counters (inclusion-exclusion terms, nodes estimated,
  /// estimate-cache hits/misses/epoch-drops, execution chunks) are
  /// ACCUMULATED into it — pass a zeroed profile for one query, or reuse one
  /// to aggregate a workload. Work counters are attributed by differencing
  /// engine-level stats around the query, so profiled queries on the same
  /// engine should not run concurrently (results are still correct; only the
  /// attribution would blur). Profiling never changes the estimate; see
  /// QueryProfile for the one counter that reads the metrics registry.
  Result<double> Execute(const Query& query,
                         QueryProfile* profile = nullptr) const;

  /// An estimate together with a conservative standard-deviation bound
  /// derived from the mechanism's closed-form error analysis
  /// (Mechanism::VarianceBound applied to the query's rewritten boxes).
  struct BoundedEstimate {
    double estimate = 0.0;
    double stddev = 0.0;
  };

  /// Like Execute, with an error bar. Supported for the linear aggregates
  /// COUNT and SUM (AVG/STDEV are ratios of estimates; their error depends
  /// on the data in a way no closed form in the paper covers). Shares the
  /// cached plan with Execute — the query is validated and rewritten once,
  /// not once per entry point.
  Result<BoundedEstimate> ExecuteWithBound(const Query& query) const;

  /// Parses and executes a SQL string. `profile` additionally captures the
  /// parse stage; see Execute for the accumulation contract. With the plan
  /// cache on, a repeated SQL string skips the parse via the cache's SQL
  /// side index.
  Result<double> ExecuteSql(std::string_view sql,
                            QueryProfile* profile = nullptr) const;

  /// Answers a whole workload in one pass: out[i] receives the estimate for
  /// queries[i]. Node-estimate work with identical (weights, sensitive box)
  /// is computed once and shared across the batch, so large templated
  /// workloads issue far fewer mechanism estimate calls than sequential
  /// Execute — with bit-identical answers (estimates are deterministic
  /// post-processing, so sharing returns the exact bits a recomputation
  /// would). Requires out.size() >= queries.size().
  Status ExecuteBatch(std::span<const Query> queries, std::span<double> out,
                      QueryProfile* profile = nullptr) const;

  /// Stable, human-readable rendering of the physical plan the engine would
  /// execute for `query` (strategy, op list, cost annotations) — the
  /// EXPLAIN surface. Does not touch the reports.
  Result<std::string> Explain(const Query& query) const;
  /// Explain for a SQL string; accepts both "SELECT ..." and
  /// "EXPLAIN SELECT ...".
  Result<std::string> ExplainSql(std::string_view sql) const;
  /// The plan itself, for programmatic consumers (ToJson, tests).
  Result<std::shared_ptr<const PhysicalPlan>> PlanFor(
      const Query& query) const;

  /// Exact (non-private) answer — ground truth for error reporting.
  Result<double> ExecuteExact(const Query& query) const {
    return ExactAnswer(table_, query);
  }

  const Table& table() const { return table_; }
  const Mechanism& mechanism() const { return *mechanism_; }
  const Schema& schema() const { return table_.schema(); }
  /// The plan cache, or null when disabled.
  PlanCache* plan_cache() const { return plan_cache_.get(); }

  /// Sum over rows of |expr| for the query's aggregate — the MNAE
  /// normalizer Sigma_S (Section 6, error measures). COUNT uses n.
  double AbsWeightTotal(const Query& query) const;

 private:
  AnalyticsEngine(const Table& table, const EngineOptions& options)
      : table_(table), options_(options) {}

  /// The cached-or-planned physical plan for `query` at the current report
  /// epoch. kPlan spans cover the cache probe and the planner; kRewrite
  /// covers BuildLogicalPlan on a miss.
  Result<std::shared_ptr<const PhysicalPlan>> GetPlan(
      const Query& query, QueryProfile* profile) const;

  /// The one execution body behind Execute, ExecuteSql and ExecuteBatch.
  /// Inside one ProfiledQueryScope it resolves the plans — `plan` when
  /// non-null (ExecuteSql's SQL-alias hit), then one per query — and runs
  /// them with one PlanExecutor::RunBatch into `out`.
  Status ExecutePlans(std::span<const Query> queries,
                      std::shared_ptr<const PhysicalPlan> plan,
                      std::span<double> out, QueryProfile* profile) const;

  const Table& table_;
  EngineOptions options_;
  /// Declared before mechanism_: the mechanism holds a raw pointer into it.
  std::unique_ptr<ExecutionContext> exec_;
  std::unique_ptr<Mechanism> mechanism_;
  std::unique_ptr<Planner> planner_;
  /// Null when EngineOptions::enable_plan_cache is off.
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<PlanExecutor> executor_;
};

}  // namespace ldp

#endif  // LDPMDA_ENGINE_ENGINE_H_
