// Plans executed on a composite (HIO + MG) engine: answers bit-identical
// across threads, estimate-cache states and batch vs sequential execution,
// and ExecuteWithBound's per-plan variance dispatch.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "exec/execution_context.h"
#include "mech/multi.h"
#include "plan/executor.h"

namespace ldp {
namespace {

Table SmallTable(uint64_t n = 2000, uint64_t seed = 77) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kUniform, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, seed).ValueOrDie();
}

struct MultiEngineConfig {
  std::vector<MechanismKind> mechanisms = {MechanismKind::kHio,
                                           MechanismKind::kMg};
  int threads = 1;
  bool estimate_cache = true;
};

std::unique_ptr<AnalyticsEngine> MakeEngine(const Table& table,
                                            const MultiEngineConfig& cfg) {
  EngineOptions options;
  options.mechanisms = cfg.mechanisms;
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  options.seed = 42;
  options.num_threads = cfg.threads;
  options.enable_estimate_cache = cfg.estimate_cache;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

std::vector<Query> Workload(const Schema& schema) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM T WHERE a IN [2, 9]",
      "SELECT COUNT(*) FROM T WHERE a <= 5 OR b >= 10",
      "SELECT SUM(m) FROM T WHERE b IN [3, 12]",
      "SELECT AVG(m) FROM T WHERE a IN [1, 6] AND b IN [2, 13]",
  };
  std::vector<Query> queries;
  for (const char* sql : sqls) {
    queries.push_back(ParseQuery(schema, sql).ValueOrDie());
  }
  return queries;
}

TEST(PlanDispatchTest, ResultsBitIdenticalAcrossThreadsAndCaches) {
  // Every (threads, cache) configuration executes the same plans and
  // returns the same bits.
  const Table table = SmallTable();
  const std::vector<Query> queries = Workload(table.schema());

  std::vector<double> golden;
  bool have_golden = false;
  for (const int threads : {1, 2, 8}) {
    for (const bool cache : {true, false}) {
      MultiEngineConfig cfg;
      cfg.threads = threads;
      cfg.estimate_cache = cache;
      const auto engine = MakeEngine(table, cfg);
      std::vector<double> answers;
      for (int rep = 0; rep < 3; ++rep) {  // later reps hit the estimate cache
        for (const Query& q : queries) {
          answers.push_back(engine->Execute(q).ValueOrDie());
        }
      }
      // The batched path shares estimates across plans; its answers must
      // match its own sequential pass bit for bit.
      std::vector<double> batched(queries.size(), 0.0);
      ASSERT_TRUE(engine->ExecuteBatch(queries, batched).ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i], answers[i])
            << "batch diverged at query " << i << " threads=" << threads
            << " cache=" << cache;
      }
      if (!have_golden) {
        golden = answers;
        have_golden = true;
        continue;
      }
      ASSERT_EQ(answers.size(), golden.size());
      for (size_t i = 0; i < answers.size(); ++i) {
        EXPECT_EQ(answers[i], golden[i])
            << "answer " << i << " diverged at threads=" << threads
            << " cache=" << cache;
      }
    }
  }
}

TEST(PlanDispatchTest, ExecuteWithBoundUsesThePlansMechanism) {
  // The RunWithBound regression: on a composite engine the variance bound
  // used to route through MultiMechanism::VarianceBound's own shape-based
  // sub selection, ignoring plan.mechanism — so a plan executed through one
  // sub could report the error bar of another. Run the analytic plan with
  // its mechanism switched to the rejected candidate: the bound must follow
  // the plan.
  const Table table = SmallTable();
  MultiEngineConfig cfg;
  const auto engine = MakeEngine(table, cfg);
  const Query query =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a IN [2, 9]")
          .ValueOrDie();

  const auto* multi =
      dynamic_cast<const MultiMechanism*>(&engine->mechanism());
  ASSERT_NE(multi, nullptr);

  const auto analytic = engine->PlanFor(query).ValueOrDie();
  ASSERT_EQ(analytic->candidates.size(), 2u);
  PhysicalPlan forced = *analytic;
  forced.mechanism = analytic->mechanism == MechanismKind::kHio
                         ? MechanismKind::kMg
                         : MechanismKind::kHio;

  // COUNT with no public constraints weights every user 1.
  const WeightVector ones = WeightVector::Ones(table.num_rows());
  const auto bound_through = [&](MechanismKind kind) {
    double stddev = 0.0;
    for (const auto& term : analytic->logical.terms) {
      const double variance =
          multi->VarianceBoundWith(kind, term.sensitive, ones).ValueOrDie();
      stddev += std::abs(term.coefficient) *
                std::sqrt(std::max(variance, 0.0));
    }
    return stddev;
  };
  const double expected = bound_through(forced.mechanism);
  // The two candidates bound differently — otherwise dispatch is untestable.
  ASSERT_NE(expected, bound_through(analytic->mechanism));

  const ExecutionContext exec(1);
  const PlanExecutor executor(table, engine->mechanism(), exec);
  const auto bounded = executor.RunWithBound(forced).ValueOrDie();
  EXPECT_DOUBLE_EQ(bounded.stddev, expected);
  // The engine's own entry point bounds through the plan it chose.
  EXPECT_DOUBLE_EQ(engine->ExecuteWithBound(query).ValueOrDie().stddev,
                   bound_through(analytic->mechanism));
}

}  // namespace
}  // namespace ldp
