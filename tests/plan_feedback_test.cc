// Measured plan actuals: PlanStatsStore unit behavior (EWMA smoothing,
// bounded eviction), engine-level recording, the bit-identity contract
// (feedback on/off, threads, caches), EXPLAIN's predicted-vs-actual block and
// its warmup gating, and ExecuteWithBound's per-plan variance dispatch.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "exec/execution_context.h"
#include "mech/multi.h"
#include "obs/metrics.h"
#include "plan/executor.h"
#include "plan/stats_store.h"

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

struct FeedbackEngineConfig {
  std::vector<MechanismKind> mechanisms = {MechanismKind::kHio,
                                           MechanismKind::kMg};
  bool feedback = true;
  int threads = 1;
  bool estimate_cache = true;
  bool plan_cache = true;
};

std::unique_ptr<AnalyticsEngine> MakeEngine(const Table& table,
                                            const FeedbackEngineConfig& cfg) {
  EngineOptions options;
  options.mechanisms = cfg.mechanisms;
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  options.seed = 42;
  options.num_threads = cfg.threads;
  options.enable_estimate_cache = cfg.estimate_cache;
  options.enable_plan_cache = cfg.plan_cache;
  options.enable_feedback = cfg.feedback;
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

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string LineStartingWith(const std::string& text,
                             const std::string& prefix) {
  for (const auto& line : Lines(text)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

PlanObservation Obs(uint64_t wall, uint64_t nodes, uint64_t calls = 1) {
  PlanObservation obs;
  obs.wall_nanos = wall;
  obs.estimate_calls = calls;
  obs.nodes_touched = nodes;
  return obs;
}

// --- PlanStatsStore units --------------------------------------------------

TEST(PlanStatsStoreTest, EwmaSeedsThenSmooths) {
  PlanStatsStore store(/*max_entries=*/16);
  store.Record(0xabc, Obs(100, 40, 2));
  auto stats = store.Lookup(0xabc);
  ASSERT_TRUE(stats.has_value());
  // The first observation seeds the EWMA exactly.
  EXPECT_EQ(stats->observations, 1u);
  EXPECT_DOUBLE_EQ(stats->ewma_wall_nanos, 100.0);
  EXPECT_DOUBLE_EQ(stats->ewma_nodes, 40.0);
  EXPECT_DOUBLE_EQ(stats->ewma_estimate_calls, 2.0);

  store.Record(0xabc, Obs(200, 80, 4));
  stats = store.Lookup(0xabc);
  ASSERT_TRUE(stats.has_value());
  // ewma += alpha * (v - ewma) with alpha = 0.25.
  EXPECT_EQ(stats->observations, 2u);
  EXPECT_DOUBLE_EQ(stats->ewma_wall_nanos, 125.0);
  EXPECT_DOUBLE_EQ(stats->ewma_nodes, 50.0);
  EXPECT_DOUBLE_EQ(stats->ewma_estimate_calls, 2.5);
}

TEST(PlanStatsStoreTest, EvictionBoundsEntriesAndPrunesQueryIndex) {
  PlanStatsStore store(/*max_entries=*/2);
  store.Record(1, Obs(100, 1));
  store.Record(2, Obs(100, 1));
  store.Record(3, Obs(100, 1));
  EXPECT_EQ(store.size(), 2u);
  // Fingerprint 1 was least recently recorded.
  EXPECT_FALSE(store.Lookup(1).has_value());
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_TRUE(store.Lookup(3).has_value());

  // Re-recording an existing fingerprint refreshes recency instead of
  // evicting it.
  store.Record(2, Obs(100, 1));
  store.Record(4, Obs(100, 1));
  EXPECT_TRUE(store.Lookup(2).has_value());
  EXPECT_FALSE(store.Lookup(3).has_value());
  EXPECT_TRUE(store.Lookup(4).has_value());
}

// --- Engine recording and bit-identity -------------------------------------

TEST(FeedbackEngineTest, ExecuteRecordsObservationsIntoTheStore) {
  const Table table = SmallTable();
  FeedbackEngineConfig cfg;
  const auto engine = MakeEngine(table, cfg);
  ASSERT_NE(engine->plan_stats(), nullptr);
  const Query query = Workload(table.schema())[0];

  Counter* records = GlobalMetrics().counter("plan.feedback_records");
  const uint64_t before = records->value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine->Execute(query).ok());
  EXPECT_EQ(records->value() - before, 3u);

  const auto plan = engine->PlanFor(query).ValueOrDie();
  const auto stats = engine->plan_stats()->Lookup(plan->fingerprint);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->observations, 3u);
  EXPECT_GT(stats->ewma_nodes, 0.0);
  EXPECT_GT(stats->ewma_estimate_calls, 0.0);
}

TEST(FeedbackEngineTest, FeedbackOffLeavesTheStoreNull) {
  const Table table = SmallTable();
  FeedbackEngineConfig cfg;
  cfg.feedback = false;
  const auto engine = MakeEngine(table, cfg);
  EXPECT_EQ(engine->plan_stats(), nullptr);
}

TEST(FeedbackEngineTest, ResultsBitIdenticalAcrossThreadsAndCaches) {
  // Recording actuals must never perturb an answer: every (threads, cache)
  // configuration executes the same plans and returns the same bits.
  const Table table = SmallTable();
  const std::vector<Query> queries = Workload(table.schema());

  std::vector<double> golden;
  bool have_golden = false;
  for (const int threads : {1, 2, 8}) {
    for (const bool cache : {true, false}) {
      FeedbackEngineConfig cfg;
      cfg.threads = threads;
      cfg.estimate_cache = cache;
      const auto engine = MakeEngine(table, cfg);
      std::vector<double> answers;
      for (int rep = 0; rep < 3; ++rep) {  // reps run against a warming store
        for (const Query& q : queries) {
          answers.push_back(engine->Execute(q).ValueOrDie());
        }
      }
      // The batched path records per-plan observations too; its answers must
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

TEST(FeedbackEngineTest, NodesTouchedInvariantToEstimateCache) {
  // The recorded work measure counts every node touched — served by the
  // estimate cache or estimated by a kernel — so it is the same total with
  // the cache on or off.
  const Table table = SmallTable();
  const Query query = Workload(table.schema())[0];

  FeedbackEngineConfig on, off;
  off.estimate_cache = false;
  const auto cached = MakeEngine(table, on);
  const auto uncached = MakeEngine(table, off);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cached->Execute(query).ok());
    ASSERT_TRUE(uncached->Execute(query).ok());
  }
  const auto plan = cached->PlanFor(query).ValueOrDie();
  const auto a = cached->plan_stats()->Lookup(plan->fingerprint);
  const auto b = uncached->plan_stats()->Lookup(plan->fingerprint);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(a->ewma_nodes, b->ewma_nodes);
  EXPECT_DOUBLE_EQ(a->ewma_estimate_calls, b->ewma_estimate_calls);
}

TEST(FeedbackEngineTest, FeedbackOnMatchesFeedbackOffBitForBit) {
  const Table table = SmallTable();
  const std::vector<Query> queries = Workload(table.schema());

  FeedbackEngineConfig off_cfg;
  off_cfg.feedback = false;
  const auto off = MakeEngine(table, off_cfg);
  const auto on = MakeEngine(table, FeedbackEngineConfig{});

  // Warmed plans keep the analytic choice: the store is display data, so
  // answers match the feedback-off engine exactly.
  for (int rep = 0; rep < 5; ++rep) {
    for (const Query& q : queries) {
      EXPECT_EQ(on->Execute(q).ValueOrDie(), off->Execute(q).ValueOrDie());
    }
  }
}

// --- EXPLAIN: predicted-vs-actual and warmup gating -------------------------

TEST(FeedbackExplainTest, BlockAppearsOnlyAfterWarmup) {
  const Table table = SmallTable();
  const Query query = Workload(table.schema())[0];
  static_assert(PlanStatsStore::kWarmupObservations == 3);
  // The engine fills the block from the live store on every Explain and
  // PlanFor, so a cached plan shows it as soon as a fresh one does.
  for (const bool plan_cache : {false, true}) {
    SCOPED_TRACE(plan_cache ? "plan cache on" : "plan cache off");
    FeedbackEngineConfig cfg;
    cfg.plan_cache = plan_cache;
    const auto engine = MakeEngine(table, cfg);

    // Unobserved and under-observed plans render exactly the feedback-off
    // text: no "feedback:" block before K observations.
    EXPECT_EQ(
        LineStartingWith(engine->Explain(query).ValueOrDie(), "feedback:"),
        "");
    ASSERT_TRUE(engine->Execute(query).ok());
    ASSERT_TRUE(engine->Execute(query).ok());
    EXPECT_EQ(
        LineStartingWith(engine->Explain(query).ValueOrDie(), "feedback:"),
        "");
    EXPECT_EQ(engine->PlanFor(query).ValueOrDie()->ToJson(table.schema())
                  .find("\"feedback\""),
              std::string::npos);

    ASSERT_TRUE(engine->Execute(query).ok());
    const std::string text = engine->Explain(query).ValueOrDie();
    EXPECT_EQ(LineStartingWith(text, "feedback:"), "feedback:");
    EXPECT_EQ(LineStartingWith(text, "  observations:"), "  observations: 3");
    // The deterministic predicted-vs-actual rows: predictions come from the
    // plan's cost annotations, actuals from the store's EWMA.
    const auto plan = engine->PlanFor(query).ValueOrDie();
    const auto stats = engine->plan_stats()->Lookup(plan->fingerprint);
    ASSERT_TRUE(stats.has_value());
    const std::string calls = LineStartingWith(text, "  estimate_calls:");
    EXPECT_NE(calls.find("predicted="), std::string::npos) << calls;
    EXPECT_NE(calls.find("actual~"), std::string::npos) << calls;
    const std::string nodes = LineStartingWith(text, "  node_estimates:");
    EXPECT_NE(nodes.find("predicted=" +
                         std::to_string(plan->predicted_node_estimates)),
              std::string::npos)
        << nodes;
    EXPECT_NE(LineStartingWith(text, "  wall_nanos:").find("actual~"),
              std::string::npos);

    // The JSON rendering of the plan PlanFor returns carries the same block.
    EXPECT_NE(plan->ToJson(table.schema())
                  .find("\"feedback\":{\"observations\":3"),
              std::string::npos);
  }
}

TEST(FeedbackExplainTest, WarmedExplainIsGoldenTextPlusFeedbackBlock) {
  // Observation must not change anything else about the plan or its
  // rendering: stripping the feedback block from the warmed EXPLAIN yields
  // the feedback-off engine's EXPLAIN verbatim — same fingerprint line
  // included, since the block is excluded from the fingerprint.
  const Table table = SmallTable();
  const auto on = MakeEngine(table, FeedbackEngineConfig{});
  FeedbackEngineConfig off_cfg;
  off_cfg.feedback = false;
  const auto off = MakeEngine(table, off_cfg);
  const Query query = Workload(table.schema())[1];

  for (uint64_t i = 0; i < PlanStatsStore::kWarmupObservations; ++i) {
    ASSERT_TRUE(on->Execute(query).ok());
  }
  const std::vector<std::string> off_lines =
      Lines(off->Explain(query).ValueOrDie());
  std::vector<std::string> on_lines = Lines(on->Explain(query).ValueOrDie());
  const auto block = std::find(on_lines.begin(), on_lines.end(), "feedback:");
  ASSERT_NE(block, on_lines.end());
  on_lines.erase(block, block + 5);  // "feedback:" + four detail rows
  EXPECT_EQ(on_lines, off_lines);

  EXPECT_EQ(on->PlanFor(query).ValueOrDie()->fingerprint,
            off->PlanFor(query).ValueOrDie()->fingerprint);
}

// --- Per-plan variance dispatch --------------------------------------------

TEST(FeedbackOverrideTest, ExecuteWithBoundUsesThePlansMechanism) {
  // The RunWithBound regression: on a composite engine the variance bound
  // used to route through MultiMechanism::VarianceBound's own shape-based
  // sub selection, ignoring plan.mechanism — so a plan executed through one
  // sub could report the error bar of another. Run the analytic plan with
  // its mechanism switched to the rejected candidate: the bound must follow
  // the plan.
  const Table table = SmallTable();
  FeedbackEngineConfig cfg;
  cfg.feedback = false;
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
