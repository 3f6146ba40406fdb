// Bit-identity of the planned execution path with the legacy (pre-planner)
// engine loop, across every mechanism x thread count x cache setting, plus
// ExecuteBatch vs. sequential Execute. The legacy path is reimplemented here
// from public APIs exactly as engine.cc used to inline it: rewrite ->
// per-component, per-term weight construction + EstimateBox ->
// coefficient-weighted accumulation -> aggregate composition. Floating-point
// accumulation order is load-bearing, so the reference replays it verbatim.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "query/rewriter.h"

namespace ldp {
namespace {

enum class LegacyComponent { kCount, kSum, kSumSq };

Table MultiDimTable(uint64_t n = 1500) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kUniform, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 12, ColumnDist::kZipf, 1.1});
  spec.dims.push_back({"c", AttributeKind::kSensitiveCategorical, 4,
                       ColumnDist::kUniform, 1.0});
  spec.dims.push_back(
      {"p", AttributeKind::kPublicDimension, 3, ColumnDist::kUniform, 1.0});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 177).ValueOrDie();
}

Table TwoDimTable(uint64_t n = 1500) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kUniform, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  spec.dims.push_back(
      {"p", AttributeKind::kPublicDimension, 3, ColumnDist::kUniform, 1.0});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 178).ValueOrDie();
}

Table OneDimTable(uint64_t n = 1500) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 32, ColumnDist::kGaussianBell,
       1.0});
  spec.dims.push_back(
      {"p", AttributeKind::kPublicDimension, 3, ColumnDist::kUniform, 1.0});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 179).ValueOrDie();
}

const Table& TableFor(MechanismKind kind) {
  static const Table* multi = new Table(MultiDimTable());
  static const Table* two = new Table(TwoDimTable());
  static const Table* one = new Table(OneDimTable());
  switch (kind) {
    case MechanismKind::kQuadTree:
      return *two;
    case MechanismKind::kHaar:
      return *one;
    default:
      return *multi;
  }
}

/// Workload per mechanism: QuadTree/Haar constrain fewer dimensions, but all
/// queries exercise OR (multi-term inclusion-exclusion), NOT, public-dim
/// constraints, and all four aggregates.
std::vector<const char*> SqlsFor(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kQuadTree:
      return {
          "SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 9",
          "SELECT SUM(m) FROM T WHERE a BETWEEN 1 AND 8 OR b BETWEEN 3 AND 11",
          "SELECT AVG(m) FROM T WHERE a <= 9 AND p = 1",
          "SELECT STDEV(m) FROM T WHERE NOT (a BETWEEN 4 AND 12)",
      };
    case MechanismKind::kHaar:
      return {
          "SELECT COUNT(*) FROM T WHERE a BETWEEN 4 AND 19",
          "SELECT SUM(m) FROM T WHERE a <= 7 OR a >= 25",
          "SELECT AVG(m) FROM T WHERE a <= 15 AND p = 1",
          "SELECT STDEV(m) FROM T WHERE NOT (a BETWEEN 8 AND 23)",
      };
    default:
      return {
          "SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 9",
          "SELECT SUM(m) FROM T WHERE a BETWEEN 1 AND 8 OR b BETWEEN 3 AND 11",
          "SELECT AVG(m) FROM T WHERE a <= 9 AND c = 2 AND p = 1",
          "SELECT STDEV(m) FROM T WHERE NOT (a BETWEEN 4 AND 12)",
      };
  }
}

// --- The legacy execution loop, replayed from public APIs -----------------

WeightVector LegacyWeights(const Table& table, LegacyComponent component,
                           const Query& query, const ConjunctiveBox& box) {
  const Schema& schema = table.schema();
  const uint64_t n = table.num_rows();
  std::vector<double> weights;
  switch (component) {
    case LegacyComponent::kCount:
      weights.assign(n, 1.0);
      break;
    case LegacyComponent::kSum:
      weights = query.aggregate.expr.EvalColumn(table);
      break;
    case LegacyComponent::kSumSq: {
      weights = query.aggregate.expr.EvalColumn(table);
      for (auto& w : weights) w *= w;
      break;
    }
  }
  for (const auto& c : box.constraints) {
    if (schema.attribute(c.attr).kind != AttributeKind::kPublicDimension) {
      continue;
    }
    const auto& col = table.DimColumn(c.attr);
    for (uint64_t row = 0; row < n; ++row) {
      if (!c.range.Contains(col[row])) weights[row] = 0.0;
    }
  }
  return WeightVector(std::move(weights));
}

double LegacyEstimateComponent(const AnalyticsEngine& engine,
                               LegacyComponent component, const Query& query,
                               const std::vector<IeTerm>& terms) {
  const Schema& schema = engine.schema();
  double total = 0.0;
  std::vector<Interval> sensitive;
  for (const IeTerm& term : terms) {
    sensitive.clear();
    for (const int attr : schema.sensitive_dims()) {
      sensitive.push_back(
          term.box.RangeOf(attr, schema.attribute(attr).domain_size));
    }
    const WeightVector weights =
        LegacyWeights(engine.table(), component, query, term.box);
    const double estimate =
        engine.mechanism().EstimateBox(sensitive, weights).ValueOrDie();
    total += term.coefficient * estimate;
  }
  return total;
}

double LegacyExecute(const AnalyticsEngine& engine, const Query& query) {
  const auto terms =
      RewritePredicate(engine.schema(), query.where.get()).ValueOrDie();
  if (terms.empty()) return 0.0;
  switch (query.aggregate.kind) {
    case AggregateKind::kCount:
      return LegacyEstimateComponent(engine, LegacyComponent::kCount, query,
                                     terms);
    case AggregateKind::kSum:
      return LegacyEstimateComponent(engine, LegacyComponent::kSum, query,
                                     terms);
    case AggregateKind::kAvg: {
      const double sum = LegacyEstimateComponent(
          engine, LegacyComponent::kSum, query, terms);
      const double count = LegacyEstimateComponent(
          engine, LegacyComponent::kCount, query, terms);
      if (count <= 0.0) return 0.0;
      return sum / count;
    }
    case AggregateKind::kStdev: {
      const double sum_sq = LegacyEstimateComponent(
          engine, LegacyComponent::kSumSq, query, terms);
      const double sum = LegacyEstimateComponent(
          engine, LegacyComponent::kSum, query, terms);
      const double count = LegacyEstimateComponent(
          engine, LegacyComponent::kCount, query, terms);
      if (count <= 0.0) return 0.0;
      const double mean = sum / count;
      return std::sqrt(std::max(0.0, sum_sq / count - mean * mean));
    }
  }
  return 0.0;
}

class PlanEquivalenceTest : public ::testing::TestWithParam<MechanismKind> {};

// The tentpole acceptance test: for every mechanism, thread count, and cache
// setting (estimate cache AND plan cache), the planned path answers every
// query with exactly the bits the legacy loop produces, and ExecuteBatch
// answers exactly like sequential Execute.
TEST_P(PlanEquivalenceTest, PlannedPathMatchesLegacyBitwise) {
  const MechanismKind kind = GetParam();
  const Table& table = TableFor(kind);
  const auto sqls = SqlsFor(kind);

  std::vector<Query> queries;
  for (const char* sql : sqls) {
    queries.push_back(ParseQuery(table.schema(), sql).ValueOrDie());
  }

  for (const int threads : {1, 2, 8}) {
    for (const bool cache_on : {true, false}) {
      EngineOptions options;
      options.mechanism = kind;
      options.params.epsilon = 2.0;
      options.params.hash_pool_size = 512;
      options.seed = 99;
      options.num_threads = threads;
      options.enable_estimate_cache = cache_on;
      options.enable_plan_cache = cache_on;
      const auto engine = AnalyticsEngine::Create(table, options).ValueOrDie();

      std::vector<double> sequential;
      for (size_t i = 0; i < queries.size(); ++i) {
        const double planned = engine->Execute(queries[i]).ValueOrDie();
        const double legacy = LegacyExecute(*engine, queries[i]);
        EXPECT_EQ(planned, legacy)
            << MechanismKindName(kind) << " threads=" << threads
            << " cache=" << cache_on << " query: " << sqls[i];
        sequential.push_back(planned);
        // Executing again (now a guaranteed plan-cache hit when enabled)
        // must reproduce the same bits.
        EXPECT_EQ(engine->Execute(queries[i]).ValueOrDie(), planned)
            << "repeat diverged: " << sqls[i];
      }

      std::vector<double> batched(queries.size(), 0.0);
      ASSERT_TRUE(engine->ExecuteBatch(queries, batched).ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(batched[i], sequential[i])
            << MechanismKindName(kind) << " threads=" << threads
            << " cache=" << cache_on << " batch query: " << sqls[i];
      }
    }
  }
}

// ExecuteWithBound shares the plan with Execute: same estimate bits, a
// non-negative error bar, and no second rewrite (checked by counter in
// plan_cache_test).
TEST_P(PlanEquivalenceTest, BoundedEstimateMatchesExecute) {
  const MechanismKind kind = GetParam();
  const Table& table = TableFor(kind);
  EngineOptions options;
  options.mechanism = kind;
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 512;
  options.seed = 99;
  const auto engine = AnalyticsEngine::Create(table, options).ValueOrDie();

  const auto sqls = SqlsFor(kind);
  for (size_t i = 0; i < 2; ++i) {  // COUNT and SUM queries only
    const Query query = ParseQuery(table.schema(), sqls[i]).ValueOrDie();
    const double estimate = engine->Execute(query).ValueOrDie();
    const auto bounded = engine->ExecuteWithBound(query).ValueOrDie();
    EXPECT_EQ(bounded.estimate, estimate) << sqls[i];
    EXPECT_GE(bounded.stddev, 0.0) << sqls[i];
  }
}

// A batch with repeated and overlapping templated queries must answer every
// instance exactly like sequential execution while issuing strictly fewer
// mechanism estimate calls (`micro_plan_overhead --out BENCH_plan.json`
// reports the dedup acceptance criterion; here we assert the counter moved
// in the right direction).
TEST(PlanBatchTest, DedupSharesEstimatesBitIdentically) {
  const Table& table = TableFor(MechanismKind::kHio);
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 7;
  const auto engine = AnalyticsEngine::Create(table, options).ValueOrDie();

  std::vector<Query> queries;
  const char* templates[] = {
      "SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 9",
      "SELECT SUM(m) FROM T WHERE a BETWEEN 2 AND 9",
      "SELECT AVG(m) FROM T WHERE a BETWEEN 2 AND 9",
      "SELECT COUNT(*) FROM T WHERE b BETWEEN 1 AND 6",
  };
  for (int rep = 0; rep < 4; ++rep) {
    for (const char* sql : templates) {
      queries.push_back(ParseQuery(table.schema(), sql).ValueOrDie());
    }
  }

  std::vector<double> sequential;
  for (const Query& q : queries) {
    sequential.push_back(engine->Execute(q).ValueOrDie());
  }

  Counter* calls = GlobalMetrics().counter("plan.estimate_calls");
  Counter* dedup = GlobalMetrics().counter("plan.batch_dedup_hits");
  const uint64_t calls_before = calls->value();
  const uint64_t dedup_before = dedup->value();

  std::vector<double> batched(queries.size(), 0.0);
  ASSERT_TRUE(engine->ExecuteBatch(queries, batched).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], sequential[i]) << "batch index " << i;
  }

  const uint64_t issued = calls->value() - calls_before;
  const uint64_t saved = dedup->value() - dedup_before;
  // 16 queries carry 20 (component, box) tasks, but only 3 are distinct:
  // COUNT/a, SUM/a, COUNT/b — AVG decomposes into SUM/a + COUNT/a, both
  // already seen.
  EXPECT_EQ(issued, 3u);
  EXPECT_GT(saved, issued);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, PlanEquivalenceTest,
    ::testing::Values(MechanismKind::kHi, MechanismKind::kHio,
                      MechanismKind::kSc, MechanismKind::kMg,
                      MechanismKind::kQuadTree, MechanismKind::kHaar,
                      MechanismKind::kHdg, MechanismKind::kCalm),
    [](const ::testing::TestParamInfo<MechanismKind>& info) {
      return MechanismKindName(info.param);
    });

}  // namespace
}  // namespace ldp
