// Multi-mechanism deployments: MultiMechanism's user-partitioned report
// population, per-plan dispatch, and the planner's per-query mechanism
// choice (the cost model picking different estimators for different query
// shapes on one engine).

#include "mech/multi.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "mech/advisor.h"
#include "obs/metrics.h"

namespace ldp {
namespace {

Schema TwoDimSchema(uint64_t m1 = 16, uint64_t m2 = 16) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", m1).ok());
  EXPECT_TRUE(schema.AddOrdinal("y", m2).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps) {
  MechanismParams p;
  p.epsilon = eps;
  p.hash_pool_size = 0;
  return p;
}

std::vector<MechanismKind> Kinds(std::initializer_list<MechanismKind> k) {
  return std::vector<MechanismKind>(k);
}

TEST(MultiMechanismTest, CreateValidates) {
  const Schema schema = TwoDimSchema();
  EXPECT_FALSE(MultiMechanism::Create(schema, Params(1.0), Kinds({})).ok());
  EXPECT_FALSE(MultiMechanism::Create(
                   schema, Params(1.0),
                   Kinds({MechanismKind::kHio, MechanismKind::kHio}))
                   .ok());
  auto multi = MultiMechanism::Create(
                   schema, Params(1.0),
                   Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                   .ValueOrDie();
  EXPECT_EQ(multi->num_sub_mechanisms(), 2);
  EXPECT_EQ(multi->kinds(),
            Kinds({MechanismKind::kHio, MechanismKind::kMg}));
  // Group id space is the concatenation of the subs' spaces.
  EXPECT_EQ(multi->NumReportGroups(), multi->sub(0).NumReportGroups() +
                                          multi->sub(1).NumReportGroups());
}

TEST(MultiMechanismTest, ReportsRouteToExactlyOneCohort) {
  const Schema schema = TwoDimSchema();
  auto multi = MultiMechanism::Create(
                   schema, Params(2.0),
                   Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                   .ValueOrDie();
  Rng rng(1);
  const uint64_t n = 2000;
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(rng.UniformInt(16)),
        static_cast<uint32_t>(rng.UniformInt(16))};
    ASSERT_TRUE(multi->AddReport(multi->EncodeUser(values, rng), u).ok());
  }
  EXPECT_EQ(multi->num_reports(), n);
  // Every user landed in exactly one cohort; the uniform draw fills both.
  EXPECT_EQ(multi->sub(0).num_reports() + multi->sub(1).num_reports(), n);
  EXPECT_GT(multi->sub(0).num_reports(), n / 4);
  EXPECT_GT(multi->sub(1).num_reports(), n / 4);
}

TEST(MultiMechanismTest, ValidateRejectsCrossSubAndBadGroups) {
  const Schema schema = TwoDimSchema();
  auto multi = MultiMechanism::Create(
                   schema, Params(1.0),
                   Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                   .ValueOrDie();
  LdpReport bad_group;
  bad_group.entries.push_back(
      {static_cast<uint32_t>(multi->NumReportGroups()), {}});
  EXPECT_FALSE(multi->ValidateReport(bad_group).ok());
  LdpReport empty;
  EXPECT_FALSE(multi->AddReport(empty, 0).ok());

  // A report spanning two sub-mechanisms' group ranges is structurally
  // invalid: a user reports to exactly one cohort.
  Rng rng(2);
  const std::vector<uint32_t> values = {3, 7};
  LdpReport a, b;
  const uint64_t mg_offset = multi->sub(0).NumReportGroups();
  do {
    a = multi->EncodeUser(values, rng);
  } while (a.entries[0].group >= mg_offset);
  do {
    b = multi->EncodeUser(values, rng);
  } while (b.entries[0].group < mg_offset);
  LdpReport cross = a;
  cross.entries.push_back(b.entries[0]);
  EXPECT_FALSE(multi->ValidateReport(cross).ok());
}

TEST(MultiMechanismTest, ShardMergeMatchesDirectIngestBitwise) {
  const Schema schema = TwoDimSchema();
  const uint64_t n = 1000;
  auto direct = MultiMechanism::Create(
                    schema, Params(2.0),
                    Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                    .ValueOrDie();
  std::vector<LdpReport> reports;
  Rng rng(3);
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(rng.UniformInt(16)),
        static_cast<uint32_t>(rng.UniformInt(16))};
    reports.push_back(direct->EncodeUser(values, rng));
  }
  for (uint64_t u = 0; u < n; ++u) {
    ASSERT_TRUE(direct->AddReport(reports[u], u).ok());
  }
  auto merged = MultiMechanism::Create(
                    schema, Params(2.0),
                    Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                    .ValueOrDie();
  auto shard_a = merged->NewShard().ValueOrDie();
  auto shard_b = merged->NewShard().ValueOrDie();
  for (uint64_t u = 0; u < n / 2; ++u) {
    ASSERT_TRUE(shard_a->AddReport(reports[u], u).ok());
  }
  for (uint64_t u = n / 2; u < n; ++u) {
    ASSERT_TRUE(shard_b->AddReport(reports[u], u).ok());
  }
  ASSERT_TRUE(merged->Merge(std::move(*shard_a)).ok());
  ASSERT_TRUE(merged->Merge(std::move(*shard_b)).ok());
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{2, 9}, {0, 15}};
  for (const MechanismKind kind :
       {MechanismKind::kHio, MechanismKind::kMg}) {
    EXPECT_EQ(direct->EstimateBoxWith(kind, ranges, w).ValueOrDie(),
              merged->EstimateBoxWith(kind, ranges, w).ValueOrDie());
  }
}

TEST(MultiMechanismTest, EstimateBoxWithIsUnbiasedPerSub) {
  // Horvitz-Thompson over the cohort: k x the sub's cohort estimate must be
  // centered on the population total for every registered kind.
  const double eps = 2.0;
  const uint64_t n = 4000;
  const Schema schema = TwoDimSchema();
  std::vector<std::vector<uint32_t>> values(n);
  double truth = 0.0;
  Rng data_rng(4);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(16))};
    if (values[u][0] >= 3 && values[u][0] <= 12) truth += 1.0;
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{3, 12}, {0, 15}};
  const int runs = 30;
  Rng rng(5);
  double sum_hio = 0.0, mse_hio = 0.0;
  double sum_mg = 0.0, mse_mg = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto multi = MultiMechanism::Create(
                     schema, Params(eps),
                     Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                     .ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(
          multi->AddReport(multi->EncodeUser(values[u], rng), u).ok());
    }
    const double hio =
        multi->EstimateBoxWith(MechanismKind::kHio, ranges, w).ValueOrDie();
    const double mg =
        multi->EstimateBoxWith(MechanismKind::kMg, ranges, w).ValueOrDie();
    sum_hio += hio;
    mse_hio += (hio - truth) * (hio - truth);
    sum_mg += mg;
    mse_mg += (mg - truth) * (mg - truth);
  }
  mse_hio /= runs;
  mse_mg /= runs;
  EXPECT_NEAR(sum_hio / runs, truth,
              4.0 * std::sqrt(mse_hio / runs) + 1e-9);
  EXPECT_NEAR(sum_mg / runs, truth, 4.0 * std::sqrt(mse_mg / runs) + 1e-9);

  // Dispatch to a kind that was never registered is an error.
  auto multi = MultiMechanism::Create(
                   schema, Params(eps),
                   Kinds({MechanismKind::kHio, MechanismKind::kMg}))
                   .ValueOrDie();
  Rng r2(6);
  ASSERT_TRUE(
      multi->AddReport(multi->EncodeUser(std::vector<uint32_t>{0, 0}, r2), 0)
          .ok());
  EXPECT_FALSE(
      multi->EstimateBoxWith(MechanismKind::kSc, ranges, w).ok());
}

// --- Engine-level: the planner chooses the mechanism per query. ---

Table WideDomainTable(uint64_t n = 2000, uint64_t seed = 91) {
  TableSpec spec;
  spec.dims.push_back({"a", AttributeKind::kSensitiveOrdinal, 1024,
                       ColumnDist::kUniform, 1.0});
  spec.measures.push_back({"m", 0.0, 5.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, seed).ValueOrDie();
}

std::unique_ptr<AnalyticsEngine> MakeMultiEngine(
    const Table& table, std::vector<MechanismKind> kinds,
    int num_threads = 1, bool estimate_cache = true, uint64_t seed = 42) {
  EngineOptions options;
  options.mechanisms = std::move(kinds);
  options.params.epsilon = 2.0;
  options.params.hash_pool_size = 256;
  options.num_threads = num_threads;
  options.enable_estimate_cache = estimate_cache;
  options.seed = seed;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

TEST(MechanismSelectionTest, PlannerPicksPerQueryShape) {
  // Section 5.4's turning point on a 1024-value domain at eps = 2: MG wins
  // only for tiny query volumes, HIO otherwise. One engine, two queries,
  // two different chosen mechanisms.
  const Table table = WideDomainTable();
  const auto engine =
      MakeMultiEngine(table, {MechanismKind::kHio, MechanismKind::kMg});

  const Query narrow =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a IN [0, 4]")
          .ValueOrDie();
  const Query wide =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a IN [0, 511]")
          .ValueOrDie();

  const auto narrow_plan = engine->PlanFor(narrow).ValueOrDie();
  EXPECT_EQ(narrow_plan->mechanism, MechanismKind::kMg);
  EXPECT_EQ(narrow_plan->strategy, PlanStrategy::kMgCellStream);

  const auto wide_plan = engine->PlanFor(wide).ValueOrDie();
  EXPECT_EQ(wide_plan->mechanism, MechanismKind::kHio);
  EXPECT_EQ(wide_plan->strategy, PlanStrategy::kDirectLevelGrid);

  // The choice is exactly the cost model's verdict over the recorded
  // candidate scores — the plan carries its own justification.
  for (const auto& plan : {narrow_plan, wide_plan}) {
    ASSERT_EQ(plan->candidates.size(), 2u);
    EXPECT_EQ(plan->candidates[0].kind, MechanismKind::kHio);
    EXPECT_EQ(plan->candidates[1].kind, MechanismKind::kMg);
    EXPECT_EQ(plan->mechanism, ChooseMechanism(plan->candidates));
  }
  EXPECT_LT(narrow_plan->candidates[1].variance,
            narrow_plan->candidates[0].variance);
  EXPECT_LT(wide_plan->candidates[0].variance,
            wide_plan->candidates[1].variance);

  // Both plans execute against the same report population.
  EXPECT_TRUE(engine->Execute(narrow).ok());
  EXPECT_TRUE(engine->Execute(wide).ok());
}

TEST(MechanismSelectionTest, ChoiceCountersTrackPlannerDecisions) {
  const Table table = WideDomainTable();
  const auto engine =
      MakeMultiEngine(table, {MechanismKind::kHio, MechanismKind::kMg});
  Counter* mg = GlobalMetrics().counter("plan.mechanism_choices.MG");
  Counter* hio = GlobalMetrics().counter("plan.mechanism_choices.HIO");
  const uint64_t mg_before = mg->value();
  const uint64_t hio_before = hio->value();
  ASSERT_TRUE(engine->ExecuteSql("SELECT COUNT(*) FROM T WHERE a IN [0, 4]")
                  .ok());
  ASSERT_TRUE(engine->ExecuteSql("SELECT COUNT(*) FROM T WHERE a IN [0, 511]")
                  .ok());
  EXPECT_EQ(mg->value(), mg_before + 1);
  EXPECT_EQ(hio->value(), hio_before + 1);
}

TEST(MechanismSelectionTest, CandidateListsFollowTheMechanismSet) {
  const Table table = WideDomainTable(500);
  const auto hio_only = MakeMultiEngine(table, {MechanismKind::kHio});
  const auto hio_mg =
      MakeMultiEngine(table, {MechanismKind::kHio, MechanismKind::kMg});
  const auto hio_hdg =
      MakeMultiEngine(table, {MechanismKind::kHio, MechanismKind::kHdg});

  // A single-entry mechanisms list is the classic single-mechanism engine.
  EngineOptions classic;
  classic.mechanism = MechanismKind::kHio;
  classic.params.epsilon = 2.0;
  classic.params.hash_pool_size = 256;
  const auto single = AnalyticsEngine::Create(table, classic).ValueOrDie();
  // Single-mechanism plans carry no candidate scores (forced choice).
  const Query q =
      ParseQuery(table.schema(), "SELECT COUNT(*) FROM T WHERE a <= 5")
          .ValueOrDie();
  EXPECT_TRUE(single->PlanFor(q).ValueOrDie()->candidates.empty());
  EXPECT_TRUE(hio_only->PlanFor(q).ValueOrDie()->candidates.empty());
  // A composite scores exactly its registered set, in registration order.
  const auto kinds = [&q](const AnalyticsEngine& engine) {
    std::vector<MechanismKind> out;
    for (const MechanismScore& score :
         engine.PlanFor(q).ValueOrDie()->candidates) {
      out.push_back(score.kind);
    }
    return out;
  };
  EXPECT_EQ(kinds(*hio_mg),
            (std::vector<MechanismKind>{MechanismKind::kHio,
                                        MechanismKind::kMg}));
  EXPECT_EQ(kinds(*hio_hdg),
            (std::vector<MechanismKind>{MechanismKind::kHio,
                                        MechanismKind::kHdg}));
}

TEST(MechanismSelectionTest, MultiEngineDeterministicAcrossThreadsAndCache) {
  // The composite population is encoded with the same per-chunk RNG
  // substreams as any mechanism, so a multi-mechanism engine's answers are
  // bit-identical across thread counts and estimate-cache settings.
  const Table table = WideDomainTable(1500);
  const std::vector<const char*> sqls = {
      "SELECT COUNT(*) FROM T WHERE a IN [0, 4]",
      "SELECT COUNT(*) FROM T WHERE a IN [0, 511]",
      "SELECT SUM(m) FROM T WHERE a IN [100, 899]",
  };
  std::vector<double> reference;
  for (const int threads : {1, 2, 8}) {
    for (const bool cache : {true, false}) {
      const auto engine = MakeMultiEngine(
          table, {MechanismKind::kHio, MechanismKind::kMg}, threads, cache);
      std::vector<double> results;
      for (const char* sql : sqls) {
        results.push_back(engine->ExecuteSql(sql).ValueOrDie());
      }
      if (reference.empty()) {
        reference = results;
      } else {
        EXPECT_EQ(results, reference)
            << "threads=" << threads << " cache=" << cache;
      }
    }
  }
}

}  // namespace
}  // namespace ldp
