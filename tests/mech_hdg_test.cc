#include "mech/hdg.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace ldp {
namespace {

Schema TwoDimSchema(uint64_t m1 = 16, uint64_t m2 = 16) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", m1).ok());
  EXPECT_TRUE(schema.AddOrdinal("y", m2).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

Schema ThreeDimSchema(uint64_t m = 16) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", m).ok());
  EXPECT_TRUE(schema.AddOrdinal("y", m).ok());
  EXPECT_TRUE(schema.AddOrdinal("z", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps, uint64_t hint = 0) {
  MechanismParams p;
  p.epsilon = eps;
  p.hash_pool_size = 0;
  p.population_hint = hint;
  return p;
}

TEST(HdgTest, GranularitiesScaleWithBudgetAndPopulation) {
  uint32_t g1 = 0;
  uint32_t g2 = 0;
  HdgGranularities(1.0, 0, 2, &g1, &g2);
  EXPECT_GE(g1, 2u);
  EXPECT_GE(g2, 2u);
  EXPECT_GE(g1, g2);  // 1-D grids afford finer cells than 2-D grids

  // More budget or more users -> finer grids; more grids (dims) -> coarser.
  uint32_t g1_rich = 0, g2_rich = 0;
  HdgGranularities(4.0, 0, 2, &g1_rich, &g2_rich);
  EXPECT_GT(g1_rich, g1);
  uint32_t g1_big = 0, g2_big = 0;
  HdgGranularities(1.0, 1000000, 2, &g1_big, &g2_big);
  EXPECT_GT(g1_big, g1);
  uint32_t g1_many = 0, g2_many = 0;
  HdgGranularities(1.0, 0, 8, &g1_many, &g2_many);
  EXPECT_LE(g1_many, g1);
}

TEST(HdgTest, LayoutBuildsOneDimAndPairGrids) {
  auto two = HdgMechanism::Create(TwoDimSchema(), Params(2.0)).ValueOrDie();
  EXPECT_EQ(two->num_grids(), 3);  // 2 one-dim + C(2,2) = 1 pair
  EXPECT_EQ(two->NumReportGroups(), 3u);
  auto three = HdgMechanism::Create(ThreeDimSchema(), Params(2.0)).ValueOrDie();
  EXPECT_EQ(three->num_grids(), 6);  // 3 one-dim + C(3,2) = 3 pairs
  EXPECT_GE(three->g1(), three->g2());
  EXPECT_GE(three->g2(), 2u);
}

TEST(HdgTest, EncodePicksUniformGrid) {
  auto mech = HdgMechanism::Create(ThreeDimSchema(), Params(1.0)).ValueOrDie();
  Rng rng(1);
  std::vector<int> counts(mech->num_grids(), 0);
  const int trials = 6000;
  for (int i = 0; i < trials; ++i) {
    const std::vector<uint32_t> values = {3, 7, 11};
    const LdpReport r = mech->EncodeUser(values, rng);
    ASSERT_EQ(r.entries.size(), 1u);
    ASSERT_LT(r.entries[0].group, static_cast<uint32_t>(mech->num_grids()));
    ++counts[r.entries[0].group];
  }
  const double expected = static_cast<double>(trials) / counts.size();
  for (size_t g = 0; g < counts.size(); ++g) {
    EXPECT_NEAR(counts[g], expected, expected * 0.25) << "grid " << g;
  }
}

TEST(HdgTest, ShardMergeMatchesDirectIngestBitwise) {
  const Schema schema = TwoDimSchema();
  const uint64_t n = 800;
  Rng data_rng(3);
  std::vector<std::vector<uint32_t>> values(n);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(16))};
  }
  // Encode once; feed the same report bits down both ingestion paths.
  auto direct = HdgMechanism::Create(schema, Params(2.0)).ValueOrDie();
  std::vector<LdpReport> reports;
  Rng rng(4);
  for (uint64_t u = 0; u < n; ++u) {
    reports.push_back(direct->EncodeUser(values[u], rng));
  }
  for (uint64_t u = 0; u < n; ++u) {
    ASSERT_TRUE(direct->AddReport(reports[u], u).ok());
  }
  auto merged = HdgMechanism::Create(schema, Params(2.0)).ValueOrDie();
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
  EXPECT_EQ(merged->num_reports(), direct->num_reports());

  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{2, 9}, {0, 15}};
  EXPECT_EQ(direct->EstimateBox(ranges, w).ValueOrDie(),
            merged->EstimateBox(ranges, w).ValueOrDie());
}

TEST(HdgTest, UnbiasedOnFullResolutionGrids) {
  // Default population hint at eps = 2 clamps both granularities to the full
  // 16-value domains, so no uniformity error: the estimator must be unbiased.
  const double eps = 2.0;
  const uint64_t n = 4000;
  const Schema schema = TwoDimSchema();
  std::vector<std::vector<uint32_t>> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  Rng data_rng(5);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(16))};
    weights[u] = 1.0 + static_cast<double>(u % 3);
    if (values[u][0] >= 3 && values[u][0] <= 12 && values[u][1] >= 5 &&
        values[u][1] <= 14) {
      truth += weights[u];
    }
  }
  const WeightVector w(weights);
  const std::vector<Interval> ranges = {{3, 12}, {5, 14}};
  const int runs = 40;
  Rng rng(6);
  double sum_est = 0.0;
  double mse = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HdgMechanism::Create(schema, Params(eps)).ValueOrDie();
    EXPECT_GE(mech->g1(), 16u);  // full resolution per the comment above
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    const double est = mech->EstimateBox(ranges, w).ValueOrDie();
    sum_est += est;
    mse += (est - truth) * (est - truth);
  }
  mse /= runs;
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(mse / runs) + 1e-9);
}

TEST(HdgTest, CoarseGridsStayAccurateOnUniformData) {
  // A tiny population hint forces genuinely coarse cells; within-cell
  // uniformity then holds exactly for uniform data, so partial-cell
  // fractions must keep the estimator centered.
  const uint64_t n = 4000;
  const Schema schema = TwoDimSchema(64, 64);
  auto probe = HdgMechanism::Create(schema, Params(1.0, 200)).ValueOrDie();
  ASSERT_LT(probe->g1(), 64u);  // the hint really coarsened the grid
  std::vector<std::vector<uint32_t>> values(n);
  double truth = 0.0;
  Rng data_rng(7);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(64)),
                 static_cast<uint32_t>(data_rng.UniformInt(64))};
    if (values[u][0] >= 5 && values[u][0] <= 40) truth += 1.0;
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{5, 40}, {0, 63}};
  const int runs = 30;
  Rng rng(8);
  double sum_est = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HdgMechanism::Create(schema, Params(1.0, 200)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    sum_est += mech->EstimateBox(ranges, w).ValueOrDie();
  }
  // Loose band: the point is the fraction arithmetic, not the noise level.
  EXPECT_NEAR(sum_est / runs, truth, 0.25 * n);
}

TEST(HdgTest, WideQueriesUseTheProductFallback) {
  // Three constrained dimensions exceed the materialized pairs; the greedy
  // cover must still produce a finite, sane estimate.
  const uint64_t n = 3000;
  const Schema schema = ThreeDimSchema();
  auto mech = HdgMechanism::Create(schema, Params(2.0)).ValueOrDie();
  Rng rng(9);
  Rng data_rng(10);
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(data_rng.UniformInt(16)),
        static_cast<uint32_t>(data_rng.UniformInt(16)),
        static_cast<uint32_t>(data_rng.UniformInt(16))};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), u).ok());
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{0, 7}, {0, 7}, {0, 7}};
  const double est = mech->EstimateBox(ranges, w).ValueOrDie();
  EXPECT_GE(est, 0.0);
  EXPECT_LE(est, static_cast<double>(n));  // clamped per-factor selectivities
  const double bound = mech->VarianceBound(ranges, w).ValueOrDie();
  EXPECT_GT(bound, 0.0);
}

}  // namespace
}  // namespace ldp
