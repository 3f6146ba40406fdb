#include "mech/consistency.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ldp {
namespace {

Schema OneDimSchema(uint64_t m) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps) {
  MechanismParams p;
  p.epsilon = eps;
  p.fanout = 2;
  p.hash_pool_size = 0;
  return p;
}

std::unique_ptr<HioMechanism> CollectedHio(const Schema& schema,
                                           const std::vector<uint32_t>& values,
                                           double eps, uint64_t seed) {
  auto mech = HioMechanism::Create(schema, Params(eps)).ValueOrDie();
  Rng rng(seed);
  for (uint64_t u = 0; u < values.size(); ++u) {
    const std::vector<uint32_t> vals = {values[u]};
    EXPECT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
  }
  return mech;
}

TEST(ConsistencyTest, TreeIsConsistentAfterProcessing) {
  const Schema schema = OneDimSchema(16);
  std::vector<uint32_t> values;
  for (uint32_t u = 0; u < 2000; ++u) values.push_back((u * 3) % 16);
  auto hio = CollectedHio(schema, values, 1.0, 1);
  const WeightVector w = WeightVector::Ones(values.size());
  const ConsistentHio consistent =
      ConsistentHio::Build(*hio, w).ValueOrDie();
  // Every parent equals the sum of its children (fan-out 2, h = 4).
  for (int level = 0; level < 4; ++level) {
    const uint64_t cells = 1ull << level;
    for (uint64_t c = 0; c < cells; ++c) {
      EXPECT_NEAR(consistent.NodeValue(level, c),
                  consistent.NodeValue(level + 1, 2 * c) +
                      consistent.NodeValue(level + 1, 2 * c + 1),
                  1e-6)
          << "level " << level << " cell " << c;
    }
  }
}

TEST(ConsistencyTest, RangeEstimateMatchesLeafSum) {
  const Schema schema = OneDimSchema(16);
  std::vector<uint32_t> values;
  for (uint32_t u = 0; u < 1000; ++u) values.push_back(u % 16);
  auto hio = CollectedHio(schema, values, 1.0, 2);
  const WeightVector w = WeightVector::Ones(values.size());
  const ConsistentHio consistent =
      ConsistentHio::Build(*hio, w).ValueOrDie();
  // Consistency means a range answer equals the sum of its leaves no matter
  // how it is decomposed.
  const Interval range{3, 11};
  double leaf_sum = 0.0;
  for (uint64_t v = range.lo; v <= range.hi; ++v) {
    leaf_sum += consistent.NodeValue(4, v);
  }
  EXPECT_NEAR(consistent.EstimateRange(range).ValueOrDie(), leaf_sum, 1e-6);
}

TEST(ConsistencyTest, ImprovesOrMatchesRawMse) {
  const Schema schema = OneDimSchema(16);
  const uint64_t n = 3000;
  std::vector<uint32_t> values;
  double truth = 0.0;
  const Interval range{2, 13};
  for (uint32_t u = 0; u < n; ++u) {
    values.push_back((u * 7) % 16);
    if (range.Contains(values.back())) truth += 1.0;
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {range};
  double raw_mse = 0.0;
  double cons_mse = 0.0;
  const int runs = 30;
  for (int run = 0; run < runs; ++run) {
    auto hio = CollectedHio(schema, values, 1.0, 100 + run);
    const double raw = hio->EstimateBox(ranges, w).ValueOrDie();
    const ConsistentHio consistent =
        ConsistentHio::Build(*hio, w).ValueOrDie();
    const double cons = consistent.EstimateRange(range).ValueOrDie();
    raw_mse += (raw - truth) * (raw - truth);
    cons_mse += (cons - truth) * (cons - truth);
  }
  // Least-squares post-processing should not hurt; allow slack for noise.
  EXPECT_LT(cons_mse, raw_mse * 1.15);
}

TEST(ConsistencyTest, WorksWithFanOutFive) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("d", 125).ok());
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  MechanismParams params;
  params.epsilon = 2.0;
  params.fanout = 5;
  auto mech = HioMechanism::Create(schema, params).ValueOrDie();
  Rng rng(7);
  const uint64_t n = 5000;
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> vals = {static_cast<uint32_t>(u % 125)};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
  }
  const WeightVector w = WeightVector::Ones(n);
  const ConsistentHio consistent = ConsistentHio::Build(*mech, w).ValueOrDie();
  // 5-ary consistency: each parent equals the sum of its five children.
  for (int level = 0; level < 3; ++level) {
    uint64_t cells = 1;
    for (int i = 0; i < level; ++i) cells *= 5;
    for (uint64_t c = 0; c < cells; ++c) {
      double child_sum = 0.0;
      for (uint64_t k = 0; k < 5; ++k) {
        child_sum += consistent.NodeValue(level + 1, 5 * c + k);
      }
      EXPECT_NEAR(consistent.NodeValue(level, c), child_sum, 1e-6);
    }
  }
}

TEST(ConsistencyTest, RejectsMultiDim) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("d1", 8).ok());
  ASSERT_TRUE(schema.AddOrdinal("d2", 8).ok());
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  auto hio = HioMechanism::Create(schema, Params(1.0)).ValueOrDie();
  const WeightVector w = WeightVector::Ones(0);
  EXPECT_FALSE(ConsistentHio::Build(*hio, w).ok());
}

TEST(ConsistencyTest, RejectsCategorical) {
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("c", 8).ok());
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  auto hio = HioMechanism::Create(schema, Params(1.0)).ValueOrDie();
  const WeightVector w = WeightVector::Ones(0);
  EXPECT_FALSE(ConsistentHio::Build(*hio, w).ok());
}

TEST(ConsistencyTest, EstimateRangeValidates) {
  const Schema schema = OneDimSchema(16);
  auto hio = CollectedHio(schema, {1, 2, 3}, 1.0, 3);
  const WeightVector w = WeightVector::Ones(3);
  const ConsistentHio consistent =
      ConsistentHio::Build(*hio, w).ValueOrDie();
  EXPECT_FALSE(consistent.EstimateRange({5, 3}).ok());
  EXPECT_FALSE(consistent.EstimateRange({0, 16}).ok());
}

TEST(ConsistencyTest, ShortWeightVectorIsInvalidArgument) {
  // Users 0, 5 and 9: the weights need an entry for user 9.
  const Schema schema = OneDimSchema(16);
  auto hio = HioMechanism::Create(schema, Params(1.0)).ValueOrDie();
  Rng rng(4);
  for (const uint64_t user : {0, 5, 9}) {
    const std::vector<uint32_t> vals = {static_cast<uint32_t>(user)};
    ASSERT_TRUE(hio->AddReport(hio->EncodeUser(vals, rng), user).ok());
  }
  EXPECT_EQ(ConsistentHio::Build(*hio, WeightVector::Ones(9)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ConsistentHio::Build(*hio, WeightVector::Ones(10)).ok());
}

}  // namespace
}  // namespace ldp
