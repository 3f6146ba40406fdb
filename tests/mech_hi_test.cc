#include "mech/hi.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/privacy_math.h"
#include "data/generator.h"

namespace ldp {
namespace {

Schema OneDimSchema(uint64_t m) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

Schema MixedSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d1", 16).ok());
  EXPECT_TRUE(schema.AddCategorical("d2", 4).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps, uint32_t b = 2) {
  MechanismParams p;
  p.epsilon = eps;
  p.fanout = b;
  p.hash_pool_size = 0;
  return p;
}

TEST(HiMechanismTest, BudgetSplitsOverAllLevels) {
  // m = 16, b = 2 -> h = 4 -> 5 levels including the root.
  auto mech = HiMechanism::Create(OneDimSchema(16), Params(1.0)).ValueOrDie();
  EXPECT_EQ(mech->grid().num_level_tuples(), 5u);
  EXPECT_NEAR(mech->per_level_epsilon(), 1.0 / 5.0, 1e-12);
  // Mixed 2-dim: 5 ordinal levels x 2 categorical levels = 10.
  auto mixed = HiMechanism::Create(MixedSchema(), Params(1.0)).ValueOrDie();
  EXPECT_EQ(mixed->grid().num_level_tuples(), 10u);
  EXPECT_NEAR(mixed->per_level_epsilon(), 0.1, 1e-12);
}

TEST(HiMechanismTest, EncodeCoversEveryLevel) {
  auto mech = HiMechanism::Create(MixedSchema(), Params(1.0)).ValueOrDie();
  Rng rng(1);
  const std::vector<uint32_t> values = {7, 2};
  const LdpReport report = mech->EncodeUser(values, rng);
  ASSERT_EQ(report.entries.size(), 10u);
  for (uint32_t g = 0; g < 10; ++g) EXPECT_EQ(report.entries[g].group, g);
  EXPECT_EQ(report.SizeWords(), 10u);
}

// Unbiasedness of the full pipeline (Theorem 6): over repeated collections,
// the mean estimate approaches the exact weighted box total and the MSE
// respects the theorem's bound.
TEST(HiMechanismTest, UnbiasedWithMseWithinTheorem6) {
  const double eps = 2.0;
  const uint64_t m = 16;
  const uint64_t n = 1500;
  const Schema schema = OneDimSchema(m);
  // Fixed data: values spread, weights in [0, 3].
  std::vector<uint32_t> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  double m2_t = 0.0;
  const Interval box{3, 11};
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = static_cast<uint32_t>((u * 7) % m);
    weights[u] = static_cast<double>(u % 4);
    m2_t += weights[u] * weights[u];
    if (box.Contains(values[u])) truth += weights[u];
  }
  const WeightVector w(weights);

  const int runs = 40;
  Rng rng(9);
  double sum_est = 0.0;
  double sum_sq_err = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HiMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      const std::vector<uint32_t> vals = {values[u]};
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
    }
    const std::vector<Interval> ranges = {box};
    const double est = mech->EstimateBox(ranges, w).ValueOrDie();
    sum_est += est;
    sum_sq_err += (est - truth) * (est - truth);
  }
  const double bound = Theorem6HiBound(eps, 2, m, m2_t);
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(bound / runs));
  EXPECT_LT(sum_sq_err / runs, bound * 1.5);
}

// 2-dim mixed box with a categorical point constraint (Appendix C).
TEST(HiMechanismTest, MixedDimensionsUnbiased) {
  const double eps = 3.0;
  const uint64_t n = 3000;
  const Schema schema = MixedSchema();
  std::vector<std::vector<uint32_t>> values(n);
  double truth = 0.0;
  Rng data_rng(10);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(4))};
    if (values[u][0] >= 4 && values[u][0] <= 12 && values[u][1] == 2) {
      truth += 1.0;
    }
  }
  const WeightVector w = WeightVector::Ones(n);
  const int runs = 30;
  Rng rng(11);
  double sum_est = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HiMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    const std::vector<Interval> ranges = {{4, 12}, {2, 2}};
    sum_est += mech->EstimateBox(ranges, w).ValueOrDie();
  }
  const double bound = Theorem8HiBound(eps, 2, 16, 2, 2, n);
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(bound / runs));
}

}  // namespace
}  // namespace ldp
