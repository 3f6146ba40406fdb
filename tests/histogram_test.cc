#include "engine/histogram.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

namespace ldp {
namespace {

Schema OneDimSchema(uint64_t m) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

std::unique_ptr<HioMechanism> CollectedHio(const Schema& schema,
                                           const std::vector<uint32_t>& values,
                                           double eps, uint64_t seed) {
  MechanismParams params;
  params.epsilon = eps;
  params.fanout = 2;
  auto mech = HioMechanism::Create(schema, params).ValueOrDie();
  Rng rng(seed);
  for (uint64_t u = 0; u < values.size(); ++u) {
    const std::vector<uint32_t> vals = {values[u]};
    EXPECT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
  }
  return mech;
}

TEST(NormSubTest, AlreadyValidIsAlmostUnchanged) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  NormSubInPlace(&v, 6.0);
  EXPECT_NEAR(v[0], 1.0, 1e-9);
  EXPECT_NEAR(v[1], 2.0, 1e-9);
  EXPECT_NEAR(v[2], 3.0, 1e-9);
}

TEST(NormSubTest, ClipsNegativesAndPreservesTotal) {
  std::vector<double> v = {5.0, -2.0, 4.0, -1.0};
  NormSubInPlace(&v, 6.0);  // true total 6
  double sum = 0.0;
  for (const double x : v) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 6.0, 1e-6);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[3], 0.0);
  // Mass order is preserved among surviving bins.
  EXPECT_GT(v[0], v[2]);
}

TEST(NormSubTest, ScalesUpWhenPositiveMassTooSmall) {
  std::vector<double> v = {1.0, -3.0, 1.0};
  NormSubInPlace(&v, 10.0);
  EXPECT_NEAR(v[0], 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_NEAR(v[2], 5.0, 1e-9);
}

TEST(NormSubTest, AllNegativeBecomesUniform) {
  std::vector<double> v = {-1.0, -2.0};
  NormSubInPlace(&v, 8.0);
  EXPECT_DOUBLE_EQ(v[0], 4.0);
  EXPECT_DOUBLE_EQ(v[1], 4.0);
}

TEST(NormSubTest, NonPositiveTargetZeroesOut) {
  std::vector<double> v = {3.0, -1.0};
  NormSubInPlace(&v, 0.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(HistogramTest, RecoversSkewedDistribution) {
  const uint64_t m = 16;
  const uint64_t n = 30000;
  const Schema schema = OneDimSchema(m);
  std::vector<uint32_t> values;
  std::vector<double> truth(m, 0.0);
  Rng data_rng(1);
  for (uint64_t u = 0; u < n; ++u) {
    // Skewed: half the mass on value 3.
    const uint32_t v = data_rng.Bernoulli(0.5)
                           ? 3
                           : static_cast<uint32_t>(data_rng.UniformInt(m));
    values.push_back(v);
    truth[v] += 1.0;
  }
  auto hio = CollectedHio(schema, values, 4.0, 2);
  const WeightVector w = WeightVector::Ones(n);
  const auto hist = EstimateHistogram(*hio, 0, w).ValueOrDie();
  ASSERT_EQ(hist.size(), m);
  double sum = 0.0;
  for (uint64_t v = 0; v < m; ++v) {
    EXPECT_GE(hist[v], 0.0);
    EXPECT_NEAR(hist[v], truth[v], n * 0.05) << "bin " << v;
    sum += hist[v];
  }
  EXPECT_NEAR(sum, static_cast<double>(n), 1e-6);  // norm-sub total
}

TEST(HistogramTest, WeightedHistogram) {
  const uint64_t m = 8;
  const uint64_t n = 20000;
  const Schema schema = OneDimSchema(m);
  std::vector<uint32_t> values;
  std::vector<double> weights;
  std::vector<double> truth(m, 0.0);
  for (uint64_t u = 0; u < n; ++u) {
    const uint32_t v = static_cast<uint32_t>(u % m);
    const double weight = 1.0 + (u % 3);
    values.push_back(v);
    weights.push_back(weight);
    truth[v] += weight;
  }
  auto hio = CollectedHio(schema, values, 4.0, 3);
  const WeightVector w(weights);
  const auto hist = EstimateHistogram(*hio, 0, w).ValueOrDie();
  for (uint64_t v = 0; v < m; ++v) {
    EXPECT_NEAR(hist[v], truth[v], w.total() * 0.08) << "bin " << v;
  }
}

TEST(HistogramTest, ConsistentVariant) {
  const uint64_t m = 16;
  const uint64_t n = 10000;
  const Schema schema = OneDimSchema(m);
  std::vector<uint32_t> values;
  for (uint64_t u = 0; u < n; ++u) values.push_back(u % m);
  auto hio = CollectedHio(schema, values, 2.0, 4);
  const WeightVector w = WeightVector::Ones(n);
  HistogramOptions options;
  options.consistent = true;
  options.non_negative = true;
  const auto hist = EstimateHistogram(*hio, 0, w, options).ValueOrDie();
  ASSERT_EQ(hist.size(), m);
  const double sum = std::accumulate(hist.begin(), hist.end(), 0.0);
  EXPECT_NEAR(sum, static_cast<double>(n), 1e-6);
}

TEST(HistogramTest, MultiDimHistogramOfOneDimension) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("a", 8).ok());
  ASSERT_TRUE(schema.AddCategorical("c", 3).ok());
  ASSERT_TRUE(schema.AddMeasure("w").ok());
  MechanismParams params;
  params.epsilon = 4.0;
  params.fanout = 2;
  auto mech = HioMechanism::Create(schema, params).ValueOrDie();
  Rng rng(5);
  const uint64_t n = 20000;
  std::vector<double> truth(3, 0.0);
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {static_cast<uint32_t>(u % 8),
                                          static_cast<uint32_t>(u % 3)};
    truth[values[1]] += 1.0;
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), u).ok());
  }
  const WeightVector w = WeightVector::Ones(n);
  const auto hist = EstimateHistogram(*mech, 1, w).ValueOrDie();
  ASSERT_EQ(hist.size(), 3u);
  for (int v = 0; v < 3; ++v) EXPECT_NEAR(hist[v], truth[v], n * 0.08);
  // Consistent mode requires a single dimension.
  HistogramOptions options;
  options.consistent = true;
  EXPECT_FALSE(EstimateHistogram(*mech, 1, w, options).ok());
}

TEST(HistogramTest, ValidatesDimPosition) {
  const Schema schema = OneDimSchema(8);
  auto hio = CollectedHio(schema, {1, 2, 3}, 1.0, 6);
  const WeightVector w = WeightVector::Ones(3);
  EXPECT_FALSE(EstimateHistogram(*hio, -1, w).ok());
  EXPECT_FALSE(EstimateHistogram(*hio, 1, w).ok());
}

TEST(HistogramTest, ShortWeightVectorIsInvalidArgument) {
  // Users 0, 1 and 2: the weights need an entry for user 2, in the plain
  // and the consistent variant.
  const Schema schema = OneDimSchema(8);
  auto hio = CollectedHio(schema, {1, 2, 3}, 1.0, 7);
  HistogramOptions consistent;
  consistent.consistent = true;
  for (const HistogramOptions& options : {HistogramOptions{}, consistent}) {
    EXPECT_EQ(
        EstimateHistogram(*hio, 0, WeightVector::Ones(2), options)
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    EXPECT_TRUE(EstimateHistogram(*hio, 0, WeightVector::Ones(3), options)
                    .ok());
  }
}

}  // namespace
}  // namespace ldp
