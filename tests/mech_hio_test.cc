#include "mech/hio.h"

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/privacy_math.h"
#include "mech/hi.h"

namespace ldp {
namespace {

Schema OneDimSchema(uint64_t m) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

Schema TwoDimSchema(uint64_t m1, uint64_t m2) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d1", m1).ok());
  EXPECT_TRUE(schema.AddOrdinal("d2", m2).ok());
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

TEST(HioMechanismTest, EncodePicksOneRandomLevel) {
  auto mech = HioMechanism::Create(OneDimSchema(16), Params(1.0)).ValueOrDie();
  Rng rng(1);
  std::vector<int> level_counts(mech->grid().num_level_tuples(), 0);
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const std::vector<uint32_t> values = {5};
    const LdpReport r = mech->EncodeUser(values, rng);
    ASSERT_EQ(r.entries.size(), 1u);
    ASSERT_LT(r.entries[0].group, level_counts.size());
    ++level_counts[r.entries[0].group];
    EXPECT_EQ(r.SizeWords(), 1u);
  }
  // Uniform level choice (Algorithm 2, line 1).
  const double expected = static_cast<double>(trials) / level_counts.size();
  for (size_t j = 0; j < level_counts.size(); ++j) {
    EXPECT_NEAR(level_counts[j], expected, expected * 0.2) << "level " << j;
  }
}

// Unbiasedness and Theorem 7/9-scale error of the full HIO pipeline.
TEST(HioMechanismTest, UnbiasedWithMseWithinTheorem9) {
  const double eps = 1.0;
  const uint64_t m = 16;
  const uint64_t n = 4000;
  const Schema schema = OneDimSchema(m);
  std::vector<uint32_t> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  double m2_t = 0.0;
  const Interval box{3, 11};
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = static_cast<uint32_t>((u * 5) % m);
    weights[u] = 1.0 + static_cast<double>(u % 3);
    m2_t += weights[u] * weights[u];
    if (box.Contains(values[u])) truth += weights[u];
  }
  const WeightVector w(weights);

  const int runs = 50;
  Rng rng(2);
  double sum_est = 0.0;
  double sum_sq_err = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HioMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      const std::vector<uint32_t> vals = {values[u]};
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
    }
    const std::vector<Interval> ranges = {box};
    const double est = mech->EstimateBox(ranges, w).ValueOrDie();
    sum_est += est;
    sum_sq_err += (est - truth) * (est - truth);
  }
  // d = 1 under Algorithm 2 (levels {0..h}): Theorem 9 with d = dq = 1.
  const double bound = Theorem9HioBound(eps, 2, m, 1, 1, m2_t);
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(bound / runs));
  EXPECT_LT(sum_sq_err / runs, bound * 1.5);
}

// Section 4.2's headline: HIO beats HI by orders of magnitude. Compare
// empirical MSEs on identical data.
TEST(HioMechanismTest, BeatsHiEmpirically) {
  const double eps = 1.0;
  const uint64_t m = 64;
  const uint64_t n = 3000;
  const Schema schema = OneDimSchema(m);
  std::vector<uint32_t> values(n);
  double truth = 0.0;
  const Interval box{10, 53};
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = static_cast<uint32_t>((u * 13) % m);
    if (box.Contains(values[u])) truth += 1.0;
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {box};

  const int runs = 25;
  Rng rng(3);
  double hi_mse = 0.0;
  double hio_mse = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto hi = HiMechanism::Create(schema, Params(eps)).ValueOrDie();
    auto hio = HioMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      const std::vector<uint32_t> vals = {values[u]};
      ASSERT_TRUE(hi->AddReport(hi->EncodeUser(vals, rng), u).ok());
      ASSERT_TRUE(hio->AddReport(hio->EncodeUser(vals, rng), u).ok());
    }
    const double e1 = hi->EstimateBox(ranges, w).ValueOrDie() - truth;
    const double e2 = hio->EstimateBox(ranges, w).ValueOrDie() - truth;
    hi_mse += e1 * e1;
    hio_mse += e2 * e2;
  }
  EXPECT_LT(hio_mse, hi_mse);  // typically ~10x better at m = 64, b = 2
}

TEST(HioMechanismTest, TwoDimUnbiased) {
  const double eps = 2.0;
  const uint64_t n = 6000;
  const Schema schema = TwoDimSchema(16, 8);
  std::vector<std::vector<uint32_t>> values(n);
  double truth = 0.0;
  Rng data_rng(4);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(16)),
                 static_cast<uint32_t>(data_rng.UniformInt(8))};
    if (values[u][0] >= 2 && values[u][0] <= 13 && values[u][1] >= 1 &&
        values[u][1] <= 6) {
      truth += 1.0;
    }
  }
  const WeightVector w = WeightVector::Ones(n);
  const int runs = 40;
  Rng rng(5);
  double sum_est = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HioMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    const std::vector<Interval> ranges = {{2, 13}, {1, 6}};
    sum_est += mech->EstimateBox(ranges, w).ValueOrDie();
  }
  const double bound = Theorem9HioBound(eps, 2, 16, 2, 2, n);
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(bound / runs));
}

TEST(HioMechanismTest, EstimateCellMatchesBoxForAlignedRange) {
  // A box that is exactly one hierarchy node must produce the same estimate
  // through EstimateBox and a one-cell EstimateCells.
  const Schema schema = OneDimSchema(16);
  auto mech = HioMechanism::Create(schema, Params(1.0)).ValueOrDie();
  Rng rng(6);
  for (uint64_t u = 0; u < 500; ++u) {
    const std::vector<uint32_t> vals = {static_cast<uint32_t>(u % 16)};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
  }
  const WeightVector w = WeightVector::Ones(500);
  // [8, 11] is node (level 2, index 2) in the b=2 hierarchy over 16 values.
  const std::vector<Interval> ranges = {{8, 11}};
  const uint64_t cell = 2;
  double estimate = 0.0;
  ASSERT_TRUE(mech->EstimateCells(2, std::span(&cell, 1), w,
                                  std::span(&estimate, 1))
                  .ok());
  EXPECT_NEAR(mech->EstimateBox(ranges, w).ValueOrDie(), estimate, 1e-9);
}

TEST(HioMechanismTest, EstimateCellsRejectsAShortWeightVector) {
  // EstimateCells reads weights[user] for every report, so a vector one
  // entry short of the largest user id must be refused before any read.
  const Schema schema = OneDimSchema(16);
  auto mech = HioMechanism::Create(schema, Params(1.0)).ValueOrDie();
  Rng rng(7);
  for (uint64_t u = 0; u < 300; ++u) {
    const std::vector<uint32_t> vals = {static_cast<uint32_t>(u % 16)};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
  }
  const std::vector<uint64_t> cells = {0, 1, 2, 3};
  std::vector<double> out(cells.size(), -1.0);
  const Status short_weights =
      mech->EstimateCells(2, cells, WeightVector::Ones(299), out);
  EXPECT_EQ(short_weights.code(), StatusCode::kInvalidArgument)
      << short_weights.ToString();
  EXPECT_EQ(out, std::vector<double>(cells.size(), -1.0));
  EXPECT_TRUE(mech->EstimateCells(2, cells, WeightVector::Ones(300), out).ok());
}

}  // namespace
}  // namespace ldp
