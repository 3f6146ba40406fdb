#include "mech/haar.h"

#include <cmath>

#include <gtest/gtest.h>

#include "mech/hio.h"

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
  p.hash_pool_size = 0;
  return p;
}

TEST(HaarTest, CreateValidates) {
  EXPECT_FALSE(HaarMechanism::Create(OneDimSchema(16), Params(0.0)).ok());
  Schema two_dims;
  ASSERT_TRUE(two_dims.AddOrdinal("a", 16).ok());
  ASSERT_TRUE(two_dims.AddOrdinal("b", 16).ok());
  ASSERT_TRUE(two_dims.AddMeasure("w").ok());
  EXPECT_FALSE(HaarMechanism::Create(two_dims, Params(1.0)).ok());
  Schema categorical;
  ASSERT_TRUE(categorical.AddCategorical("c", 16).ok());
  ASSERT_TRUE(categorical.AddMeasure("w").ok());
  EXPECT_FALSE(HaarMechanism::Create(categorical, Params(1.0)).ok());
  EXPECT_TRUE(HaarMechanism::Create(OneDimSchema(16), Params(1.0)).ok());
}

TEST(HaarTest, PadsToPowerOfTwo) {
  auto mech = HaarMechanism::Create(OneDimSchema(100), Params(1.0)).ValueOrDie();
  EXPECT_EQ(mech->height(), 7);
  EXPECT_EQ(mech->padded_size(), 128u);
}

// A contiguous range has at most two non-zero detail coefficients per level
// plus the scaling term — the wavelet decomposition is O(h).
TEST(HaarTest, DecompositionIsPolylogarithmic) {
  auto mech =
      HaarMechanism::Create(OneDimSchema(1024), Params(1.0)).ValueOrDie();
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t lo = rng.UniformInt(1024);
    const uint64_t hi = rng.UniformRange(lo, 1023);
    const auto terms = mech->DecomposeRange({lo, hi});
    EXPECT_LE(terms.size(), 1u + 2u * mech->height());
  }
}

// The Haar reconstruction identity: with exact block sums, the terms
// reproduce the range count exactly. Verify by brute force on a small
// domain against a known vector.
TEST(HaarTest, ReconstructionIdentityIsExact) {
  auto mech = HaarMechanism::Create(OneDimSchema(16), Params(1.0)).ValueOrDie();
  // Deterministic "data": f[v] = 1 + v mod 5.
  std::vector<double> f(16);
  for (int v = 0; v < 16; ++v) f[v] = 1.0 + (v % 5);
  auto block_sum = [&](int level, uint64_t block) {
    const int shift = 4 - level;
    double sum = 0.0;
    for (uint64_t v = block << shift; v < ((block + 1) << shift); ++v) {
      sum += f[v];
    }
    return sum;
  };
  for (uint64_t lo = 0; lo < 16; ++lo) {
    for (uint64_t hi = lo; hi < 16; ++hi) {
      double truth = 0.0;
      for (uint64_t v = lo; v <= hi; ++v) truth += f[v];
      const auto terms = mech->DecomposeRange({lo, hi});
      double reconstructed = terms[0].coefficient * block_sum(0, 0);
      for (size_t i = 1; i < terms.size(); ++i) {
        reconstructed += terms[i].coefficient *
                         (block_sum(terms[i].child_level, terms[i].left_child) -
                          block_sum(terms[i].child_level,
                                    terms[i].left_child + 1));
      }
      EXPECT_NEAR(reconstructed, truth, 1e-9)
          << "range [" << lo << ", " << hi << "]";
    }
  }
}

TEST(HaarTest, UnbiasedOnRangeQueries) {
  const double eps = 2.0;
  const uint64_t n = 4000;
  const Schema schema = OneDimSchema(16);
  std::vector<uint32_t> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  const Interval box{3, 11};
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = static_cast<uint32_t>((u * 7) % 16);
    weights[u] = 1.0 + static_cast<double>(u % 3);
    if (box.Contains(values[u])) truth += weights[u];
  }
  const WeightVector w(weights);
  const std::vector<Interval> ranges = {box};
  const int runs = 40;
  Rng rng(2);
  double sum_est = 0.0;
  double mse = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto mech = HaarMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      const std::vector<uint32_t> vals = {values[u]};
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(vals, rng), u).ok());
    }
    const double est = mech->EstimateBox(ranges, w).ValueOrDie();
    sum_est += est;
    mse += (est - truth) * (est - truth);
  }
  mse /= runs;
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(mse / runs) + 1e-9);
  // And the VarianceBound dominates the empirical MSE.
  auto mech = HaarMechanism::Create(schema, Params(eps)).ValueOrDie();
  EXPECT_LT(mse, mech->VarianceBound(ranges, w).ValueOrDie() * 1.5);
}

// Section 7's open question made concrete: with uniform user-partitioning,
// the wavelet estimate is in the same ballpark as binary HIO but does not
// beat it (the per-level coefficient weights are not optimized).
TEST(HaarTest, ComparableToBinaryHio) {
  const double eps = 1.0;
  const uint64_t n = 5000;
  const uint64_t m = 256;
  const Schema schema = OneDimSchema(m);
  std::vector<uint32_t> values(n);
  double truth = 0.0;
  const Interval box{31, 200};
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = static_cast<uint32_t>((u * 11) % m);
    if (box.Contains(values[u])) truth += 1.0;
  }
  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {box};
  MechanismParams hio_params = Params(eps);
  hio_params.fanout = 2;
  const int runs = 20;
  Rng rng(3);
  double haar_mse = 0.0;
  double hio_mse = 0.0;
  for (int run = 0; run < runs; ++run) {
    auto haar = HaarMechanism::Create(schema, Params(eps)).ValueOrDie();
    auto hio = HioMechanism::Create(schema, hio_params).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      const std::vector<uint32_t> vals = {values[u]};
      ASSERT_TRUE(haar->AddReport(haar->EncodeUser(vals, rng), u).ok());
      ASSERT_TRUE(hio->AddReport(hio->EncodeUser(vals, rng), u).ok());
    }
    const double e1 = haar->EstimateBox(ranges, w).ValueOrDie() - truth;
    const double e2 = hio->EstimateBox(ranges, w).ValueOrDie() - truth;
    haar_mse += e1 * e1;
    hio_mse += e2 * e2;
  }
  // Same order of magnitude (within 10x either way).
  EXPECT_LT(haar_mse, hio_mse * 10.0);
  EXPECT_LT(hio_mse, haar_mse * 10.0);
}

}  // namespace
}  // namespace ldp
