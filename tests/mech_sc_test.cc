#include "mech/sc.h"

#include <bit>
#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/privacy_math.h"
#include "exec/execution_context.h"
#include "obs/metrics.h"

namespace ldp {
namespace {

Schema FourDimSchema(uint64_t m) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d1", m).ok());
  EXPECT_TRUE(schema.AddOrdinal("d2", m).ok());
  EXPECT_TRUE(schema.AddCategorical("c1", 4).ok());
  EXPECT_TRUE(schema.AddCategorical("c2", 3).ok());
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

TEST(ScMechanismTest, RequiresOlh) {
  MechanismParams p = Params(1.0);
  p.fo_kind = FoKind::kGrr;
  EXPECT_FALSE(ScMechanism::Create(FourDimSchema(16), p).ok());
}

TEST(ScMechanismTest, BudgetSplitsOverDimLevels) {
  // m=16, b=2 -> h=4 per ordinal dim; categorical h=1. Total = 4+4+1+1 = 10.
  auto mech = ScMechanism::Create(FourDimSchema(16), Params(1.0)).ValueOrDie();
  EXPECT_EQ(mech->num_groups(), 10);
  EXPECT_NEAR(mech->per_report_epsilon(), 0.1, 1e-12);
}

TEST(ScMechanismTest, EncodeReportsEveryDimLevel) {
  auto mech = ScMechanism::Create(FourDimSchema(16), Params(1.0)).ValueOrDie();
  Rng rng(1);
  const std::vector<uint32_t> values = {3, 9, 2, 1};
  const LdpReport report = mech->EncodeUser(values, rng);
  EXPECT_EQ(report.entries.size(), 10u);
  EXPECT_EQ(report.SizeWords(), 10u);
}

TEST(ScMechanismTest, FullDomainBoxIsExactTotalWeight) {
  // With every range at the root ('*'), the conjunctive product is empty and
  // the estimate degenerates to the exact public total — zero noise.
  const Schema schema = FourDimSchema(16);
  auto mech = ScMechanism::Create(schema, Params(1.0)).ValueOrDie();
  Rng rng(2);
  std::vector<double> weights;
  for (uint64_t u = 0; u < 300; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(u % 16), static_cast<uint32_t>((u / 2) % 16),
        static_cast<uint32_t>(u % 4), static_cast<uint32_t>(u % 3)};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), u).ok());
    weights.push_back(static_cast<double>(u % 5));
  }
  const WeightVector w(weights);
  const std::vector<Interval> full = {{0, 15}, {0, 15}, {0, 3}, {0, 2}};
  EXPECT_NEAR(mech->EstimateBox(full, w).ValueOrDie(), w.total(), 1e-6);
}

// Unbiasedness of the conjunctive estimator on a 2-of-4-dims query
// (Theorem 11 / Proposition 10).
TEST(ScMechanismTest, LowDimQueryUnbiased) {
  const double eps = 4.0;
  const uint64_t n = 4000;
  const Schema schema = FourDimSchema(8);
  std::vector<std::vector<uint32_t>> values(n);
  std::vector<double> weights(n);
  double truth = 0.0;
  Rng data_rng(3);
  for (uint64_t u = 0; u < n; ++u) {
    values[u] = {static_cast<uint32_t>(data_rng.UniformInt(8)),
                 static_cast<uint32_t>(data_rng.UniformInt(8)),
                 static_cast<uint32_t>(data_rng.UniformInt(4)),
                 static_cast<uint32_t>(data_rng.UniformInt(3))};
    weights[u] = 1.0 + static_cast<double>(u % 2);
    // Query: d1 in [2,5] AND c1 = 1 (dims d2, c2 unconstrained).
    if (values[u][0] >= 2 && values[u][0] <= 5 && values[u][2] == 1) {
      truth += weights[u];
    }
  }
  const WeightVector w(weights);
  const std::vector<Interval> ranges = {{2, 5}, {0, 7}, {1, 1}, {0, 2}};

  const int runs = 40;
  Rng rng(4);
  double sum_est = 0.0;
  std::vector<double> errors;
  for (int run = 0; run < runs; ++run) {
    auto mech = ScMechanism::Create(schema, Params(eps)).ValueOrDie();
    for (uint64_t u = 0; u < n; ++u) {
      ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values[u], rng), u).ok());
    }
    const double est = mech->EstimateBox(ranges, w).ValueOrDie();
    sum_est += est;
    errors.push_back(est - truth);
  }
  double mse = 0.0;
  for (const double e : errors) mse += e * e;
  mse /= runs;
  EXPECT_NEAR(sum_est / runs, truth, 4.0 * std::sqrt(mse / runs) + 1e-9);
}

// The conjunctive-estimator factors satisfy E[c(A) | B] = B: over encoding
// randomness, a user holding the value averages to 1, any other user to 0.
TEST(ScMechanismTest, ConjunctiveFactorsCalibrated) {
  const Schema schema = FourDimSchema(8);
  const double eps = 2.0;
  const uint64_t n = 8000;
  // All users hold d1 = 3; half hold c1 = 1, half c1 = 0.
  auto mech = ScMechanism::Create(schema, Params(eps)).ValueOrDie();
  Rng rng(5);
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {3, 0, static_cast<uint32_t>(u % 2),
                                          0};
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), u).ok());
  }
  const WeightVector w = WeightVector::Ones(n);
  // Query c1 = 1 only: truth = n/2.
  const std::vector<Interval> ranges = {{0, 7}, {0, 7}, {1, 1}, {0, 2}};
  const double est = mech->EstimateBox(ranges, w).ValueOrDie();
  // Single mechanism instance: allow a few standard deviations of the
  // Theorem 11-scale noise.
  EXPECT_NEAR(est, n / 2.0, n * 0.35);
}

// --- The bitset estimator against independent references ------------------

/// A populated SC mechanism that also keeps its reports, so tests can
/// recompute support bits straight from (seed, y) pairs. Users hold uniform
/// values.
struct ScFixture {
  std::unique_ptr<ScMechanism> mech;
  std::vector<LdpReport> reports;
  std::vector<std::unique_ptr<DimHierarchy>> dims;
  std::vector<int> group_offset;  // per dim: group id of its level 1
  uint32_t g = 0;
  long double c1 = 0.0L;
  long double c0 = 0.0L;

  // By default eps' = 0.8, so g = 3 and c0 != -c1.
  ScFixture(uint64_t n, uint64_t seed, const Schema& schema = FourDimSchema(16),
            const MechanismParams& params = Params(8.0)) {
    mech = ScMechanism::Create(schema, params).ValueOrDie();
    dims = BuildHierarchies(schema, params.fanout);
    int offset = 0;
    for (const auto& dim : dims) {
      group_offset.push_back(offset);
      offset += dim->height();
    }
    g = OptimalOlhG(mech->per_report_epsilon());
    const long double p = OlhP(mech->per_report_epsilon(), g);
    const long double q = OlhQ(g);
    c1 = (1.0L - q) / (p - q);
    c0 = -q / (p - q);
    Rng rng(seed);
    std::vector<uint32_t> values(dims.size());
    for (uint64_t u = 0; u < n; ++u) {
      for (size_t i = 0; i < dims.size(); ++i) {
        values[i] =
            static_cast<uint32_t>(rng.UniformInt(dims[i]->domain_size()));
      }
      reports.push_back(mech->EncodeUser(values, rng));
      EXPECT_TRUE(mech->AddReport(reports.back(), u).ok());
    }
  }

  /// Whether user t's report for `piece` of dimension `dim` supports it.
  bool Supports(uint64_t t, int dim, const LevelInterval& piece) const {
    const FoReport& fo =
        reports[t].entries[group_offset[dim] + piece.level - 1].fo;
    return SeededHashFamily::Eval(fo.seed, piece.index, g) == fo.value;
  }

  std::vector<std::vector<LevelInterval>> Pieces(
      const std::vector<Interval>& box) const {
    std::vector<std::vector<LevelInterval>> pieces(dims.size());
    for (size_t i = 0; i < dims.size(); ++i) {
      EXPECT_TRUE(dims[i]->Decompose(box[i], &pieces[i]).ok());
    }
    return pieces;
  }

  /// Eq. 42 by brute force in long double: every sub-query of the box, every
  /// user, the product of its factors c(s) in {c0, c1}.
  long double BruteForce(const std::vector<Interval>& box,
                         const WeightVector& w) const {
    const auto pieces = Pieces(box);
    long double total = 0.0L;
    std::vector<size_t> pick(dims.size(), 0);
    std::function<void(size_t)> recurse = [&](size_t i) {
      if (i == dims.size()) {
        for (uint64_t t = 0; t < reports.size(); ++t) {
          long double prod = w[t];
          for (size_t j = 0; j < dims.size(); ++j) {
            const LevelInterval& piece = pieces[j][pick[j]];
            if (piece.level == 0) continue;  // '*' contributes factor 1
            prod *= Supports(t, static_cast<int>(j), piece) ? c1 : c0;
          }
          total += prod;
        }
        return;
      }
      for (pick[i] = 0; pick[i] < pieces[i].size(); ++pick[i]) recurse(i + 1);
    };
    recurse(0);
    return total;
  }

  /// The same box total factorized per user: the sum over sub-queries of
  /// prod_i c(s_i(t)) is prod_i of the sum over dim i's pieces of c(s(t)).
  long double FactorizedTotal(const std::vector<Interval>& box,
                              const WeightVector& w) const {
    const auto pieces = Pieces(box);
    long double total = 0.0L;
    for (uint64_t t = 0; t < reports.size(); ++t) {
      long double prod = w[t];
      for (size_t i = 0; i < dims.size(); ++i) {
        if (pieces[i][0].level == 0) continue;  // '*' contributes factor 1
        long double factor = 0.0L;
        for (const LevelInterval& piece : pieces[i]) {
          factor += Supports(t, static_cast<int>(i), piece) ? c1 : c0;
        }
        prod *= factor;
      }
      total += prod;
    }
    return total;
  }
};

WeightVector MixedWeights(uint64_t n) {
  std::vector<double> w(n);
  for (uint64_t u = 0; u < n; ++u) {
    w[u] = 0.1 + 0.37 * static_cast<double>(u % 7) - (u % 5 == 0 ? 1.3 : 0.0);
  }
  return WeightVector(std::move(w));
}

// A box with one non-root piece is OLH's estimator on that piece's group:
// scale * (theta - W / g). Integer weights make theta and W exact in any
// summation order, so the two must agree bit for bit.
TEST(ScMechanismTest, OnePieceBoxIsTheOlhEstimator) {
  const ScFixture f(2000, 31);
  std::vector<double> weights(2000);
  for (uint64_t u = 0; u < weights.size(); ++u) {
    weights[u] = static_cast<double>(u % 5);
  }
  const WeightVector w(weights);
  const double scale = OlhScale(f.mech->per_report_epsilon(), f.g);
  // c1 = 2 (level 1 of a two-level categorical hierarchy), and d1 in [4, 7]
  // (one aligned level-2 node of the binary hierarchy over 16 values).
  const std::vector<std::pair<std::vector<Interval>, std::pair<int, int>>>
      cases = {{{{0, 15}, {0, 15}, {2, 2}, {0, 2}}, {2, 0}},
               {{{4, 7}, {0, 15}, {0, 3}, {0, 2}}, {0, 0}}};
  for (const auto& [box, dim_and_piece] : cases) {
    const int dim = dim_and_piece.first;
    std::vector<LevelInterval> pieces;
    ASSERT_TRUE(f.dims[dim]->Decompose(box[dim], &pieces).ok());
    ASSERT_EQ(pieces.size(), 1u);
    ASSERT_NE(pieces[0].level, 0);
    double theta = 0.0;
    double total = 0.0;
    for (uint64_t t = 0; t < f.reports.size(); ++t) {
      total += w[t];
      if (f.Supports(t, dim, pieces[0])) theta += w[t];
    }
    EXPECT_EQ(f.mech->EstimateBox(box, w).ValueOrDie(),
              scale * (theta - total / f.g))
        << "dim " << dim;
  }
}

void ExpectNearRelative(double got, long double want, const std::string& what) {
  EXPECT_NEAR(got, static_cast<double>(want),
              1e-9 * std::abs(static_cast<double>(want)))
      << what;
}

std::string BoxName(const std::vector<Interval>& box) {
  std::string name;
  for (const Interval& r : box) {
    name += std::to_string(r.lo) + "-" + std::to_string(r.hi) + " ";
  }
  return name;
}

// Boxes constraining two to four dimensions, several pieces each, match
// eq. 42 evaluated by brute force — independently of the subset expansion
// (k <= 2) and the popcount classes (k >= 3) the mechanism uses.
TEST(ScMechanismTest, MultiDimBoxesMatchBruteForce) {
  const ScFixture f(2000, 32);
  const WeightVector w = MixedWeights(2000);
  const std::vector<std::vector<Interval>> boxes = {
      {{3, 12}, {0, 15}, {0, 3}, {1, 1}},  // k = 2
      {{0, 15}, {5, 10}, {2, 2}, {0, 2}},  // k = 2
      {{1, 9}, {6, 13}, {3, 3}, {0, 2}},   // k = 3
      {{2, 5}, {0, 15}, {1, 1}, {2, 2}},   // k = 3
      {{3, 13}, {2, 9}, {0, 0}, {1, 1}},   // k = 4
  };
  for (const auto& box : boxes) {
    ExpectNearRelative(f.mech->EstimateBox(box, w).ValueOrDie(),
                       f.BruteForce(box, w), BoxName(box));
  }
}

// A box may constrain any number of dimensions: its cost grows linearly in
// k (k + 1 popcount classes per sub-query), so 70 constrained dimensions are
// answered, and match eq. 42.
TEST(ScMechanismTest, ManyDimensionBoxesMatchBruteForce) {
  const int d = 70;
  Schema schema;
  for (int i = 0; i < d; ++i) {
    ASSERT_TRUE(schema.AddCategorical("c" + std::to_string(i), 2).ok());
  }
  // eps' = 30 / 70, so g = 3 and c0 != -c1.
  const ScFixture f(500, 33, schema, Params(30.0));
  ASSERT_EQ(f.g, 3u);
  const WeightVector w = MixedWeights(500);
  std::vector<Interval> box(d, Interval{0, 1});
  for (int i = 0; i < 3; ++i) box[i] = {1, 1};  // k = 3
  ExpectNearRelative(f.mech->EstimateBox(box, w).ValueOrDie(),
                     f.BruteForce(box, w), "k = 3");
  for (int i = 0; i < d; ++i) box[i] = {i % 2u, i % 2u};  // k = 70
  ExpectNearRelative(f.mech->EstimateBox(box, w).ValueOrDie(),
                     f.BruteForce(box, w), "k = 70");
}

// Boxes whose masked sums do not fit one batch of kExecChunkRows (16384)
// sums — 189^2 subsets at k = 2, 188 * 81 * 5 sub-queries of 4 popcount
// classes each at k = 3 — match the per-user factorization of the box total.
TEST(ScMechanismTest, BatchedSumsMatchFactorizedTotal) {
  Schema schema;
  for (const char* name : {"x", "y", "z"}) {
    ASSERT_TRUE(schema.AddOrdinal(name, 4096).ok());
  }
  const ScFixture f(300, 34, schema, Params(8.0, /*b=*/64));
  const WeightVector w = MixedWeights(300);
  GlobalMetrics().set_enabled(true);
  Counter* batches = GlobalMetrics().counter("estimate.batches");
  const std::vector<std::vector<Interval>> boxes = {
      {{1, 4094}, {1, 4094}, {0, 4095}},  // 188 x 188 pieces
      {{1, 4094}, {1, 900}, {5, 9}},      // 188 x 81 x 5 pieces
  };
  for (const auto& box : boxes) {
    const uint64_t before = batches->value();
    ExpectNearRelative(f.mech->EstimateBox(box, w).ValueOrDie(),
                       f.FactorizedTotal(box, w), BoxName(box));
    // n fits one report chunk: one task for the bitsets, one per batch.
    EXPECT_GT(batches->value() - before, 2u) << BoxName(box);
  }
}

/// An empty SC mechanism configured as ScFixture's default.
std::unique_ptr<ScMechanism> NewSc() {
  return ScMechanism::Create(FourDimSchema(16), Params(8.0)).ValueOrDie();
}

/// Boxes on both masked-sum paths: k = 1 and 2 (subset expansion), 3 and 4
/// (popcount classes).
std::vector<std::vector<Interval>> BothPathBoxes() {
  return {
      {{3, 12}, {0, 15}, {0, 3}, {0, 2}},  // k = 1
      {{3, 12}, {0, 15}, {0, 3}, {1, 1}},  // k = 2
      {{1, 9}, {6, 13}, {3, 3}, {0, 2}},   // k = 3
      {{3, 13}, {2, 9}, {0, 0}, {1, 1}},   // k = 4
  };
}

// Unit weights are counted without reading a weight; all-2.0 weights go
// through the masked-sum kernel. Doubling every weight doubles every partial
// sum exactly, so the two estimates differ by exactly a factor of 2.
TEST(ScMechanismTest, DoubledWeightsDoubleTheCountBitForBit) {
  const uint64_t n = 20000;  // two report chunks
  const ScFixture f(n, 36);
  const WeightVector ones = WeightVector::Ones(n);
  const WeightVector twos(std::vector<double>(n, 2.0));
  ASSERT_TRUE(ones.unit());
  ASSERT_FALSE(twos.unit());
  for (const int threads : {1, 4}) {
    const ExecutionContext exec(threads);
    f.mech->set_execution_context(&exec);
    for (const auto& box : BothPathBoxes()) {
      const double count = f.mech->EstimateBox(box, ones).ValueOrDie();
      const double doubled = f.mech->EstimateBox(box, twos).ValueOrDie();
      EXPECT_EQ(std::bit_cast<uint64_t>(doubled),
                std::bit_cast<uint64_t>(2.0 * count))
          << BoxName(box) << " threads " << threads;
    }
    f.mech->set_execution_context(nullptr);
  }
}

// Ids 3t gather each report's weight through the ids; dense ids (also when
// merged from shards in id order) read the weights in place. With report t's
// weight at 3t, both see the same weights, so the estimates are equal bit
// for bit.
TEST(ScMechanismTest, StridedIdsEqualDenseIdsOnReindexedWeights) {
  const uint64_t n = 20000;
  const ScFixture f(n, 37);
  auto strided = NewSc();
  auto merged = NewSc();
  for (const uint64_t half : {uint64_t{0}, n / 2}) {
    auto shard = NewSc();
    for (uint64_t t = half; t < half + n / 2; ++t) {
      ASSERT_TRUE(shard->AddReport(f.reports[t], t).ok());
    }
    ASSERT_TRUE(merged->Merge(std::move(*shard)).ok());
  }
  for (uint64_t t = 0; t < n; ++t) {
    ASSERT_TRUE(strided->AddReport(f.reports[t], 3 * t).ok());
  }
  const WeightVector dense = MixedWeights(n);
  std::vector<double> spread(3 * n - 2, 1e6);
  for (uint64_t t = 0; t < n; ++t) spread[3 * t] = dense[t];
  const WeightVector reindexed(std::move(spread));
  for (const int threads : {1, 4}) {
    const ExecutionContext exec(threads);
    f.mech->set_execution_context(&exec);
    strided->set_execution_context(&exec);
    merged->set_execution_context(&exec);
    for (const auto& box : BothPathBoxes()) {
      const double want = f.mech->EstimateBox(box, dense).ValueOrDie();
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    strided->EstimateBox(box, reindexed).ValueOrDie()),
                std::bit_cast<uint64_t>(want))
          << BoxName(box) << " threads " << threads;
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    merged->EstimateBox(box, dense).ValueOrDie()),
                std::bit_cast<uint64_t>(want))
          << BoxName(box) << " threads " << threads;
    }
    f.mech->set_execution_context(nullptr);
    strided->set_execution_context(nullptr);
    merged->set_execution_context(nullptr);
  }
}

// Ids that are not the reports' positions, whether added so or merged from
// shards out of id order, read each report's weight through its id: the
// estimate is the dense mechanism's up to the order of its sums.
TEST(ScMechanismTest, ReorderedIdsReadWeightsThroughTheIds) {
  const uint64_t n = 20000;
  const ScFixture f(n, 38);
  auto added = NewSc();
  auto merged = NewSc();
  // The second half of the users first, then the first half.
  for (const uint64_t half : {n / 2, uint64_t{0}}) {
    auto shard = NewSc();
    for (uint64_t t = half; t < half + n / 2; ++t) {
      ASSERT_TRUE(added->AddReport(f.reports[t], t).ok());
      ASSERT_TRUE(shard->AddReport(f.reports[t], t).ok());
    }
    ASSERT_TRUE(merged->Merge(std::move(*shard)).ok());
  }
  const WeightVector w = MixedWeights(n);
  for (const auto& box : BothPathBoxes()) {
    const double want = f.mech->EstimateBox(box, w).ValueOrDie();
    EXPECT_NEAR(added->EstimateBox(box, w).ValueOrDie(), want,
                1e-9 * std::abs(want))
        << BoxName(box);
    EXPECT_NEAR(merged->EstimateBox(box, w).ValueOrDie(), want,
                1e-9 * std::abs(want))
        << BoxName(box);
  }
}

}  // namespace
}  // namespace ldp
