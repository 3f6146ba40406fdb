// WeightStore: least-recently-used eviction at the 32-vector cap, stable
// per-key weight ids (a rebuild after eviction keeps the id and the bits, so
// the estimate cache keyed by it keeps hitting), lossless keys, and
// concurrent use through the engine.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "plan/weights.h"
#include "query/parser.h"

namespace ldp {
namespace {

constexpr uint64_t kRegions = 40;
constexpr size_t kCap = 32;  // WeightStore's kMaxCachedWeightVectors

// Bitwise equality: stricter than ==, which would let +0.0 / -0.0 slip.
void ExpectBitEqual(double a, double b, const std::string& what) {
  uint64_t ba = 0;
  uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

/// One sensitive dimension, one public `region` (enough values for more
/// distinct weight keys than the cap) and the measure `hours`.
const Table& TestTable() {
  static const Table table = [] {
    TableSpec spec;
    spec.dims.push_back({"age", AttributeKind::kSensitiveOrdinal, 16,
                         ColumnDist::kGaussianBell, 1.1});
    spec.dims.push_back({"region", AttributeKind::kPublicDimension, kRegions,
                         ColumnDist::kUniform, 1.0});
    spec.measures.push_back(
        {"hours", 1.0, 99.0, ColumnDist::kGaussianBell, 1.1, 0, 0.3});
    return GenerateTable(spec, 3000, 7).ValueOrDie();
  }();
  return table;
}

int Attr(const char* name) {
  return TestTable().schema().FindAttribute(name).ValueOrDie();
}

std::vector<Constraint> RegionIs(uint64_t r) {
  return {Constraint{Attr("region"), Interval{r, r}}};
}

/// The COUNT vector filtered to region `r`: one distinct key per region.
std::shared_ptr<const WeightVector> CountIn(WeightStore& store, uint64_t r) {
  return store.Get(ComponentKind::kCount, MeasureExpr{}, RegionIs(r))
      .ValueOrDie();
}

uint64_t Value(const char* counter) {
  return GlobalMetrics().counter(counter)->value();
}

std::unique_ptr<AnalyticsEngine> MakeEngine() {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  // A finite pool makes OLH fold reports into per-weight-set histograms,
  // the `fo_cache` entries keyed by the weight id.
  options.params.hash_pool_size = 64;
  options.seed = 11;
  return AnalyticsEngine::Create(TestTable(), options).ValueOrDie();
}

double Answer(const AnalyticsEngine& engine, const std::string& sql) {
  return engine.ExecuteSql(sql).ValueOrDie();
}

// --- Eviction policy --------------------------------------------------------

TEST(WeightStoreTest, CycleOverMoreKeysThanTheCapBuildsOncePerMiss) {
  GlobalMetrics().set_enabled(true);
  WeightStore store(TestTable());
  const uint64_t hits = Value("weights.hits");
  const uint64_t evictions = Value("weights.evictions");
  // Under LRU a cycle one key longer than the cap always finds its next key
  // just evicted: every Get misses, builds one new vector, evicts one.
  constexpr int kPasses = 3;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (uint64_t r = 0; r <= kCap; ++r) {
      const uint64_t builds = Value("weights.builds");
      CountIn(store, r);
      EXPECT_EQ(Value("weights.builds") - builds, 1u)
          << "pass " << pass << " region " << r;
    }
  }
  EXPECT_EQ(Value("weights.hits") - hits, 0u);
  EXPECT_EQ(Value("weights.evictions") - evictions,
            kPasses * (kCap + 1) - kCap);

  // Exactly one vector went per miss: the last kCap keys are all resident.
  const uint64_t builds = Value("weights.builds");
  for (uint64_t r = 1; r <= kCap; ++r) CountIn(store, r);
  EXPECT_EQ(Value("weights.builds") - builds, 0u);
  EXPECT_EQ(Value("weights.hits") - hits, kCap);
}

TEST(WeightStoreTest, EvictsTheLeastRecentlyUsedKeyNotTheOldest) {
  WeightStore store(TestTable());
  std::vector<std::shared_ptr<const WeightVector>> held;
  for (uint64_t r = 0; r < kCap; ++r) held.push_back(CountIn(store, r));

  // Region 0 was built first, but a hit makes it the most recent key; the
  // miss at the cap must then evict region 1.
  EXPECT_EQ(CountIn(store, 0), held[0]);
  const auto extra = CountIn(store, kCap);
  EXPECT_EQ(CountIn(store, 0), held[0]);
  for (uint64_t r = 2; r < kCap; ++r) {
    EXPECT_EQ(CountIn(store, r), held[r]) << "region " << r;
  }
  EXPECT_EQ(CountIn(store, kCap), extra);
  // Region 1 is rebuilt: a new object under its old id.
  const auto rebuilt = CountIn(store, 1);
  EXPECT_NE(rebuilt, held[1]);
  EXPECT_EQ(rebuilt->id(), held[1]->id());
}

TEST(WeightStoreTest, RebuildAfterEvictionKeepsTheIdAndTheBits) {
  GlobalMetrics().set_enabled(true);
  WeightStore store(TestTable());
  // A non-unit coefficient and a constant, squared, behind a public filter:
  // every step of the build shows in the bits.
  const MeasureExpr expr{{{Attr("hours"), 0.7}}, 1.5};
  const auto filter = RegionIs(3);
  auto original = store.Get(ComponentKind::kSumSq, expr, filter).ValueOrDie();
  const uint64_t id = original->id();
  const std::vector<double> values = original->values();
  const double total = original->total();
  const double sum_squares = original->sum_squares();
  original.reset();

  for (uint64_t r = 0; r < kCap; ++r) CountIn(store, r);  // evicts it
  const uint64_t builds = Value("weights.builds");
  const auto rebuilt =
      store.Get(ComponentKind::kSumSq, expr, filter).ValueOrDie();
  EXPECT_EQ(Value("weights.builds") - builds, 1u);
  EXPECT_EQ(rebuilt->id(), id);
  ASSERT_EQ(rebuilt->size(), values.size());
  EXPECT_EQ(std::memcmp(rebuilt->values().data(), values.data(),
                        values.size() * sizeof(double)),
            0);
  ExpectBitEqual(rebuilt->total(), total, "total");
  ExpectBitEqual(rebuilt->sum_squares(), sum_squares, "sum_squares");

  // Another store builds the same bits under an id of its own.
  WeightStore other(TestTable());
  const auto fresh =
      other.Get(ComponentKind::kSumSq, expr, filter).ValueOrDie();
  EXPECT_NE(fresh->id(), id);
  EXPECT_EQ(std::memcmp(fresh->values().data(), values.data(),
                        values.size() * sizeof(double)),
            0);
}

// --- Engine level -----------------------------------------------------------

// The vector of a query evicted by 32 queries with other public filters is
// rebuilt under its old id, so every node estimate of the rerun is an
// estimate-cache hit and no oracle histogram is rebuilt.
TEST(WeightStoreEngineTest, EvictedVectorKeepsItsCachedEstimates) {
  GlobalMetrics().set_enabled(true);
  const auto engine = MakeEngine();
  const std::string sql =
      "SELECT SUM(hours) FROM T WHERE age BETWEEN 2 AND 9 AND region = 0";
  const double first = Answer(*engine, sql);
  for (uint64_t r = 1; r <= kCap; ++r) {
    Answer(*engine, "SELECT COUNT(*) FROM T WHERE age BETWEEN 2 AND 9 AND "
                    "region = " + std::to_string(r));
  }

  const uint64_t nodes = Value("estimate.nodes");
  const uint64_t fo_builds = Value("fo_cache.builds");
  const uint64_t builds = Value("weights.builds");
  QueryProfile profile;
  const double again = engine->ExecuteSql(sql, &profile).ValueOrDie();
  EXPECT_EQ(Value("weights.builds") - builds, 1u);  // it was evicted
  const uint64_t touched = Value("estimate.nodes") - nodes;
  EXPECT_GT(touched, 0u);
  EXPECT_EQ(profile.cache_hits, touched);
  EXPECT_EQ(profile.nodes_estimated, 0u);
  EXPECT_EQ(Value("fo_cache.builds") - fo_builds, 0u);
  ExpectBitEqual(again, first, sql);
}

TEST(WeightStoreEngineTest, ConcurrentExecuteOverMoreKeysThanTheCapIsSerial) {
  // 40 weight keys: COUNT and SUM, each filtered to one of 20 regions.
  std::vector<Query> queries;
  for (uint64_t r = 0; r < 20; ++r) {
    for (const char* agg : {"COUNT(*)", "SUM(hours)"}) {
      queries.push_back(
          ParseQuery(TestTable().schema(),
                     std::string("SELECT ") + agg +
                         " FROM T WHERE age BETWEEN 3 AND 12 AND region = " +
                         std::to_string(r))
              .ValueOrDie());
    }
  }
  std::vector<double> serial;
  {
    const auto engine = MakeEngine();
    for (const Query& q : queries) {
      serial.push_back(engine->Execute(q).ValueOrDie());
    }
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  const auto engine = MakeEngine();
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so keys are built, hit and
      // evicted concurrently.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + 10 * t) % queries.size();
          const auto answer = engine->Execute(queries[q]);
          got[t].push_back(answer.ok() ? answer.value() : NAN);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * queries.size());
    for (size_t k = 0; k < got[t].size(); ++k) {
      const size_t q = (k % queries.size() + 10 * t) % queries.size();
      ExpectBitEqual(got[t][k], serial[q],
                     "thread " + std::to_string(t) + " query " +
                         std::to_string(q));
    }
  }
}

// --- Lossless keys ----------------------------------------------------------

TEST(WeightKeyTest, KeyIsLosslessAndKeepsTheDefaultSpelling) {
  const Schema& schema = TestTable().schema();
  const int hours = Attr("hours");
  const MeasureExpr unit{{{hours, 1.0}}, 0.0};
  EXPECT_EQ(WeightStore::Key(ComponentKind::kCount, unit, schema, {}), "0||");
  EXPECT_EQ(WeightStore::Key(ComponentKind::kSum, unit, schema, {}),
            "1|hours|");
  EXPECT_EQ(WeightStore::Key(ComponentKind::kSumSq, unit, schema, RegionIs(4)),
            "2|hours|" + std::to_string(Attr("region")) + ":4-4;");

  auto key = [&](double coef, double constant) {
    return WeightStore::Key(ComponentKind::kSum,
                            MeasureExpr{{{hours, coef}}, constant}, schema, {});
  };
  // Equal in the first six significant digits, distinct keys.
  EXPECT_NE(key(1234567.1, 0.0), key(1234567.4, 0.0));
  EXPECT_NE(key(1.0, 0.1), key(1.0, std::nextafter(0.1, 1.0)));
  EXPECT_EQ(key(1234567.1, 0.0), key(1234567.1, 0.0));
}

// SUM(1234567.1*hours) and SUM(1234567.4*hours) once shared a weight key
// (coefficients printed to 6 digits), so on one engine the second query
// returned the first's answer — through Execute's weight store and through
// ExecuteBatch's estimate dedup. Each must get its fresh-engine bits.
TEST(WeightKeyTest, CoefficientsBeyondSixDigitsGetTheirOwnAnswers) {
  const std::vector<std::string> sqls = {
      "SELECT SUM(1234567.1*hours) FROM T WHERE age BETWEEN 2 AND 9",
      "SELECT SUM(1234567.4*hours) FROM T WHERE age BETWEEN 2 AND 9"};
  std::vector<double> fresh;
  for (const std::string& sql : sqls) {
    fresh.push_back(Answer(*MakeEngine(), sql));
  }
  ASSERT_NE(fresh[0], fresh[1]);

  const auto shared = MakeEngine();
  for (size_t i = 0; i < sqls.size(); ++i) {
    ExpectBitEqual(Answer(*shared, sqls[i]), fresh[i], "Execute " + sqls[i]);
  }

  std::vector<Query> queries;
  for (const std::string& sql : sqls) {
    queries.push_back(ParseQuery(TestTable().schema(), sql).ValueOrDie());
  }
  std::vector<double> out(queries.size());
  ASSERT_TRUE(MakeEngine()->ExecuteBatch(queries, out).ok());
  for (size_t i = 0; i < sqls.size(); ++i) {
    ExpectBitEqual(out[i], fresh[i], "ExecuteBatch " + sqls[i]);
  }
}

}  // namespace
}  // namespace ldp
