// Batched estimation kernels and the cross-query node-estimate cache:
//  * FoAccumulator::EstimateManyWeighted must be bit-identical to its
//    one-value calls (EstimateWeighted) for every oracle and for any tiling
//    of the value set,
//  * the EstimateCache must hit/miss/invalidate/evict as specified,
//  * every mechanism's EstimateBox must answer bit-identically across thread
//    counts and cache states, and repeated queries must be served from the
//    cache without changing a single bit.

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "exec/execution_context.h"
#include "fo/grr.h"
#include "fo/hadamard.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "mech/estimate_cache.h"
#include "mech/factory.h"
#include "mech/multi.h"

namespace ldp {
namespace {

// Bitwise equality: stricter than ==, which would let +0.0 / -0.0 or
// silently-different NaNs slip through.
void ExpectBitEqual(double a, double b, const std::string& what) {
  uint64_t ba = 0;
  uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

WeightVector MixedWeights(uint64_t n) {
  std::vector<double> w(n);
  for (uint64_t i = 0; i < n; ++i) {
    w[i] = 0.25 * static_cast<double>(i % 7) - 0.5;  // mixed signs and zeros
  }
  return WeightVector(std::move(w));
}

/// Batch-of-all, batch-per-tile (several tile sizes), and the scalar loop
/// must agree bit for bit on every oracle.
template <typename Protocol, typename Accumulator>
void CheckBatchMatchesScalar(const Protocol& proto, uint64_t n,
                             uint64_t domain) {
  Accumulator acc(proto);
  Rng rng(17);
  for (uint64_t u = 0; u < n; ++u) {
    acc.Add(proto.Encode((u * 13) % domain, rng), u);
  }
  const WeightVector w = MixedWeights(n);
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < domain; ++v) values.push_back(v);
  values.push_back(3);  // duplicates are legal

  std::vector<double> scalar(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    scalar[i] = acc.EstimateWeighted(values[i], w);
  }
  std::vector<double> batched(values.size());
  acc.EstimateManyWeighted(values, w, batched);
  for (size_t i = 0; i < values.size(); ++i) {
    ExpectBitEqual(batched[i], scalar[i],
                   "full batch, value " + std::to_string(values[i]));
  }
  for (const size_t tile : {size_t{1}, size_t{3}, size_t{7}}) {
    std::vector<double> tiled(values.size());
    for (size_t v0 = 0; v0 < values.size(); v0 += tile) {
      const size_t len = std::min(tile, values.size() - v0);
      acc.EstimateManyWeighted(
          std::span<const uint64_t>(values.data() + v0, len), w,
          std::span<double>(tiled.data() + v0, len));
    }
    for (size_t i = 0; i < values.size(); ++i) {
      ExpectBitEqual(tiled[i], scalar[i],
                     "tile " + std::to_string(tile) + ", value " +
                         std::to_string(values[i]));
    }
  }
}

TEST(EstimateBatchTest, OlhUnpooledMatchesScalar) {
  const OlhProtocol proto(1.0, 24, 0);
  CheckBatchMatchesScalar<OlhProtocol, OlhAccumulator>(proto, 500, 24);
}

TEST(EstimateBatchTest, OlhPooledMatchesScalar) {
  // Pool small enough (n >= 2 * pool) that the histogram path is active.
  const OlhProtocol proto(1.0, 24, 32);
  CheckBatchMatchesScalar<OlhProtocol, OlhAccumulator>(proto, 500, 24);
}

TEST(EstimateBatchTest, GrrMatchesScalar) {
  const GrrProtocol proto(1.0, 24);
  CheckBatchMatchesScalar<GrrProtocol, GrrAccumulator>(proto, 500, 24);
}

TEST(EstimateBatchTest, OueMatchesScalar) {
  const OueProtocol proto(1.0, 24);
  CheckBatchMatchesScalar<OueProtocol, OueAccumulator>(proto, 500, 24);
}

TEST(EstimateBatchTest, HadamardMatchesScalar) {
  const HadamardProtocol proto(1.0, 24);
  CheckBatchMatchesScalar<HadamardProtocol, HadamardAccumulator>(proto, 500,
                                                                 24);
}

// ---------------------------------------------------------------------------
// EstimateCache unit behavior.

TEST(EstimateCacheTest, HitMissAndStats) {
  EstimateCache cache(1 << 20);
  double out = 0.0;
  EXPECT_FALSE(cache.Get(1, 2, 3, 10, &out));
  cache.Put(1, 2, 3, 10, 42.5);
  EXPECT_TRUE(cache.Get(1, 2, 3, 10, &out));
  EXPECT_EQ(out, 42.5);
  // Any key component mismatch is a miss.
  EXPECT_FALSE(cache.Get(0, 2, 3, 10, &out));
  EXPECT_FALSE(cache.Get(1, 0, 3, 10, &out));
  EXPECT_FALSE(cache.Get(1, 2, 0, 10, &out));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EstimateCacheTest, StaleEpochIsAMissAndErases) {
  EstimateCache cache(1 << 20);
  cache.Put(1, 2, 3, /*epoch=*/10, 42.5);
  double out = 0.0;
  // New reports arrived (epoch moved): the entry must not be served.
  EXPECT_FALSE(cache.Get(1, 2, 3, /*epoch=*/11, &out));
  EXPECT_EQ(cache.size(), 0u);
  cache.Put(1, 2, 3, 11, 43.0);
  EXPECT_TRUE(cache.Get(1, 2, 3, 11, &out));
  EXPECT_EQ(out, 43.0);
  EXPECT_EQ(cache.stats().epoch_drops, 1u);
}

TEST(EstimateCacheTest, OlderEpochIsAlsoAMissAndErases) {
  // Regression: an entry stored at a HIGHER epoch than the probe must be
  // dropped too. This is the "reset/rebuilt server" case — a fresh report
  // state whose count restarted below the old one; only exact epoch
  // equality proves the entry describes the current reports.
  EstimateCache cache(1 << 20);
  cache.Put(1, 2, 3, /*epoch=*/10, 42.5);
  double out = 0.0;
  EXPECT_FALSE(cache.Get(1, 2, 3, /*epoch=*/4, &out));
  EXPECT_EQ(cache.size(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.epoch_drops, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(EstimateCacheTest, RebuiltReportStateNeverServesStaleHit) {
  // End-to-end shape of the reset scenario: a server answers queries at
  // epoch 100 into a shared cache, is then torn down and rebuilt (epochs
  // restart from 0), and answers again. Every probe from the rebuilt server
  // must recompute — a stale hit would return estimates for data that no
  // longer exists.
  EstimateCache cache(1 << 20);
  for (uint64_t node = 0; node < 8; ++node) {
    cache.Put(0, node, /*weight_id=*/7, /*epoch=*/100, 1000.0 + node);
  }
  double out = 0.0;
  // Rebuilt server: same nodes and weight id, small fresh epoch.
  for (uint64_t node = 0; node < 8; ++node) {
    EXPECT_FALSE(cache.Get(0, node, 7, /*epoch=*/8, &out))
        << "stale hit for node " << node;
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().epoch_drops, 8u);
  // The fresh values cache normally afterwards.
  for (uint64_t node = 0; node < 8; ++node) {
    cache.Put(0, node, 7, 8, 2000.0 + node);
    EXPECT_TRUE(cache.Get(0, node, 7, 8, &out));
    EXPECT_EQ(out, 2000.0 + node);
  }
  EXPECT_EQ(cache.stats().epoch_drops, 8u);  // no further drops
}

TEST(EstimateCacheTest, EvictsLeastRecentlyUsed) {
  // Budget for exactly 4 entries (112 approx bytes per entry).
  EstimateCache cache(4 * 112);
  for (uint64_t k = 0; k < 4; ++k) cache.Put(0, k, 1, 1, 1.0 * k);
  double out = 0.0;
  // Touch node 0 so node 1 becomes the least recently used.
  EXPECT_TRUE(cache.Get(0, 0, 1, 1, &out));
  cache.Put(0, 100, 1, 1, 100.0);  // evicts node 1
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.Get(0, 1, 1, 1, &out));
  EXPECT_TRUE(cache.Get(0, 0, 1, 1, &out));
  EXPECT_TRUE(cache.Get(0, 2, 1, 1, &out));
  EXPECT_TRUE(cache.Get(0, 3, 1, 1, &out));
  EXPECT_TRUE(cache.Get(0, 100, 1, 1, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EstimateCacheTest, PutRefreshesExistingEntry) {
  EstimateCache cache(1 << 20);
  cache.Put(1, 2, 3, 10, 1.0);
  cache.Put(1, 2, 3, 12, 2.0);
  EXPECT_EQ(cache.size(), 1u);
  double out = 0.0;
  EXPECT_TRUE(cache.Get(1, 2, 3, 12, &out));
  EXPECT_EQ(out, 2.0);
}

// ---------------------------------------------------------------------------
// EstimateNodesBatched over a real store: cold, warm, and parallel runs must
// all reproduce the serial scalar loop bit for bit.

TEST(EstimateNodesBatchedTest, MatchesScalarAndServesFromCache) {
  ReportStore store;
  for (int g = 0; g < 2; ++g) {
    store.AddGroup(
        FrequencyOracle::Create(FoKind::kOlh, 1.0, 32, 0).ValueOrDie());
  }
  Rng rng(23);
  for (uint64_t u = 0; u < 400; ++u) {
    for (int g = 0; g < 2; ++g) {
      store.Add(g, store.Encode(g, (u + 7 * g) % 32, rng), u);
    }
  }
  const WeightVector w = MixedWeights(400);
  std::vector<NodeRef> nodes;
  for (uint64_t v = 0; v < 32; ++v) nodes.push_back({v % 2, v});
  nodes.push_back({0, 5});  // repeated node

  std::vector<double> scalar(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    scalar[i] = store.accumulator(static_cast<int>(nodes[i].group))
                    .EstimateWeighted(nodes[i].node, w);
  }

  EstimateCache cache(1 << 20);
  const ExecutionContext parallel_exec(4);
  for (const bool use_cache : {false, true, true}) {
    for (const ExecutionContext* exec :
         {&SerialExecutionContext(), &parallel_exec}) {
      std::vector<double> out(nodes.size(), -1.0);
      EstimateNodesBatched(store, nodes, w, /*epoch=*/400,
                           use_cache ? &cache : nullptr, *exec, out);
      for (size_t i = 0; i < nodes.size(); ++i) {
        ExpectBitEqual(out[i], scalar[i], "node " + std::to_string(i));
      }
    }
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.insertions, 0u);
}

// ---------------------------------------------------------------------------
// Engine level: every mechanism must answer bit-identically for any thread
// count and cache state, and repeats must be pure cache hits.

Table TwoDimTable(uint64_t n = 2500) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kGaussianBell,
       1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  spec.measures.push_back(
      {"m", 0.0, 10.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 99).ValueOrDie();
}

Table OneDimTable(uint64_t n = 2500) {
  TableSpec spec;
  spec.dims.push_back(
      {"a", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kGaussianBell,
       1.0});
  spec.measures.push_back(
      {"m", 0.0, 10.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 99).ValueOrDie();
}

std::unique_ptr<AnalyticsEngine> MakeEngine(const Table& table,
                                            MechanismKind kind,
                                            int num_threads, bool cache,
                                            uint32_t pool) {
  EngineOptions options;
  options.mechanism = kind;
  options.params.epsilon = 2.0;
  options.params.fanout = 2;
  options.params.hash_pool_size = pool;
  options.seed = 4242;
  options.num_threads = num_threads;
  options.enable_estimate_cache = cache;
  return AnalyticsEngine::Create(table, options).ValueOrDie();
}

void CheckBitIdenticalAcrossConfigs(const Table& table, MechanismKind kind,
                                    const std::vector<std::string>& sqls,
                                    uint32_t pool) {
  // Reference: one thread, no cache.
  std::vector<double> reference;
  {
    auto engine = MakeEngine(table, kind, 1, false, pool);
    for (const auto& sql : sqls) {
      reference.push_back(engine->ExecuteSql(sql).ValueOrDie());
    }
  }
  for (const int threads : {1, 2, 8}) {
    for (const bool cache : {false, true}) {
      auto engine = MakeEngine(table, kind, threads, cache, pool);
      for (size_t q = 0; q < sqls.size(); ++q) {
        const double est = engine->ExecuteSql(sqls[q]).ValueOrDie();
        ExpectBitEqual(est, reference[q],
                       MechanismKindName(kind) + " query " +
                           std::to_string(q) + " threads " +
                           std::to_string(threads) +
                           (cache ? " cache" : " no-cache"));
      }
      if (cache) {
        // The query list repeats its first query; the repeat must have been
        // served (at least partly) from the cache.
        const EstimateCache* cache_ptr = engine->mechanism().estimate_cache();
        ASSERT_NE(cache_ptr, nullptr);
        EXPECT_GT(cache_ptr->stats().hits, 0u)
            << MechanismKindName(kind) << " threads " << threads;
      } else {
        EXPECT_EQ(engine->mechanism().estimate_cache(), nullptr);
      }
    }
  }
}

std::vector<std::string> TwoDimQueries() {
  const std::string q1 =
      "SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 11 AND b BETWEEN 1 AND "
      "13";
  const std::string q2 =
      "SELECT SUM(m) FROM T WHERE a BETWEEN 0 AND 7 AND b BETWEEN 4 AND 15";
  return {q1, q2, q1};  // q1 repeats: the second run must hit the cache
}

std::vector<std::string> OneDimQueries() {
  const std::string q1 = "SELECT COUNT(*) FROM T WHERE a BETWEEN 3 AND 12";
  const std::string q2 = "SELECT SUM(m) FROM T WHERE a BETWEEN 0 AND 9";
  return {q1, q2, q1};
}

TEST(MechanismBatchedEstimateTest, HiBitIdentical) {
  CheckBitIdenticalAcrossConfigs(TwoDimTable(), MechanismKind::kHi,
                                 TwoDimQueries(), 0);
}

TEST(MechanismBatchedEstimateTest, HioBitIdentical) {
  CheckBitIdenticalAcrossConfigs(TwoDimTable(), MechanismKind::kHio,
                                 TwoDimQueries(), 0);
}

TEST(MechanismBatchedEstimateTest, HioPooledBitIdentical) {
  // The pooled-histogram estimation path through the same fan-out.
  CheckBitIdenticalAcrossConfigs(TwoDimTable(), MechanismKind::kHio,
                                 TwoDimQueries(), 64);
}

TEST(MechanismBatchedEstimateTest, ScBitIdentical) {
  CheckBitIdenticalAcrossConfigs(TwoDimTable(), MechanismKind::kSc,
                                 TwoDimQueries(), 0);
}

TEST(MechanismBatchedEstimateTest, MgBitIdentical) {
  CheckBitIdenticalAcrossConfigs(TwoDimTable(), MechanismKind::kMg,
                                 TwoDimQueries(), 0);
}

TEST(MechanismBatchedEstimateTest, QuadTreeBitIdentical) {
  CheckBitIdenticalAcrossConfigs(TwoDimTable(), MechanismKind::kQuadTree,
                                 TwoDimQueries(), 0);
}

TEST(MechanismBatchedEstimateTest, HaarBitIdentical) {
  CheckBitIdenticalAcrossConfigs(OneDimTable(), MechanismKind::kHaar,
                                 OneDimQueries(), 0);
}

TEST(MechanismBatchedEstimateTest, RepeatedQueryHitsCacheCompletely) {
  // After a warm-up execution the repeat of the identical query must probe
  // the cache only: no new insertions, only hits.
  const Table table = TwoDimTable();
  auto engine = MakeEngine(table, MechanismKind::kHio, 1, true, 0);
  const std::string sql =
      "SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 11 AND b BETWEEN 1 AND "
      "13";
  const double first = engine->ExecuteSql(sql).ValueOrDie();
  const EstimateCache* cache = engine->mechanism().estimate_cache();
  ASSERT_NE(cache, nullptr);
  const auto warm = cache->stats();
  const double second = engine->ExecuteSql(sql).ValueOrDie();
  const auto after = cache->stats();
  ExpectBitEqual(second, first, "repeat");
  EXPECT_EQ(after.insertions, warm.insertions);
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_GT(after.hits, warm.hits);
}

// ---------------------------------------------------------------------------
// Mechanism::EstimateBoxes: one call returns, bit for bit, what EstimateBox
// returns task by task, probes the estimate cache like that loop, and fails
// on an invalid task with the Status the loop returns first.

Schema OrdinalSchema(int dims) {
  Schema schema;
  for (int i = 0; i < dims; ++i) {
    EXPECT_TRUE(schema.AddOrdinal("d" + std::to_string(i), 16).ok());
  }
  return schema;
}

MechanismParams BoxesParams(uint32_t pool) {
  MechanismParams params;
  params.epsilon = 2.0;
  params.fanout = 2;
  params.hash_pool_size = pool;
  return params;
}

void FillReports(Mechanism* mech, uint64_t n) {
  const auto& dims = mech->schema().sensitive_dims();
  Rng rng(61);
  std::vector<uint32_t> values(dims.size());
  for (uint64_t u = 0; u < n; ++u) {
    for (size_t i = 0; i < dims.size(); ++i) {
      const uint64_t domain = mech->schema().attribute(dims[i]).domain_size;
      // Skewed toward low values, so box estimates differ from each other.
      values[i] = static_cast<uint32_t>(
          std::min(rng.UniformInt(domain), rng.UniformInt(domain)));
    }
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), u).ok());
  }
}

/// A full-domain box (k = 0), two 1-dim boxes (k = 1), their OR's
/// intersection (k = 2), a 3-dim box (k = 3, popcount classes), a box
/// sharing pieces with the first 1-dim box, and a repeat of it — each
/// truncated to the first `dims` dimensions.
std::vector<std::vector<Interval>> TaskBoxes(int dims) {
  const Interval full{0, 15};
  std::vector<std::vector<Interval>> boxes = {
      {full, full, full},         {{2, 11}, full, full},
      {full, {3, 9}, full},       {{2, 11}, {3, 9}, full},
      {{1, 6}, {3, 9}, {5, 14}},  {{4, 11}, full, full},
      {{2, 11}, full, full},
  };
  for (auto& box : boxes) box.resize(dims);
  return boxes;
}

/// Every box against both weight vectors, alternating which comes first.
std::vector<BoxTask> MakeTasks(const std::vector<std::vector<Interval>>& boxes,
                               const WeightVector& a, const WeightVector& b) {
  std::vector<BoxTask> tasks;
  for (size_t i = 0; i < boxes.size(); ++i) {
    const WeightVector& first = i % 2 == 0 ? a : b;
    const WeightVector& second = i % 2 == 0 ? b : a;
    tasks.push_back({boxes[i], &first});
    tasks.push_back({boxes[i], &second});
  }
  return tasks;
}

/// `estimate_all(tasks, out)` must equal `estimate_one(task)` per task, bit
/// for bit, against a serial cache-off reference, at threads {1, 2, 8} with
/// the cache off and on; with the cache on, a batched call on an empty cache
/// leaves the same hit, miss and insertion counts as the loop.
template <typename EstimateAll, typename EstimateOne>
void CheckBatchedMatchesLoop(Mechanism* mech,
                             std::span<const BoxTask> tasks,
                             const EstimateAll& estimate_all,
                             const EstimateOne& estimate_one,
                             const std::string& what) {
  const auto cache_stats = [&] {
    EstimateCache::Stats sum;
    std::vector<const EstimateCache*> caches = {mech->estimate_cache()};
    if (const auto* multi = dynamic_cast<const MultiMechanism*>(mech)) {
      for (int i = 0; i < multi->num_sub_mechanisms(); ++i) {
        caches.push_back(multi->sub(i).estimate_cache());
      }
    }
    for (const EstimateCache* cache : caches) {
      if (cache == nullptr) continue;
      sum.hits += cache->stats().hits;
      sum.misses += cache->stats().misses;
      sum.insertions += cache->stats().insertions;
    }
    return sum;
  };
  mech->set_execution_context(nullptr);
  mech->EnableEstimateCache(0);
  std::vector<double> reference;
  for (const BoxTask& task : tasks) {
    reference.push_back(estimate_one(task).ValueOrDie());
  }
  for (const int threads : {1, 2, 8}) {
    const ExecutionContext exec(threads);
    mech->set_execution_context(&exec);
    for (const bool cache : {false, true}) {
      const std::string config = what + " threads " + std::to_string(threads) +
                                 (cache ? " cache" : " no-cache");
      mech->EnableEstimateCache(cache ? 1 << 20 : 0);
      // Cold, then warm: the second call is served from the cache.
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<double> out(tasks.size(), -1.0);
        ASSERT_TRUE(estimate_all(tasks, std::span<double>(out)).ok());
        for (size_t i = 0; i < tasks.size(); ++i) {
          ExpectBitEqual(out[i], reference[i],
                         config + " pass " + std::to_string(pass) + " task " +
                             std::to_string(i));
        }
      }
      if (cache) {
        mech->EnableEstimateCache(1 << 20);
        std::vector<double> out(tasks.size());
        ASSERT_TRUE(estimate_all(tasks, std::span<double>(out)).ok());
        const EstimateCache::Stats batched = cache_stats();
        mech->EnableEstimateCache(1 << 20);
        for (const BoxTask& task : tasks) {
          ASSERT_TRUE(estimate_one(task).ok());
        }
        const EstimateCache::Stats loop = cache_stats();
        EXPECT_EQ(batched.hits, loop.hits) << config;
        EXPECT_EQ(batched.misses, loop.misses) << config;
        EXPECT_EQ(batched.insertions, loop.insertions) << config;
      }
    }
    mech->set_execution_context(nullptr);
  }
}

void CheckKind(MechanismKind kind, int dims, uint64_t n, uint32_t pool) {
  auto mech = CreateMechanism(kind, OrdinalSchema(dims), BoxesParams(pool))
                  .ValueOrDie();
  FillReports(mech.get(), n);
  const WeightVector ones = WeightVector::Ones(n);
  const WeightVector mixed = MixedWeights(n);
  const auto boxes = TaskBoxes(dims);
  const std::vector<BoxTask> tasks = MakeTasks(boxes, ones, mixed);
  CheckBatchedMatchesLoop(
      mech.get(), tasks,
      [&](std::span<const BoxTask> t, std::span<double> out) {
        return mech->EstimateBoxes(t, out);
      },
      [&](const BoxTask& t) { return mech->EstimateBox(t.ranges, *t.weights); },
      MechanismKindName(kind));
}

TEST(EstimateBoxesTest, EveryKindMatchesThePerBoxLoop) {
  // Three report chunks for SC, whose sums reduce over chunks.
  CheckKind(MechanismKind::kSc, 3, 2 * kExecChunkRows + 300, 0);
  CheckKind(MechanismKind::kHi, 3, 1500, 0);
  CheckKind(MechanismKind::kHio, 3, 1500, 0);
  CheckKind(MechanismKind::kMg, 3, 1500, 64);
  CheckKind(MechanismKind::kHdg, 3, 1500, 0);
  CheckKind(MechanismKind::kCalm, 3, 1500, 0);
  CheckKind(MechanismKind::kQuadTree, 2, 1500, 0);
  CheckKind(MechanismKind::kHaar, 1, 1500, 0);
}

TEST(EstimateBoxesTest, CompositeMatchesThePerBoxLoop) {
  const std::vector<MechanismKind> kinds = {MechanismKind::kHio,
                                            MechanismKind::kSc};
  const uint64_t n = 2 * kExecChunkRows + 300;
  auto multi =
      MultiMechanism::Create(OrdinalSchema(3), BoxesParams(0), kinds)
          .ValueOrDie();
  FillReports(multi.get(), n);
  const WeightVector ones = WeightVector::Ones(n);
  const WeightVector mixed = MixedWeights(n);
  const auto boxes = TaskBoxes(3);
  const std::vector<BoxTask> tasks = MakeTasks(boxes, ones, mixed);
  CheckBatchedMatchesLoop(
      multi.get(), tasks,
      [&](std::span<const BoxTask> t, std::span<double> out) {
        return multi->EstimateBoxes(t, out);
      },
      [&](const BoxTask& t) {
        return multi->EstimateBox(t.ranges, *t.weights);
      },
      "Multi");
  for (const MechanismKind kind : kinds) {
    // The per-sub reference: the sub's own EstimateBox, scaled by k.
    const Mechanism* sub = nullptr;
    for (int i = 0; i < multi->num_sub_mechanisms(); ++i) {
      if (multi->sub(i).kind() == kind) sub = &multi->sub(i);
    }
    ASSERT_NE(sub, nullptr);
    CheckBatchedMatchesLoop(
        multi.get(), tasks,
        [&](std::span<const BoxTask> t, std::span<double> out) {
          return multi->EstimateBoxesWith(kind, t, out);
        },
        [&](const BoxTask& t) -> Result<double> {
          LDP_ASSIGN_OR_RETURN(const double cohort,
                               sub->EstimateBox(t.ranges, *t.weights));
          return static_cast<double>(kinds.size()) * cohort;
        },
        "Multi with " + MechanismKindName(kind));
  }
}

TEST(EstimateBoxesTest, InvalidTaskFailsLikeThePerBoxLoop) {
  // Two 1100-value categorical dimensions: a box over both decomposes into
  // 1099^2 sub-queries, past SC's limit of 2^20.
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("d0", 16).ok());
  ASSERT_TRUE(schema.AddCategorical("c1", 1100).ok());
  ASSERT_TRUE(schema.AddCategorical("c2", 1100).ok());
  const std::vector<MechanismKind> kinds = {MechanismKind::kHio,
                                            MechanismKind::kSc};
  auto multi =
      MultiMechanism::Create(schema, BoxesParams(0), kinds).ValueOrDie();
  FillReports(multi.get(), 600);
  const Mechanism* sc = &multi->sub(1);
  ASSERT_EQ(sc->kind(), MechanismKind::kSc);
  const WeightVector w = MixedWeights(600);
  const Interval full_c{0, 1099};
  const std::vector<std::vector<Interval>> valid = {
      {{0, 15}, full_c, full_c},
      {{2, 11}, {5, 5}, full_c},
      {{2, 11}, {5, 5}, {7, 9}},
  };
  const std::vector<std::vector<Interval>> invalid = {
      {{0, 15}, full_c},            // one range short
      {{0, 16}, full_c, full_c},    // outside the domain
      {{0, 15}, {0, 1098}, {0, 1098}},  // too many sub-queries
  };
  for (const bool cache : {false, true}) {
    multi->EnableEstimateCache(cache ? 1 << 20 : 0);
    for (size_t bad = 0; bad < invalid.size(); ++bad) {
      for (size_t pos = 0; pos <= valid.size(); ++pos) {
        SCOPED_TRACE("invalid " + std::to_string(bad) + " at " +
                     std::to_string(pos) + (cache ? " cache" : ""));
        std::vector<BoxTask> tasks;
        for (const auto& box : valid) tasks.push_back({box, &w});
        tasks.insert(tasks.begin() + pos, BoxTask{invalid[bad], &w});
        // A later invalid task never wins over the first one.
        tasks.push_back({invalid[(bad + 1) % invalid.size()], &w});
        Status expected = Status::OK();
        for (const BoxTask& task : tasks) {
          const auto one = sc->EstimateBox(task.ranges, *task.weights);
          if (!one.ok()) {
            expected = one.status();
            break;
          }
        }
        ASSERT_FALSE(expected.ok());
        std::vector<double> out(tasks.size());
        const Status direct = sc->EstimateBoxes(tasks, out);
        EXPECT_EQ(direct.code(), expected.code());
        EXPECT_EQ(direct.message(), expected.message());
        const Status composite =
            multi->EstimateBoxesWith(MechanismKind::kSc, tasks, out);
        EXPECT_EQ(composite.code(), expected.code());
        EXPECT_EQ(composite.message(), expected.message());
      }
    }
  }
}

}  // namespace
}  // namespace ldp
