// Exercises the accumulator-side caches: per-weight-vector histogram /
// spectrum caches must evict the least recently used entry beyond their
// bound and stay correct across eviction and re-insertion, adding a report
// must invalidate them, and a stale pooled-OLH histogram extended by the
// appended reports must equal a rebuild from all of them bit for bit.

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "fo/grr.h"
#include "fo/hadamard.h"
#include "fo/olh.h"
#include "obs/metrics.h"

namespace ldp {
namespace {

std::vector<std::unique_ptr<WeightVector>> ManyWeightSets(uint64_t n,
                                                          int count) {
  std::vector<std::unique_ptr<WeightVector>> out;
  for (int k = 0; k < count; ++k) {
    std::vector<double> w(n);
    for (uint64_t i = 0; i < n; ++i) {
      w[i] = 1.0 + static_cast<double>((i + k) % 5);
    }
    out.push_back(std::make_unique<WeightVector>(std::move(w)));
  }
  return out;
}

template <typename Protocol, typename Accumulator>
void CheckEvictionStaysCorrect(const Protocol& proto, uint64_t n,
                               uint64_t probe) {
  Accumulator acc(proto);
  Rng rng(5);
  for (uint64_t u = 0; u < n; ++u) acc.Add(proto.Encode(u % 16, rng), u);
  const auto weight_sets = ManyWeightSets(n, 12);  // > the 8-entry cache cap
  // First pass records the answers; cycling through 12 sets forces
  // evictions between passes.
  std::vector<double> first;
  for (const auto& w : weight_sets) {
    first.push_back(acc.EstimateWeighted(probe, *w));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < weight_sets.size(); ++k) {
      EXPECT_DOUBLE_EQ(acc.EstimateWeighted(probe, *weight_sets[k]),
                       first[k])
          << "weight set " << k << " pass " << pass;
    }
  }
}

TEST(AccumulatorCacheTest, OlhHistogramEviction) {
  // Pooled with a large group so the histogram path is active.
  const OlhProtocol proto(1.0, 16, 32);
  CheckEvictionStaysCorrect<OlhProtocol, OlhAccumulator>(proto, 200, 7);
}

TEST(AccumulatorCacheTest, GrrHistogramEviction) {
  const GrrProtocol proto(1.0, 16);
  CheckEvictionStaysCorrect<GrrProtocol, GrrAccumulator>(proto, 200, 7);
}

TEST(AccumulatorCacheTest, HadamardSpectrumEviction) {
  const HadamardProtocol proto(1.0, 16);
  CheckEvictionStaysCorrect<HadamardProtocol, HadamardAccumulator>(proto, 200,
                                                                   7);
}

template <typename Protocol, typename Accumulator>
void CheckEvictionKeepsMostRecent(const Protocol& proto) {
  const uint64_t n = 200;
  Accumulator acc(proto);
  Rng rng(6);
  for (uint64_t u = 0; u < n; ++u) acc.Add(proto.Encode(u % 16, rng), u);
  // Build 12 cached weight sets in order; the 8-entry LRU must keep exactly
  // the 8 most recently used and have evicted the 4 oldest.
  const auto weight_sets = ManyWeightSets(n, 12);
  for (const auto& w : weight_sets) (void)acc.EstimateWeighted(3, *w);
  for (size_t k = 0; k < weight_sets.size(); ++k) {
    EXPECT_EQ(acc.HasCachedWeightSet(weight_sets[k]->id()), k >= 4)
        << "weight set " << k;
  }
}

TEST(AccumulatorCacheTest, OlhEvictionKeepsMostRecent) {
  const OlhProtocol proto(1.0, 16, 32);
  CheckEvictionKeepsMostRecent<OlhProtocol, OlhAccumulator>(proto);
}

TEST(AccumulatorCacheTest, GrrEvictionKeepsMostRecent) {
  const GrrProtocol proto(1.0, 16);
  CheckEvictionKeepsMostRecent<GrrProtocol, GrrAccumulator>(proto);
}

TEST(AccumulatorCacheTest, HadamardEvictionKeepsMostRecent) {
  const HadamardProtocol proto(1.0, 16);
  CheckEvictionKeepsMostRecent<HadamardProtocol, HadamardAccumulator>(proto);
}

template <typename Protocol, typename Accumulator>
void CheckHitRefreshesRecency(const Protocol& proto) {
  const uint64_t n = 200;
  Accumulator acc(proto);
  Rng rng(7);
  for (uint64_t u = 0; u < n; ++u) acc.Add(proto.Encode(u % 16, rng), u);
  // Fill the 8 entries with sets 0..7, hit set 0, then build a 9th set: the
  // hit made set 0 the most recent, so set 1 is the one evicted.
  const auto weight_sets = ManyWeightSets(n, 9);
  for (int k = 0; k < 8; ++k) (void)acc.EstimateWeighted(3, *weight_sets[k]);
  (void)acc.EstimateWeighted(3, *weight_sets[0]);
  (void)acc.EstimateWeighted(3, *weight_sets[8]);
  EXPECT_TRUE(acc.HasCachedWeightSet(weight_sets[0]->id()));
  EXPECT_FALSE(acc.HasCachedWeightSet(weight_sets[1]->id()));
  for (int k = 2; k < 9; ++k) {
    EXPECT_TRUE(acc.HasCachedWeightSet(weight_sets[k]->id()))
        << "weight set " << k;
  }
}

TEST(AccumulatorCacheTest, OlhHitRefreshesRecency) {
  const OlhProtocol proto(1.0, 16, 32);
  CheckHitRefreshesRecency<OlhProtocol, OlhAccumulator>(proto);
}

TEST(AccumulatorCacheTest, GrrHitRefreshesRecency) {
  const GrrProtocol proto(1.0, 16);
  CheckHitRefreshesRecency<GrrProtocol, GrrAccumulator>(proto);
}

TEST(AccumulatorCacheTest, HadamardHitRefreshesRecency) {
  const HadamardProtocol proto(1.0, 16);
  CheckHitRefreshesRecency<HadamardProtocol, HadamardAccumulator>(proto);
}

TEST(AccumulatorCacheTest, AddInvalidatesCachedHistogram) {
  const OlhProtocol proto(2.0, 16, 16);
  OlhAccumulator acc(proto);
  Rng rng(9);
  for (uint64_t u = 0; u < 100; ++u) acc.Add(proto.Encode(3, rng), u);
  const WeightVector w = WeightVector::Ones(101);
  const double before = acc.EstimateWeighted(3, w);
  acc.Add(proto.Encode(3, rng), 100);  // must drop any cached histogram
  const double after = acc.EstimateWeighted(3, w);
  // 101 reports of the same value: the estimate must reflect the new report
  // (with overwhelming probability it changes; equality would indicate a
  // stale cache since the support count or total changed).
  EXPECT_NE(before, after);
  EXPECT_EQ(acc.num_reports(), 101u);
}

// --- Extending stale pooled-OLH histograms ------------------------------

constexpr uint64_t kDomain = 64;
constexpr uint32_t kPool = 16;  // histograms from 2 * kPool = 32 reports on

/// One growth step of a pooled OLH group: the reports it appends, and
/// whether they arrive one by one (Add) or as one merged shard (Merge).
struct Growth {
  uint64_t reports;
  bool merge;
};

/// Feeds an accumulator the same report sequence in growth steps and checks,
/// after every step, each weight set's estimates against a fresh accumulator
/// fed the whole sequence so far: bits must be equal for every domain value,
/// and for the group weight. Reads walk the weight sets forward after even
/// steps and backward after odd ones, so with more than 8 sets each walk
/// extends the entries the last walk left and evicts for the rest.
void CheckExtendedHistogramsMatchFreshOnes(const std::vector<Growth>& steps,
                                           int num_weight_sets) {
  GlobalMetrics().set_enabled(true);
  Counter* stale = GlobalMetrics().counter("fo_cache.stale_rebuilds");
  Counter* evictions = GlobalMetrics().counter("fo_cache.evictions");
  const uint64_t stale0 = stale->value();
  const uint64_t evictions0 = evictions->value();
  const OlhProtocol proto(1.0, kDomain, kPool);
  uint64_t total = 0;
  for (const Growth& step : steps) total += step.reports;
  std::vector<FoReport> reports;
  Rng rng(11);
  for (uint64_t u = 0; u < total; ++u) {
    reports.push_back(proto.Encode((u * 7) % kDomain, rng));
  }
  // Non-integer weights, so a reordered sum would round differently.
  std::vector<std::unique_ptr<WeightVector>> weight_sets;
  for (int k = 0; k < num_weight_sets; ++k) {
    std::vector<double> w(total);
    for (uint64_t i = 0; i < total; ++i) {
      w[i] = 0.1 * static_cast<double>(1 + (i * (k + 3)) % 17) + 1e-3 * k;
    }
    weight_sets.push_back(std::make_unique<WeightVector>(std::move(w)));
  }
  std::vector<uint64_t> values(kDomain);
  std::iota(values.begin(), values.end(), 0);

  OlhAccumulator acc(proto);
  uint64_t n = 0;
  for (size_t s = 0; s < steps.size(); ++s) {
    if (steps[s].merge) {
      std::unique_ptr<FoAccumulator> shard = acc.NewShard();
      for (uint64_t u = n; u < n + steps[s].reports; ++u) {
        shard->Add(reports[u], u);
      }
      ASSERT_TRUE(acc.Merge(std::move(*shard)).ok());
    } else {
      for (uint64_t u = n; u < n + steps[s].reports; ++u) {
        acc.Add(reports[u], u);
      }
    }
    n += steps[s].reports;
    OlhAccumulator fresh(proto);
    for (uint64_t u = 0; u < n; ++u) fresh.Add(reports[u], u);
    for (int i = 0; i < num_weight_sets; ++i) {
      const int k = s % 2 == 0 ? i : num_weight_sets - 1 - i;
      SCOPED_TRACE("step " + std::to_string(s) + " weight set " +
                   std::to_string(k));
      const WeightVector& w = *weight_sets[k];
      std::vector<double> got(kDomain);
      std::vector<double> want(kDomain);
      acc.EstimateManyWeighted(values, w, got);
      fresh.EstimateManyWeighted(values, w, want);
      for (uint64_t v = 0; v < kDomain; ++v) {
        EXPECT_EQ(got[v], want[v]) << "value " << v;
      }
      EXPECT_EQ(acc.GroupWeight(w), fresh.GroupWeight(w));
    }
  }
  EXPECT_GT(stale->value() - stale0, 0u);  // some reads extended an entry
  EXPECT_EQ(evictions->value() > evictions0, num_weight_sets > 8);
}

TEST(AccumulatorCacheTest, OlhExtendedHistogramsMatchARebuild) {
  // Read under 3 weight sets, then grow by Add and by Merge of a shard.
  CheckExtendedHistogramsMatchFreshOnes(
      {{200, false}, {37, false}, {120, true}, {1, false}}, 3);
}

TEST(AccumulatorCacheTest, OlhExtendedHistogramsMatchARebuildUnderEviction) {
  // 11 weight sets share the 8 entries: every walk after a growth step
  // extends the 8 entries it finds and rebuilds 3 evicted sets in full.
  CheckExtendedHistogramsMatchFreshOnes(
      {{200, false}, {50, true}, {9, false}, {64, true}}, 11);
}

TEST(AccumulatorCacheTest, OlhExtendedHistogramsMatchARebuildAcrossThreshold) {
  // 20 reports read the raw reports (below 2 * pool); the next step crosses
  // the threshold, so the first histogram is built there and then extended.
  CheckExtendedHistogramsMatchFreshOnes(
      {{20, false}, {30, true}, {5, false}, {40, false}}, 3);
}

TEST(AccumulatorCacheTest, OlhRefreshFoldsOnlyTheAppendedReports) {
  const OlhProtocol proto(1.0, kDomain, kPool);
  OlhAccumulator acc(proto);
  Rng rng(12);
  for (uint64_t u = 0; u < 300; ++u) {
    acc.Add(proto.Encode(u % kDomain, rng), u);
  }
  const WeightVector w = WeightVector::Ones(400);
  GlobalMetrics().set_enabled(true);
  Counter* folded = GlobalMetrics().counter("fo_cache.folded_reports");
  Counter* builds = GlobalMetrics().counter("fo_cache.builds");
  Counter* stale = GlobalMetrics().counter("fo_cache.stale_rebuilds");
  Counter* hits = GlobalMetrics().counter("fo_cache.hits");

  uint64_t folded0 = folded->value();
  uint64_t builds0 = builds->value();
  (void)acc.EstimateWeighted(5, w);  // first build: all 300 reports
  EXPECT_EQ(folded->value() - folded0, 300u);
  EXPECT_EQ(builds->value() - builds0, 1u);

  const uint64_t hits0 = hits->value();
  folded0 = folded->value();
  (void)acc.EstimateWeighted(6, w);  // fresh: a hit folds nothing
  EXPECT_EQ(hits->value() - hits0, 1u);
  EXPECT_EQ(folded->value() - folded0, 0u);

  for (uint64_t u = 300; u < 342; ++u) {
    acc.Add(proto.Encode(u % kDomain, rng), u);
  }
  folded0 = folded->value();
  builds0 = builds->value();
  const uint64_t stale0 = stale->value();
  (void)acc.EstimateWeighted(5, w);  // refresh: the 42 appended reports only
  EXPECT_EQ(folded->value() - folded0, 42u);
  EXPECT_EQ(builds->value() - builds0, 1u);
  EXPECT_EQ(stale->value() - stale0, 1u);

  std::unique_ptr<FoAccumulator> shard = acc.NewShard();
  for (uint64_t u = 342; u < 400; ++u) {
    shard->Add(proto.Encode(u % kDomain, rng), u);
  }
  ASSERT_TRUE(acc.Merge(std::move(*shard)).ok());
  folded0 = folded->value();
  (void)acc.GroupWeight(w);  // refresh after Merge: the 58 merged reports
  EXPECT_EQ(folded->value() - folded0, 58u);
  EXPECT_EQ(acc.GroupWeight(w), 400.0);
}

}  // namespace
}  // namespace ldp
