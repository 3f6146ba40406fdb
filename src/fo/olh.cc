#include "fo/olh.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/privacy_math.h"
#include "fo/simd/simd.h"

namespace ldp {

namespace {
/// Use histograms only when the group is big enough that the O(pool) scan
/// beats the O(#reports) scan, and the histogram itself is not outlandish.
constexpr uint64_t kMaxHistogramCells = 1ull << 24;
/// Value-tile width for the batched kernels: small enough that the per-tile
/// theta accumulators stay in L1, large enough to amortize one report load
/// over many hash evaluations.
constexpr size_t kOlhValueTile = 512;
}  // namespace

OlhProtocol::OlhProtocol(double epsilon, uint64_t domain_size,
                         uint32_t hash_pool_size)
    : epsilon_(epsilon),
      domain_size_(domain_size),
      g_(OptimalOlhG(epsilon)),
      p_(OlhP(epsilon, g_)),
      q_(OlhQ(g_)),
      scale_(OlhScale(epsilon, g_)),
      family_(hash_pool_size) {
  LDP_CHECK_GT(epsilon, 0.0);
}

FoReport OlhProtocol::Encode(uint64_t value, Rng& rng) const {
  FoReport report;
  report.seed = family_.SampleSeed(rng);
  const uint32_t x = SeededHashFamily::Eval(report.seed, value, g_);
  if (rng.Bernoulli(p_)) {
    report.value = x;  // stay
  } else {
    // flip: uniform over the g - 1 buckets other than x.
    const uint32_t r = static_cast<uint32_t>(rng.UniformInt(g_ - 1));
    report.value = r >= x ? r + 1 : r;
  }
  return report;
}

std::unique_ptr<FoAccumulator> OlhProtocol::MakeAccumulator() const {
  return std::make_unique<OlhAccumulator>(*this);
}

OlhAccumulator::OlhAccumulator(const OlhProtocol& protocol)
    : protocol_(protocol) {}

void OlhAccumulator::Add(const FoReport& report, uint64_t user) {
  LDP_DCHECK(report.value < protocol_.g());
  // No cache maintenance here: cached histograms record the report count at
  // build time, so growing the report vectors implicitly marks them stale
  // and GetOrBuildHistogram extends them at their next lookup.
  seeds_.push_back(report.seed);
  ys_.push_back(report.value);
  users_.push_back(user);
}

std::unique_ptr<FoAccumulator> OlhAccumulator::NewShard() const {
  return std::make_unique<OlhAccumulator>(protocol_);
}

Status OlhAccumulator::Merge(FoAccumulator&& other) {
  auto* shard = dynamic_cast<OlhAccumulator*>(&other);
  if (shard == nullptr) {
    return Status::InvalidArgument("cannot merge a non-OLH shard");
  }
  seeds_.insert(seeds_.end(), shard->seeds_.begin(), shard->seeds_.end());
  ys_.insert(ys_.end(), shard->ys_.begin(), shard->ys_.end());
  users_.insert(users_.end(), shard->users_.begin(), shard->users_.end());
  shard->seeds_.clear();
  shard->ys_.clear();
  shard->users_.clear();
  // Stale histograms are extended lazily via built_reports; nothing to do.
  return Status::OK();
}

bool OlhAccumulator::UsesHistograms() const {
  const uint32_t pool = protocol_.hash_pool_size();
  if (pool == 0) return false;
  const uint64_t cells = static_cast<uint64_t>(pool) * protocol_.g();
  if (cells > kMaxHistogramCells) return false;
  // Building costs O(n); it pays off once cell estimates are repeated, which
  // every box query does. Require the group to be clearly larger than the
  // pool so the O(pool) estimate is an actual win.
  return num_reports() >= 2ull * pool;
}

bool OlhAccumulator::HasCachedWeightSet(uint64_t weight_id) const {
  return hist_cache_.Contains(weight_id);
}

std::shared_ptr<const OlhAccumulator::WeightedHistogram>
OlhAccumulator::GetOrBuildHistogram(const WeightVector& w) const {
  const uint64_t current_reports = seeds_.size();
  return hist_cache_.GetOrBuild(
      w.id(), current_reports, [&](const WeightedHistogram* stale) {
        // Every cell and the group weight are sums in report order, and
        // reports are only appended, so a copy of a stale histogram extended
        // by the reports it lacks has the bits of a rebuild from all of them.
        auto h = stale != nullptr
                     ? std::make_shared<WeightedHistogram>(*stale)
                     : std::make_shared<WeightedHistogram>();
        const uint32_t g = protocol_.g();
        if (stale == nullptr) {
          h->hist.assign(static_cast<size_t>(protocol_.hash_pool_size()) * g,
                         0.0);
        }
        for (uint64_t i = h->built_reports; i < current_reports; ++i) {
          const double weight = w[users_[i]];
          h->hist[static_cast<size_t>(seeds_[i]) * g + ys_[i]] += weight;
          h->group_weight += weight;
        }
        FoCacheMetrics().folded_reports->Add(current_reports -
                                             h->built_reports);
        h->built_reports = current_reports;
        return h;
      });
}

void OlhAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                          const WeightVector& w,
                                          std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  if (values.empty()) return;
  const uint32_t g = protocol_.g();
  const double scale = protocol_.scale();
  const FoKernels& kernels = ActiveKernels();
  double theta[kOlhValueTile];
  if (UsesHistograms()) {
    // One histogram fetch amortized over the whole batch; per value the sum
    // runs over seeds in pool order, however the values are batched.
    const auto h = GetOrBuildHistogram(w);
    const uint32_t pool = protocol_.hash_pool_size();
    const double* hist = h->hist.data();
    FoEstimateMetrics().report_values->Add(static_cast<uint64_t>(pool) *
                                           values.size());
    for (size_t v0 = 0; v0 < values.size(); v0 += kOlhValueTile) {
      const size_t tile = std::min(kOlhValueTile, values.size() - v0);
      std::fill(theta, theta + tile, 0.0);
      kernels.olh_hist(hist, pool, g, values.data() + v0, tile, theta);
      for (size_t vi = 0; vi < tile; ++vi) {
        out[v0 + vi] = scale * (theta[vi] - h->group_weight / g);
      }
    }
    return;
  }
  // Raw path: one pass over the reports per value tile. The group weight
  // accumulates in report order (independent of the value), so computing it
  // once gives every value the bits a one-value call gives it.
  const size_t n = seeds_.size();
  double group_weight = 0.0;
  for (size_t i = 0; i < n; ++i) group_weight += w[users_[i]];
  FoEstimateMetrics().report_values->Add(n * values.size());
  for (size_t v0 = 0; v0 < values.size(); v0 += kOlhValueTile) {
    const size_t tile = std::min(kOlhValueTile, values.size() - v0);
    std::fill(theta, theta + tile, 0.0);
    kernels.olh_raw(seeds_.data(), ys_.data(), users_.data(), n,
                    w.values().data(), g, values.data() + v0, tile, theta);
    for (size_t vi = 0; vi < tile; ++vi) {
      out[v0 + vi] = scale * (theta[vi] - group_weight / g);
    }
  }
}

double OlhAccumulator::GroupWeight(const WeightVector& w) const {
  if (UsesHistograms()) return GetOrBuildHistogram(w)->group_weight;
  double total = 0.0;
  for (const uint64_t user : users_) total += w[user];
  return total;
}

}  // namespace ldp
