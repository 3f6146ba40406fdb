#include "fo/grr.h"

#include <cmath>

#include "common/logging.h"

namespace ldp {

GrrProtocol::GrrProtocol(double epsilon, uint64_t domain_size)
    : epsilon_(epsilon), domain_size_(domain_size) {
  LDP_CHECK_GT(epsilon, 0.0);
  LDP_CHECK_GE(domain_size, 2u);
  const double e = std::exp(epsilon);
  p_ = e / (e + static_cast<double>(domain_size) - 1.0);
  q_ = 1.0 / (e + static_cast<double>(domain_size) - 1.0);
}

FoReport GrrProtocol::Encode(uint64_t value, Rng& rng) const {
  LDP_DCHECK(value < domain_size_);
  FoReport report;
  if (rng.Bernoulli(p_)) {
    report.value = static_cast<uint32_t>(value);
  } else {
    const uint64_t r = rng.UniformInt(domain_size_ - 1);
    report.value = static_cast<uint32_t>(r >= value ? r + 1 : r);
  }
  return report;
}

Status GrrProtocol::ValidateReport(const FoReport& report) const {
  if (report.value >= domain_size_) {
    return Status::OutOfRange("GRR report value outside the domain");
  }
  return Status::OK();
}

std::unique_ptr<FoAccumulator> GrrProtocol::MakeAccumulator() const {
  return std::make_unique<GrrAccumulator>(*this);
}

GrrAccumulator::GrrAccumulator(const GrrProtocol& protocol)
    : protocol_(protocol) {}

void GrrAccumulator::Add(const FoReport& report, uint64_t user) {
  // Cached histograms go stale implicitly: they record the report count at
  // build time and are rebuilt lazily inside GetOrBuildHistogram.
  values_.push_back(report.value);
  users_.push_back(user);
}

std::unique_ptr<FoAccumulator> GrrAccumulator::NewShard() const {
  return std::make_unique<GrrAccumulator>(protocol_);
}

Status GrrAccumulator::Merge(FoAccumulator&& other) {
  auto* shard = dynamic_cast<GrrAccumulator*>(&other);
  if (shard == nullptr) {
    return Status::InvalidArgument("cannot merge a non-GRR shard");
  }
  values_.insert(values_.end(), shard->values_.begin(), shard->values_.end());
  users_.insert(users_.end(), shard->users_.begin(), shard->users_.end());
  shard->values_.clear();
  shard->users_.clear();
  // Stale histograms are rebuilt lazily via built_reports; nothing to do.
  return Status::OK();
}

bool GrrAccumulator::HasCachedWeightSet(uint64_t weight_id) const {
  return hist_cache_.Contains(weight_id);
}

std::shared_ptr<const GrrAccumulator::WeightedHistogram>
GrrAccumulator::GetOrBuildHistogram(const WeightVector& w) const {
  const uint64_t current_reports = values_.size();
  // A stale histogram is rebuilt from every report: no workload reads GRR
  // between ingests, so extending it would not pay.
  return hist_cache_.GetOrBuild(
      w.id(), current_reports, [&](const WeightedHistogram*) {
        auto h = std::make_shared<WeightedHistogram>();
        for (size_t i = 0; i < values_.size(); ++i) {
          const double weight = w[users_[i]];
          h->by_value[values_[i]] += weight;
          h->group_weight += weight;
        }
        h->built_reports = current_reports;
        FoCacheMetrics().folded_reports->Add(current_reports);
        return h;
      });
}

void GrrAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                          const WeightVector& w,
                                          std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  if (values.empty()) return;
  const double q = protocol_.q();
  const double pq_diff = protocol_.p() - q;
  // One histogram fetch amortized across the batch; each value reads only
  // its own histogram entry, so its bits do not depend on the batch.
  const auto h = GetOrBuildHistogram(w);
  FoEstimateMetrics().report_values->Add(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto it = h->by_value.find(static_cast<uint32_t>(values[i]));
    const double theta_w = it == h->by_value.end() ? 0.0 : it->second;
    out[i] = (theta_w - h->group_weight * q) / pq_diff;
  }
}

double GrrAccumulator::GroupWeight(const WeightVector& w) const {
  return GetOrBuildHistogram(w)->group_weight;
}

}  // namespace ldp
