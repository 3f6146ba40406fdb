#include "fo/oue.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "fo/simd/simd.h"

namespace ldp {

OueProtocol::OueProtocol(double epsilon, uint64_t domain_size)
    : epsilon_(epsilon), domain_size_(domain_size) {
  LDP_CHECK_GT(epsilon, 0.0);
  q_ = 1.0 / (std::exp(epsilon) + 1.0);
}

FoReport OueProtocol::Encode(uint64_t value, Rng& rng) const {
  LDP_DCHECK(value < domain_size_);
  FoReport report;
  report.bits.assign((domain_size_ + 63) / 64, 0);
  for (uint64_t v = 0; v < domain_size_; ++v) {
    const bool is_true_bit = (v == value);
    const bool bit = is_true_bit ? rng.Bernoulli(0.5) : rng.Bernoulli(q_);
    if (bit) report.bits[v / 64] |= (1ull << (v % 64));
  }
  return report;
}

Status OueProtocol::ValidateReport(const FoReport& report) const {
  if (report.bits.size() != ReportSizeWords()) {
    return Status::OutOfRange("OUE report has the wrong number of bit words");
  }
  return Status::OK();
}

std::unique_ptr<FoAccumulator> OueProtocol::MakeAccumulator() const {
  return std::make_unique<OueAccumulator>(*this);
}

OueAccumulator::OueAccumulator(const OueProtocol& protocol)
    : protocol_(protocol),
      words_per_report_((protocol.domain_size() + 63) / 64) {}

void OueAccumulator::Add(const FoReport& report, uint64_t user) {
  LDP_DCHECK(report.bits.size() == words_per_report_);
  bits_.insert(bits_.end(), report.bits.begin(), report.bits.end());
  users_.push_back(user);
}

std::unique_ptr<FoAccumulator> OueAccumulator::NewShard() const {
  return std::make_unique<OueAccumulator>(protocol_);
}

Status OueAccumulator::Merge(FoAccumulator&& other) {
  auto* shard = dynamic_cast<OueAccumulator*>(&other);
  if (shard == nullptr) {
    return Status::InvalidArgument("cannot merge a non-OUE shard");
  }
  bits_.insert(bits_.end(), shard->bits_.begin(), shard->bits_.end());
  users_.insert(users_.end(), shard->users_.begin(), shard->users_.end());
  shard->bits_.clear();
  shard->users_.clear();
  return Status::OK();
}

void OueAccumulator::EstimateManyWeighted(std::span<const uint64_t> values,
                                          const WeightVector& w,
                                          std::span<double> out) const {
  LDP_CHECK_EQ(values.size(), out.size());
  if (values.empty()) return;
  // One pass over the bit vectors for the whole value tile. Per value the
  // theta sum runs in report order, so results are bit-identical no matter
  // how the caller batches values.
  constexpr size_t kTile = 512;
  double theta[kTile];
  const size_t n = users_.size();
  double group_weight = 0.0;
  for (size_t i = 0; i < n; ++i) group_weight += w[users_[i]];
  const double q = protocol_.q();
  const double pq_diff = protocol_.p() - q;
  const FoKernels& kernels = ActiveKernels();
  FoEstimateMetrics().report_values->Add(n * values.size());
  for (size_t v0 = 0; v0 < values.size(); v0 += kTile) {
    const size_t tile = std::min(kTile, values.size() - v0);
    std::fill(theta, theta + tile, 0.0);
    kernels.oue_raw(bits_.data(), words_per_report_, users_.data(), n,
                    w.values().data(), values.data() + v0, tile, theta);
    for (size_t vi = 0; vi < tile; ++vi) {
      out[v0 + vi] = (theta[vi] - group_weight * q) / pq_diff;
    }
  }
}

double OueAccumulator::GroupWeight(const WeightVector& w) const {
  double total = 0.0;
  for (const uint64_t user : users_) total += w[user];
  return total;
}

}  // namespace ldp
