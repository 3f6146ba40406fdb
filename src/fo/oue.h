#ifndef LDPMDA_FO_OUE_H_
#define LDPMDA_FO_OUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "fo/frequency_oracle.h"

namespace ldp {

/// Optimized unary encoding [Wang et al., USENIX Security'17].
///
/// Client: one-hot encode the value, then transmit the true bit unchanged
/// with probability 1/2 and flip each zero bit to one with probability
/// q = 1/(e^eps + 1). Reports are Theta(domain) bits, so OUE is only suitable
/// for small domains; included for ablations.
/// Server: f̄(v) = (theta_v - n q) / (1/2 - q).
class OueProtocol : public FrequencyOracle {
 public:
  OueProtocol(double epsilon, uint64_t domain_size);

  FoReport Encode(uint64_t value, Rng& rng) const override;
  Status ValidateReport(const FoReport& report) const override;
  std::unique_ptr<FoAccumulator> MakeAccumulator() const override;

  FoKind kind() const override { return FoKind::kOue; }
  double epsilon() const override { return epsilon_; }
  uint64_t domain_size() const override { return domain_size_; }
  uint64_t ReportSizeWords() const override { return (domain_size_ + 63) / 64; }

  double p() const { return 0.5; }
  double q() const { return q_; }

 private:
  double epsilon_;
  uint64_t domain_size_;
  double q_;
};

/// Server state for OUE: the report bit vectors packed row-major into one
/// contiguous word array (fixed words-per-report stride), so the estimate
/// kernel streams a single allocation instead of chasing one heap vector per
/// report.
class OueAccumulator : public FoAccumulator {
 public:
  explicit OueAccumulator(const OueProtocol& protocol);

  void Add(const FoReport& report, uint64_t user) override;
  uint64_t num_reports() const override { return users_.size(); }
  std::unique_ptr<FoAccumulator> NewShard() const override;
  Status Merge(FoAccumulator&& other) override;
  void EstimateManyWeighted(std::span<const uint64_t> values,
                            const WeightVector& w,
                            std::span<double> out) const override;
  double GroupWeight(const WeightVector& w) const override;

 private:
  const OueProtocol& protocol_;
  /// Report i's bit vector is bits_[i * words_per_report_, ...).
  size_t words_per_report_;
  std::vector<uint64_t> bits_;
  std::vector<uint64_t> users_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_OUE_H_
