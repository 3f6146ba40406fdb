#ifndef LDPMDA_FO_HADAMARD_H_
#define LDPMDA_FO_HADAMARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "fo/frequency_oracle.h"
#include "fo/weight_set_cache.h"

namespace ldp {

/// Hadamard response (HR) — the transform-based frequency oracle of
/// Acharya et al. [1] / Bassily et al. [4], cited by the paper as an
/// alternative building block to OLH.
///
/// The domain is padded to D = 2^k. Client: draw a row index j uniformly
/// from [0, D), compute the Walsh-Hadamard entry x = H[j][v] = ±1 (the
/// parity of j & v), and report (j, y) where y = x with probability
/// p = e^eps / (e^eps + 1), else -x.
///
/// Server: by Walsh-Hadamard orthogonality E[y * H[j][v]] = (2p-1) δ_{v,v_t},
/// so  f̄(v) = sum_t w_t y_t H[j_t][v] / (2p - 1)  is unbiased with variance
/// ~ n (e^eps+1)^2/(e^eps-1)^2 — within a small constant of OLH. Reports are
/// a single (index, sign) pair; no hashing needed.
class HadamardProtocol : public FrequencyOracle {
 public:
  HadamardProtocol(double epsilon, uint64_t domain_size);

  FoReport Encode(uint64_t value, Rng& rng) const override;
  Status ValidateReport(const FoReport& report) const override;
  std::unique_ptr<FoAccumulator> MakeAccumulator() const override;

  FoKind kind() const override { return FoKind::kHr; }
  double epsilon() const override { return epsilon_; }
  uint64_t domain_size() const override { return domain_size_; }
  uint64_t ReportSizeWords() const override { return 1; }

  /// Padded transform size D = 2^k >= domain_size.
  uint64_t transform_size() const { return transform_size_; }
  /// Keep probability p = e^eps / (e^eps + 1).
  double p() const { return p_; }
  /// Unbiasing factor 1 / (2p - 1) = (e^eps + 1) / (e^eps - 1).
  double scale() const { return scale_; }

  /// Walsh-Hadamard entry H[j][v] in {+1, -1}: parity of popcount(j & v).
  static int Entry(uint64_t j, uint64_t v) {
    return (__builtin_popcountll(j & v) & 1) ? -1 : 1;
  }

 private:
  double epsilon_;
  uint64_t domain_size_;
  uint64_t transform_size_;
  double p_;
  double scale_;
};

/// Server state for HR: signed weight sums per row index j (the observed,
/// still-perturbed Walsh spectrum), cached per weight vector.
class HadamardAccumulator : public FoAccumulator {
 public:
  explicit HadamardAccumulator(const HadamardProtocol& protocol);

  void Add(const FoReport& report, uint64_t user) override;
  uint64_t num_reports() const override { return indices_.size(); }
  std::unique_ptr<FoAccumulator> NewShard() const override;
  Status Merge(FoAccumulator&& other) override;
  void EstimateManyWeighted(std::span<const uint64_t> values,
                            const WeightVector& w,
                            std::span<double> out) const override;
  double GroupWeight(const WeightVector& w) const override;

  /// Exposed for white-box tests: whether a spectrum for this weight set is
  /// currently cached (stale or not).
  bool HasCachedWeightSet(uint64_t weight_id) const;

 private:
  struct Spectrum {
    /// Parallel arrays: sums[e] = sum of w_t * y_t over reports with row
    /// index indices[e]. Flattened from the build-time hash map in its
    /// iteration order, which freezes the entry order estimates accumulate
    /// in — every estimate (scalar or SIMD, any batching) walks the same
    /// sequence, keeping results bit-identical.
    std::vector<uint64_t> indices;
    std::vector<double> sums;
    double group_weight = 0.0;
    /// Report count at build time; a mismatch marks the entry stale.
    uint64_t built_reports = 0;
  };
  std::shared_ptr<const Spectrum> GetOrBuildSpectrum(
      const WeightVector& w) const;

  const HadamardProtocol& protocol_;
  std::vector<uint64_t> indices_;
  std::vector<int8_t> signs_;
  std::vector<uint64_t> users_;
  mutable WeightSetCache<Spectrum> cache_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_HADAMARD_H_
