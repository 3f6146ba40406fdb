#ifndef LDPMDA_MECH_HI_H_
#define LDPMDA_MECH_HI_H_

#include <memory>
#include <vector>

#include "mech/store_mechanism.h"

namespace ldp {

/// The d-dim Hierarchical-Interval mechanism (A_HI, P̄_HI) — Algorithm 4
/// (Sections 4.1 and 5.1.2).
///
/// Client: the privacy budget eps is split evenly over all
/// Π_i (h_i + 1) d-dim levels; the user encodes the d-dim interval
/// (augmented dimension) they belong to on *every* level with an
/// eps/Π(h_i+1) frequency-oracle report.
///
/// Server: an MDA box decomposes into at most Π_i 2(b-1)log_b(m_i)
/// sub-queries (eq. 20); each is answered by the weighted frequency
/// estimator of its level and the estimates are summed (eq. 21).
class HiMechanism : public StoreMechanism {
 public:
  static Result<std::unique_ptr<HiMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kHi; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;

  const LevelGrid& grid() const { return *grid_; }
  /// Per-report privacy budget eps / Π_i (h_i + 1).
  double per_level_epsilon() const { return per_level_epsilon_; }

 protected:
  Result<double> EstimateValidBox(std::span<const Interval> ranges,
                                  const WeightVector& weights) const override;
  Result<double> VarianceBoundOfValidBox(
      std::span<const Interval> ranges,
      const WeightVector& weights) const override;

 private:
  HiMechanism(const Schema& schema, const MechanismParams& params);

  Status Init();

  std::unique_ptr<LevelGrid> grid_;
  /// levels_of_tuple_[flat] = the d per-dimension levels of tuple `flat`.
  std::vector<std::vector<int>> levels_of_tuple_;
  double per_level_epsilon_ = 0.0;
  int num_dims_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_HI_H_
