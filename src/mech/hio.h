#ifndef LDPMDA_MECH_HIO_H_
#define LDPMDA_MECH_HIO_H_

#include <memory>
#include <vector>

#include "mech/store_mechanism.h"

namespace ldp {

/// The d-dim HI-Optimized mechanism (A_HIO, P̄_HIO) — Algorithm 2
/// (Sections 4.2 and 5.1.3).
///
/// Client: pick one of the Π_i (h_i + 1) d-dim levels uniformly at random and
/// encode only the d-dim interval on that level, spending the *whole* budget
/// eps on it.
///
/// Server: users reporting level L form a 1/Π(h_i+1) random sample; each
/// sub-query of the box decomposition is answered by the sampled weighted
/// estimator f̃ = Π(h_i+1) * f̄_{S_L} (eq. 24) and the estimates are summed.
/// Theorem 9 shows this beats HI by orders of magnitude.
///
/// Note: we implement the d-dimensional Algorithm 2 uniformly, so for d = 1
/// the client samples from levels {0, ..., h} (Algorithm 1 samples from
/// {1, ..., h}); the error bound of Theorem 9 with d = 1 applies.
class HioMechanism : public StoreMechanism {
 public:
  static Result<std::unique_ptr<HioMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kHio; }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;

  const LevelGrid& grid() const { return *grid_; }

  /// Sampled estimates (eq. 24) of the weighted frequencies of d-dim cells
  /// of one level: out[i] = Π(h_i+1) * f̄_{S_level}(cells[i]). One kernel
  /// pass (or histogram fetch) amortized across the whole set, with cache
  /// probes when the estimate cache is enabled; exposed for the consistency
  /// extension and histograms. InvalidArgument, with `out` untouched, when
  /// `weights` fails ValidateWeights. `out.size()` must equal `cells.size()`.
  Status EstimateCells(uint64_t level_flat, std::span<const uint64_t> cells,
                       const WeightVector& weights,
                       std::span<double> out) const;

 protected:
  Result<double> EstimateValidBox(std::span<const Interval> ranges,
                                  const WeightVector& weights) const override;
  Result<double> VarianceBoundOfValidBox(
      std::span<const Interval> ranges,
      const WeightVector& weights) const override;

 private:
  HioMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  std::unique_ptr<LevelGrid> grid_;
  std::vector<std::vector<int>> levels_of_tuple_;
  int num_dims_ = 0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_HIO_H_
