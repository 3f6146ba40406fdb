#ifndef LDPMDA_MECH_CONSISTENCY_H_
#define LDPMDA_MECH_CONSISTENCY_H_

#include <vector>

#include "mech/hio.h"

namespace ldp {

/// Constrained-inference post-processing on the 1-dim HIO tree (extension;
/// Section 8 of the paper notes consistency enforcement as future work).
///
/// HIO's per-level estimates of the same mass are mutually inconsistent: a
/// parent interval's estimate need not equal the sum of its children's. Hay
/// et al.'s two-pass weighted averaging computes the least-squares consistent
/// tree (assuming equal per-node variance, which holds for HIO since every
/// level spends the full eps on an equal random share of users). Consistency
/// is pure post-processing, so eps-LDP is unaffected.
///
/// Build() materializes the full consistent tree for one weight vector;
/// EstimateRange() then answers any number of range queries from it.
class ConsistentHio {
 public:
  /// Requires: the mechanism has exactly one sensitive dimension and it is
  /// ordinal (its hierarchy has fan-out > 1), and `weights` has an entry
  /// for every reporting user (the mechanism's ValidateWeights).
  static Result<ConsistentHio> Build(const HioMechanism& hio,
                                     const WeightVector& weights);

  /// Consistent estimate of the weighted mass of `range` (summing the
  /// canonical decomposition's consistent node values).
  Result<double> EstimateRange(Interval range) const;

  /// Consistent node value at (level, index) — exposed for tests.
  double NodeValue(int level, uint64_t index) const {
    return values_[level][index];
  }

 private:
  explicit ConsistentHio(const HioMechanism& hio) : hio_(hio) {}

  const HioMechanism& hio_;
  /// values_[level][cell]: the consistent tree, level 0 = root.
  std::vector<std::vector<double>> values_;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_CONSISTENCY_H_
