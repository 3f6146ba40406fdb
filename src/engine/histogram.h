#ifndef LDPMDA_ENGINE_HISTOGRAM_H_
#define LDPMDA_ENGINE_HISTOGRAM_H_

#include <vector>

#include "common/status.h"
#include "mech/hio.h"

namespace ldp {

/// Options for private histogram estimation over one sensitive dimension.
struct HistogramOptions {
  /// For a single ordinal dimension: run Hay-style constrained inference
  /// over the HIO tree before reading the leaves (see mech/consistency.h).
  bool consistent = false;
  /// Post-process with norm-sub so every bin is non-negative and the bins
  /// sum to the (public) total weight.
  bool non_negative = true;
};

/// Estimates the per-value weighted histogram of the `dim_position`-th
/// sensitive dimension from HIO reports: bin v holds an estimate of the
/// total weight of users with t[D] = v. This is the classic LDP
/// "frequency/histogram estimation" task expressed through the paper's
/// machinery — the leaf level of dimension D with every other dimension at
/// its root ('*') level. InvalidArgument when `weights` has no entry for a
/// reporting user (the mechanism's ValidateWeights).
Result<std::vector<double>> EstimateHistogram(
    const HioMechanism& hio, int dim_position, const WeightVector& weights,
    const HistogramOptions& options = {});

/// Norm-sub post-processing: adjusts `values` so they are non-negative and
/// sum to `target_total`, moving as little mass as possible — the standard
/// consistency step for LDP frequency estimates. Finds delta such that
/// sum_i max(v_i - delta, 0) = target (bisection); degenerate inputs fall
/// back to proportional scaling / a uniform histogram.
void NormSubInPlace(std::vector<double>* values, double target_total);

}  // namespace ldp

#endif  // LDPMDA_ENGINE_HISTOGRAM_H_
