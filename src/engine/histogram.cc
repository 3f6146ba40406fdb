#include "engine/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "mech/consistency.h"

namespace ldp {

Result<std::vector<double>> EstimateHistogram(const HioMechanism& hio,
                                              int dim_position,
                                              const WeightVector& weights,
                                              const HistogramOptions& options) {
  const LevelGrid& grid = hio.grid();
  if (dim_position < 0 || dim_position >= grid.num_dims()) {
    return Status::InvalidArgument("bad dimension position");
  }
  const DimHierarchy& dim = grid.dim(dim_position);
  const uint64_t m = dim.domain_size();
  std::vector<double> hist(m, 0.0);

  if (options.consistent) {
    if (grid.num_dims() != 1) {
      return Status::InvalidArgument(
          "consistent histograms need a single (ordinal) dimension");
    }
    LDP_ASSIGN_OR_RETURN(const ConsistentHio consistent,
                         ConsistentHio::Build(hio, weights));
    for (uint64_t v = 0; v < m; ++v) {
      hist[v] = consistent.NodeValue(dim.height(), v);
    }
  } else {
    // Level tuple: the leaf level of this dimension, the root everywhere
    // else; the cell index then equals the dimension's interval index.
    std::vector<int> levels(grid.num_dims(), 0);
    levels[dim_position] = dim.height();
    const uint64_t flat = grid.FlatOf(levels);
    std::vector<uint64_t> cells(m);
    for (uint64_t v = 0; v < m; ++v) {
      cells[v] = dim.IntervalIndexOf(v, dim.height());
    }
    // One batched kernel pass over the whole leaf level.
    LDP_RETURN_NOT_OK(hio.EstimateCells(flat, cells, weights, hist));
  }
  if (options.non_negative) {
    // The bins' true total is the public total weight.
    NormSubInPlace(&hist, weights.total());
  }
  return hist;
}

void NormSubInPlace(std::vector<double>* values, double target_total) {
  LDP_CHECK(values != nullptr);
  if (values->empty()) return;
  const double n = static_cast<double>(values->size());
  if (target_total <= 0.0) {
    std::fill(values->begin(), values->end(),
              std::max(target_total, 0.0) / n);
    return;
  }
  double positive_sum = 0.0;
  double max_v = 0.0;
  for (const double v : *values) {
    if (v > 0.0) {
      positive_sum += v;
      max_v = std::max(max_v, v);
    }
  }
  if (positive_sum <= 0.0) {
    std::fill(values->begin(), values->end(), target_total / n);
    return;
  }
  if (positive_sum <= target_total) {
    // Not enough positive mass to subtract from: scale it up instead.
    const double scale = target_total / positive_sum;
    for (double& v : *values) v = v > 0.0 ? v * scale : 0.0;
    return;
  }
  // Bisection on delta: sum_i max(v_i - delta, 0) is continuous and strictly
  // decreasing from positive_sum (delta = 0) to 0 (delta = max_v).
  double lo = 0.0;
  double hi = max_v;
  for (int iter = 0; iter < 64; ++iter) {
    const double delta = (lo + hi) / 2.0;
    double sum = 0.0;
    for (const double v : *values) sum += std::max(v - delta, 0.0);
    if (sum > target_total) {
      lo = delta;
    } else {
      hi = delta;
    }
  }
  const double delta = (lo + hi) / 2.0;
  for (double& v : *values) v = std::max(v - delta, 0.0);
}

}  // namespace ldp
