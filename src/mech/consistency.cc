#include "mech/consistency.h"

#include <cmath>

#include "common/logging.h"

namespace ldp {

Result<ConsistentHio> ConsistentHio::Build(const HioMechanism& hio,
                                           const WeightVector& weights) {
  const LevelGrid& grid = hio.grid();
  if (grid.num_dims() != 1) {
    return Status::InvalidArgument(
        "consistency post-processing is implemented for one dimension");
  }
  const DimHierarchy& hier = grid.dim(0);
  const int h = hier.height();
  const auto* ordinal = dynamic_cast<const OrdinalHierarchy*>(&hier);
  if (ordinal == nullptr) {
    return Status::InvalidArgument(
        "consistency post-processing needs an ordinal hierarchy");
  }
  const double b = static_cast<double>(ordinal->fanout());

  ConsistentHio out(hio);
  // Raw per-node estimates y (for d = 1 the flat level-tuple id equals the
  // level index).
  std::vector<std::vector<double>> y(h + 1);
  for (int j = 0; j <= h; ++j) {
    const uint64_t cells = hier.NumIntervals(j);
    y[j].resize(cells);
    std::vector<uint64_t> cell_ids(cells);
    for (uint64_t c = 0; c < cells; ++c) cell_ids[c] = c;
    // One batched kernel pass per level instead of one report scan per cell.
    LDP_RETURN_NOT_OK(
        hio.EstimateCells(static_cast<uint64_t>(j), cell_ids, weights, y[j]));
  }

  // Bottom-up pass: z_v combines y_v with the children's z sums. For a node
  // whose subtree has height ell (leaves: ell = 0 -> z = y):
  //   z_v = (b^{ell+1} - b^ell)/(b^{ell+1} - 1) * y_v
  //       + (b^ell - 1)/(b^{ell+1} - 1) * sum(children z).
  std::vector<std::vector<double>> z(h + 1);
  z[h] = y[h];
  for (int j = h - 1; j >= 0; --j) {
    const int ell = h - j - 1;  // children's subtree height
    const double bl = std::pow(b, ell);
    const double blp = bl * b;
    const double alpha = (blp - bl) / (blp - 1.0);
    const double beta = (bl - 1.0) / (blp - 1.0);
    const uint64_t cells = hier.NumIntervals(j);
    z[j].resize(cells);
    const uint64_t child_count = hier.NumIntervals(j + 1) / cells;
    for (uint64_t c = 0; c < cells; ++c) {
      double child_sum = 0.0;
      for (uint64_t k = 0; k < child_count; ++k) {
        child_sum += z[j + 1][c * child_count + k];
      }
      z[j][c] = alpha * y[j][c] + beta * child_sum;
    }
  }

  // Top-down pass: distribute each node's residual equally to its children.
  out.values_.assign(h + 1, {});
  out.values_[0] = z[0];
  for (int j = 1; j <= h; ++j) {
    const uint64_t cells = hier.NumIntervals(j);
    const uint64_t parents = hier.NumIntervals(j - 1);
    const uint64_t child_count = cells / parents;
    out.values_[j].resize(cells);
    for (uint64_t p = 0; p < parents; ++p) {
      double child_z_sum = 0.0;
      for (uint64_t k = 0; k < child_count; ++k) {
        child_z_sum += z[j][p * child_count + k];
      }
      const double residual =
          (out.values_[j - 1][p] - child_z_sum) / static_cast<double>(child_count);
      for (uint64_t k = 0; k < child_count; ++k) {
        out.values_[j][p * child_count + k] = z[j][p * child_count + k] + residual;
      }
    }
  }
  return out;
}

Result<double> ConsistentHio::EstimateRange(Interval range) const {
  const DimHierarchy& hier = hio_.grid().dim(0);
  std::vector<LevelInterval> pieces;
  LDP_RETURN_NOT_OK(hier.Decompose(range, &pieces));
  double total = 0.0;
  for (const auto& piece : pieces) total += values_[piece.level][piece.index];
  return total;
}

}  // namespace ldp
