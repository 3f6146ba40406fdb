#include "mech/mg.h"

#include <cmath>

#include "common/logging.h"
#include "exec/execution_context.h"

namespace ldp {

namespace {
/// Refuse to sum more cells than this per query (eq. 10 scans the box).
constexpr uint64_t kMaxBoxCells = 1ull << 25;
}  // namespace

MgMechanism::MgMechanism(const Schema& schema, const MechanismParams& params)
    : StoreMechanism(schema, params, ReportShape::kOneEntry) {
  for (const int attr : schema.sensitive_dims()) {
    domains_.push_back(schema.attribute(attr).domain_size);
    total_cells_ *= schema.attribute(attr).domain_size;
  }
}

Result<std::unique_ptr<MgMechanism>> MgMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
  uint64_t cells = 1;
  for (const int attr : schema.sensitive_dims()) {
    const uint64_t m = schema.attribute(attr).domain_size;
    if (cells > (1ull << 50) / m) {
      return Status::ResourceExhausted("MG cross-product domain too large");
    }
    cells *= m;
  }
  std::unique_ptr<MgMechanism> mech(new MgMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->AddGroup(params.epsilon, cells));
  return mech;
}

LdpReport MgMechanism::EncodeUser(std::span<const uint32_t> values,
                                  Rng& rng) const {
  LDP_CHECK_EQ(values.size(), domains_.size());
  uint64_t cell = 0;
  for (size_t i = 0; i < domains_.size(); ++i) {
    LDP_DCHECK(values[i] < domains_[i]);
    cell = cell * domains_[i] + values[i];
  }
  LdpReport report;
  report.entries.push_back({0, store_.Encode(0, cell, rng)});
  return report;
}

Result<double> MgMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  double box_cells = 1.0;
  for (const Interval& range : ranges) {
    box_cells *= static_cast<double>(range.length());
  }
  // Eq. (11): covered cells x the Prop. 4 noise term, plus <= M2 of data
  // terms.
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  return box_cells * 4.0 * m2 * e / ((e - 1.0) * (e - 1.0)) + m2;
}

Result<double> MgMechanism::EstimateValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  uint64_t box_cells = 1;
  for (const Interval& range : ranges) {
    box_cells *= range.length();
    if (box_cells > kMaxBoxCells) {
      return Status::ResourceExhausted("MG box covers too many cells");
    }
  }
  // Chunk-parallel sum of per-cell weighted estimates over the box (eq. 10),
  // streamed so huge boxes never materialize a full cell list: each fixed
  // chunk decodes its cells (last dimension fastest, matching the serial
  // odometer), estimates them in one EstimateNodesBatched call (which probes
  // and fills the node-estimate cache when there is one), and sums the
  // per-cell estimates in rank order — the same floating-point grouping as
  // the per-cell serial loop, so the sum is bit-identical for every thread
  // count and cache state.
  EstimateCache* const cache = estimate_cache();
  const double total = exec().ParallelSumChunks(
      box_cells, kExecSumChunk, [&](uint64_t begin, uint64_t end) {
        const size_t len = end - begin;
        std::vector<NodeRef> nodes(len);
        for (uint64_t rank = begin; rank < end; ++rank) {
          uint64_t rem = rank;
          uint64_t cell = 0;
          uint64_t stride = 1;
          for (size_t i = domains_.size(); i-- > 0;) {
            const uint64_t dim_len = ranges[i].length();
            cell += (ranges[i].lo + rem % dim_len) * stride;
            stride *= domains_[i];
            rem /= dim_len;
          }
          nodes[rank - begin] = {0, cell};
        }
        std::vector<double> estimates(len, 0.0);
        // Already inside a parallel chunk: run the batch serially.
        EstimateNodesBatched(store_, nodes, weights, num_reports(), cache,
                             SerialExecutionContext(), estimates);
        double sub = 0.0;
        for (const double e : estimates) sub += e;
        return sub;
      });
  return total;
}

}  // namespace ldp
