#include "mech/hi.h"

#include <cmath>

#include "common/logging.h"

namespace ldp {

HiMechanism::HiMechanism(const Schema& schema, const MechanismParams& params)
    : StoreMechanism(schema, params, ReportShape::kEntryPerGroup) {
  grid_ = std::make_unique<LevelGrid>(BuildHierarchies(schema, params.fanout));
  num_dims_ = grid_->num_dims();
}

Status HiMechanism::Init() {
  const uint64_t tuples = grid_->num_level_tuples();
  if (tuples > (1ull << 20)) {
    return Status::ResourceExhausted(
        "HI needs one report per d-dim level; " + std::to_string(tuples) +
        " levels is infeasible — use HIO or SC");
  }
  per_level_epsilon_ = params_.epsilon / static_cast<double>(tuples);
  levels_of_tuple_.resize(tuples);
  for (uint64_t flat = 0; flat < tuples; ++flat) {
    grid_->LevelsOf(flat, &levels_of_tuple_[flat]);
    LDP_RETURN_NOT_OK(AddGroup(per_level_epsilon_,
                               grid_->NumCells(levels_of_tuple_[flat])));
  }
  return Status::OK();
}

Result<std::unique_ptr<HiMechanism>> HiMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
  std::unique_ptr<HiMechanism> mech(new HiMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport HiMechanism::EncodeUser(std::span<const uint32_t> values,
                                  Rng& rng) const {
  LDP_CHECK_EQ(static_cast<int>(values.size()), num_dims_);
  LdpReport report;
  report.entries.reserve(levels_of_tuple_.size());
  for (uint32_t flat = 0; flat < levels_of_tuple_.size(); ++flat) {
    const uint64_t cell = grid_->CellOfValues(levels_of_tuple_[flat], values);
    report.entries.push_back({flat, store_.Encode(flat, cell, rng)});
  }
  return report;
}

Result<double> HiMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  std::vector<SubQuery> sub_queries;
  LDP_RETURN_NOT_OK(grid_->DecomposeBox(ranges, &sub_queries));
  // Prop. 4 at the per-level budget: each sub-query contributes the LDP
  // noise term; the data terms sum(M2(v)) over disjoint cells total <= M2.
  const double e = std::exp(per_level_epsilon_);
  const double m2 = weights.sum_squares();
  return static_cast<double>(sub_queries.size()) * 4.0 * m2 * e /
             ((e - 1.0) * (e - 1.0)) +
         m2;
}

Result<double> HiMechanism::EstimateValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  std::vector<SubQuery> sub_queries;
  LDP_RETURN_NOT_OK(grid_->DecomposeBox(ranges, &sub_queries));
  // Sub-queries of the same level batch into one kernel pass each (after a
  // cache probe); summing the per-sub-query estimates in index order
  // reproduces the serial loop's floating-point grouping exactly, for any
  // thread count and cache state.
  std::vector<NodeRef> nodes(sub_queries.size());
  for (size_t i = 0; i < sub_queries.size(); ++i) {
    nodes[i] = {sub_queries[i].level_flat, sub_queries[i].cell};
  }
  std::vector<double> estimates(nodes.size(), 0.0);
  EstimateNodes(nodes, weights, estimates);
  double total = 0.0;
  for (const double e : estimates) total += e;
  return total;
}

}  // namespace ldp

