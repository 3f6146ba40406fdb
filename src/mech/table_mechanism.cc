#include "mech/table_mechanism.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ldp {

namespace {

bool Contains(std::span<const int> dims, int dim) {
  return std::ranges::find(dims, dim) != dims.end();
}

}  // namespace

TableMechanism::Table TableMechanism::MakeTable(std::vector<int> dims,
                                                uint64_t granularity) const {
  Table table;
  for (const int pos : dims) {
    const uint64_t domain =
        schema_.attribute(schema_.sensitive_dims()[pos]).domain_size;
    const uint64_t g =
        std::min<uint64_t>(granularity, std::max<uint64_t>(domain, 1));
    table.width.push_back((domain + g - 1) / g);
    table.cells.push_back((domain + table.width.back() - 1) /
                          table.width.back());
    table.num_cells *= table.cells.back();
  }
  table.dims = std::move(dims);
  return table;
}

Status TableMechanism::SetTables(std::vector<Table> tables,
                                 std::vector<int> unconstrained_tables) {
  for (const Table& table : tables) {
    LDP_RETURN_NOT_OK(AddGroup(params_.epsilon, table.num_cells));
    order_ = std::max(order_, static_cast<int>(table.dims.size()));
  }
  tables_ = std::move(tables);
  unconstrained_tables_ = std::move(unconstrained_tables);
  return Status::OK();
}

LdpReport TableMechanism::EncodeUser(std::span<const uint32_t> values,
                                     Rng& rng) const {
  LDP_CHECK_EQ(values.size(), schema_.sensitive_dims().size());
  const uint32_t t = static_cast<uint32_t>(rng.UniformInt(tables_.size()));
  const Table& table = tables_[t];
  uint64_t cell = 0;
  for (size_t k = 0; k < table.dims.size(); ++k) {
    cell = cell * table.cells[k] + values[table.dims[k]] / table.width[k];
  }
  LdpReport report;
  report.entries.push_back({t, store_.Encode(static_cast<int>(t), cell, rng)});
  return report;
}

std::vector<int> TableMechanism::ConstrainedDims(
    std::span<const Interval> ranges) const {
  const auto& dims = schema_.sensitive_dims();
  std::vector<int> constrained;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (ranges[i].lo != 0 ||
        ranges[i].hi != schema_.attribute(dims[i]).domain_size - 1) {
      constrained.push_back(static_cast<int>(i));
    }
  }
  return constrained;
}

std::vector<int> TableMechanism::CoveringTables(
    std::span<const int> dims) const {
  std::vector<int> covering;
  for (int t = 0; t < num_tables(); ++t) {
    if (std::ranges::all_of(
            dims, [&](int dim) { return Contains(tables_[t].dims, dim); })) {
      covering.push_back(t);
    }
  }
  return covering;
}

void TableMechanism::TouchedCells(int t, std::span<const Interval> ranges,
                                  std::vector<uint64_t>* cells,
                                  std::vector<double>* fractions) const {
  const Table& table = tables_[t];
  const size_t arity = table.dims.size();
  // Per dim: the first overlapped cell and each overlapped cell's
  // uniform-within-cell covered fraction.
  std::vector<uint64_t> first(arity);
  std::vector<std::vector<double>> dim_fracs(arity);
  for (size_t k = 0; k < arity; ++k) {
    const Interval& r = ranges[table.dims[k]];
    const uint64_t domain =
        schema_.attribute(schema_.sensitive_dims()[table.dims[k]])
            .domain_size;
    const uint64_t width = table.width[k];
    first[k] = r.lo / width;
    for (uint64_t c = first[k]; c <= r.hi / width; ++c) {
      const uint64_t cell_lo = c * width;
      const uint64_t cell_hi = std::min(cell_lo + width - 1, domain - 1);
      const uint64_t ov_lo = std::max<uint64_t>(r.lo, cell_lo);
      const uint64_t ov_hi = std::min<uint64_t>(r.hi, cell_hi);
      dim_fracs[k].push_back(static_cast<double>(ov_hi - ov_lo + 1) /
                             static_cast<double>(cell_hi - cell_lo + 1));
    }
  }
  // Row-major odometer over the overlapped cells (last dim fastest).
  std::vector<size_t> pick(arity, 0);
  while (true) {
    uint64_t cell = 0;
    double fraction = 1.0;
    for (size_t k = 0; k < arity; ++k) {
      cell = cell * table.cells[k] + first[k] + pick[k];
      fraction *= dim_fracs[k][pick[k]];
    }
    cells->push_back(cell);
    fractions->push_back(fraction);
    size_t k = arity;
    while (k > 0 && ++pick[k - 1] == dim_fracs[k - 1].size()) {
      pick[--k] = 0;
    }
    if (k == 0) return;
  }
}

double TableMechanism::Combine(std::span<const int> table_ids,
                               std::span<const Interval> ranges,
                               const WeightVector& weights) const {
  // Batch every table's touched cells into one fan-out; the cache stores
  // the raw per-cell estimates, so entries are shared across queries.
  // Fractions, the Horvitz-Thompson scale m and the response-count
  // combination are applied per call in fixed table order — bit-identical
  // for any thread count and cache state.
  std::vector<uint64_t> cells;
  std::vector<double> fractions;
  std::vector<NodeRef> nodes;
  std::vector<size_t> table_begin;
  for (const int t : table_ids) {
    table_begin.push_back(cells.size());
    TouchedCells(t, ranges, &cells, &fractions);
    for (size_t i = table_begin.back(); i < cells.size(); ++i) {
      nodes.push_back({static_cast<uint64_t>(t), cells[i]});
    }
  }
  table_begin.push_back(cells.size());
  std::vector<double> estimates(nodes.size(), 0.0);
  EstimateNodes(nodes, weights, estimates);
  const double scale = static_cast<double>(tables_.size());
  uint64_t total_responses = 0;
  for (const int t : table_ids) {
    total_responses += store_.accumulator(t).num_reports();
  }
  if (total_responses == 0) return 0.0;
  double combined = 0.0;
  for (size_t k = 0; k < table_ids.size(); ++k) {
    double table_estimate = 0.0;
    for (size_t i = table_begin[k]; i < table_begin[k + 1]; ++i) {
      table_estimate += fractions[i] * estimates[i];
    }
    const double alpha =
        static_cast<double>(store_.accumulator(table_ids[k]).num_reports()) /
        static_cast<double>(total_responses);
    combined += alpha * scale * table_estimate;
  }
  return combined;
}

Result<double> TableMechanism::EstimateValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  const std::vector<int> constrained = ConstrainedDims(ranges);
  if (constrained.empty()) {
    return Combine(unconstrained_tables_, ranges, weights);
  }
  const std::vector<int> covering = CoveringTables(constrained);
  if (!covering.empty()) return Combine(covering, ranges, weights);

  // No table covers the constrained set: greedily cover it and combine the
  // per-factor selectivities multiplicatively, each factor estimated with
  // the full range on every other dimension.
  const double total = weights.total();
  if (total <= 0.0) return 0.0;
  const auto& dims = schema_.sensitive_dims();
  std::vector<Interval> full(ranges.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    full[i] = {0, schema_.attribute(dims[i]).domain_size - 1};
  }
  std::vector<int> uncovered = constrained;
  double product = total;
  while (!uncovered.empty()) {
    std::vector<int> factor_dims;
    for (const Table& table : tables_) {
      std::vector<int> overlap;
      for (const int dim : uncovered) {
        if (Contains(table.dims, dim)) overlap.push_back(dim);
      }
      if (overlap.size() > factor_dims.size()) factor_dims = std::move(overlap);
    }
    LDP_CHECK(!factor_dims.empty());  // every dim lies in some table
    std::vector<Interval> factor_ranges = full;
    for (const int dim : factor_dims) factor_ranges[dim] = ranges[dim];
    const double factor =
        Combine(CoveringTables(factor_dims), factor_ranges, weights);
    product *= std::clamp(factor / total, 0.0, 1.0);
    std::erase_if(uncovered,
                  [&](int dim) { return Contains(factor_dims, dim); });
  }
  return product;
}

Result<double> TableMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  const double m = static_cast<double>(tables_.size());
  const double fo_noise = 4.0 * e / ((e - 1.0) * (e - 1.0));
  const int constrained = static_cast<int>(ConstrainedDims(ranges).size());
  const int factors =
      constrained <= order_ ? 1 : (constrained + order_ - 1) / order_;
  double worst_cells = 1.0;
  for (int t = 0; t < num_tables(); ++t) {
    std::vector<uint64_t> cells;
    std::vector<double> fractions;
    TouchedCells(t, ranges, &cells, &fractions);
    worst_cells = std::max(worst_cells, static_cast<double>(cells.size()));
  }
  return static_cast<double>(factors) *
         (worst_cells * m * fo_noise * m2 + (2.0 * m - 1.0) * m2);
}

}  // namespace ldp
