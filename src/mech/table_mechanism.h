#ifndef LDPMDA_MECH_TABLE_MECHANISM_H_
#define LDPMDA_MECH_TABLE_MECHANISM_H_

#include <span>
#include <vector>

#include "mech/store_mechanism.h"

namespace ldp {

/// The estimator HDG and CALM share: a set of cohort tables over the
/// sensitive dimensions, one frequency-oracle group each, with the users
/// partitioned across them.
///
/// A table covers 1 or more sensitive dimensions at some granularity (cells
/// of `width` consecutive values per dimension, the last one possibly
/// narrower). HDG's tables are every 1-D grid and every 2-D grid at coarse
/// granularities; CALM's are every size-k marginal at full resolution (one
/// value per cell). The subclasses only lay the tables out.
///
/// Client: pick one of the m tables uniformly at random and report the
/// user's cell on it, spending the whole budget (cohort inclusion
/// probability 1/m).
///
/// Server: a box query constraining dimension set S is answered by a
/// response-count weighted combination over every table whose dimensions
/// cover S, each table's cohort estimate scaled by m (Horvitz-Thompson).
/// Cells partially overlapped by the query contribute their estimate times
/// the overlap fraction (uniformity within a cell; exactly 1.0 for
/// full-resolution tables). An unconstrained query combines the tables the
/// layout names for it. When no table covers S, a greedy cover (the table
/// overlapping the most uncovered dimensions, ties to the lowest id) splits
/// S into factors whose selectivities combine multiplicatively.
class TableMechanism : public StoreMechanism {
 public:
  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const final;

 protected:
  Result<double> EstimateValidBox(std::span<const Interval> ranges,
                                  const WeightVector& weights) const final;
  /// Conservative proxy shaped like the HIO bound: the table with the most
  /// touched cells, each estimated from a 1/m cohort at full budget, plus
  /// the cohort-sampling term; product-estimator queries sum the per-factor
  /// bounds (an overestimate of the propagated relative error).
  Result<double> VarianceBoundOfValidBox(
      std::span<const Interval> ranges,
      const WeightVector& weights) const final;

  /// One table: its sensitive-dim positions (ascending) and cell layout.
  struct Table {
    std::vector<int> dims;        // positions into Schema::sensitive_dims()
    std::vector<uint64_t> width;  // values per cell, per dim
    std::vector<uint64_t> cells;  // number of cells, per dim
    uint64_t num_cells = 1;       // product of cells[], flattened row-major
  };

  TableMechanism(const Schema& schema, const MechanismParams& params)
      : StoreMechanism(schema, params, ReportShape::kOneEntry) {}

  /// The table over sensitive-dim positions `dims` with `granularity` cells
  /// per dimension, clamped to [1, domain]: width = ceil(domain / g'),
  /// g' = min(granularity, domain).
  Table MakeTable(std::vector<int> dims, uint64_t granularity) const;

  /// Installs the layout: one full-budget oracle group per table, in order,
  /// and the tables an unconstrained query combines.
  Status SetTables(std::vector<Table> tables,
                   std::vector<int> unconstrained_tables);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  /// Largest table arity: queries constraining more dims need a cover.
  int order() const { return order_; }

 private:
  /// Positions of the sensitive dims `ranges` constrains (ascending).
  std::vector<int> ConstrainedDims(std::span<const Interval> ranges) const;
  /// Ids of the tables whose dimensions include every dim of `dims`.
  std::vector<int> CoveringTables(std::span<const int> dims) const;
  /// Cells of table `t` overlapping `ranges` (row-major), with the covered
  /// fraction of each under the within-cell uniformity assumption.
  void TouchedCells(int t, std::span<const Interval> ranges,
                    std::vector<uint64_t>* cells,
                    std::vector<double>* fractions) const;
  /// Response-count weighted combination over `table_ids` of the
  /// Horvitz-Thompson-scaled box estimates.
  double Combine(std::span<const int> table_ids,
                 std::span<const Interval> ranges,
                 const WeightVector& weights) const;

  std::vector<Table> tables_;
  std::vector<int> unconstrained_tables_;
  int order_ = 1;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_TABLE_MECHANISM_H_
