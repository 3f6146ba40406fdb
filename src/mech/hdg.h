#ifndef LDPMDA_MECH_HDG_H_
#define LDPMDA_MECH_HDG_H_

#include <memory>

#include "mech/table_mechanism.h"

namespace ldp {

/// Granularities the hybrid-dimensional-grid mechanism would pick for a
/// population of `population_hint` users (0 = the 50000 default) at budget
/// `epsilon` with `num_dims` sensitive dimensions. Exposed so the planner's
/// cost model and the mechanism agree on the layout without constructing one.
/// g1 is the 1-D grid granularity, g2 the per-dimension granularity of the
/// 2-D grids; both are >= 2 and are clamped to each dimension's domain at
/// construction time.
void HdgGranularities(double epsilon, uint64_t population_hint, int num_dims,
                      uint32_t* g1, uint32_t* g2);

/// The hybrid-dimensional-grid mechanism of Yang et al. ("Answering
/// Multi-Dimensional Range Queries under Local Differential Privacy",
/// PAPERS.md), adapted to this engine's report/estimation contract: a
/// TableMechanism laid out as one coarse 1-D grid per sensitive dimension,
/// then one 2-D grid per dimension pair in lexicographic order — m = d +
/// C(d,2) grids. Granularities balance noise error against the
/// uniformity-assumption error inside cells: with s = N (e^eps - 1)^2 /
/// (m e^eps), the 1-D grids use g1 = ceil(s^(1/3)) cells and the 2-D grids
/// g2 = ceil(s^(1/4)) cells per dimension (each clamped to [2, domain]). N
/// comes from MechanismParams::population_hint so the layout never depends
/// on the observed report count.
///
/// Coarse cells make HDG estimates carry a data-dependent approximation
/// error in exchange for far fewer reported cells per user. A query
/// constraining at most two dimensions combines every grid covering them
/// (an unconstrained one, the 1-D grids); a wider one is covered by
/// consecutive pairs of its constrained dimensions (plus a last 1-D factor).
class HdgMechanism : public TableMechanism {
 public:
  static Result<std::unique_ptr<HdgMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kHdg; }

  /// Number of grids m = d + C(d,2).
  int num_grids() const { return num_tables(); }
  /// Chosen granularities before domain clamping, for tests/EXPLAIN.
  uint32_t g1() const { return g1_; }
  uint32_t g2() const { return g2_; }

 private:
  HdgMechanism(const Schema& schema, const MechanismParams& params)
      : TableMechanism(schema, params) {}
  Status Init();

  uint32_t g1_ = 2;
  uint32_t g2_ = 2;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_HDG_H_
