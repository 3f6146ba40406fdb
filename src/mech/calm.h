#ifndef LDPMDA_MECH_CALM_H_
#define LDPMDA_MECH_CALM_H_

#include <memory>

#include "mech/table_mechanism.h"

namespace ldp {

/// The marginal order k CALM would materialize for this schema: the largest
/// k in {1, 2, 3} (capped at the dimension count) for which every size-k
/// marginal stays within the per-marginal cell budget and the marginal count
/// stays small enough to leave each cohort a useful fraction of the
/// population. Exposed so the planner's cost model and the mechanism agree
/// without constructing one.
int CalmMarginalOrder(const Schema& schema);

/// The CALM mechanism of Wang et al. ("Answering Multi-Dimensional Analytical
/// Queries under Local Differential Privacy" authors' companion line of work:
/// "Collecting and Analyzing Multidimensional Data with Local Differential
/// Privacy", PAPERS.md), adapted to this engine's report/estimation contract:
/// a TableMechanism laid out as all C(d, k) size-k attribute marginals in
/// lexicographic order, at full per-attribute resolution (one value per
/// cell). k comes from CalmMarginalOrder — large enough to cover
/// multi-attribute predicates directly, small enough that marginal cells and
/// marginal count stay bounded.
///
/// Full resolution means cell boundaries align with query ranges exactly (no
/// uniformity assumption). An unconstrained query reads the smallest
/// marginal (fewest cells, ties to the lowest id); a query constraining more
/// dimensions than k is covered greedily.
class CalmMechanism : public TableMechanism {
 public:
  static Result<std::unique_ptr<CalmMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kCalm; }

  /// Materialized marginal order k and marginal count C(d, k).
  int marginal_order() const { return order(); }
  int num_marginals() const { return num_tables(); }

 private:
  CalmMechanism(const Schema& schema, const MechanismParams& params)
      : TableMechanism(schema, params) {}
  Status Init();
};

}  // namespace ldp

#endif  // LDPMDA_MECH_CALM_H_
