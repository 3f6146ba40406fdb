#ifndef LDPMDA_MECH_ADVISOR_H_
#define LDPMDA_MECH_ADVISOR_H_

#include <span>
#include <string>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// What the analyst expects to ask (Section 5.4's "performance comparison"
/// parameters).
struct WorkloadProfile {
  /// Expected number of sensitive dimensions per query predicate (d_q).
  int query_dims = 1;
  /// Expected query volume vol(q): the fraction of the cross-product domain
  /// a predicate covers (Section 5.4).
  double query_volume = 0.25;
};

/// The advisor's verdict with the analytic error proxies behind it.
struct MechanismAdvice {
  MechanismKind recommended = MechanismKind::kHio;
  /// Worst-case variance proxies per unit M2_T (comparable across
  /// mechanisms; smaller is better).
  double mg_variance = 0.0;
  double hio_variance = 0.0;
  double sc_variance = 0.0;
  std::string rationale;
};

/// Implements the analytical turning points of Section 5.4: MG wins only for
/// very small query volumes (eq. 33/34), SC beats HIO when d_q is small
/// relative to the total number of sensitive dimensions (eq. 35), and HIO is
/// the default otherwise. HI is never recommended (Theorem 7/9 dominate
/// Theorem 6/8 throughout). The verdict is ChooseMechanism over the
/// ScoreMechanisms proxies of {MG, SC, HIO}, so SC is never advised with a
/// non-OLH oracle.
MechanismAdvice AdviseMechanism(const Schema& schema,
                                const MechanismParams& params,
                                const WorkloadProfile& workload);

/// One candidate's verdict in the generalized per-mechanism cost model.
struct MechanismScore {
  MechanismKind kind = MechanismKind::kHio;
  /// Variance proxy per unit M2_T, comparable across mechanisms; smaller is
  /// better. Meaningless when !feasible.
  double variance = 0.0;
  bool feasible = true;
  /// One-line justification of the proxy (surfaced by EXPLAIN).
  std::string note;
};

/// Scores every candidate mechanism for the given workload shape with
/// exact-leading-noise-term variance proxies (MG, HIO and SC per Section
/// 5.4, extended to HI, QuadTree, Haar, HDG and CALM). Scores come back in
/// candidate order.
std::vector<MechanismScore> ScoreMechanisms(
    const Schema& schema, const MechanismParams& params,
    const WorkloadProfile& workload,
    std::span<const MechanismKind> candidates);

/// The feasible candidate with the smallest variance proxy, ties going to
/// the earlier list position. Falls back to the first candidate when none
/// is feasible. `scores` must be non-empty.
MechanismKind ChooseMechanism(std::span<const MechanismScore> scores);

}  // namespace ldp

#endif  // LDPMDA_MECH_ADVISOR_H_
