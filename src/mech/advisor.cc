#include "mech/advisor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/privacy_math.h"
#include "mech/calm.h"
#include "mech/hdg.h"

namespace ldp {

namespace {

/// ceil(log_b m), at least 1 for ordinals; categorical hierarchies have
/// height 1. Delegates to the overflow-safe shared helper rather than
/// repeating the power loop (the naive loop wraps for domains near 2^64).
int HierarchyHeight(const Attribute& attr, uint32_t fanout) {
  if (attr.kind == AttributeKind::kSensitiveCategorical) return 1;
  return CeilLogB(fanout, std::max<uint64_t>(attr.domain_size, 1));
}

/// Pieces a range on this dimension typically decomposes into: half the
/// worst case 2(b-1)h, but never more pieces than the range has values.
double TypicalPieces(const Attribute& attr, uint32_t fanout,
                     double per_dim_fraction) {
  if (attr.kind == AttributeKind::kSensitiveCategorical) return 1.0;
  const double worst = 2.0 * (fanout - 1) * HierarchyHeight(attr, fanout);
  const double len = std::max(
      1.0, per_dim_fraction * static_cast<double>(attr.domain_size));
  return std::min(worst / 2.0, len);
}

/// Second moment E[c(A)^2] of the SC conjunctive factor for one dimension at
/// per-report budget eps': q(1-q)/(p-q)^2 + O(1) (Prop. 10's variance seed).
double ConjunctiveFactor(double eps_per_report) {
  const uint32_t g = OptimalOlhG(eps_per_report);
  const double p = OlhP(eps_per_report, g);
  const double q = OlhQ(g);
  return q * (1.0 - q) / ((p - q) * (p - q)) + 1.0;
}

}  // namespace

MechanismAdvice AdviseMechanism(const Schema& schema,
                                const MechanismParams& params,
                                const WorkloadProfile& workload) {
  // Candidate order MG, SC, HIO keeps Section 5.4's tie-breaks: MG wins
  // ties, then SC; an infeasible SC (non-OLH oracle) is never named.
  static constexpr MechanismKind kCandidates[] = {
      MechanismKind::kMg, MechanismKind::kSc, MechanismKind::kHio};
  const std::vector<MechanismScore> scores =
      ScoreMechanisms(schema, params, workload, kCandidates);
  MechanismAdvice advice;
  advice.recommended = ChooseMechanism(scores);
  advice.mg_variance = scores[0].variance;
  advice.sc_variance = scores[1].variance;
  advice.hio_variance = scores[2].variance;

  const int d = static_cast<int>(schema.sensitive_dims().size());
  const int dq = std::clamp(workload.query_dims, 1, d);
  std::ostringstream why;
  switch (advice.recommended) {
    case MechanismKind::kMg:
      why << "vol(q) = " << workload.query_volume
          << " is below the Section 5.4 crossover (eq. 33/34): the marginal "
             "baseline's linear-in-cells error (proxy "
          << advice.mg_variance << ") beats the hierarchical decompositions "
          << "(HIO " << advice.hio_variance << ").";
      break;
    case MechanismKind::kSc:
      why << "d_q = " << dq << " is small relative to d = " << d
          << " (eq. 35): SC's per-dimension reports (proxy "
          << advice.sc_variance << ") avoid HIO's level sampling (proxy "
          << advice.hio_variance
          << "), and the conjunctive-estimator penalty only pays for the "
             "queried dimensions.";
      break;
    default:
      why << "HIO's polylogarithmic decomposition with full-budget sampled "
             "levels (Theorem 9) dominates: proxy "
          << advice.hio_variance << " against MG " << advice.mg_variance
          << " and SC " << advice.sc_variance
          << (scores[1].feasible ? "" : " (SC infeasible: " +
                                            scores[1].note + ")")
          << ".";
      break;
  }
  advice.rationale = why.str();
  return advice;
}

std::vector<MechanismScore> ScoreMechanisms(
    const Schema& schema, const MechanismParams& params,
    const WorkloadProfile& workload,
    std::span<const MechanismKind> candidates) {
  const auto& dims = schema.sensitive_dims();
  LDP_CHECK(!dims.empty());
  const int d = static_cast<int>(dims.size());
  const int dq = std::clamp(workload.query_dims, 1, d);
  const double eps = params.epsilon;
  const double e = std::exp(eps);

  // Workload-shape quantities shared by the per-mechanism proxies.
  const double vol = std::clamp(workload.query_volume, 1e-12, 1.0);
  const double per_dim_fraction = std::pow(vol, 1.0 / dq);
  std::vector<double> pieces;
  double cross_product = 1.0;
  double geo_mean_domain = 1.0;
  int total_levels_sum = 0;
  double level_tuples = 1.0;
  for (const int attr_index : dims) {
    const Attribute& attr = schema.attribute(attr_index);
    pieces.push_back(TypicalPieces(attr, params.fanout, per_dim_fraction));
    cross_product *= static_cast<double>(attr.domain_size);
    total_levels_sum += HierarchyHeight(attr, params.fanout);
    level_tuples *= HierarchyHeight(attr, params.fanout) + 1.0;
  }
  geo_mean_domain = std::pow(cross_product, 1.0 / d);
  std::sort(pieces.rbegin(), pieces.rend());
  double query_pieces = 1.0;
  for (int i = 0; i < dq; ++i) query_pieces *= pieces[i];
  const double fo_noise = 4.0 * e / ((e - 1.0) * (e - 1.0));

  const double mg_variance = vol * cross_product * fo_noise + vol;
  const double hio_variance = query_pieces * level_tuples * fo_noise +
                              (2.0 * level_tuples - 1.0) * vol;

  std::vector<MechanismScore> scores;
  scores.reserve(candidates.size());
  for (const MechanismKind kind : candidates) {
    MechanismScore score;
    score.kind = kind;
    switch (kind) {
      case MechanismKind::kMg:
        score.variance = mg_variance;
        score.note = "one noisy cell per covered marginal cell (eq. 10/11)";
        break;
      case MechanismKind::kHio:
        score.variance = hio_variance;
        score.note = "full-budget level sampling over the piece set (Thm 9)";
        break;
      case MechanismKind::kHi: {
        // HI splits eps across all level tuples, so every sub-query pays
        // ~level_tuples^2 more noise than HIO's sampled full-budget report
        // (Theorem 6 vs 9); always dominated, scored for completeness.
        score.variance = hio_variance * level_tuples;
        score.note = "budget split across levels; dominated by HIO (Thm 6)";
        break;
      }
      case MechanismKind::kQuadTree:
      case MechanismKind::kHaar:
        // Space-partitioning variants of the hierarchical decomposition;
        // same leading noise shape as HIO with a constant-factor penalty
        // for their fixed (fanout-agnostic) partitioning.
        score.variance = hio_variance * 1.25;
        score.note = "hierarchical proxy with fixed-partitioning penalty";
        break;
      case MechanismKind::kSc: {
        const double eps_per_report =
            eps / static_cast<double>(total_levels_sum);
        score.variance =
            query_pieces * std::pow(ConjunctiveFactor(eps_per_report), dq) +
            vol;
        score.feasible = params.fo_kind == FoKind::kOlh;
        score.note = score.feasible
                         ? "per-dimension conjunctive reports (Prop. 10)"
                         : "requires the OLH frequency oracle";
        break;
      }
      case MechanismKind::kHdg: {
        uint32_t g1 = 2;
        uint32_t g2 = 2;
        HdgGranularities(eps, params.population_hint, d, &g1, &g2);
        const double m = d + 0.5 * d * (d - 1);
        // Touched cells on the answering grid: the range covers a
        // per_dim_fraction slice of each constrained dimension.
        const int factors = dq <= 2 ? 1 : (dq + 1) / 2;
        const double per_factor_cells =
            dq == 1 ? std::max(1.0, per_dim_fraction * g1)
                    : std::max(1.0, per_dim_fraction * g2) *
                          std::max(1.0, per_dim_fraction * g2);
        score.variance =
            factors * (per_factor_cells * m * fo_noise + (2.0 * m - 1.0) * vol);
        score.note = "coarse 1-D/2-D grids, uniformity within cells";
        break;
      }
      case MechanismKind::kCalm: {
        const int k = CalmMarginalOrder(schema);
        double m = 1.0;
        for (int i = 1; i <= k; ++i) m = m * (d - k + i) / i;
        // Sub-box cells on a covering size-k marginal: the constrained dims
        // contribute their range lengths, the rest their full domains.
        const int factors = dq <= k ? 1 : (dq + k - 1) / k;
        const int covered = std::min(dq, k);
        double per_factor_cells =
            std::pow(std::max(1.0, per_dim_fraction * geo_mean_domain),
                     covered) *
            std::pow(geo_mean_domain, k - covered);
        per_factor_cells = std::max(1.0, per_factor_cells);
        score.variance =
            factors * (per_factor_cells * m * fo_noise + (2.0 * m - 1.0) * vol);
        score.note = "full-resolution size-" + std::to_string(k) +
                     " marginals, exact cell boundaries";
        break;
      }
    }
    scores.push_back(std::move(score));
  }
  return scores;
}

MechanismKind ChooseMechanism(std::span<const MechanismScore> scores) {
  LDP_CHECK(!scores.empty());
  int best = -1;
  for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
    if (!scores[i].feasible) continue;
    if (best < 0 || scores[i].variance < scores[best].variance) best = i;
  }
  return scores[best < 0 ? 0 : best].kind;
}

}  // namespace ldp
