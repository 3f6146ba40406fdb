#include "mech/advisor.h"

#include <gtest/gtest.h>

namespace ldp {
namespace {

Schema OneDim(uint64_t m) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("d", m).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

Schema ManyDims(int d, uint64_t m) {
  Schema schema;
  for (int i = 0; i < d; ++i) {
    EXPECT_TRUE(schema.AddOrdinal("d" + std::to_string(i), m).ok());
  }
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps) {
  MechanismParams p;
  p.epsilon = eps;
  p.fanout = 5;
  return p;
}

TEST(AdvisorTest, TinyVolumePrefersMarginal) {
  // Section 5.4 / Figure 4: MG wins only when vol(q) is very small.
  const MechanismAdvice advice = AdviseMechanism(
      OneDim(1024), Params(2.0), {/*query_dims=*/1, /*query_volume=*/0.005});
  EXPECT_EQ(advice.recommended, MechanismKind::kMg);
  EXPECT_LT(advice.mg_variance, advice.hio_variance);
}

TEST(AdvisorTest, ModerateVolumePrefersHio) {
  const MechanismAdvice advice = AdviseMechanism(
      OneDim(1024), Params(2.0), {/*query_dims=*/1, /*query_volume=*/0.5});
  EXPECT_EQ(advice.recommended, MechanismKind::kHio);
  EXPECT_LT(advice.hio_variance, advice.mg_variance);
}

TEST(AdvisorTest, HighDimLowQueryDimPrefersSc) {
  // Section 6.2.2 / Figure 12: 8 dimensions, 1-dim queries.
  const MechanismAdvice advice = AdviseMechanism(
      ManyDims(8, 54), Params(5.0), {/*query_dims=*/1, /*query_volume=*/0.1});
  EXPECT_EQ(advice.recommended, MechanismKind::kSc);
  EXPECT_LT(advice.sc_variance, advice.hio_variance);
}

TEST(AdvisorTest, NonOlhOracleNeverGetsSc) {
  // The same SC-favouring shape, but SC's conjunctive estimator needs OLH:
  // with any other oracle the advice falls to the best feasible mechanism,
  // and its proxies are still the ones ScoreMechanisms reports.
  for (const FoKind fo : {FoKind::kGrr, FoKind::kOue, FoKind::kHr,
                          FoKind::kAdaptive}) {
    MechanismParams params = Params(5.0);
    params.fo_kind = fo;
    const WorkloadProfile workload{/*query_dims=*/1, /*query_volume=*/0.1};
    const MechanismAdvice advice =
        AdviseMechanism(ManyDims(8, 54), params, workload);
    EXPECT_EQ(advice.recommended, MechanismKind::kHio) << FoKindName(fo);
    EXPECT_LT(advice.sc_variance, advice.hio_variance);  // still scored
    const MechanismKind kinds[] = {MechanismKind::kMg, MechanismKind::kSc,
                                   MechanismKind::kHio};
    const auto scores =
        ScoreMechanisms(ManyDims(8, 54), params, workload, kinds);
    EXPECT_FALSE(scores[1].feasible);
    EXPECT_EQ(advice.mg_variance, scores[0].variance);
    EXPECT_EQ(advice.sc_variance, scores[1].variance);
    EXPECT_EQ(advice.hio_variance, scores[2].variance);
  }
}

TEST(AdvisorTest, LowDimWideQueryPrefersHio) {
  // Figures 6/7: two wide ordinal dimensions queried together — HIO beats
  // both MG (too many covered cells) and SC (conjunctive penalty).
  const MechanismAdvice advice = AdviseMechanism(
      ManyDims(2, 256), Params(2.0),
      {/*query_dims=*/2, /*query_volume=*/0.25});
  EXPECT_EQ(advice.recommended, MechanismKind::kHio);
}

TEST(AdvisorTest, SmallDomainsHighEpsCanPreferMarginal) {
  // With only 54x54 cells and eps = 5 the per-cell FO noise is tiny, so the
  // marginal baseline's cell sum is genuinely competitive (Section 5.4:
  // the crossover moves with log^2d(m)/m^d).
  const MechanismAdvice advice = AdviseMechanism(
      ManyDims(2, 54), Params(5.0), {/*query_dims=*/2, /*query_volume=*/0.1});
  EXPECT_EQ(advice.recommended, MechanismKind::kMg);
}

TEST(AdvisorTest, VariancesRespondToParameters) {
  const Schema schema = ManyDims(4, 54);
  const auto narrow =
      AdviseMechanism(schema, Params(2.0), {1, 0.1});
  const auto wide = AdviseMechanism(schema, Params(2.0), {3, 0.1});
  // More query dims -> every hierarchical mechanism degrades.
  EXPECT_LT(narrow.hio_variance, wide.hio_variance);
  EXPECT_LT(narrow.sc_variance, wide.sc_variance);
  // More volume -> MG degrades steeply (linear in covered cells); HIO's
  // proxy moves only through its small sampling term.
  const auto small_vol = AdviseMechanism(schema, Params(2.0), {2, 0.05});
  const auto big_vol = AdviseMechanism(schema, Params(2.0), {2, 0.5});
  EXPECT_LT(small_vol.mg_variance, big_vol.mg_variance);
  EXPECT_GT(big_vol.mg_variance / small_vol.mg_variance, 5.0);
  EXPECT_LT(big_vol.hio_variance / small_vol.hio_variance, 1.5);
}

TEST(AdvisorTest, QueryDimsClampedToSchema) {
  const MechanismAdvice advice =
      AdviseMechanism(OneDim(64), Params(1.0), {/*query_dims=*/7, 0.25});
  EXPECT_GT(advice.hio_variance, 0.0);  // no crash; dq clamped to 1
}

TEST(AdvisorTest, RationaleIsInformative) {
  const MechanismAdvice advice = AdviseMechanism(
      ManyDims(8, 54), Params(5.0), {1, 0.1});
  EXPECT_FALSE(advice.rationale.empty());
  EXPECT_NE(advice.rationale.find("d_q"), std::string::npos);
}

}  // namespace
}  // namespace ldp
