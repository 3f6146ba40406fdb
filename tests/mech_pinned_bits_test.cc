// Pinned estimate bits for every ReportStore-backed mechanism.
//
// Each case builds one mechanism on fixed data (fixed seeds, OLH pooled and
// unpooled), then checks EstimateBox and VarianceBound on a fixed box list
// against bits recorded before HI, HIO, MG, QuadTree, Haar, HDG and CALM
// moved onto the shared StoreMechanism / TableMechanism code. The boxes
// cover HDG's and CALM's whole query shape space: unconstrained, one
// constrained dimension, two with partially covered cells, and three or
// four (the greedy product cover). Every check runs at 1 and 4 threads with
// the estimate cache off and on (the cached pass is read twice, so the
// second read is served from the cache). MultiMechanism(HIO, HDG, MG) is
// pinned the same way through EstimateBoxWith / VarianceBoundWith for each
// of its kinds, with values recorded before Multi routed reports to its
// subs without rebasing a copy. ScMechanism is pinned over unit, mixed-sign
// and all-2.0 weights, dense and strided user ids, and boxes on both of its
// masked-sum paths, with values recorded before its masked sums counted unit
// weights and read dense weights in place.

#include <bit>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/execution_context.h"
#include "mech/factory.h"
#include "mech/multi.h"

namespace ldp {
namespace {

constexpr uint64_t kUsers = 1500;

struct PinnedCase {
  MechanismKind kind;
  uint32_t pool;  // OLH hash-seed pool; 0 = unpooled
};

std::string CaseName(const PinnedCase& c) {
  return MechanismKindName(c.kind) +
         (c.pool == 0 ? "_unpooled" : "_pool" + std::to_string(c.pool));
}

/// Four sensitive dims (one categorical) for the d-dim mechanisms; QuadTree
/// and Haar take the first two / the first one.
Schema SchemaFor(MechanismKind kind) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("a", 16).ok());
  if (kind != MechanismKind::kHaar) {
    EXPECT_TRUE(schema.AddOrdinal("b", 10).ok());
  }
  if (kind != MechanismKind::kHaar && kind != MechanismKind::kQuadTree) {
    EXPECT_TRUE(schema.AddCategorical("c", 6).ok());
    EXPECT_TRUE(schema.AddOrdinal("d", 5).ok());
  }
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

std::vector<std::vector<Interval>> BoxesFor(MechanismKind kind) {
  if (kind == MechanismKind::kHaar) {
    return {{{0, 15}}, {{3, 12}}, {{0, 0}}, {{15, 15}}, {{5, 10}}};
  }
  if (kind == MechanismKind::kQuadTree) {
    return {{{0, 15}, {0, 9}},
            {{3, 12}, {0, 9}},
            {{2, 13}, {1, 8}},
            {{7, 7}, {0, 0}}};
  }
  return {
      {{0, 15}, {0, 9}, {0, 5}, {0, 4}},  // unconstrained
      {{3, 12}, {0, 9}, {0, 5}, {0, 4}},  // one dim, partial cells
      {{2, 13}, {1, 8}, {0, 5}, {0, 4}},  // two dims, partial cells
      {{0, 15}, {3, 3}, {0, 5}, {2, 4}},  // two non-adjacent dims
      {{0, 9}, {4, 9}, {0, 5}, {1, 3}},   // three dims
      {{1, 14}, {0, 9}, {0, 2}, {3, 4}},  // three dims with the categorical
      {{5, 15}, {0, 6}, {2, 4}, {0, 2}},  // four dims
  };
}

MechanismParams ParamsFor(uint32_t pool) {
  MechanismParams params;
  params.epsilon = 1.0;
  params.hash_pool_size = pool;
  // Small enough that HDG's grids are coarser than the domains.
  params.population_hint = 300;
  return params;
}

/// Estimates for every box, then the variance bounds for every box.
std::vector<double> Evaluate(const Mechanism& mech,
                             const std::vector<std::vector<Interval>>& boxes,
                             const WeightVector& w) {
  std::vector<double> out;
  for (const auto& box : boxes) {
    const auto estimate = mech.EstimateBox(box, w);
    EXPECT_TRUE(estimate.ok()) << estimate.status().ToString();
    out.push_back(estimate.ok() ? estimate.value() : 0.0);
  }
  for (const auto& box : boxes) {
    const auto bound = mech.VarianceBound(box, w);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    out.push_back(bound.ok() ? bound.value() : 0.0);
  }
  return out;
}

std::string Format(const std::vector<double>& values) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%a", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "}";
}

/// The recorded bits, keyed by CaseName.
const std::map<std::string, std::vector<double>>& Pinned() {
  static const auto* pinned = new std::map<std::string, std::vector<double>>{
      {"HI_unpooled",
       {-0x1.44055550d6a64p+12, 0x1.1b84aaa6bbd16p+13, -0x1.eba817ad53ec2p+15,
        -0x1.878671c1ae08ep+12, -0x1.df47e38792d6p+14, -0x1.b9074258b261cp+11,
        -0x1.51858e3434ed5p+14, 0x1.9080cf10aa8a4p+24, 0x1.2c543f3c7fe7bp+27,
        0x1.906d57aaaa8a4p+30, 0x1.2c56b80c7fe7bp+26, 0x1.2c5302d47fe7bp+28,
        0x1.c27b47d6bfdbap+29, 0x1.faca4df117d71p+30}},
      {"HI_pool16",
       {-0x1.44055550d6a64p+12, 0x1.2004bd9d3094p+8, 0x1.3cb5368058ea8p+15,
        0x1.2484d093a5561p+13, -0x1.c7a77ff9add9bp+14, 0x1.dd07da0c5874ap+13,
        -0x1.2b44ed0554797p+13, 0x1.9080cf10aa8a4p+24, 0x1.2c543f3c7fe7bp+27,
        0x1.906d57aaaa8a4p+30, 0x1.2c56b80c7fe7bp+26, 0x1.2c5302d47fe7bp+28,
        0x1.c27b47d6bfdbap+29, 0x1.faca4df117d71p+30}},
      {"HIO_unpooled",
       {0x1.da3a0a8353652p+10, 0x1.b4c9ab5e02b4cp+11, -0x1.7b61a202a91d9p+11,
        0x1.3f7aa3608e69p+4, 0x1.3080e3b807bcep+12, -0x1.bc468b32460b1p+12,
        -0x1.2b82f92a85833p+12, 0x1.f73a119b0dcddp+19, 0x1.0bba7f344a5a6p+22,
        0x1.4a76685b0dcddp+25, 0x1.21aab5344a5a6p+21, 0x1.00c264344a5a6p+23,
        0x1.762b7b4e6f878p+24, 0x1.a18362483d787p+25}},
      {"HIO_pool16",
       {0x1.da3a0a8353652p+10, -0x1.1a0a443b3db97p+11, 0x1.0393a4be73b6p+12,
        0x1.3f7aa3608e68p+4, 0x1.99552153b677ap+11, -0x1.d53c1ff5d12b4p+11,
        0x1.6769f7cca0372p+9, 0x1.f73a119b0dcddp+19, 0x1.0bba7f344a5a6p+22,
        0x1.4a76685b0dcddp+25, 0x1.21aab5344a5a6p+21, 0x1.00c264344a5a6p+23,
        0x1.762b7b4e6f878p+24, 0x1.a18362483d787p+25}},
      {"MG_unpooled",
       {0x1.f30c1fdf6203cp+12, -0x1.0393a4be73b07p+10, 0x1.5ed11cbc78d4dp+11,
        0x1.ca244f9ee8ab5p+9, 0x1.aaaa56db81bfep+12, -0x1.8ae95f4921d1p+11,
        0x1.e4595f05d4598p+11, 0x1.556501f6d90bbp+26, 0x1.aac1f7ac8f4eap+25,
        0x1.99b05d41d1414p+25, 0x1.48077b9b0dcddp+22, 0x1.3350a2015cf0fp+24,
        0x1.de1470acc976dp+23, 0x1.8a71626e8c9bap+23}},
      {"MG_pool16",
       {0x1.b9a41684086eep+13, 0x1.df37f510d59f5p+10, -0x1.5fed17f85ce19p+11,
        0x1.6769f7cca0378p+8, 0x1.75127d1e0815p+13, 0x1.a6a4e822670ffp+10,
        0x1.e319e46273cc2p+9, 0x1.556501f6d90bbp+26, 0x1.aac1f7ac8f4eap+25,
        0x1.99b05d41d1414p+25, 0x1.48077b9b0dcddp+22, 0x1.3350a2015cf0fp+24,
        0x1.de1470acc976dp+23, 0x1.8a71626e8c9bap+23}},
      {"QuadTree_unpooled",
       {0x1.3cd82eb250cb8p+11, 0x1.5aa82e9be1a3cp+11, 0x1.44788dee10a37p+11,
        -0x1.dfc5f2aec7a53p+8, 0x1.dd6a1073cc0fap+19, 0x1.442dc11ddba49p+21,
        0x1.9f364e01d1414p+21, 0x1.0f0e59c7eb398p+17}},
      {"QuadTree_pool16",
       {0x1.33235866455b6p+11, 0x1.8c935822f7e44p+10, 0x1.9ffd04bb0ec49p+10,
        0x1.6b4be71e3e63fp+8, 0x1.dd6a1073cc0fap+19, 0x1.442dc11ddba49p+21,
        0x1.9f364e01d1414p+21, 0x1.0f0e59c7eb398p+17}},
      {"Haar_unpooled",
       {0x1.3cd82eb250cb7p+11, 0x1.53342ea17d6dcp+10, 0x1.cd66819ed691p+8,
        0x1.3ec0468140c17p+9, 0x1.a2117bcb5a5cap+8, 0x1.0f0e59c7eb398p+17,
        0x1.ea1aeccc723aap+17, 0x1.a5355871143ecp+16, 0x1.a5355871143ecp+16,
        0x1.bc96a65a776c4p+17}},
      {"Haar_pool16",
       {0x1.3cd82eb250cb7p+11, 0x1.b25c75caffd8ep+9, 0x1.18194c926ea2cp+5,
        -0x1.6404466535cfep+8, 0x1.0d8699ff9908ep+10, 0x1.0f0e59c7eb398p+17,
        0x1.ea1aeccc723aap+17, 0x1.a5355871143ecp+16, 0x1.a5355871143ecp+16,
        0x1.bc96a65a776c4p+17}},
      {"HDG_unpooled",
       {0x1.29ef0dfa7074ep+11, 0x1.076263f3ce95ep+11, 0x1.28da99eb0879fp+11,
        0x1.6e11db33f884p+6, 0x1.26c8fa5133398p+10, 0x1.afe573ae362e3p+9,
        0x1.ddd0bac0cf7bp+9, 0x1.b1223201d1414p+20, 0x1.b1223201d1414p+20,
        0x1.b1223201d1414p+20, 0x1.b1223201d1414p+20, 0x1.28955eabe0d62p+21,
        0x1.b1223201d1414p+21, 0x1.28955eabe0d62p+21}},
      {"HDG_pool16",
       {0x1.dcfed0b0d4a73p+10, 0x1.dffa6ebfda15ep+10, 0x1.268af92e42b48p+11,
        0x1.2e48ed403fa35p+8, 0x1.251eaf291569fp+10, 0x1.a6ef52f324355p+9,
        0x1.43c2137e661bfp+10, 0x1.b1223201d1414p+20, 0x1.b1223201d1414p+20,
        0x1.b1223201d1414p+20, 0x1.b1223201d1414p+20, 0x1.28955eabe0d62p+21,
        0x1.b1223201d1414p+21, 0x1.28955eabe0d62p+21}},
      {"CALM_unpooled",
       {0x1.de1bf9d4f1921p+11, 0x1.be779483218dap+10, -0x1.35c8a0373ab93p+11,
        0x1.359989b8247e6p+8, -0x1.d89011a97d51bp+11, -0x1.9ee1097f2ab79p+10,
        0x1.921f404e6c24ep+10, 0x1.113c420be0d62p+26, 0x1.55a54716d90bbp+25,
        0x1.47fd985b0dcddp+25, 0x1.4842cf1b0dcddp+24, 0x1.9a30e781d1414p+24,
        0x1.de77512cc976dp+24, 0x1.0766511f0867cp+25}},
      {"CALM_pool16",
       {0x1.d1a12f732c024p+13, 0x1.f741cb5547c7bp+11, 0x1.f75fe58e86a4p+12,
        -0x1.613bbb0aa2f88p+8, 0x1.b2d8b3b5339e5p+12, 0x1.0eab75155c363p+11,
        0x0p+0, 0x1.113c420be0d62p+26, 0x1.55a54716d90bbp+25,
        0x1.47fd985b0dcddp+25, 0x1.4842cf1b0dcddp+24, 0x1.9a30e781d1414p+24,
        0x1.de77512cc976dp+24, 0x1.0766511f0867cp+25}},
  };
  return *pinned;
}

class PinnedBitsTest : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(PinnedBitsTest, EstimatesKeepTheirBits) {
  const PinnedCase c = GetParam();
  const Schema schema = SchemaFor(c.kind);
  auto mech = CreateMechanism(c.kind, schema, ParamsFor(c.pool)).ValueOrDie();
  const size_t d = schema.sensitive_dims().size();
  Rng data_rng(17);
  Rng client_rng(29);
  std::vector<double> weights(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    std::vector<uint32_t> values(d);
    for (size_t i = 0; i < d; ++i) {
      values[i] = static_cast<uint32_t>(data_rng.UniformInt(
          schema.attribute(schema.sensitive_dims()[i]).domain_size));
    }
    weights[u] = 1.0 + 0.5 * static_cast<double>(u % 4);
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, client_rng), u).ok());
  }
  const WeightVector w(weights);
  const auto boxes = BoxesFor(c.kind);

  const auto it = Pinned().find(CaseName(c));
  ASSERT_TRUE(it != Pinned().end())
      << "no pinned bits; actual:\n    {\"" << CaseName(c) << "\", "
      << Format(Evaluate(*mech, boxes, w)) << "},";
  const std::vector<double>& expected = it->second;
  for (const int threads : {1, 4}) {
    const ExecutionContext exec(threads);
    mech->set_execution_context(&exec);
    for (const bool cache : {false, true}) {
      mech->EnableEstimateCache(cache ? 1 << 20 : 0);
      for (int pass = 0; pass < (cache ? 2 : 1); ++pass) {
        const std::vector<double> got = Evaluate(*mech, boxes, w);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(expected[i]))
              << CaseName(c) << " value " << i << " threads " << threads
              << " cache " << cache << " pass " << pass << ": got "
              << Format({got[i]}) << ", pinned " << Format({expected[i]});
        }
      }
    }
    mech->set_execution_context(nullptr);
  }
}

/// MultiMechanism(HIO, HDG, MG) over the 4-dim schema, pooled OLH: per kind,
/// EstimateBoxWith for every box, then VarianceBoundWith for every box.
std::vector<double> EvaluateMulti(const MultiMechanism& multi,
                                  const std::vector<std::vector<Interval>>& boxes,
                                  const WeightVector& w) {
  std::vector<double> out;
  for (const MechanismKind kind : multi.kinds()) {
    for (const auto& box : boxes) {
      const auto estimate = multi.EstimateBoxWith(kind, box, w);
      EXPECT_TRUE(estimate.ok()) << estimate.status().ToString();
      out.push_back(estimate.ok() ? estimate.value() : 0.0);
    }
    for (const auto& box : boxes) {
      const auto bound = multi.VarianceBoundWith(kind, box, w);
      EXPECT_TRUE(bound.ok()) << bound.status().ToString();
      out.push_back(bound.ok() ? bound.value() : 0.0);
    }
  }
  return out;
}

/// The recorded bits of MultiPinnedBitsTest.
const std::vector<double>& PinnedMulti() {
  static const auto* pinned = new std::vector<double>{
      // HIO: estimates, then variance bounds.
      0x1.df37f510d59edp+10, 0x1.945736c6343ep+11, -0x1.150c59adbb8p+13,
      0x1.02542a1b1327ap+12, -0x1.150c59adbb7fdp+12, 0x1.24061956422ccp+13,
      0x1.141cbdb33314fp+14, 0x1.1b10a9e737c3cp+23, 0x1.2d31cf1ad3a5bp+25,
      0x1.73c535666f879p+28, 0x1.45e00bdad3a5bp+24, 0x1.20dab0bad3a5bp+26,
      0x1.a4f0eab83d787p+27, 0x1.d5b3ce9145278p+28,
      // HDG: estimates, then variance bounds.
      0x1.7e8298a727e69p+10, 0x1.3dec52c2d81ap+10, 0x1.a26a3a4e11a09p+11,
      0x1.3c26b1ace2438p+8, 0x1.d85aedda6a7ccp+5, 0x1.69d60486f9fcp+5, 0x0p+0,
      0x1.e74678420b696p+23, 0x1.e74678420b696p+23, 0x1.e74678420b696p+23,
      0x1.e74678420b696p+23, 0x1.4da80a815cf0ep+24, 0x1.e74678420b696p+24,
      0x1.4da80a815cf0ep+24,
      // MG: estimates, then variance bounds.
      0x1.45d2a81f0e92cp+14, -0x1.15e1561aa68b4p+10, 0x1.d03e35684ef26p+11,
      0x1.c2ee6e999e583p+11, 0x1.5a1a30fdef946p+8, -0x1.a84ee0fc3d24p+10,
      -0x1.01e9abe49da1ep+10, 0x1.8011a235b42d2p+29, 0x1.e01a36a221387p+28,
      0x1.cce668ea0b696p+28, 0x1.71086b0e6f879p+25, 0x1.59bab641888f1p+27,
      0x1.0ceb7f613152dp+27, 0x1.bbbf8ebc5e2f1p+26
  };
  return *pinned;
}

TEST(MultiPinnedBitsTest, EstimateBoxWithKeepsItsBits) {
  const Schema schema = SchemaFor(MechanismKind::kHio);
  const MechanismKind kinds[] = {MechanismKind::kHio, MechanismKind::kHdg,
                                 MechanismKind::kMg};
  auto multi =
      MultiMechanism::Create(schema, ParamsFor(16), kinds).ValueOrDie();
  const size_t d = schema.sensitive_dims().size();
  Rng data_rng(17);
  Rng client_rng(29);
  std::vector<double> weights(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    std::vector<uint32_t> values(d);
    for (size_t i = 0; i < d; ++i) {
      values[i] = static_cast<uint32_t>(data_rng.UniformInt(
          schema.attribute(schema.sensitive_dims()[i]).domain_size));
    }
    weights[u] = 1.0 + 0.5 * static_cast<double>(u % 4);
    ASSERT_TRUE(
        multi->AddReport(multi->EncodeUser(values, client_rng), u).ok());
  }
  const WeightVector w(weights);
  const auto boxes = BoxesFor(MechanismKind::kHio);

  const std::vector<double>& expected = PinnedMulti();
  ASSERT_FALSE(expected.empty())
      << "no pinned bits; actual:\n" << Format(EvaluateMulti(*multi, boxes, w));
  for (const int threads : {1, 4}) {
    const ExecutionContext exec(threads);
    multi->set_execution_context(&exec);
    for (const bool cache : {false, true}) {
      multi->EnableEstimateCache(cache ? 3 << 20 : 0);
      for (int pass = 0; pass < (cache ? 2 : 1); ++pass) {
        const std::vector<double> got = EvaluateMulti(*multi, boxes, w);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(expected[i]))
              << "Multi value " << i << " threads " << threads << " cache "
              << cache << " pass " << pass << ": got " << Format({got[i]})
              << ", pinned " << Format({expected[i]});
        }
      }
    }
    multi->set_execution_context(nullptr);
  }
}

/// One ScMechanism: a budget (eps 4 splits into g = 2, the power-of-two
/// bucket; eps 12 into g = 3) and user ids (dense t, or strided 3t).
struct ScPinnedCase {
  double epsilon;
  uint64_t id_stride;
};

std::string ScCaseName(const ScPinnedCase& c) {
  return "eps" + std::to_string(static_cast<int>(c.epsilon)) +
         (c.id_stride == 1 ? "_dense" : "_strided");
}

/// Eight sensitive dims; with fanout 2 they have 20 (dim, level) groups.
Schema ScSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("a", 16).ok());
  EXPECT_TRUE(schema.AddOrdinal("b", 10).ok());
  EXPECT_TRUE(schema.AddCategorical("c", 6).ok());
  EXPECT_TRUE(schema.AddOrdinal("d", 5).ok());
  EXPECT_TRUE(schema.AddCategorical("e", 3).ok());
  EXPECT_TRUE(schema.AddOrdinal("f", 8).ok());
  EXPECT_TRUE(schema.AddCategorical("g", 4).ok());
  EXPECT_TRUE(schema.AddOrdinal("h", 6).ok());
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

/// Boxes constraining k = 1 and 2 dims (the subset expansion) and k = 3 and
/// 8 (the popcount classes), several pieces per dim where the domain allows.
std::vector<std::vector<Interval>> ScBoxes() {
  const std::vector<Interval> full = {{0, 15}, {0, 9}, {0, 5}, {0, 4},
                                      {0, 2},  {0, 7}, {0, 3}, {0, 5}};
  const auto with = [&](std::vector<std::pair<size_t, Interval>> ranges) {
    std::vector<Interval> box = full;
    for (const auto& [dim, range] : ranges) box[dim] = range;
    return box;
  };
  return {
      with({{0, {3, 12}}}),                          // k = 1
      with({{2, {4, 4}}}),                           // k = 1, one piece
      with({{0, {2, 13}}, {1, {1, 8}}}),             // k = 2
      with({{3, {0, 1}}, {6, {2, 2}}}),              // k = 2
      with({{1, {4, 9}}, {3, {1, 3}}, {5, {2, 6}}}),  // k = 3
      // k = 8
      {{5, 6}, {2, 2}, {1, 1}, {0, 1}, {2, 2}, {3, 4}, {0, 0}, {1, 4}},
  };
}

/// 20000 users (two report chunks, the second ending inside a bitset word).
constexpr uint64_t kScUsers = 20000;

/// The recorded bits of ScPinnedBitsTest, keyed by ScCaseName: per weight
/// vector (unit, mixed-sign, all 2.0), the estimate of every ScBoxes() box.
const std::map<std::string, std::vector<double>>& PinnedSc() {
  static const auto* pinned = new std::map<std::string, std::vector<double>>{
      {"eps4_dense",
       {0x1.83896166db75fp+13, 0x1.4b1969960394p+11,
        -0x1.f7562f70be0fbp+13, 0x1.1b207aaf6ae8ep+13,
        -0x1.b5f0f5bab172p+18, -0x1.22c16911bb6dbp+35,
        0x1.930b5c6c1adbdp+13, 0x1.a35e08d161f68p+10,
        -0x1.d51c19c838cc8p+14, 0x1.2e38e2887545cp+13,
        -0x1.603f2e429402p+17, -0x1.47640527effdfp+35,
        0x1.83896166db75fp+14, 0x1.4b1969960394p+12,
        -0x1.f7562f70be0fbp+14, 0x1.1b207aaf6ae8ep+14,
        -0x1.b5f0f5bab172p+19, -0x1.22c16911bb6dbp+36}},
      {"eps4_strided",
       {0x1.83896166db75fp+13, 0x1.4b1969960394p+11,
        -0x1.f7562f70be0fbp+13, 0x1.1b207aaf6ae8ep+13,
        -0x1.b5f0f5bab172p+18, -0x1.22c16911bb6dbp+35,
        0x1.930b5c6c1adbdp+13, 0x1.a35e08d161f68p+10,
        -0x1.d51c19c838cc8p+14, 0x1.2e38e2887545cp+13,
        -0x1.603f2e429402p+17, -0x1.47640527effdfp+35,
        0x1.83896166db75fp+14, 0x1.4b1969960394p+12,
        -0x1.f7562f70be0fbp+14, 0x1.1b207aaf6ae8ep+14,
        -0x1.b5f0f5bab172p+19, -0x1.22c16911bb6dbp+36}},
      {"eps12_dense",
       {0x1.90d71a9c89ed4p+13, 0x1.684e4bb21a2e6p+11,
        0x1.4bfb0ab7dc433p+12, 0x1.9497416889b77p+11,
        -0x1.056c2d2659f78p+13, -0x1.62340e99e8fecp+23,
        0x1.6bf19adcb0182p+13, 0x1.ca8cda2de1ee6p+11,
        0x1.c4629f7696028p+7, 0x1.49868039755eep+12,
        -0x1.661408b4d1acp+10, 0x1.b9ba83acd959cp+19,
        0x1.90d71a9c89ed4p+14, 0x1.684e4bb21a2e6p+12,
        0x1.4bfb0ab7dc433p+13, 0x1.9497416889b77p+12,
        -0x1.056c2d2659f78p+14, -0x1.62340e99e8fecp+24}},
      {"eps12_strided",
       {0x1.90d71a9c89ed4p+13, 0x1.684e4bb21a2e6p+11,
        0x1.4bfb0ab7dc433p+12, 0x1.9497416889b77p+11,
        -0x1.056c2d2659f78p+13, -0x1.62340e99e8fecp+23,
        0x1.6bf19adcb0182p+13, 0x1.ca8cda2de1ee6p+11,
        0x1.c4629f7696028p+7, 0x1.49868039755eep+12,
        -0x1.661408b4d1acp+10, 0x1.b9ba83acd959cp+19,
        0x1.90d71a9c89ed4p+14, 0x1.684e4bb21a2e6p+12,
        0x1.4bfb0ab7dc433p+13, 0x1.9497416889b77p+12,
        -0x1.056c2d2659f78p+14, -0x1.62340e99e8fecp+24}},
  };
  return *pinned;
}

class ScPinnedBitsTest : public ::testing::TestWithParam<ScPinnedCase> {};

TEST_P(ScPinnedBitsTest, EstimatesKeepTheirBits) {
  const ScPinnedCase c = GetParam();
  const Schema schema = ScSchema();
  MechanismParams params;
  params.epsilon = c.epsilon;
  params.fanout = 2;
  auto mech = CreateMechanism(MechanismKind::kSc, schema, params).ValueOrDie();
  const size_t d = schema.sensitive_dims().size();
  Rng data_rng(17);
  Rng client_rng(29);
  for (uint64_t t = 0; t < kScUsers; ++t) {
    std::vector<uint32_t> values(d);
    for (size_t i = 0; i < d; ++i) {
      values[i] = static_cast<uint32_t>(data_rng.UniformInt(
          schema.attribute(schema.sensitive_dims()[i]).domain_size));
    }
    ASSERT_TRUE(mech->AddReport(mech->EncodeUser(values, client_rng),
                                t * c.id_stride)
                    .ok());
  }
  // Report t's weight sits at its user id; the entries between strided ids
  // belong to no report.
  const uint64_t size = (kScUsers - 1) * c.id_stride + 1;
  std::vector<double> mixed(size, -7.25);
  for (uint64_t t = 0; t < kScUsers; ++t) {
    mixed[t * c.id_stride] =
        0.1 + 0.37 * static_cast<double>(t % 7) - (t % 5 == 0 ? 1.3 : 0.0);
  }
  const std::vector<WeightVector> weights = {
      WeightVector::Ones(size), WeightVector(std::move(mixed)),
      WeightVector(std::vector<double>(size, 2.0))};
  const auto boxes = ScBoxes();
  const auto evaluate = [&] {
    std::vector<double> out;
    for (const WeightVector& w : weights) {
      for (const auto& box : boxes) {
        const auto estimate = mech->EstimateBox(box, w);
        EXPECT_TRUE(estimate.ok()) << estimate.status().ToString();
        out.push_back(estimate.ok() ? estimate.value() : 0.0);
      }
    }
    return out;
  };

  const auto it = PinnedSc().find(ScCaseName(c));
  ASSERT_TRUE(it != PinnedSc().end())
      << "no pinned bits; actual:\n    {\"" << ScCaseName(c) << "\", "
      << Format(evaluate()) << "},";
  const std::vector<double>& expected = it->second;
  for (const int threads : {1, 4}) {
    const ExecutionContext exec(threads);
    mech->set_execution_context(&exec);
    for (const bool cache : {false, true}) {
      mech->EnableEstimateCache(cache ? 1 << 20 : 0);
      for (int pass = 0; pass < (cache ? 2 : 1); ++pass) {
        const std::vector<double> got = evaluate();
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i]),
                    std::bit_cast<uint64_t>(expected[i]))
              << ScCaseName(c) << " value " << i << " threads " << threads
              << " cache " << cache << " pass " << pass << ": got "
              << Format({got[i]}) << ", pinned " << Format({expected[i]});
        }
      }
    }
    mech->set_execution_context(nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sc, ScPinnedBitsTest,
    ::testing::Values(ScPinnedCase{4.0, 1}, ScPinnedCase{4.0, 3},
                      ScPinnedCase{12.0, 1}, ScPinnedCase{12.0, 3}),
    [](const ::testing::TestParamInfo<ScPinnedCase>& info) {
      return ScCaseName(info.param);
    });

std::vector<PinnedCase> AllCases() {
  std::vector<PinnedCase> cases;
  for (const MechanismKind kind :
       {MechanismKind::kHi, MechanismKind::kHio, MechanismKind::kMg,
        MechanismKind::kQuadTree, MechanismKind::kHaar, MechanismKind::kHdg,
        MechanismKind::kCalm}) {
    for (const uint32_t pool : {0u, 16u}) cases.push_back({kind, pool});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    StoreMechanisms, PinnedBitsTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace ldp
