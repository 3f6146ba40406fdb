// The contract every mechanism kind meets at its boundary, checked once for
// all 8 kinds: Create's preconditions, the name aliases, report-shape
// rejection without side effects, Merge's refusal of foreign shards, the
// typed errors of EstimateBox / VarianceBound on malformed boxes, and a
// weight vector too short for the largest reporting user id. A
// MultiMechanism meets the report and weight parts too: it reads reports in
// place (the caller's report is unchanged) and rejects empty, out-of-range
// and sub-spanning reports without touching any sub.

#include <cctype>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/execution_context.h"
#include "mech/factory.h"
#include "mech/multi.h"

namespace ldp {
namespace {

/// A schema each kind accepts: Haar needs one ordinal dim, QuadTree two;
/// the others get two ordinal dims and a categorical one.
Schema SchemaFor(MechanismKind kind) {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", 16).ok());
  if (kind != MechanismKind::kHaar) {
    EXPECT_TRUE(schema.AddOrdinal("y", 8).ok());
  }
  if (kind != MechanismKind::kHaar && kind != MechanismKind::kQuadTree) {
    EXPECT_TRUE(schema.AddCategorical("c", 4).ok());
  }
  EXPECT_TRUE(schema.AddMeasure("w").ok());
  return schema;
}

MechanismParams Params(double eps = 1.0) {
  MechanismParams params;
  params.epsilon = eps;
  return params;
}

std::vector<Interval> FullBox(const Schema& schema) {
  std::vector<Interval> box;
  for (const int attr : schema.sensitive_dims()) {
    box.push_back({0, schema.attribute(attr).domain_size - 1});
  }
  return box;
}

/// A mechanism of `kind` holding one honest report (user 0).
std::unique_ptr<Mechanism> WithOneReport(MechanismKind kind) {
  const Schema schema = SchemaFor(kind);
  auto mech = CreateMechanism(kind, schema, Params()).ValueOrDie();
  Rng rng(3);
  const std::vector<uint32_t> values(schema.sensitive_dims().size(), 1);
  EXPECT_TRUE(mech->AddReport(mech->EncodeUser(values, rng), 0).ok());
  return mech;
}

class MechanismContractTest : public ::testing::TestWithParam<MechanismKind> {
};

TEST_P(MechanismContractTest, NamesAndAliasesRoundTrip) {
  const MechanismKind kind = GetParam();
  const std::string name = MechanismKindName(kind);
  EXPECT_EQ(MechanismKindFromString(name).ValueOrDie(), kind);
  std::string lower;
  for (const char c : name) {
    lower.push_back(static_cast<char>(std::tolower(c)));
  }
  EXPECT_EQ(MechanismKindFromString(lower).ValueOrDie(), kind);
  auto mech = CreateMechanism(kind, SchemaFor(kind), Params());
  ASSERT_TRUE(mech.ok()) << mech.status().ToString();
  EXPECT_EQ(mech.value()->kind(), kind);
}

TEST(MechanismContractAliasTest, AliasesNameTheirKinds) {
  EXPECT_EQ(MechanismKindFromString("qt").ValueOrDie(),
            MechanismKind::kQuadTree);
  EXPECT_EQ(MechanismKindFromString("wavelet").ValueOrDie(),
            MechanismKind::kHaar);
  EXPECT_EQ(MechanismKindFromString("nope").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(MechanismContractTest, CreateRejectsBadBudgetAndNoSensitiveDims) {
  const MechanismKind kind = GetParam();
  for (const double eps : {0.0, -1.0}) {
    const auto mech = CreateMechanism(kind, SchemaFor(kind), Params(eps));
    EXPECT_EQ(mech.status().code(), StatusCode::kInvalidArgument) << eps;
  }
  Schema no_sensitive;
  ASSERT_TRUE(no_sensitive.AddMeasure("w").ok());
  EXPECT_EQ(CreateMechanism(kind, no_sensitive, Params()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(MechanismContractTest, MalformedReportsChangeNothing) {
  const MechanismKind kind = GetParam();
  auto mech = WithOneReport(kind);
  Rng rng(4);
  const std::vector<uint32_t> values(
      SchemaFor(kind).sensitive_dims().size(), 2);
  const LdpReport honest = mech->EncodeUser(values, rng);

  LdpReport empty;
  LdpReport extra = honest;
  extra.entries.push_back(honest.entries[0]);
  LdpReport bad_group = honest;
  bad_group.entries[0].group = static_cast<uint32_t>(mech->NumReportGroups());
  const auto expect_rejected = [&](const LdpReport& report, StatusCode code) {
    const Status status = mech->AddReport(report, 1);
    EXPECT_EQ(status.code(), code) << status.ToString();
  };
  EXPECT_EQ(mech->ValidateReport(empty).code(), StatusCode::kInvalidArgument);
  expect_rejected(empty, StatusCode::kInvalidArgument);
  expect_rejected(extra, StatusCode::kInvalidArgument);
  expect_rejected(bad_group, StatusCode::kOutOfRange);
  if (honest.entries.size() > 1) {
    // HI and SC report on every group: each must appear once, in order.
    LdpReport repeated = honest;
    repeated.entries.back().group = honest.entries[0].group;
    expect_rejected(repeated, StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(mech->num_reports(), 1u);
  EXPECT_TRUE(mech->AddReport(honest, 1).ok());
  EXPECT_EQ(mech->num_reports(), 2u);
}

TEST_P(MechanismContractTest, MergeRejectsForeignAndMultiShards) {
  const MechanismKind kind = GetParam();
  const Schema schema = SchemaFor(kind);
  auto mech = WithOneReport(kind);
  const MechanismKind foreign =
      kind == MechanismKind::kMg ? MechanismKind::kHio : MechanismKind::kMg;
  auto other = CreateMechanism(foreign, schema, Params()).ValueOrDie();
  EXPECT_EQ(mech->Merge(std::move(*other)).code(),
            StatusCode::kInvalidArgument);
  // A composite over the same kind reports that kind, but is not a shard.
  const MechanismKind same[] = {kind};
  auto multi = MultiMechanism::Create(schema, Params(), same).ValueOrDie();
  ASSERT_EQ(multi->kind(), kind);
  EXPECT_EQ(mech->Merge(std::move(*multi)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mech->num_reports(), 1u);
  auto shard = mech->NewShard().ValueOrDie();
  EXPECT_TRUE(mech->Merge(std::move(*shard)).ok());
}

TEST_P(MechanismContractTest, MalformedBoxesAreTypedErrors) {
  const MechanismKind kind = GetParam();
  const Schema schema = SchemaFor(kind);
  auto mech = WithOneReport(kind);
  const WeightVector w = WeightVector::Ones(1);
  const std::vector<Interval> full = FullBox(schema);

  std::vector<Interval> too_many = full;
  too_many.push_back({0, 0});
  const std::vector<Interval> too_few(full.begin(), full.end() - 1);
  for (const auto& box : {too_many, too_few}) {
    EXPECT_EQ(mech->EstimateBox(box, w).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(mech->VarianceBound(box, w).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (size_t i = 0; i < full.size(); ++i) {
    std::vector<Interval> past_domain = full;
    past_domain[i].hi += 1;
    std::vector<Interval> inverted = full;
    inverted[i] = {2, 1};
    for (const auto& box : {past_domain, inverted}) {
      EXPECT_EQ(mech->EstimateBox(box, w).status().code(),
                StatusCode::kOutOfRange)
          << "dim " << i;
      EXPECT_EQ(mech->VarianceBound(box, w).status().code(),
                StatusCode::kOutOfRange)
          << "dim " << i;
    }
  }
  EXPECT_TRUE(mech->EstimateBox(full, w).ok());
  EXPECT_TRUE(mech->VarianceBound(full, w).ok());
}

/// `len` weights of mixed signs and zeros, which no masked sum can count
/// by popcount.
WeightVector MixedWeights(uint64_t len) {
  std::vector<double> w(len);
  for (uint64_t i = 0; i < len; ++i) {
    w[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
  }
  return WeightVector(std::move(w));
}

/// A weight vector needs an entry for the largest user id among the
/// reports, however that id arrived: by direct adds, with strided ids, or
/// in a merged shard. One entry short is InvalidArgument from EstimateBox
/// and from an EstimateBoxes call whose first task is valid, at 1 and 4
/// threads, for unit and mixed weights alike.
void CheckShortWeights(
    const std::function<std::unique_ptr<Mechanism>()>& make) {
  const uint64_t n = 60;
  struct Ingest {
    const char* name;
    uint64_t stride;
    bool merged;  // the second half, with the largest id, in a shard
  };
  for (const Ingest& ingest : {Ingest{"direct", 1, false},
                               Ingest{"strided", 3, false},
                               Ingest{"merged", 1, true}}) {
    SCOPED_TRACE(ingest.name);
    auto mech = make();
    std::unique_ptr<Mechanism> shard =
        ingest.merged ? mech->NewShard().ValueOrDie() : nullptr;
    const Schema& schema = mech->schema();
    Rng rng(8);
    for (uint64_t t = 0; t < n; ++t) {
      const std::vector<uint32_t> values(schema.sensitive_dims().size(),
                                         static_cast<uint32_t>(t % 4));
      Mechanism* target = shard != nullptr && t >= n / 2 ? shard.get()
                                                         : mech.get();
      ASSERT_TRUE(
          target->AddReport(mech->EncodeUser(values, rng), ingest.stride * t)
              .ok());
    }
    if (shard != nullptr) {
      ASSERT_TRUE(mech->Merge(std::move(*shard)).ok());
    }
    const uint64_t largest = ingest.stride * (n - 1);
    const WeightVector enough = WeightVector::Ones(largest + 1);
    const WeightVector short_ones = WeightVector::Ones(largest);
    const WeightVector short_mixed = MixedWeights(largest);
    std::vector<Interval> box = FullBox(schema);
    box[0] = {2, 9};
    for (const int threads : {1, 4}) {
      const ExecutionContext exec(threads);
      mech->set_execution_context(&exec);
      for (const WeightVector* w : {&short_ones, &short_mixed}) {
        EXPECT_EQ(mech->EstimateBox(box, *w).status().code(),
                  StatusCode::kInvalidArgument)
            << threads << " threads";
        const BoxTask tasks[] = {{box, &enough}, {box, w}};
        double out[2] = {0.0, 0.0};
        EXPECT_EQ(mech->EstimateBoxes(tasks, out).code(),
                  StatusCode::kInvalidArgument)
            << threads << " threads";
      }
      EXPECT_TRUE(mech->EstimateBox(box, enough).ok()) << threads
                                                        << " threads";
      mech->set_execution_context(nullptr);
    }
  }
}

TEST_P(MechanismContractTest, ShortWeightVectorIsInvalidArgument) {
  const MechanismKind kind = GetParam();
  CheckShortWeights([kind] {
    return CreateMechanism(kind, SchemaFor(kind), Params()).ValueOrDie();
  });
}

/// A MultiMechanism over `kinds` on the 3-dim schema, holding one honest
/// report (user 0).
std::unique_ptr<MultiMechanism> MultiWithOneReport(
    std::span<const MechanismKind> kinds) {
  const Schema schema = SchemaFor(MechanismKind::kHi);
  auto multi = MultiMechanism::Create(schema, Params(), kinds).ValueOrDie();
  Rng rng(3);
  const std::vector<uint32_t> values(schema.sensitive_dims().size(), 1);
  EXPECT_TRUE(multi->AddReport(multi->EncodeUser(values, rng), 0).ok());
  return multi;
}

/// The index of the sub owning `report`'s first entry.
int OwnerOf(const MultiMechanism& multi, const LdpReport& report) {
  uint64_t end = 0;
  for (int i = 0; i < multi.num_sub_mechanisms(); ++i) {
    end += multi.sub(i).NumReportGroups();
    if (report.entries[0].group < end) return i;
  }
  return -1;
}

/// One honest report owned by each sub, encoded with `rng`.
std::vector<LdpReport> OneReportPerSub(const MultiMechanism& multi, Rng& rng) {
  const std::vector<uint32_t> values(
      multi.schema().sensitive_dims().size(), 2);
  std::vector<LdpReport> reports(multi.num_sub_mechanisms());
  std::vector<bool> found(reports.size(), false);
  for (size_t left = reports.size(); left > 0;) {
    LdpReport report = multi.EncodeUser(values, rng);
    const int sub = OwnerOf(multi, report);
    if (!found[sub]) {
      found[sub] = true;
      reports[sub] = std::move(report);
      --left;
    }
  }
  return reports;
}

class MultiContractTest
    : public ::testing::TestWithParam<std::vector<MechanismKind>> {};

TEST_P(MultiContractTest, ReportsAreReadInPlace) {
  auto multi = MultiWithOneReport(GetParam());
  Rng rng(5);
  const std::vector<uint32_t> values(
      multi->schema().sensitive_dims().size(), 3);
  for (uint64_t user = 1; user <= 24; ++user) {
    const LdpReport report = multi->EncodeUser(values, rng);
    const LdpReport before = report;
    EXPECT_TRUE(multi->ValidateReport(report).ok());
    EXPECT_EQ(report, before);
    EXPECT_TRUE(multi->AddReport(report, user).ok());
    EXPECT_EQ(report, before);
  }
  // A rejected report is left as it was too.
  LdpReport bad = multi->EncodeUser(values, rng);
  bad.entries.back().group = static_cast<uint32_t>(multi->NumReportGroups());
  const LdpReport before = bad;
  EXPECT_FALSE(multi->ValidateReport(bad).ok());
  EXPECT_FALSE(multi->AddReport(bad, 99).ok());
  EXPECT_EQ(bad, before);
  EXPECT_EQ(multi->num_reports(), 25u);
}

TEST_P(MultiContractTest, MalformedReportsChangeNothing) {
  auto multi = MultiWithOneReport(GetParam());
  Rng rng(6);
  const std::vector<LdpReport> honest = OneReportPerSub(*multi, rng);

  LdpReport empty;
  LdpReport bad_group = honest[0];
  bad_group.entries[0].group = static_cast<uint32_t>(multi->NumReportGroups());
  // Entries owned by two subs, the first entry's owner either way round:
  // another sub's entry appended, or (for subs reporting on every group)
  // in place of the last entry.
  std::vector<LdpReport> spanning;
  for (const auto& [first, second] : {std::pair{0, 1}, std::pair{1, 0}}) {
    LdpReport appended = honest[first];
    appended.entries.push_back(honest[second].entries[0]);
    spanning.push_back(appended);
    if (honest[first].entries.size() > 1) {
      LdpReport replaced = honest[first];
      replaced.entries.back() = honest[second].entries[0];
      spanning.push_back(replaced);
    }
  }

  EXPECT_EQ(multi->ValidateReport(empty).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(multi->AddReport(empty, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(multi->AddReport(bad_group, 1).code(), StatusCode::kOutOfRange);
  for (const LdpReport& spans : spanning) {
    EXPECT_FALSE(multi->ValidateReport(spans).ok());
    EXPECT_FALSE(multi->AddReport(spans, 1).ok());
  }
  EXPECT_EQ(multi->num_reports(), 1u);
  uint64_t sub_reports = 0;
  for (int i = 0; i < multi->num_sub_mechanisms(); ++i) {
    sub_reports += multi->sub(i).num_reports();
  }
  EXPECT_EQ(sub_reports, 1u);
  for (uint64_t i = 0; i < honest.size(); ++i) {
    EXPECT_TRUE(multi->AddReport(honest[i], 1 + i).ok());
  }
  EXPECT_EQ(multi->num_reports(), 1 + honest.size());
}

TEST_P(MultiContractTest, ShortWeightVectorIsInvalidArgument) {
  const std::vector<MechanismKind> kinds = GetParam();
  CheckShortWeights([&kinds]() -> std::unique_ptr<Mechanism> {
    return MultiMechanism::Create(SchemaFor(MechanismKind::kHi), Params(),
                                  kinds)
        .ValueOrDie();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, MultiContractTest,
    ::testing::Values(
        // One-entry subs (the perfbench collect and dashboard spec).
        std::vector<MechanismKind>{MechanismKind::kHio, MechanismKind::kHdg,
                                   MechanismKind::kMg},
        // Subs that report on every group.
        std::vector<MechanismKind>{MechanismKind::kHi, MechanismKind::kSc}),
    [](const ::testing::TestParamInfo<std::vector<MechanismKind>>& info) {
      std::string name;
      for (const MechanismKind kind : info.param) {
        name += MechanismKindName(kind);
      }
      return name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MechanismContractTest,
    ::testing::Values(MechanismKind::kHi, MechanismKind::kHio,
                      MechanismKind::kSc, MechanismKind::kMg,
                      MechanismKind::kQuadTree, MechanismKind::kHaar,
                      MechanismKind::kHdg, MechanismKind::kCalm),
    [](const ::testing::TestParamInfo<MechanismKind>& info) {
      return MechanismKindName(info.param);
    });

}  // namespace
}  // namespace ldp
