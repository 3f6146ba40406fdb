// Crafted report payloads: a well-formed, checksummed frame whose fields lie
// outside what its encoder can emit (an OLH bucket >= g or seed outside the
// hash pool, a GRR value outside the domain, an OUE bit vector of the wrong
// width, an HR row or sign out of range, a per-group report naming a group
// twice) must be rejected at ingest and leave the server exactly as if it
// had never arrived.

#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/protocol.h"

namespace ldp {
namespace {

constexpr uint64_t kHonestUsers = 64;
constexpr uint32_t kPool = 8;

Schema TwoDims() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("x", 8).ok());
  EXPECT_TRUE(schema.AddOrdinal("y", 8).ok());
  return schema;
}

struct CraftCase {
  std::string name;
  MechanismKind kind;
  FoKind fo;
  /// Turns an honest report into a crafted one.
  void (*craft)(LdpReport* report);
};

std::vector<CraftCase> Cases() {
  return {
      {"MgOlhSeedAtPool", MechanismKind::kMg, FoKind::kOlh,
       [](LdpReport* r) { r->entries[0].fo.seed = kPool; }},
      {"MgOlhHugeSeed", MechanismKind::kMg, FoKind::kOlh,
       [](LdpReport* r) { r->entries[0].fo.seed = 2000000000u; }},
      {"MgOlhBucketPastG", MechanismKind::kMg, FoKind::kOlh,
       [](LdpReport* r) { r->entries[0].fo.value = 1u << 20; }},
      {"HioOlhSeedAtPool", MechanismKind::kHio, FoKind::kOlh,
       [](LdpReport* r) { r->entries[0].fo.seed = kPool; }},
      {"HdgOlhBucketPastG", MechanismKind::kHdg, FoKind::kOlh,
       [](LdpReport* r) { r->entries[0].fo.value = 1u << 20; }},
      {"ScOlhSeedAtPool", MechanismKind::kSc, FoKind::kOlh,
       [](LdpReport* r) { r->entries[0].fo.seed = kPool; }},
      // SC keeps one report vector per group aligned with its user list.
      {"ScRepeatedGroup", MechanismKind::kSc, FoKind::kOlh,
       [](LdpReport* r) { r->entries[1].group = r->entries[0].group; }},
      {"HiRepeatedGroup", MechanismKind::kHi, FoKind::kOlh,
       [](LdpReport* r) { r->entries[1].group = r->entries[0].group; }},
      {"MgGrrValuePastDomain", MechanismKind::kMg, FoKind::kGrr,
       [](LdpReport* r) { r->entries[0].fo.value = 64; }},
      {"MgOueShortBits", MechanismKind::kMg, FoKind::kOue,
       [](LdpReport* r) { r->entries[0].fo.bits.clear(); }},
      {"MgOueLongBits", MechanismKind::kMg, FoKind::kOue,
       [](LdpReport* r) { r->entries[0].fo.bits.push_back(~0ull); }},
      {"MgHrRowPastTransform", MechanismKind::kMg, FoKind::kHr,
       [](LdpReport* r) { r->entries[0].fo.seed = 64; }},
      {"MgHrSignNotABit", MechanismKind::kMg, FoKind::kHr,
       [](LdpReport* r) { r->entries[0].fo.value = 2; }},
  };
}

class PayloadCheckTest
    : public ::testing::TestWithParam<std::tuple<CraftCase, int, bool>> {};

TEST_P(PayloadCheckTest, CraftedFrameIsRejectedAndChangesNothing) {
  const auto& [c, threads, batch] = GetParam();
  MechanismParams params;
  params.epsilon = 1.0;
  params.fo_kind = c.fo;
  params.hash_pool_size = kPool;
  const CollectionSpec spec = CollectionSpec::FromSchema(TwoDims(), c.kind,
                                                         params);
  const LdpClient client = LdpClient::Create(spec).ValueOrDie();
  Rng rng(5);
  std::vector<std::string> frames;
  for (uint64_t u = 0; u < kHonestUsers; ++u) {
    const std::vector<uint32_t> values = {static_cast<uint32_t>(u % 8),
                                          static_cast<uint32_t>(u / 8)};
    frames.push_back(client.EncodeUser(values, rng).ValueOrDie());
  }
  // The crafted frame: an honest report with one field altered,
  // re-serialized and re-framed, so its framing and checksum are valid.
  LdpReport crafted =
      LdpReport::Deserialize(UnframeReport(frames[0]).ValueOrDie())
          .ValueOrDie();
  c.craft(&crafted);
  const std::string crafted_frame = FrameReport(crafted.Serialize());

  const auto ingest = [&](CollectionServer& server, bool with_crafted) {
    std::vector<CollectionServer::ReportFrame> batch_frames;
    for (uint64_t u = 0; u < kHonestUsers; ++u) {
      batch_frames.push_back({frames[u], u});
    }
    if (with_crafted) batch_frames.push_back({crafted_frame, kHonestUsers});
    if (batch) {
      ASSERT_TRUE(server.IngestBatch(batch_frames).ok());
      return;
    }
    for (const auto& frame : batch_frames) {
      const Status status = server.Ingest(frame.bytes, frame.user);
      EXPECT_EQ(status.ok(), frame.user < kHonestUsers) << status.ToString();
    }
  };
  CollectionServer attacked =
      CollectionServer::Create(spec, threads).ValueOrDie();
  CollectionServer clean = CollectionServer::Create(spec, threads).ValueOrDie();
  ingest(attacked, true);
  ingest(clean, false);

  EXPECT_EQ(attacked.ingest_stats().accepted, kHonestUsers);
  EXPECT_EQ(attacked.ingest_stats().rejected, 1u);
  EXPECT_EQ(attacked.num_reports(), clean.num_reports());
  const WeightVector w = WeightVector::Ones(kHonestUsers + 1);
  for (const std::vector<Interval>& box :
       {std::vector<Interval>{{0, 7}, {0, 7}},
        std::vector<Interval>{{1, 5}, {2, 6}}}) {
    const double got = attacked.EstimateBox(box, w).ValueOrDie();
    const double want = clean.EstimateBox(box, w).ValueOrDie();
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOracles, PayloadCheckTest,
    ::testing::Combine(::testing::ValuesIn(Cases()), ::testing::Values(1, 4),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_threads" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_IngestBatch" : "_Ingest");
    });

}  // namespace
}  // namespace ldp
