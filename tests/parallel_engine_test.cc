// End-to-end determinism of the shard-parallel pipeline: for a fixed seed,
// the engine's estimates are bit-identical for every num_threads (encoding
// uses per-chunk RNG substreams, shards merge in order, and estimation
// reduces in fixed chunk order), and CollectionServer::IngestBatch is
// equivalent to a serial Ingest loop — same stats, same estimates — even
// with corrupt, duplicate, and misfit frames in the batch, on both sides of
// its one-shard-per-kExecChunkRows rule. Ingest itself is a one-frame
// IngestBatch that must stay on the calling thread.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "exec/execution_context.h"
#include "obs/metrics.h"
#include "storage/fault_fs.h"

namespace ldp {
namespace {

const Table& SmallTable() {
  static const Table* table = new Table(MakeIpums4D(3000, 12, /*seed=*/21));
  return *table;
}

std::vector<double> RunWorkload(const AnalyticsEngine& engine) {
  const char* sqls[] = {
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 2 AND 9",
      "SELECT SUM(weekly_work_hour) FROM T WHERE income BETWEEN 0 AND 5",
      "SELECT COUNT(*) FROM T WHERE marital_status = 2 OR age = 3",
      "SELECT AVG(weekly_work_hour) FROM T WHERE age BETWEEN 1 AND 10 "
      "AND sex = 1",
  };
  std::vector<double> answers;
  for (const char* sql : sqls) {
    answers.push_back(engine.ExecuteSql(sql).ValueOrDie());
  }
  return answers;
}

class ParallelEngineTest : public ::testing::TestWithParam<MechanismKind> {};

TEST_P(ParallelEngineTest, EstimatesBitIdenticalAcrossThreadCounts) {
  EngineOptions options;
  options.mechanism = GetParam();
  options.params.epsilon = 2.0;
  options.seed = 1234;

  options.num_threads = 1;
  const auto serial =
      AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
  const std::vector<double> expected = RunWorkload(*serial);

  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    const auto engine =
        AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
    const std::vector<double> answers = RunWorkload(*engine);
    ASSERT_EQ(answers.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(answers[i], expected[i])
          << MechanismKindName(GetParam()) << " query " << i << " with "
          << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, ParallelEngineTest,
                         ::testing::Values(MechanismKind::kHi,
                                           MechanismKind::kHio,
                                           MechanismKind::kSc,
                                           MechanismKind::kMg),
                         [](const ::testing::TestParamInfo<MechanismKind>&
                                info) { return MechanismKindName(info.param); });

TEST(ParallelEngineTest, AutoThreadCountMatchesSerial) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = 2.0;
  options.seed = 77;
  options.num_threads = 1;
  const auto serial =
      AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
  options.num_threads = 0;  // one worker per hardware thread
  const auto parallel =
      AnalyticsEngine::Create(SmallTable(), options).ValueOrDie();
  EXPECT_EQ(RunWorkload(*parallel), RunWorkload(*serial));
}

// --- IngestBatch vs serial Ingest ----------------------------------------

struct Wire {
  CollectionSpec spec;
  std::vector<CollectionServer::ReportFrame> frames;   // views into storage
  std::vector<std::string> storage;  // includes corrupt/misfit payloads
};

Schema WireSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("age", 54).ok());
  EXPECT_TRUE(schema.AddCategorical("state", 6).ok());
  return schema;
}

/// A batch of 2000 valid frames salted with corrupt bytes, intra-batch
/// duplicates, and structurally-valid-but-misfit reports from an alien spec.
Wire MakeWire() {
  Wire wire;
  MechanismParams params;
  params.epsilon = 2.0;
  wire.spec =
      CollectionSpec::FromSchema(WireSchema(), MechanismKind::kHio, params);
  const LdpClient client = LdpClient::Create(wire.spec).ValueOrDie();

  // Same schema, different mechanism: an SC report carries one entry per
  // dimension where HIO expects a single sampled level, so it unframes and
  // deserializes fine but fails the mechanism's validation.
  const CollectionSpec alien_spec =
      CollectionSpec::FromSchema(WireSchema(), MechanismKind::kSc, params);
  const LdpClient alien_client = LdpClient::Create(alien_spec).ValueOrDie();

  Rng rng(11);
  Rng data_rng(12);
  const uint64_t n = 2000;
  wire.storage.reserve(n + 2);
  std::vector<std::pair<size_t, uint64_t>> plan;  // (storage index, user)
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(data_rng.UniformInt(54)),
        static_cast<uint32_t>(data_rng.UniformInt(6))};
    wire.storage.push_back(client.EncodeUser(values, rng).ValueOrDie());
    plan.push_back({wire.storage.size() - 1, u});
    if (u % 401 == 7) {
      // Intra-batch duplicate: same user again (first occurrence wins).
      plan.push_back({wire.storage.size() - 1, u});
    }
    if (u % 503 == 11) {
      // Bit-flipped copy under a fresh user id: checksum must catch it.
      std::string bad = wire.storage.back();
      bad[bad.size() / 2] ^= 0x20;
      wire.storage.push_back(std::move(bad));
      plan.push_back({wire.storage.size() - 1, n + u});
    }
    if (u % 701 == 13) {
      // Well-formed frame whose report shape doesn't fit the mechanism:
      // decodes, fails validation, counted as rejected.
      wire.storage.push_back(
          alien_client.EncodeUser(values, rng).ValueOrDie());
      plan.push_back({wire.storage.size() - 1, 2 * n + u});
    }
  }
  wire.frames.reserve(plan.size());
  for (const auto& [index, user] : plan) {
    wire.frames.push_back(CollectionServer::ReportFrame{wire.storage[index], user});
  }
  return wire;
}

void ExpectSameOutcome(const CollectionServer& a, const CollectionServer& b) {
  EXPECT_EQ(a.ingest_stats().accepted, b.ingest_stats().accepted);
  EXPECT_EQ(a.ingest_stats().duplicate, b.ingest_stats().duplicate);
  EXPECT_EQ(a.ingest_stats().corrupt, b.ingest_stats().corrupt);
  EXPECT_EQ(a.ingest_stats().rejected, b.ingest_stats().rejected);
  EXPECT_EQ(a.num_reports(), b.num_reports());
  const WeightVector w = WeightVector::Ones(3 * 2000);
  const std::vector<Interval> ranges = {{10, 40}, {2, 2}};
  EXPECT_EQ(a.EstimateBox(ranges, w).ValueOrDie(),
            b.EstimateBox(ranges, w).ValueOrDie());
}

TEST(IngestBatchTest, MatchesSerialIngestWithFaultyFrames) {
  const Wire wire = MakeWire();

  CollectionServer serial = CollectionServer::Create(wire.spec).ValueOrDie();
  for (const CollectionServer::ReportFrame& f : wire.frames) {
    (void)serial.Ingest(f.bytes, f.user);  // faulty frames return an error
  }
  EXPECT_GT(serial.ingest_stats().duplicate, 0u);
  EXPECT_GT(serial.ingest_stats().corrupt, 0u);
  EXPECT_GT(serial.ingest_stats().rejected, 0u);

  for (const int threads : {1, 4}) {
    CollectionServer batched =
        CollectionServer::Create(wire.spec, threads).ValueOrDie();
    ASSERT_TRUE(batched.IngestBatch(wire.frames).ok());
    ExpectSameOutcome(batched, serial);
  }
}

TEST(IngestBatchTest, SplitBatchesMatchOneBatch) {
  const Wire wire = MakeWire();
  CollectionServer one = CollectionServer::Create(wire.spec, 4).ValueOrDie();
  ASSERT_TRUE(one.IngestBatch(wire.frames).ok());

  CollectionServer split = CollectionServer::Create(wire.spec, 4).ValueOrDie();
  const size_t cut = wire.frames.size() / 3;
  const std::span<const CollectionServer::ReportFrame> frames(wire.frames);
  ASSERT_TRUE(split.IngestBatch(frames.subspan(0, cut)).ok());
  ASSERT_TRUE(split.IngestBatch(frames.subspan(cut)).ok());
  ExpectSameOutcome(split, one);
}

// Phase C adds at most kExecChunkRows accepted reports straight into the
// mechanism and spreads more over one shard per kExecChunkRows. Batches on
// both sides of that rule, on the pooled HIO+HDG+MG spec of the collection
// benchmark, must leave exactly the state serial Ingest leaves.
TEST(IngestBatchTest, ShardPathMatchesSerialIngestAcrossTheChunkBoundary) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("age", 64).ok());
  ASSERT_TRUE(schema.AddOrdinal("income", 64).ok());
  ASSERT_TRUE(schema.AddCategorical("marital_status", 6).ok());
  ASSERT_TRUE(schema.AddCategorical("sex", 2).ok());
  const uint64_t kAccepted[] = {kExecChunkRows - 1, kExecChunkRows,
                                kExecChunkRows + 1, 3 * kExecChunkRows + 5};
  uint64_t users = 0;
  for (const uint64_t accepted : kAccepted) users += accepted;
  MechanismParams params;
  params.epsilon = 2.0;
  params.hash_pool_size = 1024;
  params.population_hint = users;
  const std::vector<MechanismKind> kinds = {
      MechanismKind::kHio, MechanismKind::kHdg, MechanismKind::kMg};
  const CollectionSpec spec = CollectionSpec::FromSchema(schema, kinds, params);
  const LdpClient client = LdpClient::Create(spec).ValueOrDie();
  LdpReport misfit;  // well-formed, but no mechanism takes two entries
  misfit.entries.resize(2);

  // Per batch, (frame, user) in ingest order: every accepted user once,
  // salted with intra- and cross-batch duplicates, bit-flipped frames and
  // misfit reports under user ids no accepted frame uses.
  std::vector<std::string> storage;
  std::vector<std::vector<std::pair<size_t, uint64_t>>> plans;
  Rng rng(31);
  Rng data_rng(32);
  uint64_t user = 0;
  uint64_t fault_user = users;
  for (const uint64_t accepted : kAccepted) {
    std::vector<std::pair<size_t, uint64_t>>& plan = plans.emplace_back();
    if (user > 0) plan.push_back({0, 0});  // user 0 reported already
    for (uint64_t a = 0; a < accepted; ++a, ++user) {
      const std::vector<uint32_t> values = {
          static_cast<uint32_t>(data_rng.UniformInt(64)),
          static_cast<uint32_t>(data_rng.UniformInt(64)),
          static_cast<uint32_t>(data_rng.UniformInt(6)),
          static_cast<uint32_t>(data_rng.UniformInt(2))};
      storage.push_back(client.EncodeUser(values, rng).ValueOrDie());
      plan.push_back({storage.size() - 1, user});
      if (a % 1009 == 5) plan.push_back({storage.size() - 1, user});
      if (a % 1013 == 7) {
        std::string bad = storage.back();
        bad[bad.size() / 2] ^= 0x20;
        storage.push_back(std::move(bad));
        plan.push_back({storage.size() - 1, fault_user++});
      }
      if (a % 1019 == 11) {
        storage.push_back(FrameReport(misfit.Serialize()));
        plan.push_back({storage.size() - 1, fault_user++});
      }
    }
  }

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  CollectionServer serial = CollectionServer::Create(spec).ValueOrDie();
  std::vector<CollectionServer> batched;
  for (const int threads : thread_counts) {
    batched.push_back(CollectionServer::Create(spec, threads).ValueOrDie());
  }
  // Fractional weights make the estimate bits depend on the order reports
  // were added in, not only on which reports were added.
  std::vector<double> measure(users);
  for (uint64_t u = 0; u < users; ++u) measure[u] = 1.0 + 0.1 * (u % 7);
  const WeightVector weights(std::move(measure));
  const Interval all64{0, 63}, all6{0, 5}, all2{0, 1};
  const std::vector<std::vector<Interval>> boxes = {
      {{20, 40}, all64, all6, all2}, {{10, 50}, {5, 20}, all6, all2},
      {all64, all64, {2, 2}, {1, 1}}};
  uint64_t accepted_through = 0;
  for (size_t b = 0; b < plans.size(); ++b) {
    std::vector<CollectionServer::ReportFrame> frames;
    for (const auto& [index, u] : plans[b]) {
      frames.push_back(CollectionServer::ReportFrame{storage[index], u});
      (void)serial.Ingest(storage[index], u);  // faulty frames return errors
    }
    accepted_through += kAccepted[b];
    ASSERT_EQ(serial.ingest_stats().accepted, accepted_through);
    for (size_t t = 0; t < batched.size(); ++t) {
      SCOPED_TRACE("batch " + std::to_string(b) + ", threads " +
                   std::to_string(thread_counts[t]));
      CollectionServer& server = batched[t];
      ASSERT_TRUE(server.IngestBatch(frames).ok());
      EXPECT_EQ(server.ingest_stats().accepted, serial.ingest_stats().accepted);
      EXPECT_EQ(server.ingest_stats().duplicate,
                serial.ingest_stats().duplicate);
      EXPECT_EQ(server.ingest_stats().corrupt, serial.ingest_stats().corrupt);
      EXPECT_EQ(server.ingest_stats().rejected,
                serial.ingest_stats().rejected);
      EXPECT_EQ(server.num_reports(), serial.num_reports());
      for (const auto& box : boxes) {
        EXPECT_EQ(server.EstimateBox(box, weights).ValueOrDie(),
                  serial.EstimateBox(box, weights).ValueOrDie());
      }
    }
  }
  EXPECT_GT(serial.ingest_stats().duplicate, 0u);
  EXPECT_GT(serial.ingest_stats().corrupt, 0u);
  EXPECT_GT(serial.ingest_stats().rejected, 0u);
}

TEST(IngestBatchTest, EmptyBatchIsANoOp) {
  const CollectionSpec spec = MakeWire().spec;
  CollectionServer server = CollectionServer::Create(spec, 2).ValueOrDie();
  EXPECT_TRUE(server.IngestBatch({}).ok());
  EXPECT_EQ(server.num_reports(), 0u);
}

// A one-frame Ingest on a durable 4-thread server appends and decodes on the
// calling thread: it dispatches at most one execution chunk, whatever the
// frame's fate (the first frames of the wire hold accepted, duplicate,
// corrupt and misfit ones).
TEST(OneFrameIngestTest, DurableIngestStaysOnTheCallingThread) {
  const Wire wire = MakeWire();
  FaultFs fs;
  StorageOptions storage;
  storage.dir = "/campaign";
  storage.fs = &fs;
  CollectionServer server =
      CollectionServer::CreateDurable(wire.spec, storage, 4).ValueOrDie();
  ASSERT_EQ(server.num_threads(), 4);
  GlobalMetrics().set_enabled(true);
  Counter* chunks = GlobalMetrics().counter("exec.chunks");
  const uint64_t frames = 24;
  for (uint64_t i = 0; i < frames; ++i) {
    const uint64_t before = chunks->value();
    (void)server.Ingest(wire.frames[i].bytes, wire.frames[i].user);
    EXPECT_LE(chunks->value() - before, 1u) << "frame " << i;
  }
  const IngestStats& stats = server.ingest_stats();
  EXPECT_EQ(stats.total(), frames);
  EXPECT_GT(stats.duplicate, 0u);
  EXPECT_GT(stats.corrupt, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace ldp
