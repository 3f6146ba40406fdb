// Fault-injection sweep over the full client → channel → server → query
// pipeline: at every point of a drop/dup/corrupt (+ reorder/truncate) grid
// the COUNT estimate must stay unbiased w.r.t. the *accepted* cohort, with
// error bounded against the zero-fault baseline; at 100% corruption the
// server must answer with a typed error, never a crash or NaN.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "data/generator.h"
#include "engine/protocol.h"
#include "engine/transport.h"
#include "storage/fault_fs.h"

namespace ldp {
namespace {

constexpr uint64_t kUsers = 100000;

// One population shared by every sweep point (generation dominates setup).
const Table& Population() {
  static const Table* table = new Table(MakeIpums8D(kUsers, 54, /*seed=*/31));
  return *table;
}

void DeliverAll(FaultyChannel* channel, CollectionServer* server) {
  for (const auto& d : channel->Drain()) {
    // Non-OK outcomes are the server quarantining bad frames — expected.
    (void)server->Ingest(d.bytes, d.user);
  }
}

struct PipelineOutcome {
  double estimate = 0.0;
  double truth_accepted = 0.0;   // COUNT over users actually aggregated
  double sigma_bound = 0.0;      // sqrt(VarianceBound) of the estimator
  IngestStats ingest;
  ChannelStats channel;
  TransportClient::Stats client;
};

// Runs the whole deployment loop: encode every user, push the frame through
// the faulty channel with retries, drain into the server in waves (so
// deliveries interleave with sends), then answer one COUNT box query.
PipelineOutcome RunPipeline(const FaultRates& rates, uint64_t seed) {
  const Table& pop = Population();
  const Schema& schema = pop.schema();
  MechanismParams params;
  params.epsilon = 5.0;
  const CollectionSpec spec =
      CollectionSpec::FromSchema(schema, MechanismKind::kHio, params);
  LdpClient client =
      LdpClient::Create(CollectionSpec::Parse(spec.Serialize()).ValueOrDie())
          .ValueOrDie();
  CollectionServer server = CollectionServer::Create(spec).ValueOrDie();

  FaultyChannel channel = FaultyChannel::Create(rates, seed).ValueOrDie();
  SimulatedClock clock;
  TransportClient transport(&channel, &clock, RetryPolicy{}, seed + 1);

  Rng rng(seed + 2);
  const auto& dims = schema.sensitive_dims();
  std::vector<uint32_t> values(dims.size());
  for (uint64_t u = 0; u < pop.num_rows(); ++u) {
    for (size_t i = 0; i < dims.size(); ++i) {
      values[i] = pop.DimValue(dims[i], u);
    }
    const std::string frame = client.EncodeUser(values, rng).ValueOrDie();
    transport.SendWithRetry(u, frame);
    if ((u & 0xfff) == 0) DeliverAll(&channel, &server);
  }
  DeliverAll(&channel, &server);

  std::vector<Interval> ranges;
  for (const int attr : dims) {
    ranges.push_back(Interval{0, schema.attribute(attr).domain_size - 1});
  }
  ranges[0] = {10, 35};  // age band — the harness's COUNT query

  PipelineOutcome out;
  out.ingest = server.ingest_stats();
  out.channel = channel.stats();
  out.client = transport.stats();
  const WeightVector weights = WeightVector::Ones(kUsers);
  out.estimate = server.EstimateBox(ranges, weights).ValueOrDie();
  out.sigma_bound =
      std::sqrt(server.mechanism().VarianceBound(ranges, weights).ValueOrDie());
  for (uint64_t u = 0; u < pop.num_rows(); ++u) {
    if (server.has_report(u) && ranges[0].Contains(pop.DimValue(dims[0], u))) {
      out.truth_accepted += 1.0;
    }
  }
  return out;
}

TEST(FaultInjectionSweep, BoundedDegradationAcrossFaultGrid) {
  const PipelineOutcome base = RunPipeline(FaultRates{}, /*seed=*/101);
  EXPECT_EQ(base.ingest.accepted, kUsers);
  EXPECT_EQ(base.ingest.quarantined(), 0u);
  const double baseline_err = std::abs(base.estimate - base.truth_accepted);
  // The estimator's own LDP noise floor; |err| is one draw from it, so the
  // degradation bound compares against max(baseline, bound) to keep the
  // sweep deterministic-yet-meaningful across fault mixes.
  const double floor = std::max(baseline_err, base.sigma_bound);

  struct Point {
    const char* name;
    FaultRates rates;
  };
  const Point grid[] = {
      {"drop5", {.drop = 0.05}},
      {"drop10", {.drop = 0.10}},
      {"dup10", {.dup = 0.10}},
      {"corrupt10", {.corrupt = 0.10}},
      {"mixed10", {.drop = 0.10, .dup = 0.10, .reorder = 0.10,
                   .truncate = 0.05, .corrupt = 0.10}},
  };
  uint64_t seed = 202;
  for (const Point& p : grid) {
    SCOPED_TRACE(p.name);
    const PipelineOutcome got = RunPipeline(p.rates, seed++);
    // Estimates stay unbiased w.r.t. the accepted cohort: error bounded by
    // 2x the zero-fault floor even as up to ~30% of traffic misbehaves.
    const double err = std::abs(got.estimate - got.truth_accepted);
    EXPECT_LE(err, 2.0 * floor)
        << "estimate " << got.estimate << " vs accepted truth "
        << got.truth_accepted;
    // Dedup held: the mechanism ingested at most one report per user.
    EXPECT_EQ(got.ingest.accepted, got.ingest.total() - got.ingest.duplicate -
                                       got.ingest.quarantined());
    EXPECT_LE(got.ingest.accepted, kUsers);
    if (p.rates.dup > 0.0 || p.rates.drop > 0.0) {
      EXPECT_GT(got.ingest.duplicate, 0u) << "expected retry/dup echoes";
    }
    if (p.rates.corrupt > 0.0 || p.rates.truncate > 0.0) {
      EXPECT_GT(got.ingest.corrupt, 0u);
    }
    // Retries keep dropout mild: even the worst mix retains 80%+ of users.
    EXPECT_GE(got.ingest.accepted, kUsers * 8 / 10);
  }
}

TEST(FaultInjectionSweep, TotalCorruptionYieldsTypedErrorNotNan) {
  Schema schema;
  ASSERT_TRUE(schema.AddOrdinal("age", 54).ok());
  ASSERT_TRUE(schema.AddCategorical("state", 6).ok());
  MechanismParams params;
  params.epsilon = 2.0;
  const CollectionSpec spec =
      CollectionSpec::FromSchema(schema, MechanismKind::kHio, params);
  LdpClient client = LdpClient::Create(spec).ValueOrDie();
  CollectionServer server = CollectionServer::Create(spec).ValueOrDie();

  FaultRates rates;
  rates.corrupt = 1.0;
  FaultyChannel channel = FaultyChannel::Create(rates, 5).ValueOrDie();
  SimulatedClock clock;
  TransportClient transport(&channel, &clock, RetryPolicy{}, 6);

  Rng rng(7);
  const uint64_t n = 500;
  for (uint64_t u = 0; u < n; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(rng.UniformInt(54)),
        static_cast<uint32_t>(rng.UniformInt(6))};
    transport.SendWithRetry(u, client.EncodeUser(values, rng).ValueOrDie());
  }
  uint64_t non_ok = 0;
  for (const auto& d : channel.Drain()) {
    const uint64_t quarantined_before = server.ingest_stats().quarantined();
    const Status st = server.Ingest(d.bytes, d.user);
    EXPECT_FALSE(st.ok());
    // Every corruption case lands in quarantine, one count per frame.
    EXPECT_EQ(server.ingest_stats().quarantined(), quarantined_before + 1);
    ++non_ok;
  }
  EXPECT_GT(non_ok, 0u);
  EXPECT_EQ(server.num_reports(), 0u);
  EXPECT_EQ(server.ingest_stats().accepted, 0u);

  const WeightVector w = WeightVector::Ones(n);
  const std::vector<Interval> ranges = {{10, 35}, {0, 5}};
  const auto est = server.EstimateBox(ranges, w);
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), StatusCode::kFailedPrecondition);
  const auto pop_est = server.EstimateBoxForPopulation(ranges, w, n);
  EXPECT_FALSE(pop_est.ok());
}

// Ingest accepts any 64-bit user id and estimation indexes the caller's
// weights by it, so a weight vector with no entry for the largest accepted id
// must be refused with a typed error instead of being read past its end.
const std::vector<uint64_t>& SparseUsers() {
  static const std::vector<uint64_t> users = {1000000, 0, 1, 2, 3,
                                              4,       5, 6, 7, 8};
  return users;
}

CollectionSpec TwoDimSpec(MechanismKind kind) {
  Schema schema;
  LDP_CHECK(schema.AddOrdinal("age", 54).ok());
  LDP_CHECK(schema.AddCategorical("state", 6).ok());
  MechanismParams params;
  params.epsilon = 2.0;
  return CollectionSpec::FromSchema(schema, kind, params);
}

std::vector<std::string> SparseFrames(const CollectionSpec& spec) {
  const LdpClient client = LdpClient::Create(spec).ValueOrDie();
  Rng rng(11);
  std::vector<std::string> frames;
  for (size_t i = 0; i < SparseUsers().size(); ++i) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(rng.UniformInt(54)),
        static_cast<uint32_t>(rng.UniformInt(6))};
    frames.push_back(client.EncodeUser(values, rng).ValueOrDie());
  }
  return frames;
}

void ExpectShortWeightsRefused(const CollectionServer& server) {
  ASSERT_EQ(server.ingest_stats().accepted, SparseUsers().size());
  const std::vector<Interval> ranges = {{10, 35}, {0, 5}};
  const WeightVector short_weights = WeightVector::Ones(10);
  const auto est = server.EstimateBox(ranges, short_weights);
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument);
  const auto pop_est = server.EstimateBoxForPopulation(ranges, short_weights,
                                                       SparseUsers().size());
  ASSERT_FALSE(pop_est.ok());
  EXPECT_EQ(pop_est.status().code(), StatusCode::kInvalidArgument);
  // One entry past the largest id is enough.
  EXPECT_TRUE(
      server.EstimateBox(ranges, WeightVector::Ones(1000001)).ok());
}

TEST(FaultInjectionSweep, ShortWeightVectorIsTypedErrorNotOutOfBoundsRead) {
  for (const MechanismKind kind : {MechanismKind::kSc, MechanismKind::kHio}) {
    SCOPED_TRACE(MechanismKindName(kind));
    const CollectionSpec spec = TwoDimSpec(kind);
    const std::vector<std::string> frames = SparseFrames(spec);

    CollectionServer serial = CollectionServer::Create(spec).ValueOrDie();
    for (size_t i = 0; i < frames.size(); ++i) {
      ASSERT_TRUE(serial.Ingest(frames[i], SparseUsers()[i]).ok());
    }
    ExpectShortWeightsRefused(serial);

    CollectionServer batched = CollectionServer::Create(spec, 2).ValueOrDie();
    std::vector<CollectionServer::ReportFrame> batch;
    for (size_t i = 0; i < frames.size(); ++i) {
      batch.push_back({frames[i], SparseUsers()[i]});
    }
    ASSERT_TRUE(batched.IngestBatch(batch).ok());
    ExpectShortWeightsRefused(batched);
  }
}

TEST(FaultInjectionSweep, DurableReopenRestoresTheWeightBound) {
  const CollectionSpec spec = TwoDimSpec(MechanismKind::kSc);
  const std::vector<std::string> frames = SparseFrames(spec);
  // 0: the reopen replays the WAL alone; 4: the largest id (ingested first)
  // comes back from a snapshot.
  for (const uint64_t snapshot_every : {uint64_t{0}, uint64_t{4}}) {
    SCOPED_TRACE("snapshot every " + std::to_string(snapshot_every));
    FaultFs fs;
    StorageOptions storage;
    storage.dir = "/campaign";
    storage.fs = &fs;
    storage.sync = WalSyncPolicy::kAlways;
    storage.snapshot_every_frames = snapshot_every;
    {
      CollectionServer server =
          CollectionServer::CreateDurable(spec, storage).ValueOrDie();
      for (size_t i = 0; i < frames.size(); ++i) {
        ASSERT_TRUE(server.Ingest(frames[i], SparseUsers()[i]).ok());
      }
    }
    CollectionServer reopened =
        CollectionServer::CreateDurable(spec, storage).ValueOrDie();
    ASSERT_NE(reopened.recovery_info(), nullptr);
    EXPECT_EQ(reopened.recovery_info()->snapshot_loaded, snapshot_every > 0);
    ExpectShortWeightsRefused(reopened);
  }
}

TEST(FaultInjectionSweep, PopulationExtrapolationCorrectsDropout) {
  const PipelineOutcome got = RunPipeline(FaultRates{.drop = 0.10},
                                          /*seed=*/404);
  ASSERT_GT(got.ingest.accepted, 0u);
  // The accepted-cohort estimate scaled by N/accepted approximates the
  // population-level truth (dropout here is independent of values).
  const double scale = static_cast<double>(kUsers) /
                       static_cast<double>(got.ingest.accepted);
  const Table& pop = Population();
  const auto& dims = pop.schema().sensitive_dims();
  double truth_population = 0.0;
  for (uint64_t u = 0; u < pop.num_rows(); ++u) {
    const uint32_t age = pop.DimValue(dims[0], u);
    if (age >= 10 && age <= 35) truth_population += 1.0;
  }
  const double extrapolated = got.estimate * scale;
  EXPECT_NEAR(extrapolated, truth_population,
              2.0 * scale * std::max(got.sigma_bound, 1.0) +
                  0.02 * truth_population);
}

}  // namespace
}  // namespace ldp
