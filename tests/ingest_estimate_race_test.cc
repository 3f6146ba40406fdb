// Concurrency regression test (designed to run under TSan via the exec-tsan
// preset): ingestion rounds racing estimation on one CollectionServer.
//
// CollectionServer is externally synchronized — Ingest mutates, EstimateBox
// reads — so the test holds a std::shared_mutex the way a real serving layer
// would: ingest rounds under the unique lock, bursts of *concurrent*
// EstimateBox calls under the shared lock. The concurrent readers are the
// interesting part: with pooled OLH seeds they hit the accumulators' lazily
// built histogram caches (guarded internally by their own mutex) at the same
// time, and after each ingest round they find those histograms stale and
// extend them by the appended reports. The test proves no torn or stale
// snapshot is ever served: every estimate observed by a racing reader is
// bit-identical to the estimate a fresh serial server produces for the same
// ingested prefix.

#include <atomic>
#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/protocol.h"
#include "obs/metrics.h"

namespace ldp {
namespace {

constexpr uint64_t kRounds = 4;
constexpr uint64_t kUsersPerRound = 250;
constexpr uint64_t kUsers = kRounds * kUsersPerRound;

Schema RaceSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("age", 54).ok());
  EXPECT_TRUE(schema.AddCategorical("state", 6).ok());
  return schema;
}

const std::vector<std::vector<Interval>>& QueryBoxes() {
  static const auto* boxes = new std::vector<std::vector<Interval>>{
      {{10, 40}, {2, 2}},
      {{0, 53}, {0, 5}},
      {{5, 12}, {1, 4}},
  };
  return *boxes;
}

struct RaceSetup {
  CollectionSpec spec;
  std::vector<std::string> storage;                     // one frame per user
  std::vector<CollectionServer::ReportFrame> frames;    // views into storage
  /// num_reports after round r -> the exact estimate per query box.
  std::map<uint64_t, std::vector<double>> expected;
};

RaceSetup MakeSetup(uint32_t hash_pool_size) {
  RaceSetup setup;
  MechanismParams params;
  params.epsilon = 2.0;
  params.hash_pool_size = hash_pool_size;
  setup.spec =
      CollectionSpec::FromSchema(RaceSchema(), MechanismKind::kHio, params);
  const LdpClient client = LdpClient::Create(setup.spec).ValueOrDie();

  Rng rng(31);
  Rng data_rng(32);
  setup.storage.reserve(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(data_rng.UniformInt(54)),
        static_cast<uint32_t>(data_rng.UniformInt(6))};
    setup.storage.push_back(client.EncodeUser(values, rng).ValueOrDie());
  }
  setup.frames.reserve(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    setup.frames.push_back(
        CollectionServer::ReportFrame{setup.storage[u], u});
  }

  // Reference run: a serial server ingesting the same rounds records the
  // exact estimate for every (prefix, box) pair. Estimation is deterministic
  // given the ingested multiset and bit-identical across thread counts, so
  // the racing server must reproduce these doubles exactly.
  CollectionServer reference =
      CollectionServer::Create(setup.spec).ValueOrDie();
  const WeightVector weights = WeightVector::Ones(kUsers);
  const std::span<const CollectionServer::ReportFrame> frames(setup.frames);
  for (uint64_t r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(
        reference
            .IngestBatch(frames.subspan(r * kUsersPerRound, kUsersPerRound))
            .ok())
        << "round " << r;
    std::vector<double> per_box;
    for (const auto& box : QueryBoxes()) {
      per_box.push_back(reference.EstimateBox(box, weights).ValueOrDie());
    }
    setup.expected[reference.num_reports()] = std::move(per_box);
  }
  return setup;
}

/// Races ingest rounds against two readers on a fresh server for `setup`'s
/// spec; every estimate a reader sees must equal the serial reference.
void RunRace(const RaceSetup& setup) {
  const WeightVector weights = WeightVector::Ones(kUsers);
  const std::span<const CollectionServer::ReportFrame> frames(setup.frames);

  CollectionServer server =
      CollectionServer::Create(setup.spec, /*num_threads=*/3).ValueOrDie();

  std::shared_mutex mu;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_passes{0};
  std::atomic<int> failures{0};

  // Two racing readers: each pass takes the shared lock and runs every query
  // box. Both readers hold the shared lock together, so their EstimateBox
  // calls (and the lazy histogram-cache builds inside) genuinely overlap.
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      {
        std::shared_lock<std::shared_mutex> lock(mu);
        const uint64_t n = server.num_reports();
        if (n > 0) {
          const auto it = setup.expected.find(n);
          if (it == setup.expected.end()) {
            failures.fetch_add(1);  // a partially applied round leaked out
          } else {
            for (size_t b = 0; b < QueryBoxes().size(); ++b) {
              const double est =
                  server.EstimateBox(QueryBoxes()[b], weights).ValueOrDie();
              if (est != it->second[b]) failures.fetch_add(1);
            }
          }
        }
      }
      reader_passes.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);

  // Writer: alternate IngestBatch rounds with serial Ingest rounds, each
  // under the unique lock; between rounds, wait until the readers have
  // completed fresh passes so every intermediate prefix is actually probed.
  for (uint64_t r = 0; r < kRounds; ++r) {
    {
      std::unique_lock<std::shared_mutex> lock(mu);
      const auto round = frames.subspan(r * kUsersPerRound, kUsersPerRound);
      if (r % 2 == 0) {
        ASSERT_TRUE(server.IngestBatch(round).ok()) << "round " << r;
      } else {
        for (const CollectionServer::ReportFrame& f : round) {
          ASSERT_TRUE(server.Ingest(f.bytes, f.user).ok());
        }
      }
    }
    const uint64_t target = reader_passes.load(std::memory_order_acquire) + 4;
    while (reader_passes.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.num_reports(), kUsers);
  // Final state matches the reference exactly.
  const auto& final_expected = setup.expected.at(kUsers);
  for (size_t b = 0; b < QueryBoxes().size(); ++b) {
    EXPECT_EQ(server.EstimateBox(QueryBoxes()[b], weights).ValueOrDie(),
              final_expected[b])
        << "box " << b;
  }
  EXPECT_EQ(server.ingest_stats().accepted, kUsers);
  EXPECT_EQ(server.ingest_stats().quarantined(), 0u);
}

TEST(IngestEstimateRaceTest, ConcurrentReadersAlwaysSeeAConsistentPrefix) {
  RunRace(MakeSetup(/*hash_pool_size=*/0));  // raw report scans, no histograms
}

TEST(IngestEstimateRaceTest, ConcurrentReadersExtendPooledHistograms) {
  // A pool of 8 puts each of HIO's 8 groups (~31 reports each per round)
  // past the 2 * pool histogram threshold from the first round on, so the
  // readers build histograms and, after every later round, extend the stale
  // ones while racing each other.
  const RaceSetup setup = MakeSetup(/*hash_pool_size=*/8);
  GlobalMetrics().set_enabled(true);
  Counter* stale = GlobalMetrics().counter("fo_cache.stale_rebuilds");
  const uint64_t stale0 = stale->value();
  RunRace(setup);
  EXPECT_GT(stale->value(), stale0);
}

}  // namespace
}  // namespace ldp
