// Micro-benchmark for the durability tax on ingest: the same report stream
// through CollectionServer with the WAL off, and with the WAL on under each
// fsync policy (never / batch-of-16 / every-append). The WAL runs on the
// in-memory FaultFs so the numbers isolate the storage layer's framing,
// checksumming, and sync bookkeeping from physical disk latency; the
// fsync-always row still pays the per-append sync round trip through the
// file abstraction, which is the ordering cost a real deployment keeps.
//
//   ./bench/micro_wal_overhead                          # human-readable
//   ./bench/micro_wal_overhead --benchmark_format=json > BENCH_wal.json
//                                    # record a run (no baseline is committed)
//   ./bench/micro_wal_overhead --stats_json=wal_stats.json   # metrics dump

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/protocol.h"
#include "storage/fault_fs.h"

namespace ldp {
namespace {

constexpr uint64_t kUsers = 2048;

struct BenchInput {
  CollectionSpec spec;
  std::vector<std::string> frames;
};

const BenchInput& Input() {
  static const BenchInput* input = [] {
    auto* in = new BenchInput;
    Schema schema;
    (void)schema.AddOrdinal("age", 54);
    (void)schema.AddCategorical("state", 6);
    MechanismParams params;
    params.epsilon = 2.0;
    in->spec = CollectionSpec::FromSchema(schema, MechanismKind::kHio, params);
    const LdpClient client = LdpClient::Create(in->spec).ValueOrDie();
    Rng rng(11);
    Rng data_rng(12);
    in->frames.reserve(kUsers);
    for (uint64_t u = 0; u < kUsers; ++u) {
      const std::vector<uint32_t> values = {
          static_cast<uint32_t>(data_rng.UniformInt(54)),
          static_cast<uint32_t>(data_rng.UniformInt(6))};
      in->frames.push_back(client.EncodeUser(values, rng).ValueOrDie());
    }
    return in;
  }();
  return *input;
}

enum WalMode : int64_t {
  kWalOff = 0,
  kWalNever = 1,
  kWalBatch = 2,
  kWalAlways = 3,
};

const char* ModeLabel(int64_t mode) {
  switch (mode) {
    case kWalOff:
      return "wal_off";
    case kWalNever:
      return "wal_fsync_never";
    case kWalBatch:
      return "wal_fsync_batch16";
    case kWalAlways:
      return "wal_fsync_always";
  }
  return "?";
}

/// One full kUsers ingest per iteration; a fresh server (and fresh in-memory
/// WAL directory) each time so every iteration writes the log from offset 0.
void BM_IngestReports(benchmark::State& state) {
  const BenchInput& input = Input();
  const int64_t mode = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    FaultFs fs;
    StorageOptions storage;
    storage.dir = "/bench";
    storage.fs = &fs;
    storage.snapshot_every_frames = 0;  // isolate the WAL append path
    switch (mode) {
      case kWalNever:
        storage.sync = WalSyncPolicy::kNever;
        break;
      case kWalBatch:
        storage.sync = WalSyncPolicy::kBatch;
        storage.sync_every_appends = 16;
        break;
      case kWalAlways:
        storage.sync = WalSyncPolicy::kAlways;
        break;
      default:
        break;
    }
    CollectionServer server =
        (mode == kWalOff
             ? CollectionServer::Create(input.spec)
             : CollectionServer::CreateDurable(input.spec, storage))
            .ValueOrDie();
    state.ResumeTiming();

    for (uint64_t u = 0; u < kUsers; ++u) {
      const Status fate = server.Ingest(input.frames[u], u);
      benchmark::DoNotOptimize(fate.ok());
    }
    if (mode != kWalOff && !server.Flush().ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * kUsers);
  state.SetLabel(ModeLabel(mode));
}
BENCHMARK(BM_IngestReports)
    ->Arg(kWalOff)
    ->Arg(kWalNever)
    ->Arg(kWalBatch)
    ->Arg(kWalAlways)
    ->Unit(benchmark::kMillisecond);

/// The batch path amortizes one WAL record (and at most one fsync) over the
/// whole batch; this is the deployment-recommended shape under fsync-always.
void BM_IngestBatch(benchmark::State& state) {
  const BenchInput& input = Input();
  const int64_t mode = state.range(0);
  std::vector<CollectionServer::ReportFrame> frames;
  frames.reserve(kUsers);
  for (uint64_t u = 0; u < kUsers; ++u) {
    frames.push_back(CollectionServer::ReportFrame{input.frames[u], u});
  }
  constexpr size_t kBatch = 256;
  for (auto _ : state) {
    state.PauseTiming();
    FaultFs fs;
    StorageOptions storage;
    storage.dir = "/bench";
    storage.fs = &fs;
    storage.snapshot_every_frames = 0;
    if (mode == kWalAlways) storage.sync = WalSyncPolicy::kAlways;
    CollectionServer server =
        (mode == kWalOff
             ? CollectionServer::Create(input.spec)
             : CollectionServer::CreateDurable(input.spec, storage))
            .ValueOrDie();
    state.ResumeTiming();

    const std::span<const CollectionServer::ReportFrame> all(frames);
    for (size_t off = 0; off < frames.size(); off += kBatch) {
      const Status st = server.IngestBatch(
          all.subspan(off, std::min(kBatch, frames.size() - off)));
      if (!st.ok()) std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations() * kUsers);
  state.SetLabel(ModeLabel(mode));
}
BENCHMARK(BM_IngestBatch)
    ->Arg(kWalOff)
    ->Arg(kWalAlways)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ldp

int main(int argc, char** argv) {
  ldp::bench::EnableStatsJsonFromArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
