// Thread-scaling micro-benchmark for the shard-parallel execution core
// (src/exec/): simulated collection (encode + ingest), staged batch ingest
// (HIO, and the HIO+HDG+MG collect spec), and box-estimation throughput vs
// worker-thread count on a ~1M-row table.
// Box estimation additionally sweeps the SIMD kernel level (src/fo/simd/),
// so the scalar-vs-vector curve is visible at every thread count.
//
// Estimates are bit-identical across thread counts and SIMD levels (fixed
// per-chunk RNG substreams, ordered shard merges, fixed-chunk reductions,
// lane-per-value kernels), so only wall-clock time varies here. Every
// benchmark is timed in wall-clock time (UseRealTime): the default CPU time
// of the main thread would leave out the pool workers' share.
//
//   ./bench/micro_exec_scaling                          # human-readable
//   ./bench/micro_exec_scaling --benchmark_format=json > BENCH_exec.json
//   ./bench/micro_exec_scaling --simd=scalar            # force a level

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "engine/protocol.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

constexpr uint64_t kRows = 1u << 20;  // ~1M simulated users
constexpr double kEps = 2.0;

const Table& BenchTable() {
  static const Table* table = new Table(MakeIpums4D(kRows, 54, /*seed=*/29));
  return *table;
}

EngineOptions MakeOptions(int num_threads) {
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params.epsilon = kEps;
  options.seed = 42;
  options.num_threads = num_threads;
  return options;
}

/// Simulated collection: every row encodes an eps-LDP report under a
/// per-chunk RNG substream and the server ingests it into per-worker shards
/// merged in order. Dominated by encode + AddReport.
void BM_CollectionCreate(benchmark::State& state) {
  const Table& table = BenchTable();
  const EngineOptions options = MakeOptions(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto engine = AnalyticsEngine::Create(table, options);
    if (!engine.ok()) {
      state.SkipWithError(engine.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(engine.value());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CollectionCreate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

struct WirePayload {
  CollectionSpec spec;
  std::vector<std::string> frames;
};

/// One framed, checksummed report per row, encoded once and replayed into a
/// fresh CollectionServer each iteration. `collect` picks the perfbench
/// collect spec (HIO+HDG+MG over one population, OLH pool 1024) instead of
/// HIO alone.
WirePayload* MakePayload(bool collect) {
  auto* p = new WirePayload();
  const Table& table = BenchTable();
  MechanismParams params;
  params.epsilon = kEps;
  if (collect) {
    params.hash_pool_size = 1024;
    params.population_hint = kRows;
    const MechanismKind kinds[] = {MechanismKind::kHio, MechanismKind::kHdg,
                                   MechanismKind::kMg};
    p->spec = CollectionSpec::FromSchema(table.schema(), kinds, params);
  } else {
    p->spec = CollectionSpec::FromSchema(table.schema(), MechanismKind::kHio,
                                         params);
  }
  const LdpClient client = LdpClient::Create(p->spec).ValueOrDie();
  const auto& dims = table.schema().sensitive_dims();
  std::vector<uint32_t> values(dims.size());
  Rng rng(7);
  p->frames.reserve(table.num_rows());
  for (uint64_t u = 0; u < table.num_rows(); ++u) {
    for (size_t i = 0; i < dims.size(); ++i) {
      values[i] = table.DimValue(dims[i], u);
    }
    p->frames.push_back(client.EncodeUser(values, rng).ValueOrDie());
  }
  return p;
}

const WirePayload& Payload(bool collect) {
  if (collect) {
    static const WirePayload* payload = MakePayload(true);
    return *payload;
  }
  static const WirePayload* payload = MakePayload(false);
  return *payload;
}

/// Staged batch ingest: parallel decode/validate, serial frame-order commit,
/// then the accepted reports added straight into the mechanism or, past
/// kExecChunkRows of them, into per-worker shards merged in order. The second
/// arg is the frames per IngestBatch call: every frame in one call (the
/// shard path), or 1024-frame calls like a collection server's (the direct
/// path). The third picks the spec: 0 = HIO, 1 = the perfbench collect spec
/// (a MultiMechanism, whose reports route to one of three subs).
void BM_IngestBatch(benchmark::State& state) {
  const bool collect = state.range(2) != 0;
  const WirePayload& wire = Payload(collect);
  const int num_threads = static_cast<int>(state.range(0));
  const size_t batch = static_cast<size_t>(state.range(1));
  std::vector<CollectionServer::ReportFrame> frames(wire.frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    frames[i] = CollectionServer::ReportFrame{wire.frames[i], i};
  }
  const std::span<const CollectionServer::ReportFrame> all(frames);
  for (auto _ : state) {
    auto server = CollectionServer::Create(wire.spec, num_threads);
    if (!server.ok()) {
      state.SkipWithError(server.status().ToString().c_str());
      break;
    }
    Status status = Status::OK();
    for (size_t start = 0; status.ok() && start < all.size(); start += batch) {
      status = server.value().IngestBatch(
          all.subspan(start, std::min(batch, all.size() - start)));
    }
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(server.value().num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frames.size()));
  state.SetLabel(collect ? "collect" : "hio");
  state.counters["threads"] = static_cast<double>(num_threads);
}
BENCHMARK(BM_IngestBatch)
    ->ArgsProduct({{1, 2, 4, 8}, {static_cast<int64_t>(kRows), 1024}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Box estimation: the HIO level-grid fan-out runs one sub-query per level
/// combination; the exec context spreads them over the workers. The second
/// arg sweeps the frequency-oracle kernel level (0 = forced scalar, 1 =
/// best supported — identical to scalar on hosts without a vector unit);
/// the label names the level actually measured.
void BM_EstimateBox(benchmark::State& state) {
  const int num_threads = static_cast<int>(state.range(0));
  const SimdLevel level =
      state.range(1) == 0 ? SimdLevel::kScalar : DetectSimdLevel();
  static auto* engines =
      new std::map<int, std::unique_ptr<AnalyticsEngine>>();
  std::unique_ptr<AnalyticsEngine>& engine = (*engines)[num_threads];
  if (engine == nullptr) {
    // Estimate cache off: a repeated identical query would otherwise be
    // answered from cached node estimates, and neither the worker threads
    // nor the kernels would do any work after the first execution.
    EngineOptions options = MakeOptions(num_threads);
    options.enable_estimate_cache = false;
    engine = AnalyticsEngine::Create(BenchTable(), options).ValueOrDie();
  }
  // Force the swept level (the estimates are bit-identical at every level,
  // so engine reuse is sound).
  SetSimdLevel(level);
  const std::string sql =
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 10 AND 35 "
      "AND income BETWEEN 5 AND 40";
  for (auto _ : state) {
    auto est = engine->ExecuteSql(sql);
    if (!est.ok()) {
      state.SkipWithError(est.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(est.value());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["threads"] = static_cast<double>(num_threads);
  state.SetLabel(SimdLevelName(level));
  SetSimdLevel(SimdLevel::kAuto);
}
BENCHMARK(BM_EstimateBox)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ldp

int main(int argc, char** argv) {
  ldp::bench::EnableStatsJsonFromArgs(&argc, argv);
  ldp::bench::ApplySimdFromArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
