// Micro-benchmarks for the observability subsystem's hot-path overhead:
// the raw cost of a Counter::Add / LatencyHistogram::Record with metrics
// enabled vs disabled, and the end-to-end cost of a repeated engine query
// in both modes. The library's contract is that metrics are observational
// only — estimates are bit-identical either way and a disabled registry
// reduces every would-be increment to one relaxed atomic load.
//
//   ./bench/micro_obs_overhead                          # human-readable
//   ./bench/micro_obs_overhead --benchmark_format=json > BENCH_obs.json
//                                    # record a run (no baseline is committed)
//   ./bench/micro_obs_overhead --stats_json=obs_stats.json   # metrics dump

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ldp {
namespace {

constexpr uint64_t kRows = 1u << 18;  // ~262k simulated users

/// Raw counter increment: sharded relaxed fetch_add when enabled, a single
/// relaxed load when disabled.
void BM_CounterAdd(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  GlobalMetrics().set_enabled(enabled);
  Counter* counter = GlobalMetrics().counter("bench.obs.counter");
  for (auto _ : state) {
    counter->Add(1);
  }
  GlobalMetrics().set_enabled(true);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_CounterAdd)->Arg(0)->Arg(1);

/// Raw histogram sample: bucket index via bit_width plus three relaxed adds
/// when enabled, a single relaxed load when disabled.
void BM_HistogramRecord(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  GlobalMetrics().set_enabled(enabled);
  LatencyHistogram* hist = GlobalMetrics().histogram("bench.obs.hist");
  uint64_t nanos = 1;
  for (auto _ : state) {
    hist->Record(nanos);
    nanos = (nanos * 2862933555777941757ull + 3037000493ull) >> 40;
  }
  GlobalMetrics().set_enabled(true);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_HistogramRecord)->Arg(0)->Arg(1);

/// End-to-end repeated query with metrics on vs off. This is the number the
/// obs overhead smoke test guards: the instrumented estimate path must stay
/// within a few percent of the uninstrumented one.
void BM_QueryEstimate(benchmark::State& state) {
  const bool metrics = state.range(0) != 0;
  static auto* engine = [] {
    static const Table* table =
        new Table(MakeAdultLike(kRows, /*m=*/1024, /*seed=*/7));
    EngineOptions options;
    options.mechanism = MechanismKind::kHio;
    options.params.epsilon = 2.0;
    options.params.hash_pool_size = 1024;
    options.seed = 42;
    // Cache off so every execution re-runs the instrumented kernels instead
    // of degenerating into hash-map probes.
    options.enable_estimate_cache = false;
    return AnalyticsEngine::Create(*table, options).ValueOrDie().release();
  }();
  GlobalMetrics().set_enabled(metrics);
  const std::string sql =
      "SELECT COUNT(*) FROM T WHERE age_like BETWEEN 100 AND 899";
  // Accumulate into the process-wide profile so --stats_json reports it.
  QueryProfile& profile = bench::WorkloadProfile();
  for (auto _ : state) {
    auto est = engine->ExecuteSql(sql, metrics ? &profile : nullptr);
    if (!est.ok()) {
      state.SkipWithError(est.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(est.value());
  }
  GlobalMetrics().set_enabled(true);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(metrics ? "metrics+profile" : "metrics-off");
}
BENCHMARK(BM_QueryEstimate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
