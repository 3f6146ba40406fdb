// Micro-benchmarks for the batched estimation kernels (FoAccumulator::
// EstimateManyWeighted), the SIMD kernel layer (src/fo/simd/), and the
// cross-query node-estimate cache: one-value estimate calls vs one
// batched kernel call over the same values, scalar vs vectorized inner
// loops per frequency oracle, and repeated-query cost with the cache on vs
// off, on a ~1M-row table.
//
// All paths produce bit-identical estimates; only the cost differs. The
// one-value baseline is what every mechanism fan-out paid before batching
// (one full pass over the reports, or one histogram probe, per value).
//
//   ./bench/micro_estimate_batch                          # human-readable
//   ./bench/micro_estimate_batch --benchmark_repetitions=5
//       --benchmark_format=json > BENCH_estimate.json     # record a run
//   ./bench/micro_estimate_batch --simd=scalar            # force a level
//
// No baseline is committed; record one from a RELEASE build (the
// release-bench preset) when comparing: debug-build numbers under-report
// the vectorized kernels by an order of magnitude.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

constexpr uint64_t kRows = 1u << 20;  // ~1M simulated users
constexpr double kEps = 2.0;

/// One OLH accumulator fed kRows reports drawn from a bell-shaped column,
/// shared across iterations (estimation is read-only). Keyed by pool size.
const OlhAccumulator& OlhAcc(uint32_t pool, uint64_t domain) {
  static auto* accs = new std::vector<std::unique_ptr<OlhAccumulator>>();
  static auto* protos = new std::vector<std::unique_ptr<OlhProtocol>>();
  for (size_t i = 0; i < protos->size(); ++i) {
    if ((*protos)[i]->hash_pool_size() == pool) return *(*accs)[i];
  }
  protos->push_back(std::make_unique<OlhProtocol>(kEps, domain, pool));
  auto acc = std::make_unique<OlhAccumulator>(*protos->back());
  const Table table = MakeAdultLike(kRows, domain, /*seed=*/7);
  const auto& col = table.DimColumn(table.schema().sensitive_dims()[0]);
  Rng rng(4);
  for (uint64_t u = 0; u < kRows; ++u) {
    acc->Add(protos->back()->Encode(col[u], rng), u);
  }
  accs->push_back(std::move(acc));
  return *accs->back();
}

std::vector<uint64_t> ValueSet(size_t count, uint64_t domain) {
  std::vector<uint64_t> values(count);
  for (size_t i = 0; i < count; ++i) values[i] = (i * 131) % domain;
  return values;
}

/// Scalar baseline: one EstimateWeighted call per value — the per-node cost
/// mechanisms paid before batching (each call re-walks the reports for the
/// raw path, or re-probes the histogram for the pooled path).
void BM_OlhEstimateScalar(benchmark::State& state) {
  const uint32_t pool = static_cast<uint32_t>(state.range(0));
  const size_t num_values = static_cast<size_t>(state.range(1));
  const uint64_t domain = 1024;
  const OlhAccumulator& acc = OlhAcc(pool, domain);
  const WeightVector w = WeightVector::Ones(kRows);
  const std::vector<uint64_t> values = ValueSet(num_values, domain);
  std::vector<double> out(num_values);
  (void)acc.EstimateWeighted(0, w);  // warm the histogram cache (pooled path)
  for (auto _ : state) {
    for (size_t i = 0; i < num_values; ++i) {
      out[i] = acc.EstimateWeighted(values[i], w);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_values));
  state.SetLabel(pool == 0 ? "unpooled" : "pooled");
}
BENCHMARK(BM_OlhEstimateScalar)
    ->Args({0, 256})
    ->Args({1024, 256})
    ->Args({1024, 1024})
    ->Unit(benchmark::kMillisecond);

/// Batched kernel: one EstimateManyWeighted call for all values — a single
/// report pass (raw path) or histogram fetch (pooled path) with per-report
/// work amortized over the value tile. Bit-identical to the scalar loop.
void BM_OlhEstimateBatched(benchmark::State& state) {
  const uint32_t pool = static_cast<uint32_t>(state.range(0));
  const size_t num_values = static_cast<size_t>(state.range(1));
  const uint64_t domain = 1024;
  const OlhAccumulator& acc = OlhAcc(pool, domain);
  const WeightVector w = WeightVector::Ones(kRows);
  const std::vector<uint64_t> values = ValueSet(num_values, domain);
  std::vector<double> out(num_values);
  (void)acc.EstimateWeighted(0, w);  // warm the histogram cache (pooled path)
  for (auto _ : state) {
    acc.EstimateManyWeighted(values, w, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_values));
  state.SetLabel(pool == 0 ? "unpooled" : "pooled");
}
BENCHMARK(BM_OlhEstimateBatched)
    ->Args({0, 256})
    ->Args({1024, 256})
    ->Args({1024, 1024})
    ->Unit(benchmark::kMillisecond);

/// OUE keeps a bit vector per report, so the scalar loop re-streams all
/// ~kRows rows once per value; the batched kernel streams them once total.
const OueAccumulator& OueAcc(uint64_t domain) {
  static auto* proto = new OueProtocol(kEps, domain);
  static auto* acc = [&] {
    auto* a = new OueAccumulator(*proto);
    const Table table = MakeAdultLike(kRows, domain, /*seed=*/7);
    const auto& col = table.DimColumn(table.schema().sensitive_dims()[0]);
    Rng rng(5);
    for (uint64_t u = 0; u < kRows; ++u) a->Add(proto->Encode(col[u], rng), u);
    return a;
  }();
  return *acc;
}

void BM_OueEstimate(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const size_t num_values = 256;
  const uint64_t domain = 1024;
  const OueAccumulator& acc = OueAcc(domain);
  const WeightVector w = WeightVector::Ones(kRows);
  const std::vector<uint64_t> values = ValueSet(num_values, domain);
  std::vector<double> out(num_values);
  for (auto _ : state) {
    if (batched) {
      acc.EstimateManyWeighted(values, w, out);
    } else {
      for (size_t i = 0; i < num_values; ++i) {
        out[i] = acc.EstimateWeighted(values[i], w);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_values));
  state.SetLabel(batched ? "batched" : "scalar");
}
BENCHMARK(BM_OueEstimate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Per-kernel scalar-vs-SIMD curves (src/fo/simd/). Each bench drives one
// FoKernels entry directly on synthetic inputs — the exact inner loop the
// accumulators run, with no gating, caching, or finalization noise around
// it. Arg 0 = forced scalar, arg 1 = best level this binary + host supports
// (identical to scalar under LDPMDA_DISABLE_SIMD or on hosts without a
// vector unit, so the curve degenerates gracefully). The label names the
// level actually measured; `reports_per_sec` counts reduction-dimension
// elements consumed per second (reports for the raw scans and SC's kernels,
// pool seeds for the pooled OLH histogram, spectrum entries for HR).

constexpr uint64_t kKernelRows = 1u << 18;
constexpr uint32_t kKernelG = 8;       // OLH hash range (~e^eps + 1 at eps=2)
constexpr uint32_t kKernelPool = 1024;
constexpr uint64_t kKernelDomain = 1024;
constexpr size_t kKernelSpectrum = 1u << 16;

/// Resolves the bench arg to a kernel table and labels the state with the
/// level actually measured.
const FoKernels& KernelTable(benchmark::State& state) {
  const SimdLevel level =
      state.range(0) == 0 ? SimdLevel::kScalar : DetectSimdLevel();
  state.SetLabel(SimdLevelName(level));
  return KernelsForLevel(level);
}

void SetReportsPerSec(benchmark::State& state, double per_iteration) {
  state.counters["reports_per_sec"] = benchmark::Counter(
      per_iteration * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

/// Synthetic kernel inputs, shared across iterations and levels (kernels are
/// read-only in everything but theta). Distributions match what the
/// accumulators feed: uniform report values/seeds, unit weights, dense OUE
/// bit rows, signed HR sums.
struct KernelInputs {
  std::vector<uint32_t> seeds, ys;
  std::vector<uint64_t> users, oue_bits, hr_indices;
  std::vector<double> weights, hist, hr_sums;
};

const KernelInputs& Inputs() {
  static const KernelInputs* inputs = [] {
    auto* in = new KernelInputs();
    Rng rng(11);
    in->seeds.resize(kKernelRows);
    in->ys.resize(kKernelRows);
    in->users.resize(kKernelRows);
    in->weights.resize(kKernelRows, 1.0);
    const size_t words = kKernelDomain / 64;
    in->oue_bits.resize(kKernelRows * words);
    for (uint64_t i = 0; i < kKernelRows; ++i) {
      in->seeds[i] = static_cast<uint32_t>(rng());
      in->ys[i] = static_cast<uint32_t>(rng.UniformInt(kKernelG));
      in->users[i] = i;
      for (size_t w = 0; w < words; ++w) in->oue_bits[i * words + w] = rng();
    }
    in->hist.resize(static_cast<size_t>(kKernelPool) * kKernelG);
    for (double& h : in->hist) h = rng.UniformDouble();
    in->hr_indices.resize(kKernelSpectrum);
    in->hr_sums.resize(kKernelSpectrum);
    for (size_t e = 0; e < kKernelSpectrum; ++e) {
      in->hr_indices[e] = rng.UniformInt(1u << 20);
      in->hr_sums[e] = rng.UniformDouble() - 0.5;
    }
    return in;
  }();
  return *inputs;
}

void BM_KernelOlhRaw(benchmark::State& state) {
  const FoKernels& kernels = KernelTable(state);
  const KernelInputs& in = Inputs();
  const std::vector<uint64_t> values = ValueSet(64, kKernelDomain);
  std::vector<double> theta(values.size());
  for (auto _ : state) {
    std::fill(theta.begin(), theta.end(), 0.0);
    kernels.olh_raw(in.seeds.data(), in.ys.data(), in.users.data(),
                    kKernelRows, in.weights.data(), kKernelG, values.data(),
                    values.size(), theta.data());
    benchmark::DoNotOptimize(theta.data());
  }
  SetReportsPerSec(state, static_cast<double>(kKernelRows));
}
BENCHMARK(BM_KernelOlhRaw)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_KernelOlhHist(benchmark::State& state) {
  const FoKernels& kernels = KernelTable(state);
  const KernelInputs& in = Inputs();
  const std::vector<uint64_t> values = ValueSet(1024, kKernelDomain);
  std::vector<double> theta(values.size());
  for (auto _ : state) {
    std::fill(theta.begin(), theta.end(), 0.0);
    kernels.olh_hist(in.hist.data(), kKernelPool, kKernelG, values.data(),
                     values.size(), theta.data());
    benchmark::DoNotOptimize(theta.data());
  }
  SetReportsPerSec(state, static_cast<double>(kKernelPool));
}
BENCHMARK(BM_KernelOlhHist)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_KernelOueRaw(benchmark::State& state) {
  const FoKernels& kernels = KernelTable(state);
  const KernelInputs& in = Inputs();
  const std::vector<uint64_t> values = ValueSet(64, kKernelDomain);
  std::vector<double> theta(values.size());
  for (auto _ : state) {
    std::fill(theta.begin(), theta.end(), 0.0);
    kernels.oue_raw(in.oue_bits.data(), kKernelDomain / 64, in.users.data(),
                    kKernelRows, in.weights.data(), values.data(),
                    values.size(), theta.data());
    benchmark::DoNotOptimize(theta.data());
  }
  SetReportsPerSec(state, static_cast<double>(kKernelRows));
}
BENCHMARK(BM_KernelOueRaw)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_KernelHrSpectrum(benchmark::State& state) {
  const FoKernels& kernels = KernelTable(state);
  const KernelInputs& in = Inputs();
  const std::vector<uint64_t> values = ValueSet(256, 1u << 20);
  std::vector<double> total(values.size());
  for (auto _ : state) {
    std::fill(total.begin(), total.end(), 0.0);
    kernels.hr_spectrum(in.hr_indices.data(), in.hr_sums.data(),
                        kKernelSpectrum, values.data(), values.size(),
                        total.data());
    benchmark::DoNotOptimize(total.data());
  }
  SetReportsPerSec(state, static_cast<double>(kKernelSpectrum));
}
BENCHMARK(BM_KernelHrSpectrum)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// SC's support-bit hashing: 4 value rows over kKernelRows reports, at
/// g = 2 (a power of two: the AVX2 kernel takes the bucket by a shift) and
/// g = 3 (the multiply-high every g can use). The second arg is g.
void BM_KernelOlhSupportBits(benchmark::State& state) {
  const FoKernels& kernels = KernelTable(state);
  const KernelInputs& in = Inputs();
  const uint32_t g = static_cast<uint32_t>(state.range(1));
  std::vector<uint32_t> ys(kKernelRows);
  for (uint64_t i = 0; i < kKernelRows; ++i) ys[i] = in.ys[i] % g;
  const std::vector<uint64_t> values = ValueSet(4, kKernelDomain);
  const size_t words = kKernelRows / 64;
  std::vector<uint64_t> bits(values.size() * words);
  for (auto _ : state) {
    kernels.olh_support_bits(in.seeds.data(), ys.data(), kKernelRows, g,
                             values.data(), values.size(), bits.data(), words);
    benchmark::DoNotOptimize(bits.data());
  }
  SetReportsPerSec(state, static_cast<double>(kKernelRows));
}
BENCHMARK(BM_KernelOlhSupportBits)
    ->Args({0, 2})
    ->Args({1, 2})
    ->Args({0, 3})
    ->Args({1, 3})
    ->Unit(benchmark::kMillisecond);

/// SC's masked weight sum over 1M reports: the AND of 1 or 4 bitset rows of
/// density 1/2 (the second arg) selects which reports' weights are summed.
void BM_KernelMaskedWeightSum(benchmark::State& state) {
  constexpr size_t kReports = 1u << 20;
  const FoKernels& kernels = KernelTable(state);
  const size_t num_sets = static_cast<size_t>(state.range(1));
  static const auto* rows = [] {
    auto* r = new std::vector<std::vector<uint64_t>>(4);
    Rng rng(12);
    for (auto& row : *r) {
      row.resize(kReports / 64);
      for (uint64_t& word : row) word = rng();
    }
    return r;
  }();
  static const auto* weights = [] {
    auto* w = new std::vector<double>(kReports);
    Rng rng(13);
    for (double& x : *w) x = rng.UniformDouble() - 0.5;
    return w;
  }();
  std::vector<const uint64_t*> sets;
  for (size_t j = 0; j < num_sets; ++j) sets.push_back((*rows)[j].data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.masked_weight_sum(
        sets.data(), sets.size(), weights->data(), kReports));
  }
  SetReportsPerSec(state, static_cast<double>(kReports));
}
BENCHMARK(BM_KernelMaskedWeightSum)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Unit(benchmark::kMillisecond);

/// Repeated identical query through the engine: with the node-estimate cache
/// every per-node estimate after the first execution is a hash-map probe;
/// without it each execution re-runs the kernels. pool=0 keeps the uncached
/// per-node cost at one full report pass, the worst (and exact) case.
void BM_QueryRepeat(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  static auto* engines =
      new std::vector<std::unique_ptr<AnalyticsEngine>>(2);
  std::unique_ptr<AnalyticsEngine>& engine = (*engines)[cached ? 1 : 0];
  if (engine == nullptr) {
    static const Table* table =
        new Table(MakeAdultLike(kRows, /*m=*/1024, /*seed=*/7));
    EngineOptions options;
    options.mechanism = MechanismKind::kHio;
    options.params.epsilon = kEps;
    options.params.hash_pool_size = 0;
    options.seed = 42;
    options.enable_estimate_cache = cached;
    engine = AnalyticsEngine::Create(*table, options).ValueOrDie();
  }
  const std::string sql =
      "SELECT COUNT(*) FROM T WHERE age_like BETWEEN 100 AND 899";
  {
    // Warm: first execution fills the cache (and the weight-vector cache),
    // so the timed loop measures the repeated-query steady state.
    auto est = engine->ExecuteSql(sql);
    if (!est.ok()) state.SkipWithError(est.status().ToString().c_str());
  }
  for (auto _ : state) {
    auto est = engine->ExecuteSql(sql);
    if (!est.ok()) {
      state.SkipWithError(est.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(est.value());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cached ? "cache" : "no-cache");
}
BENCHMARK(BM_QueryRepeat)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

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
