// Table 3 (Appendix F): empirical complexity of the four mechanisms —
// client-side encode time and report size per user, and worst-case query
// processing time on the server. Run with google-benchmark.
//
// Expected shape (per Table 3):
//   encode:  MG, HIO O(1) report; HI O(log^d m) reports; SC O(d log m).
//   query:   HIO ~ O(n + polylog); HI ~ O(n polylog); MG grows with the
//            number of covered marginal cells; SC ~ O(n d_q polylog).

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace ldp {
namespace {

constexpr uint64_t kUsers = 50000;
constexpr uint64_t kDomain = 1024;
constexpr double kEps = 2.0;

const Table& SharedTable() {
  static const Table* table =
      new Table(MakeIpumsNumeric(kUsers, {kDomain}, 3));
  return *table;
}

MechanismParams Params() {
  MechanismParams p;
  p.epsilon = kEps;
  p.fanout = 5;
  p.hash_pool_size = 1024;
  return p;
}

std::unique_ptr<Mechanism> FreshMechanism(MechanismKind kind) {
  return CreateMechanism(kind, SharedTable().schema(), Params()).ValueOrDie();
}

// The estimate cache is off: every iteration re-runs the same query, so
// with it on the query rows would time cache hits, not the mechanisms.
const AnalyticsEngine& SharedEngine(MechanismKind kind) {
  static std::unique_ptr<AnalyticsEngine> engines[8];
  const int idx = static_cast<int>(kind);
  if (engines[idx] == nullptr) {
    EngineOptions options;
    options.mechanism = kind;
    options.params = Params();
    options.seed = 99;
    options.enable_estimate_cache = false;
    engines[idx] = AnalyticsEngine::Create(SharedTable(), options).ValueOrDie();
  }
  return *engines[idx];
}

void BM_EncodeUser(benchmark::State& state) {
  const auto kind = static_cast<MechanismKind>(state.range(0));
  const auto mech = FreshMechanism(kind);
  Rng rng(1);
  uint64_t words = 0;
  const std::vector<uint32_t> values = {512};
  for (auto _ : state) {
    const LdpReport report = mech->EncodeUser(values, rng);
    words = report.SizeWords();
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(MechanismKindName(kind));
  state.counters["report_words"] = static_cast<double>(words);
}
BENCHMARK(BM_EncodeUser)
    ->Arg(static_cast<int>(MechanismKind::kMg))
    ->Arg(static_cast<int>(MechanismKind::kHi))
    ->Arg(static_cast<int>(MechanismKind::kHio))
    ->Arg(static_cast<int>(MechanismKind::kSc));

void BM_QueryVolume25(benchmark::State& state) {
  const auto kind = static_cast<MechanismKind>(state.range(0));
  const AnalyticsEngine& engine = SharedEngine(kind);
  const Query query =
      ParseQuery(SharedTable().schema(),
                 "SELECT SUM(weekly_work_hour) FROM T WHERE dim1 BETWEEN "
                 "100 AND 355")
          .ValueOrDie();
  for (auto _ : state) {
    const auto est = engine.Execute(query);
    benchmark::DoNotOptimize(est);
  }
  state.SetLabel(MechanismKindName(kind));
}
BENCHMARK(BM_QueryVolume25)
    ->Arg(static_cast<int>(MechanismKind::kMg))
    ->Arg(static_cast<int>(MechanismKind::kHi))
    ->Arg(static_cast<int>(MechanismKind::kHio))
    ->Arg(static_cast<int>(MechanismKind::kSc))
    ->Unit(benchmark::kMillisecond);

// MG's query cost grows with the number of covered cells (eq. 10); HIO's is
// polylogarithmic. Sweep the range length.
void BM_QueryCost_Mg(benchmark::State& state) {
  const AnalyticsEngine& engine = SharedEngine(MechanismKind::kMg);
  const uint64_t len = state.range(0);
  const Query query =
      ParseQuery(SharedTable().schema(),
                 "SELECT COUNT(*) FROM T WHERE dim1 BETWEEN 0 AND " +
                     std::to_string(len - 1))
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(query));
  }
}
BENCHMARK(BM_QueryCost_Mg)->Arg(16)->Arg(64)->Arg(256)->Arg(1000)->Unit(
    benchmark::kMillisecond);

void BM_QueryCost_Hio(benchmark::State& state) {
  const AnalyticsEngine& engine = SharedEngine(MechanismKind::kHio);
  const uint64_t len = state.range(0);
  const Query query =
      ParseQuery(SharedTable().schema(),
                 "SELECT COUNT(*) FROM T WHERE dim1 BETWEEN 0 AND " +
                     std::to_string(len - 1))
          .ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(query));
  }
}
BENCHMARK(BM_QueryCost_Hio)->Arg(16)->Arg(64)->Arg(256)->Arg(1000)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace ldp

BENCHMARK_MAIN();
