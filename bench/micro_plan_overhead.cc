// Micro-benchmark of the query-planning layer:
//   * plan build cost (validate + rewrite + plan) per query, cold vs. a
//     plan-cache hit,
//   * plan-cache hit rate over a templated workload,
//   * ExecuteBatch's estimate-call reduction vs. sequential Execute on the
//     same workload (counted via the plan.estimate_calls counter, not wall
//     clock — the acceptance metric of the summary).
//
//   ./bench/micro_plan_overhead --out BENCH_plan.json
//
// Writes a JSON summary to --out (default: BENCH_plan.json in the CWD) and
// prints it to stdout; no baseline is committed. Answers are asserted
// bit-identical between the sequential and batched paths before any number
// is reported.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"

using namespace ldp;         // NOLINT
using namespace ldp::bench;  // NOLINT

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// 8 query templates over the census table; instantiated `reps` times each.
/// Workloads are templated in practice (dashboards), so repeated shapes are
/// the common case the plan cache and batch dedup target.
std::vector<Query> TemplatedWorkload(const Schema& schema, int reps) {
  const char* templates[] = {
      "SELECT COUNT(*) FROM T WHERE age BETWEEN 5 AND 25",
      "SELECT SUM(weekly_work_hour) FROM T WHERE age BETWEEN 5 AND 25",
      "SELECT AVG(weekly_work_hour) FROM T WHERE age BETWEEN 5 AND 25",
      "SELECT COUNT(*) FROM T WHERE income BETWEEN 10 AND 40",
      "SELECT COUNT(*) FROM T WHERE age <= 20 OR income >= 30",
      "SELECT SUM(weekly_work_hour) FROM T WHERE age <= 20 OR income >= 30",
      "SELECT AVG(weekly_work_hour) FROM T WHERE marital_status = 1",
      "SELECT STDEV(weekly_work_hour) FROM T WHERE age BETWEEN 5 AND 25",
  };
  std::vector<Query> queries;
  for (int r = 0; r < reps; ++r) {
    for (const char* sql : templates) {
      queries.push_back(ParseQuery(schema, sql).ValueOrDie());
    }
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string out_path = "BENCH_plan.json";
  FlagParser flags("micro_plan_overhead",
                   "planning overhead + batch estimate-call reduction");
  flags.AddString("out", &out_path, "where to write the JSON summary");
  if (!ParseBenchConfig(argc, argv, "micro_plan_overhead",
                        "planning overhead + batch estimate-call reduction",
                        &config, &flags)) {
    return 1;
  }
  const int64_t n = ResolveN(config, 50000, 500000);
  const int reps = 8;
  PrintBanner("Micro: plan overhead & batch dedup",
              "query planner (EXPLAIN/ExecuteBatch subsystem)", config,
              "n=" + std::to_string(n));

  const Table table = MakeIpums4D(static_cast<uint64_t>(n), 54, config.seed);
  EngineOptions options;
  options.mechanism = MechanismKind::kHio;
  options.params = MakeParams(config, config.eps);
  options.seed = static_cast<uint64_t>(config.seed);
  options.num_threads = static_cast<int>(config.threads);
  options.enable_estimate_cache = config.cache;
  const auto engine = AnalyticsEngine::Create(table, options).ValueOrDie();

  const std::vector<Query> queries =
      TemplatedWorkload(table.schema(), reps);

  // --- Plan build cost: cold (cache-off engine replans every time) vs. a
  // guaranteed plan-cache hit.
  EngineOptions cold_options = options;
  cold_options.enable_plan_cache = false;
  const auto cold_engine =
      AnalyticsEngine::Create(table, cold_options).ValueOrDie();
  const int plan_iters = 200;
  uint64_t t0 = NowNanos();
  for (int i = 0; i < plan_iters; ++i) {
    (void)cold_engine->PlanFor(queries[i % queries.size()]).ValueOrDie();
  }
  const double plan_build_ns =
      static_cast<double>(NowNanos() - t0) / plan_iters;
  (void)engine->PlanFor(queries[0]).ValueOrDie();  // warm the cache
  t0 = NowNanos();
  for (int i = 0; i < plan_iters; ++i) {
    (void)engine->PlanFor(queries[i % 8]).ValueOrDie();
  }
  const double plan_hit_ns = static_cast<double>(NowNanos() - t0) / plan_iters;

  // --- Sequential execution: per-query estimate calls.
  Counter* estimate_calls = GlobalMetrics().counter("plan.estimate_calls");
  Counter* dedup_hits = GlobalMetrics().counter("plan.batch_dedup_hits");
  std::vector<double> sequential;
  sequential.reserve(queries.size());
  const uint64_t seq_calls_before = estimate_calls->value();
  t0 = NowNanos();
  for (const Query& q : queries) {
    sequential.push_back(engine->Execute(q).ValueOrDie());
  }
  const uint64_t seq_nanos = NowNanos() - t0;
  const uint64_t seq_calls = estimate_calls->value() - seq_calls_before;

  // --- Batched execution of the same workload.
  std::vector<double> batched(queries.size(), 0.0);
  const uint64_t batch_calls_before = estimate_calls->value();
  const uint64_t dedup_before = dedup_hits->value();
  t0 = NowNanos();
  if (!engine->ExecuteBatch(queries, batched).ok()) {
    std::fprintf(stderr, "ExecuteBatch failed\n");
    return 1;
  }
  const uint64_t batch_nanos = NowNanos() - t0;
  const uint64_t batch_calls = estimate_calls->value() - batch_calls_before;
  const uint64_t dedup = dedup_hits->value() - dedup_before;

  for (size_t i = 0; i < queries.size(); ++i) {
    if (batched[i] != sequential[i]) {
      std::fprintf(stderr, "FATAL: batch diverged from sequential at %zu\n",
                   i);
      return 1;
    }
  }

  const auto cache_stats = engine->plan_cache()->stats();
  const double hit_rate =
      cache_stats.hits + cache_stats.misses == 0
          ? 0.0
          : static_cast<double>(cache_stats.hits) /
                static_cast<double>(cache_stats.hits + cache_stats.misses);
  const double reduction = batch_calls == 0
                               ? 0.0
                               : static_cast<double>(seq_calls) /
                                     static_cast<double>(batch_calls);

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"micro_plan_overhead\",\"n\":%lld,\"queries\":%zu,"
      "\"templates\":8,\"reps\":%d,"
      "\"plan_build_ns_per_query\":%.0f,"
      "\"plan_cache_hit_ns_per_query\":%.0f,"
      "\"plan_cache_hit_rate\":%.4f,"
      "\"sequential_estimate_calls\":%llu,"
      "\"batch_estimate_calls\":%llu,"
      "\"batch_dedup_hits\":%llu,"
      "\"estimate_call_reduction\":%.2f,"
      "\"sequential_ms\":%.1f,\"batch_ms\":%.1f,"
      "\"bit_identical\":true}\n",
      static_cast<long long>(n), queries.size(), reps, plan_build_ns,
      plan_hit_ns, hit_rate, static_cast<unsigned long long>(seq_calls),
      static_cast<unsigned long long>(batch_calls),
      static_cast<unsigned long long>(dedup), reduction, seq_nanos / 1e6,
      batch_nanos / 1e6);
  std::fputs(json, stdout);
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    out << json;
    if (out) std::fprintf(stderr, "summary written to %s\n", out_path.c_str());
  }
  if (reduction < 1.5) {
    std::fprintf(stderr,
                 "WARNING: estimate-call reduction %.2fx below the 1.5x "
                 "acceptance bar\n",
                 reduction);
    return 1;
  }
  return 0;
}
