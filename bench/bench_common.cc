#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "fo/simd/simd.h"

namespace ldp {
namespace bench {

namespace {
/// Destination of the atexit stats dump; set once by ParseBenchConfig.
std::string& StatsJsonPath() {
  static std::string path;
  return path;
}

void DumpStatsAtExit() {
  const std::string& path = StatsJsonPath();
  if (path.empty()) return;
  if (WriteStatsJson(path)) {
    std::fprintf(stderr, "stats written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write stats to %s\n",
                 path.c_str());
  }
}
}  // namespace

QueryProfile& WorkloadProfile() {
  static QueryProfile profile;
  return profile;
}

bool& ExplainFirstQuery() {
  static bool enabled = false;
  return enabled;
}

bool WriteStatsJson(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"simd_level\":\"" << SimdLevelName(ActiveSimdLevel()) << "\""
      << ",\"metrics\":" << GlobalMetrics().TakeSnapshot().ToJson()
      << ",\"query_profile\":" << WorkloadProfile().ToJson() << "}\n";
  return static_cast<bool>(out);
}

void EnableStatsJsonFromArgs(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kPrefix = "--stats_json=";
    if (arg.rfind(kPrefix, 0) == 0) {
      StatsJsonPath() = std::string(arg.substr(kPrefix.size()));
      std::atexit(DumpStatsAtExit);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

void ApplySimdFromArgs(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kPrefix = "--simd=";
    if (arg.rfind(kPrefix, 0) == 0) {
      const auto level = SimdLevelFromString(arg.substr(kPrefix.size()));
      if (!level.ok()) {
        std::fprintf(stderr, "%s (expected auto|scalar|avx2)\n",
                     level.status().ToString().c_str());
        std::exit(2);
      }
      SetSimdLevel(level.value());
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

bool ParseBenchConfig(int argc, char** argv, const std::string& name,
                      const std::string& description, BenchConfig* config,
                      FlagParser* parser) {
  FlagParser local(name, description);
  FlagParser* p = parser != nullptr ? parser : &local;
  p->AddString("stats_json", &config->stats_json,
               "write a JSON metrics + query-profile report here at exit");
  p->AddInt64("n", &config->n, "number of users (0 = bench default)");
  p->AddDouble("eps", &config->eps, "privacy budget epsilon");
  p->AddInt64("queries", &config->queries,
              "random queries per data point (0 = bench default)");
  p->AddInt64("seed", &config->seed, "master random seed");
  p->AddInt64("pool", &config->pool,
              "OLH hash-seed pool size (0 = unbounded/exact)");
  p->AddInt64("threads", &config->threads,
              "worker threads for collection/estimation (<=0 = all cores)");
  p->AddBool("cache", &config->cache,
             "enable the cross-query node-estimate cache");
  p->AddBool("full", &config->full, "use the paper-scale parameters");
  p->AddBool("explain", &config->explain,
             "dump each engine's plan for the first workload query");
  p->AddString("simd", &config->simd,
               "frequency-oracle kernel level: auto|scalar|avx2");
  if (!p->Parse(argc, argv)) return false;
  ExplainFirstQuery() = config->explain;
  const auto simd_level = SimdLevelFromString(config->simd);
  if (!simd_level.ok()) {
    std::fprintf(stderr, "%s (expected auto|scalar|avx2)\n",
                 simd_level.status().ToString().c_str());
    return false;
  }
  // Fatal (by design) when the host cannot run the forced level.
  SetSimdLevel(simd_level.value());
  if (!config->stats_json.empty()) {
    StatsJsonPath() = config->stats_json;
    std::atexit(DumpStatsAtExit);
  }
  return true;
}

int64_t ResolveN(const BenchConfig& config, int64_t quick_default,
                 int64_t paper_default) {
  if (config.n > 0) return config.n;
  return config.full ? paper_default : quick_default;
}

int64_t ResolveQueries(const BenchConfig& config, int64_t quick_default) {
  if (config.queries > 0) return config.queries;
  return config.full ? 30 : quick_default;
}

MechanismParams MakeParams(const BenchConfig& config, double eps,
                           uint32_t fanout) {
  MechanismParams params;
  params.epsilon = eps;
  params.fanout = fanout;
  params.hash_pool_size = static_cast<uint32_t>(config.pool);
  return params;
}

std::vector<std::unique_ptr<AnalyticsEngine>> BuildEngines(
    const Table& table, const std::vector<MechanismSpec>& specs,
    uint64_t seed, int num_threads, bool enable_estimate_cache) {
  std::vector<std::unique_ptr<AnalyticsEngine>> engines;
  for (const MechanismSpec& spec : specs) {
    EngineOptions options;
    options.mechanism = spec.kind;
    options.params = spec.params;
    options.seed = seed;
    options.num_threads = num_threads;
    options.enable_estimate_cache = enable_estimate_cache;
    auto engine = AnalyticsEngine::Create(table, options);
    if (engine.ok()) {
      engines.push_back(std::move(engine).value());
    } else {
      std::fprintf(stderr, "note: %s engine unavailable: %s\n",
                   MechanismKindName(spec.kind).c_str(),
                   engine.status().ToString().c_str());
      engines.push_back(nullptr);
    }
  }
  return engines;
}

std::vector<std::string> EvalRow(
    const std::vector<std::unique_ptr<AnalyticsEngine>>& engines,
    const std::vector<Query>& queries, bool use_mre) {
  std::vector<std::string> cells;
  for (const auto& engine : engines) {
    if (engine == nullptr || queries.empty()) {
      cells.push_back("n/a");
      continue;
    }
    if (ExplainFirstQuery()) {
      const auto plan_text = engine->Explain(queries.front());
      std::fprintf(stderr, "--explain [%s]\n%s",
                   MechanismKindName(engine->mechanism().kind()).c_str(),
                   plan_text.ok() ? plan_text.value().c_str()
                                  : plan_text.status().ToString().c_str());
    }
    const auto stats = EvaluateQueries(*engine, queries, &WorkloadProfile());
    if (!stats.ok()) {
      cells.push_back("err");
      continue;
    }
    const OnlineStats& s =
        use_mre ? stats.value().mre : stats.value().mnae;
    cells.push_back(FormatErr(s.mean(), s.stddev()));
  }
  return cells;
}

void PrintBanner(const std::string& title, const std::string& paper_ref,
                 const BenchConfig& config, const std::string& extra) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("config: eps=%.2f pool=%lld seed=%lld%s%s\n", config.eps,
              static_cast<long long>(config.pool),
              static_cast<long long>(config.seed),
              config.full ? " [FULL/paper scale]" : " [quick scale]",
              extra.empty() ? "" : ("  " + extra).c_str());
}

}  // namespace bench
}  // namespace ldp
