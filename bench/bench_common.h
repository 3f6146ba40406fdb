#ifndef LDPMDA_BENCH_BENCH_COMMON_H_
#define LDPMDA_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "engine/experiment.h"
#include "engine/query_gen.h"

namespace ldp {
namespace bench {

/// Common knobs for the figure-reproduction binaries. Defaults are scaled to
/// finish quickly on one core; `--full` switches to the paper's parameters
/// (dataset sizes, 30 queries per point). See EXPERIMENTS.md.
struct BenchConfig {
  int64_t n = 0;        // 0 = per-bench default
  double eps = 2.0;
  int64_t queries = 0;  // 0 = per-bench default (paper: 30)
  int64_t seed = 42;
  /// OLH hash-seed pool for server-side histogram speedups. The induced
  /// conditional bias (relative order 1/sqrt(g*pool)) is negligible next to
  /// the LDP noise at these scales; pass --pool=0 for exact unbiasedness at
  /// higher query cost.
  int64_t pool = 1024;
  /// Worker threads for simulated collection and estimation (EngineOptions::
  /// num_threads). Results are bit-identical for a fixed seed regardless of
  /// this value; <= 0 means one thread per hardware core.
  int64_t threads = 1;
  /// Cross-query node-estimate cache (EngineOptions::enable_estimate_cache).
  /// Estimates are bit-identical either way; --cache=false measures the
  /// uncached estimation cost.
  bool cache = true;
  bool full = false;
  /// Dump the physical plan (EXPLAIN text) of the first workload query per
  /// engine to stderr before evaluation — a quick look at the strategy and
  /// predicted cost a bench is about to measure.
  bool explain = false;
  /// When non-empty, the process writes a JSON observability report to this
  /// path at exit: the full GlobalMetrics() snapshot (every counter /
  /// histogram the library exports; see the README metrics reference) plus
  /// the accumulated per-query profile of the bench's workload.
  std::string stats_json;
  /// Frequency-oracle kernel level: auto, scalar, avx2 (SetSimdLevel).
  /// Estimates are bit-identical at every level; forcing one the host cannot
  /// run is fatal rather than silently falling back, so a recorded curve is
  /// always measured with the kernels its label names.
  std::string simd = "auto";
};

/// Parses the standard flags (plus `extra`, which may add its own flags
/// beforehand). Exits the process on --help or bad flags.
bool ParseBenchConfig(int argc, char** argv, const std::string& name,
                      const std::string& description, BenchConfig* config,
                      FlagParser* parser = nullptr);

/// --stats_json support for benches with a foreign flag parser (the Google
/// Benchmark micro benches): consumes any `--stats_json=PATH` argument from
/// argv (so the foreign parser never sees it) and registers the exit-time
/// stats dump. Call before benchmark::Initialize.
void EnableStatsJsonFromArgs(int* argc, char** argv);

/// --simd support for benches with a foreign flag parser: consumes any
/// `--simd=LEVEL` argument from argv and applies SetSimdLevel. Exits with a
/// usage error on an unknown level name; LDP_CHECK-fatal (by design) when
/// the level is unsupported on this host. Call before benchmark::Initialize.
void ApplySimdFromArgs(int* argc, char** argv);

/// Resolves defaults: n and queries fall back to (full ? paper : quick).
int64_t ResolveN(const BenchConfig& config, int64_t quick_default,
                 int64_t paper_default);
int64_t ResolveQueries(const BenchConfig& config, int64_t quick_default = 10);

MechanismParams MakeParams(const BenchConfig& config, double eps,
                           uint32_t fanout = 5);

/// Builds one engine per spec over `table` (simulated collection with
/// config.seed). Specs whose engines cannot be built yield null entries.
std::vector<std::unique_ptr<AnalyticsEngine>> BuildEngines(
    const Table& table, const std::vector<MechanismSpec>& specs,
    uint64_t seed, int num_threads = 1, bool enable_estimate_cache = true);

/// Evaluates each engine on the workload; null engines yield "n/a" cells.
/// Returns formatted "mean+-std" MNAE (or MRE) strings per engine. Query
/// profiles accumulate into WorkloadProfile() for the --stats_json report.
std::vector<std::string> EvalRow(
    const std::vector<std::unique_ptr<AnalyticsEngine>>& engines,
    const std::vector<Query>& queries, bool use_mre = false);

/// The process-wide profile every profiled bench query accumulates into;
/// dumped (with the metrics snapshot) by --stats_json at exit.
QueryProfile& WorkloadProfile();

/// Process-wide --explain switch (set by ParseBenchConfig): when true,
/// EvalRow dumps each engine's plan for the first workload query to stderr.
bool& ExplainFirstQuery();

/// Writes `{"metrics": <GlobalMetrics snapshot>, "query_profile": ...}` to
/// `path`. Called automatically at exit when --stats_json is set; exposed
/// for benches that want to dump mid-run.
bool WriteStatsJson(const std::string& path);

/// Prints the standard experiment banner.
void PrintBanner(const std::string& title, const std::string& paper_ref,
                 const BenchConfig& config, const std::string& extra = "");

}  // namespace bench
}  // namespace ldp

#endif  // LDPMDA_BENCH_BENCH_COMMON_H_
