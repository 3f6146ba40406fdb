#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace ldp {

size_t Counter::ShardIndex() {
  // Threads are assigned shards round-robin at first use; the slot is
  // thread-local so the assignment costs nothing after the first increment.
  static std::atomic<size_t> next{0};
  static thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return slot;
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.v.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LatencyHistogram::QuantileUpperBound(double q) const {
  // Snapshot the buckets once and derive n from the snapshot's own sum:
  // reading count() separately races with concurrent Record()s (count
  // incremented, bucket not yet), which could leave the scan short of its
  // target and silently return the max bucket edge.
  uint64_t snapshot[kNumBuckets];
  uint64_t n = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snapshot[i] = bucket(i);
    n += snapshot[i];
  }
  if (n == 0) return 0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const uint64_t target =
      static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += snapshot[i];
    if (seen >= target) return 2ull << i;  // exclusive upper edge 2^(i+1)
  }
  return 2ull << (kNumBuckets - 1);
}

namespace {

template <typename Map, typename Factory>
auto* FindOrCreate(Map& map, std::string_view name, std::mutex& mu,
                   const Factory& factory) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), factory()).first;
  }
  return it->second.get();
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  return FindOrCreate(counters_, name, mu_, [this] {
    return std::unique_ptr<Counter>(new Counter(&enabled_));
  });
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  return FindOrCreate(gauges_, name, mu_, [this] {
    return std::unique_ptr<Gauge>(new Gauge(&enabled_));
  });
}

LatencyHistogram* MetricsRegistry::histogram(std::string_view name) {
  return FindOrCreate(histograms_, name, mu_, [this] {
    return std::unique_ptr<LatencyHistogram>(new LatencyHistogram(&enabled_));
  });
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    for (auto& shard : c->shards_) {
      shard.v.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, g] : gauges_) g->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_nanos_.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum_nanos = h->sum_nanos();
    hs.p50_nanos = h->QuantileUpperBound(0.5);
    hs.p99_nanos = h->QuantileUpperBound(0.99);
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      const uint64_t n = h->bucket(i);
      if (n != 0) hs.nonzero.emplace_back(2ull << i, n);
    }
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

namespace {

void AppendJsonKey(std::ostringstream& os, const std::string& name,
                   bool* first) {
  if (!*first) os << ",";
  *first = false;
  // Metric names are dotted identifiers; no escaping needed.
  os << "\"" << name << "\":";
}

}  // namespace

std::string MetricsRegistry::Snapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    AppendJsonKey(os, name, &first);
    os << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    AppendJsonKey(os, name, &first);
    os << v;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    AppendJsonKey(os, name, &first);
    os << "{\"count\":" << h.count << ",\"sum_nanos\":" << h.sum_nanos
       << ",\"p50_nanos\":" << h.p50_nanos << ",\"p99_nanos\":" << h.p99_nanos
       << ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [upper, n] : h.nonzero) {
      if (!bfirst) os << ",";
      bfirst = false;
      os << "[" << upper << "," << n << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  const std::string json = TakeSnapshot().ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open metrics file '" + path + "'");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::Internal("short write to metrics file '" + path + "'");
  }
  return Status::OK();
}

MetricsRegistry& GlobalMetrics() {
  // Leaked intentionally: metric handles are held by components with static
  // storage duration, so the registry must outlive every destructor.
  static MetricsRegistry* global = [] {
    auto* registry = new MetricsRegistry();
    // Pre-register the library's stable metric surface (the README metrics
    // reference) so every snapshot carries the full schema — a counter a
    // binary never exercises shows up as 0 instead of being absent, which
    // keeps downstream JSON consumers schema-stable.
    for (const char* name : {
             "ingest.accepted", "ingest.duplicate", "ingest.corrupt",
             "ingest.rejected", "exec.tasks_submitted", "exec.tasks_run",
             "exec.chunks", "exec.parallel_calls", "estimate.nodes",
             "estimate.batches", "estimate.report_values",
             "estimate_cache.hits", "estimate_cache.misses",
             "estimate_cache.insertions", "estimate_cache.evictions",
             "estimate_cache.epoch_drops", "fo_cache.hits", "fo_cache.builds",
             "fo_cache.stale_rebuilds", "fo_cache.evictions",
             "fo_cache.folded_reports",
             "plan.rewrites", "plan.estimate_calls", "plan.batch_queries",
             "plan.batch_dedup_hits", "plan_cache.hits", "plan_cache.misses",
             "plan_cache.insertions", "plan_cache.evictions",
             "plan_cache.epoch_drops",
             "plan.mechanism_choices.HI", "plan.mechanism_choices.HIO",
             "plan.mechanism_choices.SC", "plan.mechanism_choices.MG",
             "plan.mechanism_choices.QuadTree", "plan.mechanism_choices.Haar",
             "plan.mechanism_choices.HDG", "plan.mechanism_choices.CALM",
             "weights.hits", "weights.builds", "weights.evictions",
             "storage.wal_appends",
             "storage.wal_bytes", "storage.fsyncs", "storage.wal_torn_tails",
             "storage.wal_corrupt_drops", "storage.wal_segments_deleted",
             "storage.snapshot_writes", "storage.snapshot_failures",
             "storage.snapshot_quarantined",
             "storage.recovery_replayed_frames"}) {
      registry->counter(name);
    }
    registry->histogram("exec.queue_wait");
    registry->histogram("fo_cache.histogram_build_ns");
    // The SIMD level the frequency-oracle kernels dispatched to, as the
    // numeric SimdLevel value (1 = scalar, 2 = avx2); 0 until the
    // first estimate resolves the level.
    registry->gauge("simd.active_level");
    // Bytes of the weight vectors held by every live WeightStore.
    registry->gauge("weights.resident_bytes");
    // Recovery wall time in *milliseconds* (unlike the ns-valued latency
    // histograms): recovery replays whole logs, so ns buckets would waste
    // the histogram's range. Bucket edges therefore read as ms here.
    registry->histogram("storage.recovery_ms");
    // Durability latencies: one sample per successful WAL fsync and per
    // written snapshot, so their counts equal storage.fsyncs and
    // storage.snapshot_writes.
    registry->histogram("storage.fsync_ns");
    registry->histogram("storage.snapshot_ns");
    // SC's estimation passes: one sample per support-bit hashing pass and
    // per masked-sum pass, each of which adds its report chunks to
    // estimate.batches.
    registry->histogram("estimate.sc_support_ns");
    registry->histogram("estimate.sc_sum_ns");
    return registry;
  }();
  return *global;
}

}  // namespace ldp
