#ifndef LDPMDA_OBS_METRICS_H_
#define LDPMDA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ldp {

/// Number of cacheline-padded shards per counter. Hot-path increments from
/// different threads land on different shards, so a counter on an ingest or
/// estimation fan-out path never becomes a contention point.
inline constexpr size_t kCounterShards = 8;

/// A monotonically increasing event count. `Add` is wait-free (one relaxed
/// atomic add on a thread-affine shard) and never allocates; reading sums
/// the shards. Obtain instances from a MetricsRegistry — the registry owns
/// them and hands out stable pointers, so components resolve a counter once
/// (by name) and increment through the pointer on hot paths.
///
/// Increments are dropped while the owning registry is disabled; metrics are
/// observational only and never feed back into any computation, which is
/// what keeps estimates bit-identical with metrics on or off.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over shards. Monotone, but concurrent adds may or may not be seen.
  uint64_t value() const;

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  static size_t ShardIndex();

  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_;
  const std::atomic<bool>* enabled_;
};

/// A last-write-wins instantaneous value (queue depths, configured sizes).
/// Unlike Counter, gauges are set rarely, so a single atomic suffices.
class Gauge {
 public:
  void Set(int64_t v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<int64_t> v_{0};
  const std::atomic<bool>* enabled_;
};

/// A fixed-bucket latency histogram over nanosecond durations. Bucket i
/// counts samples in [2^i, 2^(i+1)) ns, so the layout is known at compile
/// time and `Record` is one relaxed add — no allocation, no locking, no
/// data-dependent branches. 42 buckets cover 1 ns through ~73 min.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 42;

  void Record(uint64_t nanos) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_nanos() const {
    return sum_nanos_.load(std::memory_order_relaxed);
  }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper-bound estimate of the q-quantile (q in [0, 1]): the exclusive
  /// upper edge of the bucket holding the q-th sample; 0 when empty.
  uint64_t QuantileUpperBound(double q) const;

  static size_t BucketOf(uint64_t nanos) {
    // bit_width(0) == 0 and bit_width(1) == 1 share bucket 0.
    const int w = nanos == 0 ? 1 : std::bit_width(nanos);
    return std::min<size_t>(static_cast<size_t>(w) - 1, kNumBuckets - 1);
  }

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(const std::atomic<bool>* enabled)
      : enabled_(enabled) {}
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  const std::atomic<bool>* enabled_;
};

/// A named collection of counters, gauges and latency histograms.
///
/// Registration (`counter("a.b")`) takes a mutex and may allocate; it is
/// meant for construction time or first use, never per event — callers keep
/// the returned pointer, which stays valid for the registry's lifetime.
/// Increments through the handles are lock-free (see the metric classes).
///
/// Naming convention: `<subsystem>.<event>` with lowercase dotted segments,
/// e.g. `ingest.accepted`, `estimate_cache.hits`, `exec.queue_wait`. The
/// README's metrics reference lists every name exported by the library.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. Pointers are stable until the
  /// registry is destroyed. A name registers as exactly one metric kind;
  /// re-registering it as another kind is a programmer error (LDP_CHECK).
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  LatencyHistogram* histogram(std::string_view name);

  /// Disabling turns every Add/Set/Record into a single relaxed load — no
  /// stores, no clock reads in TraceSpan — without invalidating handles.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every registered metric (handles stay valid). For benches and
  /// tests that want a clean window over a shared registry.
  void Reset();

  struct HistogramSnapshot {
    uint64_t count = 0;
    uint64_t sum_nanos = 0;
    uint64_t p50_nanos = 0;  ///< bucket upper bounds, not exact quantiles
    uint64_t p99_nanos = 0;
    std::vector<std::pair<uint64_t, uint64_t>> nonzero;  ///< (upper ns, n)
  };
  /// A point-in-time copy of every metric, name-sorted. Values are read
  /// with relaxed loads: the snapshot is not an atomic cut across metrics,
  /// which is fine for telemetry (each individual value is exact-at-read).
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
    /// Compact single-object JSON: {"counters":{...},"gauges":{...},
    /// "histograms":{name:{"count":..,"sum_nanos":..,"p50_nanos":..,
    /// "p99_nanos":..,"buckets":[[upper_ns,count],...]}}}.
    std::string ToJson() const;
  };
  Snapshot TakeSnapshot() const;

  /// Writes TakeSnapshot().ToJson() to `path` (overwriting).
  Status WriteJsonFile(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // registration and snapshot only
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

/// The process-wide registry every built-in component reports into.
/// GlobalMetrics().set_enabled is its one switch; bench --stats_json reads
/// it.
MetricsRegistry& GlobalMetrics();

}  // namespace ldp

#endif  // LDPMDA_OBS_METRICS_H_
