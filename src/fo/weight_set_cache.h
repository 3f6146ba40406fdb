#ifndef LDPMDA_FO_WEIGHT_SET_CACHE_H_
#define LDPMDA_FO_WEIGHT_SET_CACHE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "fo/frequency_oracle.h"

namespace ldp {

/// An accumulator's cache of what it builds from its reports for one weight
/// set (OLH and GRR histograms, HR spectra), keyed by WeightVector id. It
/// holds at most 8 entries and evicts the least recently used one; a lookup
/// that finds an entry makes it the most recent. `Entry::built_reports` is
/// the report count an entry covers. Reports are only appended, so an entry
/// below the live count is stale and is replaced at its next lookup: Add and
/// Merge never touch the cache. A published entry is never changed, so a
/// reader holding one keeps a consistent snapshot while another replaces it.
/// Thread-safe; feeds the fo_cache.* metrics.
template <typename Entry>
class WeightSetCache {
 public:
  static constexpr size_t kMaxEntries = 8;

  /// Returns the entry for `weight_id` that covers `reports` reports. A
  /// cached one is served as is (fo_cache.hits). Otherwise `build(stale)`
  /// makes it, where `stale` is this weight set's outdated entry or null:
  /// an oracle may extend a stale entry instead of rescanning every report.
  /// Each build counts in fo_cache.builds (and stale_rebuilds when `stale`
  /// is set) and is timed in fo_cache.histogram_build_ns. Builds run under
  /// the cache lock, so concurrent readers of one weight set share a build.
  template <typename Build>
  std::shared_ptr<const Entry> GetOrBuild(uint64_t weight_id,
                                          uint64_t reports, Build&& build) {
    const FoCacheCounters& metrics = FoCacheMetrics();
    std::lock_guard<std::mutex> lock(mu_);
    const size_t i = IndexLocked(weight_id);
    const bool cached = i < entries_.size();
    if (cached) {
      const auto it = entries_.begin() + static_cast<std::ptrdiff_t>(i);
      std::rotate(it, it + 1, entries_.end());  // now the most recent
      if (entries_.back().second->built_reports == reports) {
        metrics.hits->Add(1);
        return entries_.back().second;
      }
      metrics.stale_rebuilds->Add(1);
    } else if (entries_.size() >= kMaxEntries) {
      entries_.erase(entries_.begin());
      metrics.evictions->Add(1);
    }
    metrics.builds->Add(1);
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const Entry> fresh =
        build(cached ? entries_.back().second.get() : nullptr);
    metrics.build_ns->Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (cached) {
      entries_.back().second = fresh;
    } else {
      entries_.emplace_back(weight_id, fresh);
    }
    return fresh;
  }

  /// Whether an entry for `weight_id` is cached, stale or not. Does not
  /// change recency.
  bool Contains(uint64_t weight_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return IndexLocked(weight_id) < entries_.size();
  }

 private:
  /// Position of `weight_id` in entries_, or entries_.size() if absent.
  size_t IndexLocked(uint64_t weight_id) const {
    size_t i = 0;
    while (i < entries_.size() && entries_[i].first != weight_id) ++i;
    return i;
  }

  mutable std::mutex mu_;
  /// Least recently used first.
  std::vector<std::pair<uint64_t, std::shared_ptr<const Entry>>> entries_;
};

}  // namespace ldp

#endif  // LDPMDA_FO_WEIGHT_SET_CACHE_H_
