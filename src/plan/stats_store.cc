#include "plan/stats_store.h"

#include <algorithm>

namespace ldp {

PlanStatsStore::PlanStatsStore(size_t max_entries)
    : max_entries_(std::max<size_t>(max_entries, 1)),
      m_records_(GlobalMetrics().counter("plan.feedback_records")),
      m_evictions_(GlobalMetrics().counter("plan.feedback_evictions")) {}

void PlanStatsStore::Record(uint64_t fingerprint,
                            const PlanObservation& obs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    while (entries_.size() >= max_entries_) {
      entries_.erase(lru_.front());
      lru_.pop_front();
      m_evictions_->Increment();
    }
    Entry entry;
    entry.lru_it = lru_.insert(lru_.end(), fingerprint);
    it = entries_.emplace(fingerprint, std::move(entry)).first;
  } else {
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  }
  PlanStats& stats = it->second.stats;
  auto fold = [&stats](double* ewma, uint64_t v) {
    const double value = static_cast<double>(v);
    if (stats.observations == 0) {
      *ewma = value;
    } else {
      *ewma += kAlpha * (value - *ewma);
    }
  };
  fold(&stats.ewma_wall_nanos, obs.wall_nanos);
  fold(&stats.ewma_estimate_calls, obs.estimate_calls);
  fold(&stats.ewma_nodes, obs.nodes_touched);
  ++stats.observations;
  m_records_->Increment();
}

std::optional<PlanStats> PlanStatsStore::Lookup(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return std::nullopt;
  return it->second.stats;
}

size_t PlanStatsStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ldp
