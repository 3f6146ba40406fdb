#include "plan/plan_cache.h"

#include <algorithm>

namespace ldp {

PlanCache::PlanCache(size_t max_entries)
    : max_entries_(std::max<size_t>(max_entries, 1)),
      m_hits_(GlobalMetrics().counter("plan_cache.hits")),
      m_misses_(GlobalMetrics().counter("plan_cache.misses")),
      m_insertions_(GlobalMetrics().counter("plan_cache.insertions")),
      m_evictions_(GlobalMetrics().counter("plan_cache.evictions")),
      m_epoch_drops_(GlobalMetrics().counter("plan_cache.epoch_drops")) {}

void PlanCache::EraseLocked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  // The entry's SQL mappings die with it: a mapping to a gone entry could
  // never hit, and left behind it would shadow the SQL string until some
  // unrelated reset.
  for (const std::string& sql : it->second.sql_aliases) {
    auto idx = sql_index_.find(sql);
    if (idx != sql_index_.end() && idx->second == key) sql_index_.erase(idx);
  }
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

std::shared_ptr<const PhysicalPlan> PlanCache::Get(const std::string& key,
                                                   uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    m_misses_->Increment();
    return nullptr;
  }
  if (it->second.plan->epoch != epoch) {
    // Hard drop on mismatch in either direction — see the class comment.
    EraseLocked(key);
    ++stats_.misses;
    m_misses_->Increment();
    ++stats_.epoch_drops;
    m_epoch_drops_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  ++stats_.hits;
  m_hits_->Increment();
  return it->second.plan;
}

void PlanCache::Put(const std::string& key,
                    std::shared_ptr<const PhysicalPlan> plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  EraseLocked(key);
  while (entries_.size() >= max_entries_) {
    EraseLocked(lru_.front());
    ++stats_.evictions;
    m_evictions_->Increment();
  }
  auto lru_it = lru_.insert(lru_.end(), key);
  entries_.emplace(key, Entry{std::move(plan), lru_it});
  ++stats_.insertions;
  m_insertions_->Increment();
}

std::shared_ptr<const PhysicalPlan> PlanCache::GetSql(const std::string& sql,
                                                      uint64_t epoch) {
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sql_index_.find(sql);
    if (it == sql_index_.end()) return nullptr;
    key = it->second;
  }
  return Get(key, epoch);
}

void PlanCache::LinkSql(const std::string& sql, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry_it = entries_.find(key);
  if (entry_it == entries_.end()) return;  // nothing to link to — see header
  auto& aliases = entry_it->second.sql_aliases;
  const auto existing = sql_index_.find(sql);
  if (existing != sql_index_.end()) {
    if (existing->second == key) return;  // already linked here
    // Re-link: detach the spelling from the entry it pointed at.
    auto old_it = entries_.find(existing->second);
    if (old_it != entries_.end()) {
      auto& old_aliases = old_it->second.sql_aliases;
      old_aliases.erase(
          std::remove(old_aliases.begin(), old_aliases.end(), sql),
          old_aliases.end());
    }
  }
  while (aliases.size() >= kMaxSqlAliases) {
    // Per-entry alias cap, oldest spelling first — bounds the side index at
    // max_entries x kMaxSqlAliases without a second LRU.
    sql_index_.erase(aliases.front());
    aliases.erase(aliases.begin());
  }
  aliases.push_back(sql);
  sql_index_[sql] = key;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PlanCache::sql_index_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sql_index_.size();
}

}  // namespace ldp
