#include "plan/weights.h"

#include <sstream>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace ldp {

namespace {

Counter* WeightHits() {
  static Counter* c = GlobalMetrics().counter("weights.hits");
  return c;
}
Counter* WeightBuilds() {
  static Counter* c = GlobalMetrics().counter("weights.builds");
  return c;
}
Counter* WeightEvictions() {
  static Counter* c = GlobalMetrics().counter("weights.evictions");
  return c;
}

/// Moves the bytes every live WeightStore holds by `delta` and publishes the
/// total to the `weights.resident_bytes` gauge. The total lives here and is
/// Set whole, so a registry Reset or a stretch with metrics off is corrected
/// at the next change.
void AddResidentBytes(int64_t delta) {
  static std::mutex mu;
  static int64_t total = 0;
  static Gauge* gauge = GlobalMetrics().gauge("weights.resident_bytes");
  std::lock_guard<std::mutex> lock(mu);
  total += delta;
  gauge->Set(total);
}

int64_t BytesOf(const WeightVector& w) {
  return static_cast<int64_t>(w.size() * sizeof(double));
}

}  // namespace

WeightStore::~WeightStore() {
  int64_t bytes = 0;
  for (const std::string& key : recency_) {
    bytes += BytesOf(*entries_.at(key).vector);
  }
  AddResidentBytes(-bytes);
}

std::string WeightStore::Key(ComponentKind component, const MeasureExpr& expr,
                             const Schema& schema,
                             std::span<const Constraint> public_constraints) {
  // Component + measure expression + the public part of the box. The
  // expression is spelled like MeasureExpr::ToString, with hex floats in
  // place of its 6-digit numbers so distinct coefficients never share a key.
  std::ostringstream key;
  key << static_cast<int>(component) << "|";
  if (component != ComponentKind::kCount) {
    bool first = true;
    for (const auto& t : expr.terms) {
      if (!first) key << " + ";
      first = false;
      if (t.coef != 1.0) key << HexDouble(t.coef) << "*";
      key << schema.attribute(t.attr).name;
    }
    if (expr.constant != 0.0 || first) {
      if (!first) key << " + ";
      key << HexDouble(expr.constant);
    }
  }
  key << "|";
  for (const auto& c : public_constraints) {
    key << c.attr << ":" << c.range.lo << "-" << c.range.hi << ";";
  }
  return key.str();
}

Result<std::shared_ptr<const WeightVector>> WeightStore::Get(
    ComponentKind component, const MeasureExpr& expr,
    std::span<const Constraint> public_constraints) {
  std::string key = Key(component, expr, table_.schema(), public_constraints);
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[key];
  if (entry.vector != nullptr) {
    recency_.splice(recency_.begin(), recency_, entry.recency);
    WeightHits()->Increment();
    return entry.vector;
  }
  // Evict before building, so at most kMaxCachedWeightVectors are resident.
  if (recency_.size() >= kMaxCachedWeightVectors) {
    Entry& victim = entries_.at(recency_.back());
    AddResidentBytes(-BytesOf(*victim.vector));
    victim.vector.reset();
    recency_.pop_back();
    WeightEvictions()->Increment();
  }

  const uint64_t n = table_.num_rows();
  std::vector<double> weights;
  switch (component) {
    case ComponentKind::kCount:
      weights.assign(n, 1.0);
      break;
    case ComponentKind::kSum:
      weights = expr.EvalColumn(table_);
      break;
    case ComponentKind::kSumSq: {
      weights = expr.EvalColumn(table_);
      for (auto& w : weights) w *= w;
      break;
    }
  }
  // Fold public-dimension constraints into the weights (Section 7): the
  // server evaluates them exactly, so a non-matching user contributes 0.
  for (const auto& c : public_constraints) {
    const auto& col = table_.DimColumn(c.attr);
    for (uint64_t row = 0; row < n; ++row) {
      if (!c.range.Contains(col[row])) weights[row] = 0.0;
    }
  }
  // A rebuild keeps the key's first id: same table, same key, same bits.
  entry.vector =
      entry.id == 0
          ? std::make_shared<const WeightVector>(std::move(weights))
          : std::make_shared<const WeightVector>(std::move(weights), entry.id);
  entry.id = entry.vector->id();
  recency_.push_front(std::move(key));
  entry.recency = recency_.begin();
  WeightBuilds()->Increment();
  AddResidentBytes(BytesOf(*entry.vector));
  return entry.vector;
}

}  // namespace ldp
