#include "mech/calm.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace ldp {

namespace {

/// Largest per-marginal flattened domain CALM will materialize; beyond this
/// the frequency-oracle noise per cell dwarfs any reconstruction benefit.
constexpr uint64_t kMaxMarginalCells = 4096;
/// Largest marginal count; beyond this each cohort is too small a slice of
/// the population to estimate from.
constexpr uint64_t kMaxMarginals = 64;

uint64_t Binomial(int n, int k) {
  if (k < 0 || k > n) return 0;
  uint64_t r = 1;
  for (int i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

/// Enumerates all ascending size-k subsets of {0, ..., d-1} in
/// lexicographic order.
void ForEachSubset(int d, int k,
                   const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> subset(k);
  for (int i = 0; i < k; ++i) subset[i] = i;
  while (true) {
    fn(subset);
    int i = k - 1;
    while (i >= 0 && subset[i] == d - k + i) --i;
    if (i < 0) return;
    ++subset[i];
    for (int j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
  }
}

}  // namespace

int CalmMarginalOrder(const Schema& schema) {
  const auto& dims = schema.sensitive_dims();
  const int d = static_cast<int>(dims.size());
  int order = 1;
  for (int k = 2; k <= std::min(d, 3); ++k) {
    if (Binomial(d, k) > kMaxMarginals) break;
    uint64_t worst = 0;
    bool feasible = true;
    ForEachSubset(d, k, [&](const std::vector<int>& subset) {
      uint64_t cells = 1;
      for (const int pos : subset) {
        const uint64_t domain = schema.attribute(dims[pos]).domain_size;
        if (cells > kMaxMarginalCells / std::max<uint64_t>(domain, 1) + 1) {
          feasible = false;
        }
        cells *= std::max<uint64_t>(domain, 1);
      }
      worst = std::max(worst, cells);
    });
    if (!feasible || worst > kMaxMarginalCells) break;
    order = k;
  }
  return order;
}

Status CalmMechanism::Init() {
  const int d = static_cast<int>(schema_.sensitive_dims().size());
  if (static_cast<uint64_t>(d) > kMaxMarginals) {
    return Status::ResourceExhausted("too many sensitive dimensions for CALM");
  }
  std::vector<Table> marginals;
  ForEachSubset(d, CalmMarginalOrder(schema_),
                [&](const std::vector<int>& subset) {
                  marginals.push_back(MakeTable(subset, UINT64_MAX));
                });
  // An unconstrained total needs one marginal: the smallest keeps the
  // fan-out minimal.
  int smallest = 0;
  for (int m = 1; m < static_cast<int>(marginals.size()); ++m) {
    if (marginals[m].num_cells < marginals[smallest].num_cells) smallest = m;
  }
  return SetTables(std::move(marginals), {smallest});
}

Result<std::unique_ptr<CalmMechanism>> CalmMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
  std::unique_ptr<CalmMechanism> mech(new CalmMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

}  // namespace ldp
