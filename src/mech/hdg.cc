#include "mech/hdg.h"

#include <algorithm>
#include <cmath>

namespace ldp {

namespace {

/// Fallback population for granularity selection when no hint is given.
/// Fixed so the report layout is a pure function of (schema, params).
constexpr uint64_t kDefaultPopulationHint = 50000;

}  // namespace

void HdgGranularities(double epsilon, uint64_t population_hint, int num_dims,
                      uint32_t* g1, uint32_t* g2) {
  const double n = static_cast<double>(
      population_hint == 0 ? kDefaultPopulationHint : population_hint);
  const int d = std::max(num_dims, 1);
  const double m = d + 0.5 * d * (d - 1);
  const double e = std::exp(epsilon);
  // Yang et al.'s error-balancing working term: noise variance per cell is
  // ~ m e / (n (e-1)^2) of the squared total, while the uniformity error
  // shrinks with cell volume. Balancing the two gives g1 ~ s^(1/3) for 1-D
  // grids and g2 ~ s^(1/4) per dimension for 2-D grids.
  const double s = std::max(1.0, n * (e - 1.0) * (e - 1.0) / (m * e));
  *g1 = static_cast<uint32_t>(std::max(2.0, std::ceil(std::cbrt(s))));
  *g2 = static_cast<uint32_t>(std::max(2.0, std::ceil(std::pow(s, 0.25))));
}

Status HdgMechanism::Init() {
  const int d = static_cast<int>(schema_.sensitive_dims().size());
  const uint64_t num_grids =
      static_cast<uint64_t>(d) + static_cast<uint64_t>(d) * (d - 1) / 2;
  if (num_grids > 4096) {
    return Status::ResourceExhausted("too many dimension pairs for HDG");
  }
  HdgGranularities(params_.epsilon, params_.population_hint, d, &g1_, &g2_);
  std::vector<Table> grids;
  std::vector<int> one_dim_grids;
  for (int i = 0; i < d; ++i) {
    one_dim_grids.push_back(i);
    grids.push_back(MakeTable({i}, g1_));
  }
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) grids.push_back(MakeTable({i, j}, g2_));
  }
  // An unconstrained query combines the (cheapest) 1-D grids only.
  return SetTables(std::move(grids), std::move(one_dim_grids));
}

Result<std::unique_ptr<HdgMechanism>> HdgMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
  std::unique_ptr<HdgMechanism> mech(new HdgMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

}  // namespace ldp
