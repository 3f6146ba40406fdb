#include "mech/quadtree.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ldp {

namespace {
constexpr uint64_t kMaxSubQueries = 1ull << 22;
}  // namespace

QuadTreeMechanism::QuadTreeMechanism(const Schema& schema,
                                     const MechanismParams& params)
    : StoreMechanism(schema, params, ReportShape::kOneEntry) {
  const auto& dims = schema.sensitive_dims();
  const uint64_t max_domain =
      std::max(schema.attribute(dims[0]).domain_size,
               schema.attribute(dims[1]).domain_size);
  height_ = 0;
  while ((1ull << height_) < max_domain) ++height_;
  if (height_ == 0) height_ = 1;
}

Result<std::unique_ptr<QuadTreeMechanism>> QuadTreeMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
  const auto& dims = schema.sensitive_dims();
  if (dims.size() != 2) {
    return Status::InvalidArgument(
        "the QuadTree mechanism needs exactly two sensitive dimensions");
  }
  for (const int attr : dims) {
    if (schema.attribute(attr).kind != AttributeKind::kSensitiveOrdinal) {
      return Status::InvalidArgument(
          "the QuadTree mechanism needs ordinal dimensions");
    }
  }
  std::unique_ptr<QuadTreeMechanism> mech(
      new QuadTreeMechanism(schema, params));
  for (int j = 0; j <= mech->height_; ++j) {
    LDP_RETURN_NOT_OK(
        mech->AddGroup(params.epsilon, (1ull << j) * (1ull << j)));
  }
  return mech;
}

LdpReport QuadTreeMechanism::EncodeUser(std::span<const uint32_t> values,
                                        Rng& rng) const {
  LDP_CHECK_EQ(values.size(), 2u);
  const uint32_t level = static_cast<uint32_t>(rng.UniformInt(height_ + 1));
  const int shift = height_ - static_cast<int>(level);
  const uint64_t cx = values[0] >> shift;
  const uint64_t cy = values[1] >> shift;
  const uint64_t cell = cx * (1ull << level) + cy;
  LdpReport report;
  report.entries.push_back({level, store_.Encode(level, cell, rng)});
  return report;
}

void QuadTreeMechanism::Decompose(
    int level, uint64_t x, uint64_t y, const Interval& rx, const Interval& ry,
    std::vector<std::pair<int, uint64_t>>* out) const {
  const int shift = height_ - level;
  const Interval node_x{x << shift, ((x + 1) << shift) - 1};
  const Interval node_y{y << shift, ((y + 1) << shift) - 1};
  if (!node_x.Overlaps(rx) || !node_y.Overlaps(ry)) return;
  if (rx.Contains(node_x) && ry.Contains(node_y)) {
    out->push_back({level, x * (1ull << level) + y});
    return;
  }
  LDP_DCHECK(level < height_);
  for (uint64_t dx = 0; dx < 2; ++dx) {
    for (uint64_t dy = 0; dy < 2; ++dy) {
      Decompose(level + 1, 2 * x + dx, 2 * y + dy, rx, ry, out);
    }
  }
}

Result<std::vector<std::pair<int, uint64_t>>> QuadTreeMechanism::DecomposeBox(
    std::span<const Interval> ranges) const {
  LDP_CHECK_EQ(ranges.size(), 2u);
  std::vector<std::pair<int, uint64_t>> nodes;
  Decompose(0, 0, 0, ranges[0], ranges[1], &nodes);
  if (nodes.size() > kMaxSubQueries) {
    return Status::ResourceExhausted("QuadTree box needs too many nodes");
  }
  return nodes;
}

Result<double> QuadTreeMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  LDP_ASSIGN_OR_RETURN(const auto nodes, DecomposeBox(ranges));
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  const double levels = static_cast<double>(height_ + 1);
  return static_cast<double>(nodes.size()) * 4.0 * levels * m2 * e /
             ((e - 1.0) * (e - 1.0)) +
         (2.0 * levels - 1.0) * m2;
}

Result<double> QuadTreeMechanism::EstimateValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  LDP_ASSIGN_OR_RETURN(const auto nodes, DecomposeBox(ranges));
  // Level sampling: scale each group's estimate by the inverse sampling
  // rate h + 1 (as in HIO / eq. 24).
  const double scale = static_cast<double>(height_ + 1);
  // Nodes of the same level batch into one kernel pass each (after a cache
  // probe); unaligned boxes decompose into O(2^h) nodes, so the
  // amortization is worth it. Scaling and summing in node order matches the
  // serial loop bit for bit.
  std::vector<NodeRef> refs(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    refs[i] = {static_cast<uint64_t>(nodes[i].first), nodes[i].second};
  }
  std::vector<double> estimates(refs.size(), 0.0);
  EstimateNodes(refs, weights, estimates);
  double total = 0.0;
  for (const double e : estimates) total += scale * e;
  return total;
}

}  // namespace ldp
