#include "mech/haar.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ldp {

HaarMechanism::HaarMechanism(const Schema& schema,
                             const MechanismParams& params)
    : StoreMechanism(schema, params, ReportShape::kOneEntry) {
  const uint64_t domain =
      schema.attribute(schema.sensitive_dims()[0]).domain_size;
  height_ = 0;
  while ((1ull << height_) < domain) ++height_;
  if (height_ == 0) height_ = 1;
}

Result<std::unique_ptr<HaarMechanism>> HaarMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
  const auto& dims = schema.sensitive_dims();
  if (dims.size() != 1 ||
      schema.attribute(dims[0]).kind != AttributeKind::kSensitiveOrdinal) {
    return Status::InvalidArgument(
        "the Haar mechanism needs exactly one ordinal sensitive dimension");
  }
  std::unique_ptr<HaarMechanism> mech(new HaarMechanism(schema, params));
  for (int j = 0; j <= mech->height_; ++j) {
    LDP_RETURN_NOT_OK(mech->AddGroup(params.epsilon, 1ull << j));
  }
  return mech;
}

LdpReport HaarMechanism::EncodeUser(std::span<const uint32_t> values,
                                    Rng& rng) const {
  LDP_CHECK_EQ(values.size(), 1u);
  const uint32_t level = static_cast<uint32_t>(rng.UniformInt(height_ + 1));
  const uint64_t block = values[0] >> (height_ - static_cast<int>(level));
  LdpReport report;
  report.entries.push_back({level, store_.Encode(level, block, rng)});
  return report;
}

std::vector<HaarMechanism::HaarTerm> HaarMechanism::DecomposeRange(
    const Interval& range) const {
  std::vector<HaarTerm> terms;
  const uint64_t D = padded_size();
  // Scaling function phi = 1: <x, phi>/||phi||^2 = |range| / D, paired with
  // the level-0 "block sum" F_{0,0} (the total weight).
  terms.push_back(
      {0, 0, static_cast<double>(range.length()) / static_cast<double>(D)});
  // Detail functions psi_{j,k}: non-zero inner product only for the <= 2
  // nodes per level whose block partially overlaps the range.
  for (int j = 0; j < height_; ++j) {
    const int shift = height_ - j;           // block size 2^shift
    const uint64_t half = 1ull << (shift - 1);
    uint64_t blocks[2] = {range.lo >> shift, range.hi >> shift};
    const int count = blocks[0] == blocks[1] ? 1 : 2;
    for (int i = 0; i < count; ++i) {
      const uint64_t k = blocks[i];
      const uint64_t base = k << shift;
      const Interval left{base, base + half - 1};
      const Interval right{base + half, base + (1ull << shift) - 1};
      const auto ovl = [&](const Interval& node) -> double {
        const uint64_t lo = std::max(range.lo, node.lo);
        const uint64_t hi = std::min(range.hi, node.hi);
        return lo > hi ? 0.0 : static_cast<double>(hi - lo + 1);
      };
      const double inner = ovl(left) - ovl(right);
      if (inner != 0.0) {
        terms.push_back({j + 1, 2 * k,
                         inner / static_cast<double>(1ull << shift)});
      }
    }
  }
  return terms;
}

Result<double> HaarMechanism::EstimateValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  const auto terms = DecomposeRange(ranges[0]);
  // terms[0] is the scaling term against F_{0,0}; the rest pair a detail
  // coefficient with F_{j+1,2k} - F_{j+1,2k+1}. All block estimates batch
  // into one kernel pass per level (with cache probes); applying the
  // sampling scale per block and combining in term order reproduces the
  // per-block serial evaluation bit for bit.
  std::vector<NodeRef> nodes;
  nodes.reserve(2 * terms.size() - 1);
  nodes.push_back({0, 0});
  for (size_t i = 1; i < terms.size(); ++i) {
    const uint64_t level = static_cast<uint64_t>(terms[i].child_level);
    nodes.push_back({level, terms[i].left_child});
    nodes.push_back({level, terms[i].left_child + 1});
  }
  std::vector<double> estimates(nodes.size(), 0.0);
  EstimateNodes(nodes, weights, estimates);
  const double scale = static_cast<double>(height_ + 1);  // 1/(sampling rate)
  double total = terms[0].coefficient * (scale * estimates[0]);
  for (size_t i = 1; i < terms.size(); ++i) {
    total += terms[i].coefficient * (scale * estimates[2 * i - 1] -
                                     scale * estimates[2 * i]);
  }
  return total;
}

Result<double> HaarMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  const auto terms = DecomposeRange(ranges[0]);
  const double e = std::exp(params_.epsilon);
  const double m2 = weights.sum_squares();
  const double levels = static_cast<double>(height_ + 1);
  const double per_estimate = 4.0 * levels * m2 * e / ((e - 1.0) * (e - 1.0));
  double var = terms[0].coefficient * terms[0].coefficient * per_estimate;
  for (size_t i = 1; i < terms.size(); ++i) {
    // Two block estimates per detail term (errors additive, Prop. 4).
    var += terms[i].coefficient * terms[i].coefficient * 2.0 * per_estimate;
  }
  return var + (2.0 * levels - 1.0) * m2;  // sampling terms, bounded by M2
}

}  // namespace ldp
