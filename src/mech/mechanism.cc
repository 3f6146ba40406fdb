#include "mech/mechanism.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "exec/execution_context.h"

namespace ldp {

std::string MechanismKindName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kHi:
      return "HI";
    case MechanismKind::kHio:
      return "HIO";
    case MechanismKind::kSc:
      return "SC";
    case MechanismKind::kMg:
      return "MG";
    case MechanismKind::kQuadTree:
      return "QuadTree";
    case MechanismKind::kHaar:
      return "Haar";
    case MechanismKind::kHdg:
      return "HDG";
    case MechanismKind::kCalm:
      return "CALM";
  }
  return "?";
}

Result<MechanismKind> MechanismKindFromString(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "hi") return MechanismKind::kHi;
  if (lower == "hio") return MechanismKind::kHio;
  if (lower == "sc") return MechanismKind::kSc;
  if (lower == "mg") return MechanismKind::kMg;
  if (lower == "quadtree" || lower == "qt") return MechanismKind::kQuadTree;
  if (lower == "haar" || lower == "wavelet") return MechanismKind::kHaar;
  if (lower == "hdg") return MechanismKind::kHdg;
  if (lower == "calm") return MechanismKind::kCalm;
  return Status::InvalidArgument("unknown mechanism: " + std::string(name));
}

const ExecutionContext& Mechanism::exec() const {
  return exec_ != nullptr ? *exec_ : SerialExecutionContext();
}

Status Mechanism::AddReport(const LdpReport& report, uint64_t user) {
  LDP_RETURN_NOT_OK(ValidateReportAt(report, 0));
  AddValidReportAt(report, 0, user);
  return Status::OK();
}

void Mechanism::AddValidReportAt(const LdpReport& report, uint32_t group_base,
                                 uint64_t user) {
  AppendReportAt(report, group_base, user);
  ++num_reports_;
  max_user_ = std::max(max_user_, user);
}

Status Mechanism::Merge(Mechanism&& shard) {
  LDP_RETURN_NOT_OK(MergeShard(shard));
  num_reports_ += shard.num_reports_;
  max_user_ = std::max(max_user_, shard.max_user_);
  shard.num_reports_ = 0;
  shard.max_user_ = 0;
  return Status::OK();
}

Result<double> Mechanism::EstimateBox(std::span<const Interval> ranges,
                                      const WeightVector& weights) const {
  const BoxTask task{ranges, &weights};
  double estimate = 0.0;
  LDP_RETURN_NOT_OK(EstimateBoxes(std::span<const BoxTask>(&task, 1),
                                  std::span<double>(&estimate, 1)));
  return estimate;
}

Status Mechanism::EstimateBoxes(std::span<const BoxTask> tasks,
                                std::span<double> out) const {
  LDP_CHECK_EQ(tasks.size(), out.size());
  if (tasks.empty()) return Status::OK();
  // With zero accepted reports the estimators would return a meaningless 0
  // (or NaN after renormalization), so surface the condition instead.
  if (num_reports_ == 0) {
    return Status::FailedPrecondition(
        "no accepted reports: nothing to estimate from (all clients dropped "
        "out or every report was quarantined)");
  }
  // The tasks before the first one that breaks the contract are estimated
  // first, so an earlier task's own failure (a box too costly to
  // decompose) wins over a later malformed one, as in the per-task loop.
  size_t valid = 0;
  Status broken = Status::OK();
  for (; valid < tasks.size(); ++valid) {
    broken = ValidateBox(tasks[valid].ranges);
    if (broken.ok()) broken = ValidateWeights(*tasks[valid].weights);
    if (!broken.ok()) break;
  }
  if (valid > 0) {
    LDP_RETURN_NOT_OK(EstimateValidBoxes(tasks.first(valid), out.first(valid)));
  }
  return broken;
}

Result<double> Mechanism::VarianceBound(std::span<const Interval> ranges,
                                        const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(ValidateBox(ranges));
  return VarianceBoundOfValidBox(ranges, weights);
}

Status Mechanism::ValidateBox(std::span<const Interval> ranges) const {
  const auto& dims = schema_.sensitive_dims();
  if (ranges.size() != dims.size()) {
    return Status::InvalidArgument(
        "expected one range per sensitive dimension (" +
        std::to_string(dims.size()) + "), got " +
        std::to_string(ranges.size()));
  }
  for (size_t i = 0; i < dims.size(); ++i) {
    const Attribute& attr = schema_.attribute(dims[i]);
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi >= attr.domain_size) {
      return Status::OutOfRange("range " + ranges[i].ToString() +
                                " outside the domain of '" + attr.name + "'");
    }
  }
  return Status::OK();
}

Status Mechanism::ValidateWeights(const WeightVector& weights) const {
  if (num_reports_ > 0 && weights.size() <= max_user_) {
    return Status::InvalidArgument(
        "weight vector of length " + std::to_string(weights.size()) +
        " has no entry for user " + std::to_string(max_user_));
  }
  return Status::OK();
}

void Mechanism::EnableEstimateCache(size_t max_bytes) {
  estimate_cache_ =
      max_bytes == 0 ? nullptr : std::make_unique<EstimateCache>(max_bytes);
}

uint64_t LdpReport::SizeWords() const {
  uint64_t words = 0;
  for (const auto& e : entries) {
    words += 1;  // group tag + OLH/GRR payload packed into one word
    if (!e.fo.bits.empty()) words += e.fo.bits.size();
  }
  return words;
}

std::string LdpReport::Serialize() const {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutU32(&out, e.group);
    PutU32(&out, e.fo.seed);
    PutU32(&out, e.fo.value);
    PutU32(&out, static_cast<uint32_t>(e.fo.bits.size()));
    for (const uint64_t word : e.fo.bits) PutU64(&out, word);
  }
  return out;
}

Result<LdpReport> LdpReport::Deserialize(std::string_view bytes) {
  LdpReport report;
  if (bytes.size() < 4) {
    return Status::ParseError("truncated LDP report header");
  }
  const uint32_t count = GetU32(bytes);
  bytes.remove_prefix(4);
  if (count > (1u << 24)) {
    return Status::ParseError("implausible LDP report entry count");
  }
  report.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (bytes.size() < 16) {
      return Status::ParseError("truncated LDP report entry");
    }
    Entry entry;
    entry.group = GetU32(bytes);
    entry.fo.seed = GetU32(bytes.substr(4));
    entry.fo.value = GetU32(bytes.substr(8));
    const uint32_t bit_words = GetU32(bytes.substr(12));
    bytes.remove_prefix(16);
    if (static_cast<uint64_t>(bit_words) * 8 > bytes.size()) {
      return Status::ParseError("truncated LDP report bit payload");
    }
    entry.fo.bits.resize(bit_words);
    for (uint32_t w = 0; w < bit_words; ++w) {
      entry.fo.bits[w] = GetU64(bytes.substr(8 * w));
    }
    bytes.remove_prefix(8 * static_cast<size_t>(bit_words));
    report.entries.push_back(std::move(entry));
  }
  if (!bytes.empty()) {
    return Status::ParseError("trailing bytes after LDP report");
  }
  return report;
}

bool operator==(const LdpReport& a, const LdpReport& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const auto& x = a.entries[i];
    const auto& y = b.entries[i];
    if (x.group != y.group || x.fo.seed != y.fo.seed ||
        x.fo.value != y.fo.value || x.fo.bits != y.fo.bits) {
      return false;
    }
  }
  return true;
}

std::vector<std::unique_ptr<DimHierarchy>> BuildHierarchies(
    const Schema& schema, uint32_t fanout) {
  std::vector<std::unique_ptr<DimHierarchy>> out;
  for (const int attr : schema.sensitive_dims()) {
    const Attribute& a = schema.attribute(attr);
    if (a.kind == AttributeKind::kSensitiveOrdinal) {
      out.push_back(DimHierarchy::MakeOrdinal(a.domain_size, fanout));
    } else {
      out.push_back(DimHierarchy::MakeCategorical(a.domain_size));
    }
  }
  return out;
}

Status ValidateMechanismConfig(const Schema& schema,
                               const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  return Status::OK();
}

Status ValidateSensitiveValues(const Schema& schema,
                               std::span<const uint32_t> values) {
  const auto& dims = schema.sensitive_dims();
  if (values.size() != dims.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(dims.size()) +
        " sensitive values, got " + std::to_string(values.size()));
  }
  for (size_t i = 0; i < dims.size(); ++i) {
    if (values[i] >= schema.attribute(dims[i]).domain_size) {
      return Status::OutOfRange("sensitive value out of domain for '" +
                                schema.attribute(dims[i]).name + "'");
    }
  }
  return Status::OK();
}

}  // namespace ldp
