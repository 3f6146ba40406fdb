#include "mech/multi.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "mech/advisor.h"
#include "mech/factory.h"

namespace ldp {

Result<std::unique_ptr<MultiMechanism>> MultiMechanism::Create(
    const Schema& schema, const MechanismParams& params,
    std::span<const MechanismKind> kinds) {
  if (kinds.empty()) {
    return Status::InvalidArgument("MultiMechanism needs at least one kind");
  }
  for (size_t i = 0; i < kinds.size(); ++i) {
    for (size_t j = i + 1; j < kinds.size(); ++j) {
      if (kinds[i] == kinds[j]) {
        return Status::InvalidArgument("duplicate mechanism kind: " +
                                       MechanismKindName(kinds[i]));
      }
    }
  }
  std::unique_ptr<MultiMechanism> multi(new MultiMechanism(schema, params));
  multi->group_offset_.push_back(0);
  for (const MechanismKind kind : kinds) {
    LDP_ASSIGN_OR_RETURN(auto sub, CreateMechanism(kind, schema, params));
    multi->group_offset_.push_back(multi->group_offset_.back() +
                                   sub->NumReportGroups());
    multi->subs_.push_back(std::move(sub));
  }
  if (multi->group_offset_.back() > (1ull << 31)) {
    return Status::ResourceExhausted("combined group id space too large");
  }
  return multi;
}

void MultiMechanism::set_execution_context(const ExecutionContext* exec) {
  exec_ = exec;
  for (auto& sub : subs_) sub->set_execution_context(exec);
}

void MultiMechanism::EnableEstimateCache(size_t max_bytes) {
  // Each sub keeps a private cache: cache keys are (group, node, weight) and
  // sub-local group ids collide across subs. The composite itself holds no
  // cache (estimate_cache() stays null).
  for (auto& sub : subs_) sub->EnableEstimateCache(max_bytes / subs_.size());
  estimate_cache_.reset();
}

int MultiMechanism::SubOf(const LdpReport& report,
                          uint32_t group_base) const {
  if (report.entries.empty()) return -1;
  const uint32_t group = report.entries[0].group - group_base;
  for (int i = 0; i < static_cast<int>(subs_.size()); ++i) {
    if (group >= group_offset_[i] && group < group_offset_[i + 1]) return i;
  }
  return -1;
}

LdpReport MultiMechanism::EncodeUser(std::span<const uint32_t> values,
                                     Rng& rng) const {
  // One uniform draw assigns the user's cohort; the sub then consumes the
  // same stream, so the composite is exactly as deterministic as its parts.
  const uint32_t sub = static_cast<uint32_t>(rng.UniformInt(subs_.size()));
  LdpReport report = subs_[sub]->EncodeUser(values, rng);
  for (auto& entry : report.entries) {
    entry.group += static_cast<uint32_t>(group_offset_[sub]);
  }
  return report;
}

Status MultiMechanism::ValidateReportAt(const LdpReport& report,
                                        uint32_t group_base) const {
  const int sub = SubOf(report, group_base);
  if (sub < 0) {
    return report.entries.empty()
               ? Status::InvalidArgument("empty multi-mechanism report")
               : Status::OutOfRange("bad group id in multi-mechanism report");
  }
  return subs_[sub]->ValidateReportAt(
      report, group_base + static_cast<uint32_t>(group_offset_[sub]));
}

void MultiMechanism::AppendReportAt(const LdpReport& report,
                                    uint32_t group_base, uint64_t user) {
  const int sub = SubOf(report, group_base);
  subs_[sub]->AddValidReportAt(
      report, group_base + static_cast<uint32_t>(group_offset_[sub]), user);
}

Result<std::unique_ptr<Mechanism>> MultiMechanism::NewShard() const {
  const std::vector<MechanismKind> k = kinds();
  LDP_ASSIGN_OR_RETURN(auto shard, Create(schema_, params_, k));
  return {std::unique_ptr<Mechanism>(std::move(shard))};
}

Status MultiMechanism::MergeShard(Mechanism& shard) {
  auto* other = dynamic_cast<MultiMechanism*>(&shard);
  if (other == nullptr ||
      other->subs_.size() != subs_.size()) {
    return Status::InvalidArgument("cannot merge an incompatible multi shard");
  }
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (other->subs_[i]->kind() != subs_[i]->kind()) {
      return Status::InvalidArgument("multi shard registered different kinds");
    }
  }
  for (size_t i = 0; i < subs_.size(); ++i) {
    LDP_RETURN_NOT_OK(subs_[i]->Merge(std::move(*other->subs_[i])));
  }
  return Status::OK();
}

int MultiMechanism::SelectSub(std::span<const Interval> ranges) const {
  // Derive the query's workload shape and run the same per-mechanism cost
  // model the planner uses, so contract-path estimates (EstimateBox without
  // a plan) agree with planned execution.
  const auto& dims = schema_.sensitive_dims();
  WorkloadProfile profile;
  profile.query_dims = 0;
  double volume = 1.0;
  for (size_t i = 0; i < dims.size() && i < ranges.size(); ++i) {
    const double domain =
        static_cast<double>(schema_.attribute(dims[i]).domain_size);
    const double len = static_cast<double>(ranges[i].length());
    volume *= std::clamp(len / domain, 0.0, 1.0);
    if (len < domain) ++profile.query_dims;
  }
  profile.query_dims = std::max(profile.query_dims, 1);
  profile.query_volume = volume;
  const std::vector<MechanismKind> k = kinds();
  const std::vector<MechanismScore> scores =
      ScoreMechanisms(schema_, params_, profile, k);
  const MechanismKind chosen = ChooseMechanism(scores);
  for (int i = 0; i < static_cast<int>(subs_.size()); ++i) {
    if (subs_[i]->kind() == chosen) return i;
  }
  return 0;
}

Status MultiMechanism::EstimateValidBoxes(std::span<const BoxTask> tasks,
                                          std::span<double> out) const {
  for (size_t i = 0; i < tasks.size(); ++i) {
    LDP_ASSIGN_OR_RETURN(
        out[i], EstimateBoxWith(subs_[SelectSub(tasks[i].ranges)]->kind(),
                                tasks[i].ranges, *tasks[i].weights));
  }
  return Status::OK();
}

Status MultiMechanism::EstimateBoxesWith(MechanismKind kind,
                                         std::span<const BoxTask> tasks,
                                         std::span<double> out) const {
  for (const auto& sub : subs_) {
    if (sub->kind() != kind) continue;
    LDP_RETURN_NOT_OK(sub->EstimateBoxes(tasks, out));
    for (double& estimate : out) {
      estimate *= static_cast<double>(subs_.size());
    }
    return Status::OK();
  }
  return Status::InvalidArgument("mechanism not registered: " +
                                 MechanismKindName(kind));
}

Result<double> MultiMechanism::EstimateBoxWith(
    MechanismKind kind, std::span<const Interval> ranges,
    const WeightVector& weights) const {
  const BoxTask task{ranges, &weights};
  double estimate = 0.0;
  LDP_RETURN_NOT_OK(EstimateBoxesWith(kind, std::span<const BoxTask>(&task, 1),
                                      std::span<double>(&estimate, 1)));
  return estimate;
}

Result<double> MultiMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  // Contract path (no plan): bound through the cost model's pick, matching
  // EstimateValidBoxes above.
  return VarianceBoundWith(subs_[SelectSub(ranges)]->kind(), ranges, weights);
}

Result<double> MultiMechanism::VarianceBoundWith(
    MechanismKind kind, std::span<const Interval> ranges,
    const WeightVector& weights) const {
  for (const auto& sub : subs_) {
    if (sub->kind() != kind) continue;
    LDP_ASSIGN_OR_RETURN(const double cohort_bound,
                         sub->VarianceBound(ranges, weights));
    // Var(k x cohort estimate) = k^2 x cohort variance; the cohort bound is
    // already conservative (it uses the full population's M2).
    const double k = static_cast<double>(subs_.size());
    return k * k * cohort_bound;
  }
  return Status::InvalidArgument("mechanism not registered: " +
                                 MechanismKindName(kind));
}

std::vector<MechanismKind> MultiMechanism::kinds() const {
  std::vector<MechanismKind> out;
  out.reserve(subs_.size());
  for (const auto& sub : subs_) out.push_back(sub->kind());
  return out;
}

}  // namespace ldp
