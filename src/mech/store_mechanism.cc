#include "mech/store_mechanism.h"

#include "exec/execution_context.h"

namespace ldp {

Status StoreMechanism::ValidateReportAt(const LdpReport& report,
                                        uint32_t group_base) const {
  const uint64_t groups = NumReportGroups();
  const bool one_entry = shape_ == ReportShape::kOneEntry;
  if (report.entries.size() != (one_entry ? 1 : groups)) {
    return Status::InvalidArgument(
        MechanismKindName(kind()) +
        (one_entry ? " report must have exactly one entry"
                   : " report must have one entry per group"));
  }
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const auto& entry = report.entries[i];
    const uint32_t group = entry.group - group_base;
    if (group >= groups) {
      return Status::OutOfRange("bad group id in " +
                                MechanismKindName(kind()) + " report");
    }
    if (!one_entry && group != i) {
      return Status::InvalidArgument(
          MechanismKindName(kind()) +
          " report entries must name every group once, in group order");
    }
    LDP_RETURN_NOT_OK(store_.oracle(group).ValidateReport(entry.fo));
  }
  return Status::OK();
}

void StoreMechanism::AppendReportAt(const LdpReport& report,
                                    uint32_t group_base, uint64_t user) {
  for (const auto& entry : report.entries) {
    store_.Add(entry.group - group_base, entry.fo, user);
  }
}

Status StoreMechanism::MergeShard(Mechanism& shard) {
  auto* other = dynamic_cast<StoreMechanism*>(&shard);
  if (other == nullptr || other->kind() != kind()) {
    return Status::InvalidArgument("cannot merge a non-" +
                                   MechanismKindName(kind()) + " shard");
  }
  return store_.MergeFrom(std::move(other->store_));
}

Status StoreMechanism::EstimateValidBoxes(std::span<const BoxTask> tasks,
                                          std::span<double> out) const {
  for (size_t i = 0; i < tasks.size(); ++i) {
    LDP_ASSIGN_OR_RETURN(out[i],
                         EstimateValidBox(tasks[i].ranges, *tasks[i].weights));
  }
  return Status::OK();
}

Status StoreMechanism::AddGroup(double epsilon, uint64_t domain_size) {
  LDP_ASSIGN_OR_RETURN(auto oracle,
                       FrequencyOracle::Create(params_.fo_kind, epsilon,
                                               domain_size,
                                               params_.hash_pool_size));
  store_.AddGroup(std::move(oracle));
  return Status::OK();
}

void StoreMechanism::EstimateNodes(std::span<const NodeRef> nodes,
                                   const WeightVector& weights,
                                   std::span<double> out) const {
  EstimateNodesBatched(store_, nodes, weights, num_reports(),
                       estimate_cache(), exec(), out);
}

}  // namespace ldp
