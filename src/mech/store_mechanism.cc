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

Status StoreMechanism::AddReportAt(const LdpReport& report,
                                   uint32_t group_base, uint64_t user) {
  LDP_RETURN_NOT_OK(ValidateReportAt(report, group_base));
  for (const auto& entry : report.entries) {
    store_.Add(entry.group - group_base, entry.fo, user);
  }
  ++num_reports_;
  return Status::OK();
}

Status StoreMechanism::Merge(Mechanism&& shard) {
  auto* other = dynamic_cast<StoreMechanism*>(&shard);
  if (other == nullptr || other->kind() != kind()) {
    return Status::InvalidArgument("cannot merge a non-" +
                                   MechanismKindName(kind()) + " shard");
  }
  LDP_RETURN_NOT_OK(store_.MergeFrom(std::move(other->store_)));
  num_reports_ += other->num_reports_;
  other->num_reports_ = 0;
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

Status StoreMechanism::ValidateBox(std::span<const Interval> ranges) const {
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

void StoreMechanism::EstimateNodes(std::span<const NodeRef> nodes,
                                   const WeightVector& weights,
                                   std::span<double> out) const {
  EstimateNodesBatched(store_, nodes, weights, num_reports_, estimate_cache(),
                       exec(), out);
}

}  // namespace ldp
