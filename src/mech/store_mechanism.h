#ifndef LDPMDA_MECH_STORE_MECHANISM_H_
#define LDPMDA_MECH_STORE_MECHANISM_H_

#include <span>

#include "mech/mechanism.h"

namespace ldp {

/// A mechanism whose server state is one ReportStore: every report entry
/// names a frequency-oracle group, and estimates sum group estimates over
/// a decomposition of the box. HI, HIO, MG, QuadTree, Haar, HDG and CALM
/// are store mechanisms; each defines its encoder, layout and estimator,
/// and this class defines the report contract once.
class StoreMechanism : public Mechanism {
 public:
  uint64_t NumReportGroups() const final {
    return static_cast<uint64_t>(store_.num_groups());
  }

 protected:
  /// Checks the report's shape (one entry naming a group, or one entry per
  /// group in group order), every group id, and every entry's payload
  /// against its group's oracle (FrequencyOracle::ValidateReport).
  Status ValidateReportAt(const LdpReport& report,
                          uint32_t group_base) const final;
  void AppendReportAt(const LdpReport& report, uint32_t group_base,
                      uint64_t user) final;
  /// Rejects a shard of another kind, including a MultiMechanism.
  Status MergeShard(Mechanism& shard) final;
  /// Loops EstimateValidBox over the tasks.
  Status EstimateValidBoxes(std::span<const BoxTask> tasks,
                            std::span<double> out) const final;
  /// One task of EstimateValidBoxes.
  virtual Result<double> EstimateValidBox(
      std::span<const Interval> ranges, const WeightVector& weights) const = 0;

  /// The report shapes a store mechanism accepts.
  enum class ReportShape {
    /// One entry naming one group: the user samples a group (HIO, MG,
    /// QuadTree, Haar, HDG, CALM).
    kOneEntry,
    /// One entry per group, in group order: the user reports on every
    /// group (HI).
    kEntryPerGroup,
  };

  StoreMechanism(const Schema& schema, const MechanismParams& params,
                 ReportShape shape)
      : Mechanism(schema, params), shape_(shape) {}

  /// Appends a group reported through a `params_.fo_kind` oracle at budget
  /// `epsilon` over `domain_size` values.
  Status AddGroup(double epsilon, uint64_t domain_size);

  /// EstimateNodesBatched over this mechanism's store, epoch, estimate
  /// cache and execution context.
  void EstimateNodes(std::span<const NodeRef> nodes,
                     const WeightVector& weights,
                     std::span<double> out) const;

  ReportStore store_;

 private:
  ReportShape shape_;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_STORE_MECHANISM_H_
