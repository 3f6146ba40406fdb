#ifndef LDPMDA_MECH_MULTI_H_
#define LDPMDA_MECH_MULTI_H_

#include <memory>
#include <vector>

#include "mech/mechanism.h"

namespace ldp {

/// A composite mechanism hosting several registered mechanisms over one
/// report population, so a planner can choose the estimator per query.
///
/// Budget accounting is user-partitioned: each user is assigned to exactly
/// one registered mechanism uniformly at random and spends the *whole*
/// budget eps on that mechanism's report — no budget splitting, so every
/// sub-mechanism keeps its single-mechanism accuracy on its cohort. A
/// cohort is a 1/k uniform sample of the population (k = number of
/// registered mechanisms), so population estimates are the sub-mechanism's
/// cohort estimate scaled by k (Horvitz-Thompson; see DESIGN.md §13).
///
/// Reports self-describe their owner: sub-mechanism i's group ids are
/// offset into a single id space, entry group g belongs to the sub whose
/// [offset_i, offset_{i+1}) range contains it.
class MultiMechanism : public Mechanism {
 public:
  /// `kinds` lists the registered mechanisms (at least one, no duplicates —
  /// per-plan dispatch addresses sub-mechanisms by kind).
  static Result<std::unique_ptr<MultiMechanism>> Create(
      const Schema& schema, const MechanismParams& params,
      std::span<const MechanismKind> kinds);

  /// The primary (first-registered) mechanism's kind.
  MechanismKind kind() const override { return subs_[0]->kind(); }
  uint64_t NumReportGroups() const override { return group_offset_.back(); }

  void set_execution_context(const ExecutionContext* exec) override;
  void EnableEstimateCache(size_t max_bytes) override;

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;
  Result<std::unique_ptr<Mechanism>> NewShard() const override;

  /// Population estimates through a specific registered mechanism — the
  /// executor's per-plan dispatch point: out[i] = k x the sub's cohort
  /// estimate of tasks[i], from one EstimateBoxes call on the sub (which
  /// checks the contract against the sub's own reports).
  Status EstimateBoxesWith(MechanismKind kind, std::span<const BoxTask> tasks,
                           std::span<double> out) const;
  /// The one-task EstimateBoxesWith.
  Result<double> EstimateBoxWith(MechanismKind kind,
                                 std::span<const Interval> ranges,
                                 const WeightVector& weights) const;

  /// Variance bound through a specific registered mechanism: k^2 x the
  /// sub's cohort bound. The per-plan companion of EstimateBoxesWith, so a
  /// confidence bound describes the mechanism the plan actually executed,
  /// not the one VarianceBound's own shape-based selection would pick.
  Result<double> VarianceBoundWith(MechanismKind kind,
                                   std::span<const Interval> ranges,
                                   const WeightVector& weights) const;

  int num_sub_mechanisms() const { return static_cast<int>(subs_.size()); }
  const Mechanism& sub(int i) const { return *subs_[i]; }
  std::vector<MechanismKind> kinds() const;

 protected:
  /// Route the report, read in place, to the sub owning its first entry's
  /// group id, which validates it against its own id range (so a report
  /// spanning two subs is rejected there); an accepted report is handed to
  /// that sub's non-validating add, so no report is validated twice.
  Status ValidateReportAt(const LdpReport& report,
                          uint32_t group_base) const override;
  void AppendReportAt(const LdpReport& report, uint32_t group_base,
                      uint64_t user) override;
  Status MergeShard(Mechanism& shard) override;
  /// Population estimates through the cost-model-selected sub-mechanism:
  /// scores the registered kinds against each box's shape (constrained
  /// dims, volume) and dispatches to the winner. Deterministic.
  Status EstimateValidBoxes(std::span<const BoxTask> tasks,
                            std::span<double> out) const override;
  Result<double> VarianceBoundOfValidBox(
      std::span<const Interval> ranges,
      const WeightVector& weights) const override;

 private:
  MultiMechanism(const Schema& schema, const MechanismParams& params)
      : Mechanism(schema, params) {}

  /// Sub index owning the first entry's group id (offset by `group_base`),
  /// or -1 when there is no entry or no sub owns it.
  int SubOf(const LdpReport& report, uint32_t group_base) const;
  /// The cost model's pick for this query shape (index into subs_).
  int SelectSub(std::span<const Interval> ranges) const;

  std::vector<std::unique_ptr<Mechanism>> subs_;
  /// size k+1; sub i owns groups [group_offset_[i], group_offset_[i+1]).
  std::vector<uint64_t> group_offset_;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_MULTI_H_
