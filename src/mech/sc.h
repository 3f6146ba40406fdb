#ifndef LDPMDA_MECH_SC_H_
#define LDPMDA_MECH_SC_H_

#include <memory>
#include <vector>

#include "fo/olh.h"
#include "mech/mechanism.h"

namespace ldp {

/// The Split-and-Conjunction mechanism (A_SC, P̄_SC) — Algorithm 5
/// (Section 5.3), designed for data models with many sensitive dimensions
/// but low-dimensional queries.
///
/// Client: each dimension's one-dim hierarchy is reported *independently* —
/// one OLH report per (dimension i, level j in 1..h_i), each with budget
/// eps / sum_i h_i. Root levels carry no information and are not reported.
///
/// Server: a box decomposes per dimension as in HI; each d_q-dim sub-query
/// is answered by the conjunctive weighted estimator f̂^M (Section 5.3.1):
/// with per-dimension output states A_i(t) = 1{H_t(I_i) = y_t}, the
/// transition matrix P factors as a Kronecker product of 2x2 per-dimension
/// matrices, so the estimate reduces to
///    f̂^M(I_1...I_k) = sum_t w_t * prod_i c(A_i(t)),
/// with c(1) = (1-q)/(p-q), c(0) = -q/(p-q) — the first row of P_i^{-1}.
/// Dimensions whose decomposed piece is the root ('*') contribute factor 1.
///
/// Evaluation: each factor is one of two constants picked by one OLH support
/// bit, so an EstimateBoxes call packs each distinct piece's support bits
/// into one bitset (1 bit per report) shared by all of its boxes. A
/// sub-query over k <= 2 pieces expands the product over subsets of its
/// pieces into masked weight sums, memoized across the sub-queries of every
/// box with the same weights; a one-piece sub-query is exactly OLH's
/// scale * (theta - W / g). From k = 3 on, a sub-query sums the weights of
/// each popcount class (how many of its pieces a report supports): k + 1
/// masked sums, so the cost grows linearly in k. A masked sum reads only
/// what it needs: unit weights (COUNT) are counted by popcount, and when
/// every report's user id is its position the weights are read in place
/// rather than gathered through the ids.
///
/// Requires OLH as the frequency oracle (the conjunctive estimator evaluates
/// per-report support bits).
class ScMechanism : public Mechanism {
 public:
  static Result<std::unique_ptr<ScMechanism>> Create(
      const Schema& schema, const MechanismParams& params);

  MechanismKind kind() const override { return MechanismKind::kSc; }
  uint64_t NumReportGroups() const override {
    return static_cast<uint64_t>(protocols_.size());
  }

  LdpReport EncodeUser(std::span<const uint32_t> values,
                       Rng& rng) const override;

  /// Per-report budget eps / sum_i h_i.
  double per_report_epsilon() const { return per_report_epsilon_; }
  int num_groups() const { return static_cast<int>(protocols_.size()); }

 protected:
  Status ValidateReportAt(const LdpReport& report,
                          uint32_t group_base) const override;
  void AppendReportAt(const LdpReport& report, uint32_t group_base,
                      uint64_t user) override;
  Status MergeShard(Mechanism& shard) override;
  Status EstimateValidBoxes(std::span<const BoxTask> tasks,
                            std::span<double> out) const override;
  Result<double> VarianceBoundOfValidBox(
      std::span<const Interval> ranges,
      const WeightVector& weights) const override;

 private:
  ScMechanism(const Schema& schema, const MechanismParams& params);
  Status Init();

  /// Dense group id for (dim, level); levels are 1-based (roots unreported).
  int GroupOf(int dim, int level) const {
    return group_offset_[dim] + level - 1;
  }

  /// One box of an EstimateBoxes call (defined in sc.cc).
  struct BoxWork;

  /// Computes every box's value[rank] for the ranks in its `todo` from
  /// packed per-report support bitsets shared by all the boxes.
  void EstimateSubQueries(std::span<BoxWork> boxes) const;

  std::unique_ptr<LevelGrid> grid_;
  double per_report_epsilon_ = 0.0;
  std::vector<int> group_offset_;  // per dim, into protocols_/seeds_/ys_
  /// One OLH protocol per (dim, level) group; domains differ per level.
  std::vector<std::unique_ptr<OlhProtocol>> protocols_;
  /// Raw reports per group, aligned with users_ by position.
  std::vector<std::vector<uint32_t>> seeds_;
  std::vector<std::vector<uint32_t>> ys_;
  std::vector<uint64_t> users_;
  /// Whether users_[t] == t for every report t: the masked sums then read a
  /// weight vector in place instead of gathering it through users_.
  bool dense_ids_ = true;
  /// Conjunctive-estimator factors (identical across groups: same budget).
  double c1_ = 0.0;
  double c0_ = 0.0;
};

}  // namespace ldp

#endif  // LDPMDA_MECH_SC_H_
