#include "mech/sc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/execution_context.h"
#include "fo/simd/simd.h"

namespace ldp {

namespace {
constexpr uint64_t kMaxSubQueries = 1ull << 20;
/// Probe/fill the node-estimate cache only for decompositions at most this
/// large; bigger fan-outs would churn the cache with entries unlikely to be
/// probed again before eviction.
constexpr uint64_t kMaxCachedSubQueries = 4096;
/// Sub-queries with at most this many non-root pieces expand over the
/// subsets of their pieces: 2^k masked sums, shared across the box's
/// sub-queries, and k = 1 is OLH's estimator bit for bit. Larger ones sum per
/// popcount class: k + 1 masked sums of their own, so the cost grows
/// linearly in k. 2^k <= k + 2 exactly for k <= 2, so below this bound the
/// expansion never needs more than one sum beyond the classes.
constexpr size_t kMaxExpandedPieces = 2;
// Report chunks start on a bitset word, so a chunk's rows are plain offsets.
static_assert(kExecChunkRows % 64 == 0);

/// Decodes a flat sub-query rank into per-dimension piece picks (last
/// dimension fastest, matching the serial odometer order).
void PicksOf(const std::vector<std::vector<LevelInterval>>& pieces,
             uint64_t rank, std::vector<size_t>* pick) {
  for (size_t i = pieces.size(); i-- > 0;) {
    (*pick)[i] = rank % pieces[i].size();
    rank /= pieces[i].size();
  }
}

/// Hash of a piece set named by its bitset rows (in dimension order).
struct RowsHash {
  size_t operator()(const std::vector<uint32_t>& rows) const {
    uint64_t h = rows.size();
    for (const uint32_t row : rows) h = HashCombine(h, row);
    return static_cast<size_t>(h);
  }
};
}  // namespace

ScMechanism::ScMechanism(const Schema& schema, const MechanismParams& params)
    : Mechanism(schema, params) {
  grid_ = std::make_unique<LevelGrid>(BuildHierarchies(schema, params.fanout));
}

Status ScMechanism::Init() {
  int total_levels = 0;
  group_offset_.resize(grid_->num_dims());
  for (int i = 0; i < grid_->num_dims(); ++i) {
    group_offset_[i] = total_levels;
    total_levels += grid_->dim(i).height();
  }
  LDP_CHECK_GT(total_levels, 0);
  per_report_epsilon_ = params_.epsilon / static_cast<double>(total_levels);
  for (int i = 0; i < grid_->num_dims(); ++i) {
    for (int j = 1; j <= grid_->dim(i).height(); ++j) {
      protocols_.push_back(std::make_unique<OlhProtocol>(
          per_report_epsilon_, grid_->dim(i).NumIntervals(j),
          params_.hash_pool_size));
    }
  }
  seeds_.resize(protocols_.size());
  ys_.resize(protocols_.size());
  // All groups share (eps', g), hence the same inverse-transition factors.
  const OlhProtocol& proto = *protocols_[0];
  c1_ = (1.0 - proto.q()) / (proto.p() - proto.q());
  c0_ = -proto.q() / (proto.p() - proto.q());
  return Status::OK();
}

Result<std::unique_ptr<ScMechanism>> ScMechanism::Create(
    const Schema& schema, const MechanismParams& params) {
  if (params.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (schema.sensitive_dims().empty()) {
    return Status::InvalidArgument("schema has no sensitive dimensions");
  }
  if (params.fo_kind != FoKind::kOlh) {
    return Status::InvalidArgument(
        "SC's conjunctive estimator requires the OLH frequency oracle");
  }
  std::unique_ptr<ScMechanism> mech(new ScMechanism(schema, params));
  LDP_RETURN_NOT_OK(mech->Init());
  return mech;
}

LdpReport ScMechanism::EncodeUser(std::span<const uint32_t> values,
                                  Rng& rng) const {
  LDP_CHECK_EQ(static_cast<int>(values.size()), grid_->num_dims());
  LdpReport report;
  report.entries.reserve(protocols_.size());
  for (int i = 0; i < grid_->num_dims(); ++i) {
    for (int j = 1; j <= grid_->dim(i).height(); ++j) {
      const int group = GroupOf(i, j);
      const uint64_t interval = grid_->dim(i).IntervalIndexOf(values[i], j);
      report.entries.push_back(
          {static_cast<uint32_t>(group),
           protocols_[group]->Encode(interval, rng)});
    }
  }
  return report;
}

Status ScMechanism::ValidateReport(const LdpReport& report) const {
  if (report.entries.size() != protocols_.size()) {
    return Status::InvalidArgument("SC report must cover every (dim, level)");
  }
  for (const auto& entry : report.entries) {
    if (entry.group >= protocols_.size()) {
      return Status::OutOfRange("bad group id in SC report");
    }
  }
  return Status::OK();
}

Status ScMechanism::AddReport(const LdpReport& report, uint64_t user) {
  LDP_RETURN_NOT_OK(ValidateReport(report));
  for (const auto& entry : report.entries) {
    seeds_[entry.group].push_back(entry.fo.seed);
    ys_[entry.group].push_back(entry.fo.value);
  }
  users_.push_back(user);
  ++num_reports_;
  return Status::OK();
}

Status ScMechanism::Merge(Mechanism&& shard) {
  auto* other = dynamic_cast<ScMechanism*>(&shard);
  if (other == nullptr) {
    return Status::InvalidArgument("cannot merge a non-SC shard");
  }
  if (other->protocols_.size() != protocols_.size()) {
    return Status::InvalidArgument("SC shard has mismatched group count");
  }
  for (size_t g = 0; g < protocols_.size(); ++g) {
    seeds_[g].insert(seeds_[g].end(), other->seeds_[g].begin(),
                     other->seeds_[g].end());
    ys_[g].insert(ys_[g].end(), other->ys_[g].begin(), other->ys_[g].end());
    other->seeds_[g].clear();
    other->ys_[g].clear();
  }
  users_.insert(users_.end(), other->users_.begin(), other->users_.end());
  other->users_.clear();
  num_reports_ += other->num_reports_;
  other->num_reports_ = 0;
  return Status::OK();
}

Result<double> ScMechanism::VarianceBound(std::span<const Interval> ranges,
                                          const WeightVector& weights) const {
  const int d = grid_->num_dims();
  if (static_cast<int>(ranges.size()) != d) {
    return Status::InvalidArgument("VarianceBound needs one range per dim");
  }
  // Per-dimension conjunctive-factor second moment (Prop. 10): the worst of
  // the two input states B in {0, 1}.
  const OlhProtocol& proto = *protocols_[0];
  const double p = proto.p();
  const double q = proto.q();
  const double factor = std::max(c1_ * c1_ * p + c0_ * c0_ * (1.0 - p),
                                 c1_ * c1_ * q + c0_ * c0_ * (1.0 - q));
  double sub_queries = 1.0;
  double per_user = 1.0;
  for (int i = 0; i < d; ++i) {
    std::vector<LevelInterval> pieces;
    LDP_RETURN_NOT_OK(grid_->dim(i).Decompose(ranges[i], &pieces));
    sub_queries *= static_cast<double>(pieces.size());
    // A root piece ('*') contributes no factor.
    if (!(pieces.size() == 1 && pieces[0].level == 0)) per_user *= factor;
  }
  return sub_queries * per_user * weights.sum_squares();
}

Result<double> ScMechanism::EstimateBox(std::span<const Interval> ranges,
                                        const WeightVector& weights) const {
  LDP_RETURN_NOT_OK(EnsureReports());
  const int d = grid_->num_dims();
  if (static_cast<int>(ranges.size()) != d) {
    return Status::InvalidArgument("EstimateBox needs one range per dim");
  }
  // Per-dimension decompositions (eq. 20's pieces).
  std::vector<std::vector<LevelInterval>> pieces(d);
  uint64_t product = 1;
  for (int i = 0; i < d; ++i) {
    LDP_RETURN_NOT_OK(grid_->dim(i).Decompose(ranges[i], &pieces[i]));
    product *= pieces[i].size();
    if (product > kMaxSubQueries) {
      return Status::ResourceExhausted("box decomposes into too many pieces");
    }
  }
  // Every sub-query is one node touched, cached or not.
  FoEstimateMetrics().nodes->Add(product);

  // Cache probe. A sub-query is one node of the d-dim level grid, so its
  // canonical key is (flat level tuple, flat cell) — exact and independent
  // of which query shape decomposed to it. Values are independent of the
  // query shape too (a sub-query's value depends only on its own pieces),
  // so a value cached by one query is the bit-exact value any other query
  // would compute for the same node.
  EstimateCache* cache =
      product <= kMaxCachedSubQueries ? estimate_cache() : nullptr;
  std::vector<double> value(product, 0.0);
  std::vector<char> cached(product, 0);
  std::vector<uint64_t> key_group, key_node;
  uint64_t num_cached = 0;
  if (cache != nullptr) {
    key_group.resize(product);
    key_node.resize(product);
    std::vector<size_t> pick(d, 0);
    std::vector<int> levels(d, 0);
    std::vector<uint64_t> intervals(d, 0);
    for (uint64_t rank = 0; rank < product; ++rank) {
      PicksOf(pieces, rank, &pick);
      for (int i = 0; i < d; ++i) {
        levels[i] = pieces[i][pick[i]].level;
        intervals[i] = pieces[i][pick[i]].index;
      }
      key_group[rank] = grid_->FlatOf(levels);
      key_node[rank] = grid_->CellOfIntervals(levels, intervals);
      if (cache->Get(key_group[rank], key_node[rank], weights.id(),
                     num_reports_, &value[rank])) {
        cached[rank] = 1;
        ++num_cached;
      }
    }
  }

  std::vector<uint64_t> todo;
  todo.reserve(product - num_cached);
  for (uint64_t rank = 0; rank < product; ++rank) {
    if (!cached[rank]) todo.push_back(rank);
  }
  if (!todo.empty()) {
    EstimateSubQueries(pieces, todo, weights, value);
  }
  if (cache != nullptr) {
    for (const uint64_t rank : todo) {
      cache->Put(key_group[rank], key_node[rank], weights.id(), num_reports_,
                 value[rank]);
    }
  }

  // Total in rank order — cached and freshly computed values interleave
  // without changing the floating-point grouping.
  double total = 0.0;
  for (const double v : value) total += v;
  return total;
}

void ScMechanism::EstimateSubQueries(
    const std::vector<std::vector<LevelInterval>>& pieces,
    std::span<const uint64_t> ranks, const WeightVector& weights,
    std::span<double> value) const {
  const int d = grid_->num_dims();
  const size_t n = users_.size();
  const size_t words = (n + 63) / 64;
  const uint64_t num_chunks = (n + kExecChunkRows - 1) / kExecChunkRows;
  const FoKernels& kernels = ActiveKernels();

  // One support bitset row per non-root piece some sub-query uses; root
  // pieces ('*') contribute factor 1 and get no row. A (dim, level) group's
  // rows are contiguous, so one kernel call per group and report chunk
  // writes all of them, evaluating each report's seed base once.
  std::vector<std::vector<int64_t>> row_of(d);
  for (int i = 0; i < d; ++i) row_of[i].assign(pieces[i].size(), -1);
  std::vector<size_t> pick(d, 0);
  for (const uint64_t rank : ranks) {
    PicksOf(pieces, rank, &pick);
    for (int i = 0; i < d; ++i) {
      if (pieces[i][pick[i]].level != 0) row_of[i][pick[i]] = 0;
    }
  }
  struct GroupJob {
    int group = 0;
    size_t first_row = 0;
    std::vector<std::pair<int, size_t>> members;  // (dim, piece index)
    std::vector<uint64_t> values;
  };
  std::vector<GroupJob> jobs;
  std::unordered_map<int, size_t> job_of_group;
  for (int i = 0; i < d; ++i) {
    for (size_t p = 0; p < pieces[i].size(); ++p) {
      if (row_of[i][p] < 0) continue;
      const int group = GroupOf(i, pieces[i][p].level);
      auto [it, inserted] = job_of_group.try_emplace(group, jobs.size());
      if (inserted) {
        jobs.emplace_back();
        jobs.back().group = group;
      }
      jobs[it->second].members.push_back({i, p});
    }
  }
  size_t num_rows = 0;
  for (GroupJob& job : jobs) {
    job.first_row = num_rows;
    for (const auto& [i, p] : job.members) {
      row_of[i][p] = static_cast<int64_t>(num_rows++);
      job.values.push_back(pieces[i][p].index);
    }
  }
  std::vector<uint64_t> bits(num_rows * words);
  if (num_rows > 0) {
    exec().ParallelChunks(
        n, kExecChunkRows, [&](uint64_t, uint64_t begin, uint64_t end) {
          for (const GroupJob& job : jobs) {
            kernels.olh_support_bits(
                seeds_[job.group].data() + begin,
                ys_[job.group].data() + begin, end - begin,
                protocols_[job.group]->g(), job.values.data(),
                job.values.size(),
                bits.data() + job.first_row * words + begin / 64, words);
          }
        });
    FoEstimateMetrics().batches->Add(num_chunks);
    FoEstimateMetrics().report_values->Add(n * num_rows);
  }

  // Each sub-query's piece set K: the rows of its k non-root pieces, in
  // dimension order, at k_rows[q * k, (q + 1) * k). Every sub-query of a box
  // has the same k, since a dimension decomposes either into the lone root
  // piece or into non-root pieces only.
  size_t k = 0;
  for (int i = 0; i < d; ++i) k += pieces[i][0].level != 0 ? 1 : 0;
  std::vector<uint32_t> k_rows;
  k_rows.reserve(ranks.size() * k);
  for (const uint64_t rank : ranks) {
    PicksOf(pieces, rank, &pick);
    for (int i = 0; i < d; ++i) {
      const int64_t row = row_of[i][pick[i]];
      if (row >= 0) k_rows.push_back(static_cast<uint32_t>(row));
    }
  }
  const size_t num_q = ranks.size();

  // Masked weight sums over all reports: `chunk_sums(first, w, out)` writes
  // `num_sums` sums over one report chunk (starting at report `first`, with
  // weights w), every chunk runs in parallel, and the partials reduce in
  // chunk order. Callers keep num_sums <= kExecChunkRows, so the partials
  // take at most one double per report.
  const auto reduce_chunks = [&](size_t num_sums, const auto& chunk_sums) {
    std::vector<double> partial(num_chunks * num_sums);
    exec().ParallelChunks(
        n, kExecChunkRows, [&](uint64_t chunk, uint64_t first, uint64_t last) {
          std::vector<double> chunk_weights(last - first);
          for (uint64_t t = first; t < last; ++t) {
            chunk_weights[t - first] = weights[users_[t]];
          }
          chunk_sums(first, chunk_weights, partial.data() + chunk * num_sums);
        });
    FoEstimateMetrics().batches->Add(num_chunks);
    std::vector<double> sum(num_sums, 0.0);
    for (uint64_t c = 0; c < num_chunks; ++c) {
      for (size_t s = 0; s < num_sums; ++s) sum[s] += partial[c * num_sums + s];
    }
    return sum;
  };

  if (k > kMaxExpandedPieces) {
    // Popcount classes: with j(t) the number of K's pieces report t
    // supports, prod_{i in K} c(s_i(t)) = c1^j c0^(k-j), so
    //   value = sum_{j=0..k} c1^j c0^(k-j) W_j,  W_j = sum_{t: j(t)=j} w_t
    // — k + 1 masked sums per sub-query, folded in j order. Per chunk,
    // bit-sliced counters (word x, plane l holds bit l of the popcount of
    // the word's 64 reports) give each class's mask exactly.
    const size_t planes = std::bit_width(k);
    std::vector<double> class_factor(k + 1);
    for (size_t j = 0; j <= k; ++j) {
      double c1_pow = 1.0, c0_pow = 1.0;
      for (size_t i = 0; i < j; ++i) c1_pow *= c1_;
      for (size_t i = j; i < k; ++i) c0_pow *= c0_;
      class_factor[j] = c1_pow * c0_pow;
    }
    const size_t per_batch = std::max<size_t>(1, kExecChunkRows / (k + 1));
    for (size_t q0 = 0; q0 < num_q; q0 += per_batch) {
      const size_t batch = std::min(per_batch, num_q - q0);
      const std::vector<double> class_sum = reduce_chunks(
          batch * (k + 1),
          [&](uint64_t first, std::span<const double> w, double* out) {
            const size_t chunk_words = (w.size() + 63) / 64;
            std::vector<uint64_t> count(chunk_words * planes);
            std::vector<uint64_t> mask(chunk_words);
            const uint64_t* mask_set = mask.data();
            for (size_t b = 0; b < batch; ++b) {
              std::fill(count.begin(), count.end(), 0);
              for (size_t r = 0; r < k; ++r) {
                const uint64_t* row =
                    bits.data() + k_rows[(q0 + b) * k + r] * words + first / 64;
                for (size_t x = 0; x < chunk_words; ++x) {
                  uint64_t carry = row[x];
                  for (size_t l = 0; carry != 0; ++l) {
                    uint64_t& plane = count[x * planes + l];
                    const uint64_t next = plane & carry;
                    plane ^= carry;
                    carry = next;
                  }
                }
              }
              for (size_t j = 0; j <= k; ++j) {
                for (size_t x = 0; x < chunk_words; ++x) {
                  uint64_t m = ~uint64_t{0};
                  for (size_t l = 0; l < planes; ++l) {
                    const uint64_t plane = count[x * planes + l];
                    m &= (j >> l) & 1 ? plane : ~plane;
                  }
                  mask[x] = m;
                }
                out[b * (k + 1) + j] =
                    kernels.masked_weight_sum(&mask_set, 1, w.data(), w.size());
              }
            }
          });
      for (size_t b = 0; b < batch; ++b) {
        double v = 0.0;
        for (size_t j = 0; j <= k; ++j) {
          v += class_factor[j] * class_sum[b * (k + 1) + j];
        }
        value[ranks[q0 + b]] = v;
      }
    }
    return;
  }

  // Subset expansion: c(s) = c0 + Delta s, where c0 = -scale / g and
  // Delta = scale (Prop. 10), so the conjunctive estimator (eq. 42) expands
  // over the subsets S of K:
  //   sum_t w_t prod_{i in K} c(s_i(t))
  //     = scale^k  sum_{S subset of K} (-1/g)^(k-|S|) M_S,
  //   M_S = sum_t w_t prod_{i in S} s_i(t)   (M_{} = W, the group weight).
  // The (sub-query, subset) terms fold into inner[q] in one fixed order —
  // sub-queries in rank order, each one's subsets by mask from K down to
  // {} — so for k = 1 the value is scale * (M - W / g): OLH's estimator
  // exactly. M_S is memoized across the sub-queries of the call, in
  // batches of at most kExecChunkRows sets. g^j and scale^j come from
  // repeated multiplication (g^j is exact below 2^53).
  std::vector<double> g_pow(k + 1, 1.0);
  std::vector<double> scale_pow(k + 1, 1.0);
  for (size_t j = 1; j <= k; ++j) {
    g_pow[j] = g_pow[j - 1] * static_cast<double>(protocols_[0]->g());
    scale_pow[j] = scale_pow[j - 1] * protocols_[0]->scale();
  }
  std::vector<double> inner(num_q, 0.0);
  struct Term {
    size_t q = 0;
    uint64_t mask = 0;  // subset of K_q, counting down to 0
  };
  const uint64_t full_mask = (uint64_t{1} << k) - 1;
  const auto advance = [&](Term* t) {
    if (t->mask > 0) {
      --t->mask;
    } else if (++t->q < num_q) {
      t->mask = full_mask;
    }
  };
  const auto subset = [&](const Term& t, std::vector<uint32_t>* rows) {
    rows->clear();
    for (uint64_t m = t.mask; m != 0; m &= m - 1) {
      rows->push_back(k_rows[t.q * k + std::countr_zero(m)]);
    }
  };
  std::unordered_map<std::vector<uint32_t>, size_t, RowsHash> set_index;
  std::vector<std::vector<uint32_t>> sets;
  std::vector<uint32_t> rows;
  Term begin{0, full_mask};
  while (begin.q < num_q) {
    set_index.clear();
    sets.clear();
    Term end = begin;
    for (; end.q < num_q; advance(&end)) {
      subset(end, &rows);
      if (set_index.count(rows) != 0) continue;
      if (sets.size() == kExecChunkRows) break;
      set_index.emplace(rows, sets.size());
      sets.push_back(rows);
    }
    const std::vector<double> sum = reduce_chunks(
        sets.size(),
        [&](uint64_t first, std::span<const double> w, double* out) {
          std::vector<const uint64_t*> set_bits;
          for (size_t s = 0; s < sets.size(); ++s) {
            set_bits.clear();
            for (const uint32_t row : sets[s]) {
              set_bits.push_back(bits.data() + row * words + first / 64);
            }
            out[s] = kernels.masked_weight_sum(set_bits.data(), set_bits.size(),
                                               w.data(), w.size());
          }
        });
    for (Term t = begin; t.q != end.q || t.mask != end.mask; advance(&t)) {
      subset(t, &rows);
      const size_t missing = k - rows.size();
      const double term = sum[set_index.at(rows)] / g_pow[missing];
      inner[t.q] += missing % 2 == 0 ? term : -term;
    }
    begin = end;
  }
  for (size_t q = 0; q < num_q; ++q) {
    value[ranks[q]] = scale_pow[k] * inner[q];
  }
}

}  // namespace ldp
