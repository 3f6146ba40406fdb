#include "mech/sc.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/execution_context.h"
#include "fo/simd/simd.h"

namespace ldp {

namespace {
constexpr uint64_t kMaxSubQueries = 1ull << 20;
/// Sub-queries with at most this many non-root pieces expand over the
/// subsets of their pieces: 2^k masked sums, shared across the sub-queries
/// of the boxes with the same weights, and k = 1 is OLH's estimator bit for
/// bit. Larger ones sum per popcount class: k + 1 masked sums of their own,
/// so the cost grows linearly in k. 2^k <= k + 2 exactly for k <= 2, so
/// below this bound the expansion never needs more than one sum beyond the
/// classes.
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

/// A sub-query's estimate-cache key: its node (flat level tuple, flat cell)
/// and the weight-vector id.
struct NodeKey {
  uint64_t group = 0;
  uint64_t node = 0;
  uint64_t weights = 0;
  bool operator==(const NodeKey&) const = default;
};

struct NodeKeyHash {
  size_t operator()(const NodeKey& key) const {
    return static_cast<size_t>(
        HashCombine(HashCombine(key.group, key.node), key.weights));
  }
};

/// Always-on wall time of the estimation passes: one sample per hashing
/// pass (`estimate.sc_support_ns`) and per masked-sum pass
/// (`estimate.sc_sum_ns`). Each pass adds its report chunks to
/// `estimate.batches`.
struct ScPassHistograms {
  LatencyHistogram* support_ns;
  LatencyHistogram* sum_ns;
};
const ScPassHistograms& ScPassMetrics() {
  static const ScPassHistograms histograms = {
      GlobalMetrics().histogram("estimate.sc_support_ns"),
      GlobalMetrics().histogram("estimate.sc_sum_ns"),
  };
  return histograms;
}

void RecordSince(LatencyHistogram* histogram,
                 std::chrono::steady_clock::time_point start) {
  histogram->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

/// masked_weight_sum over unit weights: the number of reports in
/// [0, num_reports) whose bit is set in every one of the `num_sets` rows (all
/// of them when num_sets == 0). It reads no weights, and it is the kernel's
/// value bit for bit: each of the kernel's 4 partials then holds an integer
/// count, exact in a double.
double MaskedCount(const uint64_t* const* sets, size_t num_sets,
                   size_t num_reports) {
  uint64_t count = 0;
  for (size_t w = 0; w * 64 < num_reports; ++w) {
    const size_t left = num_reports - w * 64;
    uint64_t mask = left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
    for (size_t j = 0; j < num_sets; ++j) mask &= sets[j][w];
    count += static_cast<uint64_t>(std::popcount(mask));
  }
  return static_cast<double>(count);
}
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
  LDP_RETURN_NOT_OK(ValidateMechanismConfig(schema, params));
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

Status ScMechanism::ValidateReportAt(const LdpReport& report,
                                     uint32_t group_base) const {
  if (report.entries.size() != protocols_.size()) {
    return Status::InvalidArgument("SC report must cover every (dim, level)");
  }
  // Each group's report vector must stay aligned with users_ by position.
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const uint32_t group = report.entries[i].group - group_base;
    if (group >= protocols_.size()) {
      return Status::OutOfRange("bad group id in SC report");
    }
    if (group != i) {
      return Status::InvalidArgument(
          "SC report entries must name every (dim, level) once, in order");
    }
    LDP_RETURN_NOT_OK(
        protocols_[group]->ValidateReport(report.entries[i].fo));
  }
  return Status::OK();
}

void ScMechanism::AppendReportAt(const LdpReport& report,
                                 uint32_t /*group_base*/, uint64_t user) {
  // Validation fixed entry i to group i.
  for (size_t g = 0; g < report.entries.size(); ++g) {
    seeds_[g].push_back(report.entries[g].fo.seed);
    ys_[g].push_back(report.entries[g].fo.value);
  }
  dense_ids_ = dense_ids_ && user == users_.size();
  users_.push_back(user);
}

Status ScMechanism::MergeShard(Mechanism& shard) {
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
  const uint64_t base = users_.size();
  for (uint64_t t = 0; t < other->users_.size(); ++t) {
    dense_ids_ = dense_ids_ && other->users_[t] == base + t;
  }
  users_.insert(users_.end(), other->users_.begin(), other->users_.end());
  other->users_.clear();
  other->dense_ids_ = true;
  return Status::OK();
}

Result<double> ScMechanism::VarianceBoundOfValidBox(
    std::span<const Interval> ranges, const WeightVector& weights) const {
  const int d = grid_->num_dims();
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

/// One box of an EstimateBoxes call, from its decomposition to its
/// sub-query values.
struct ScMechanism::BoxWork {
  const WeightVector* weights = nullptr;
  /// Per-dimension decomposition (eq. 20's pieces).
  std::vector<std::vector<LevelInterval>> pieces;
  /// Number of sub-queries: the product of the per-dimension piece counts.
  uint64_t product = 1;
  /// Non-root pieces per sub-query. Every sub-query of a box has the same
  /// k, since a dimension decomposes either into the lone root piece or
  /// into non-root pieces only.
  size_t k = 0;
  /// Sub-query values by rank.
  std::vector<double> value;
  /// Ranks the estimate cache did not serve, in rank order.
  std::vector<uint64_t> todo;
  /// Support-bitset row of pieces[i][p], or -1 when no todo sub-query uses
  /// the piece (root pieces never get a row).
  std::vector<std::vector<int64_t>> row_of;
  /// todo[q]'s piece set K: the rows of its k non-root pieces, in dimension
  /// order, at k_rows[q * k, (q + 1) * k).
  std::vector<uint32_t> k_rows;
};

Status ScMechanism::EstimateValidBoxes(std::span<const BoxTask> tasks,
                                       std::span<double> out) const {
  const int d = grid_->num_dims();
  // Every box decomposes before any work starts, so the first box too
  // costly to decompose fails the call with the Status the per-box loop
  // would have returned.
  std::vector<BoxWork> boxes(tasks.size());
  for (size_t b = 0; b < tasks.size(); ++b) {
    BoxWork& box = boxes[b];
    box.weights = tasks[b].weights;
    box.pieces.resize(d);
    for (int i = 0; i < d; ++i) {
      LDP_RETURN_NOT_OK(
          grid_->dim(i).Decompose(tasks[b].ranges[i], &box.pieces[i]));
      box.product *= box.pieces[i].size();
      if (box.product > kMaxSubQueries) {
        return Status::ResourceExhausted("box decomposes into too many pieces");
      }
      if (box.pieces[i][0].level != 0) ++box.k;
    }
  }

  // Cache probe, box by box. A sub-query is one node of the d-dim level
  // grid, so its canonical key is (flat level tuple, flat cell) — exact and
  // independent of which query shape decomposed to it. Values are
  // independent of the query shape too (a sub-query's value depends only on
  // its own pieces), so a value cached by one query is the bit-exact value
  // any other query would compute for the same node. A node an earlier box
  // of this call estimates is the hit the per-box loop would have found
  // after that box's Put: it is probed again once that box has put its
  // values, and takes the earlier box's value.
  EstimateCache* const cache = estimate_cache();
  struct Deferred {
    uint64_t rank = 0;
    size_t source_box = 0;  // the earlier box estimating the node
    uint64_t source_rank = 0;
  };
  std::vector<std::vector<NodeKey>> keys(boxes.size());
  std::vector<std::vector<Deferred>> deferred(boxes.size());
  std::unordered_map<NodeKey, std::pair<size_t, uint64_t>, NodeKeyHash>
      estimated_by;
  std::vector<size_t> pick(d, 0);
  std::vector<int> levels(d, 0);
  std::vector<uint64_t> intervals(d, 0);
  for (size_t b = 0; b < boxes.size(); ++b) {
    BoxWork& box = boxes[b];
    // Every sub-query is one node touched, cached or not.
    FoEstimateMetrics().nodes->Add(box.product);
    box.value.assign(box.product, 0.0);
    if (cache == nullptr) {
      box.todo.resize(box.product);
      std::iota(box.todo.begin(), box.todo.end(), uint64_t{0});
      continue;
    }
    keys[b].resize(box.product);
    for (uint64_t rank = 0; rank < box.product; ++rank) {
      PicksOf(box.pieces, rank, &pick);
      for (int i = 0; i < d; ++i) {
        levels[i] = box.pieces[i][pick[i]].level;
        intervals[i] = box.pieces[i][pick[i]].index;
      }
      const NodeKey key{grid_->FlatOf(levels),
                        grid_->CellOfIntervals(levels, intervals),
                        box.weights->id()};
      keys[b][rank] = key;
      const auto earlier = estimated_by.find(key);
      if (earlier != estimated_by.end()) {
        deferred[b].push_back(
            {rank, earlier->second.first, earlier->second.second});
      } else if (!cache->Get(key.group, key.node, key.weights, num_reports(),
                             &box.value[rank])) {
        estimated_by.emplace(key, std::make_pair(b, rank));
        box.todo.push_back(rank);
      }
    }
  }

  EstimateSubQueries(boxes);

  for (size_t b = 0; b < boxes.size(); ++b) {
    BoxWork& box = boxes[b];
    for (const Deferred& node : deferred[b]) {
      const NodeKey& key = keys[b][node.rank];
      box.value[node.rank] = boxes[node.source_box].value[node.source_rank];
      double cached = 0.0;
      if (!cache->Get(key.group, key.node, key.weights, num_reports(),
                      &cached)) {
        cache->Put(key.group, key.node, key.weights, num_reports(),
                   box.value[node.rank]);
      }
    }
    if (!keys[b].empty()) {
      for (const uint64_t rank : box.todo) {
        const NodeKey& key = keys[b][rank];
        cache->Put(key.group, key.node, key.weights, num_reports(),
                   box.value[rank]);
      }
    }
    // Total in rank order — cached and freshly computed values interleave
    // without changing the floating-point grouping.
    double total = 0.0;
    for (const double v : box.value) total += v;
    out[b] = total;
  }
  return Status::OK();
}

void ScMechanism::EstimateSubQueries(std::span<BoxWork> boxes) const {
  const int d = grid_->num_dims();
  const size_t n = users_.size();
  const size_t words = (n + 63) / 64;
  const uint64_t num_chunks = (n + kExecChunkRows - 1) / kExecChunkRows;
  const FoKernels& kernels = ActiveKernels();

  // One support bitset row per distinct non-root piece (group, interval)
  // that a todo sub-query of any box uses: the bits depend on the reports
  // alone, never on the box or the weights. Root pieces ('*') contribute
  // factor 1 and get no row. Rows are sorted by (group, interval), so a
  // (dim, level) group's rows are contiguous and one kernel call per group
  // and report chunk writes all of them, evaluating each report's seed base
  // once.
  std::vector<std::pair<int, uint64_t>> row_pieces;  // (group, interval)
  std::vector<size_t> pick(d, 0);
  for (BoxWork& box : boxes) {
    box.row_of.resize(d);
    for (int i = 0; i < d; ++i) box.row_of[i].assign(box.pieces[i].size(), -1);
    for (const uint64_t rank : box.todo) {
      PicksOf(box.pieces, rank, &pick);
      for (int i = 0; i < d; ++i) {
        const LevelInterval& piece = box.pieces[i][pick[i]];
        if (piece.level != 0 && box.row_of[i][pick[i]] < 0) {
          box.row_of[i][pick[i]] = 0;
          row_pieces.push_back({GroupOf(i, piece.level), piece.index});
        }
      }
    }
  }
  std::sort(row_pieces.begin(), row_pieces.end());
  row_pieces.erase(std::unique(row_pieces.begin(), row_pieces.end()),
                   row_pieces.end());
  const size_t num_rows = row_pieces.size();
  struct GroupJob {
    int group = 0;
    size_t first_row = 0;
    std::vector<uint64_t> values;
  };
  std::vector<GroupJob> jobs;
  for (size_t r = 0; r < num_rows; ++r) {
    if (jobs.empty() || jobs.back().group != row_pieces[r].first) {
      jobs.push_back({row_pieces[r].first, r, {}});
    }
    jobs.back().values.push_back(row_pieces[r].second);
  }
  for (BoxWork& box : boxes) {
    for (int i = 0; i < d; ++i) {
      for (size_t p = 0; p < box.pieces[i].size(); ++p) {
        if (box.row_of[i][p] < 0) continue;
        const std::pair<int, uint64_t> piece{
            GroupOf(i, box.pieces[i][p].level), box.pieces[i][p].index};
        box.row_of[i][p] =
            std::lower_bound(row_pieces.begin(), row_pieces.end(), piece) -
            row_pieces.begin();
      }
    }
    box.k_rows.reserve(box.todo.size() * box.k);
    for (const uint64_t rank : box.todo) {
      PicksOf(box.pieces, rank, &pick);
      for (int i = 0; i < d; ++i) {
        const int64_t row = box.row_of[i][pick[i]];
        if (row >= 0) box.k_rows.push_back(static_cast<uint32_t>(row));
      }
    }
  }
  std::vector<uint64_t> bits(num_rows * words);
  if (num_rows > 0) {
    const auto start = std::chrono::steady_clock::now();
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
    RecordSince(ScPassMetrics().support_ns, start);
  }

  // Masked weight sums over all reports, one pass per call:
  // `chunk_sums(first, len, masked_sum, out)` writes `num_sums` sums over the
  // report chunk [first, first + len), where `masked_sum(sets, num_sets)` is
  // the chunk's masked weight sum of the AND of those bitset rows (sets point
  // at the chunk's first word). Every chunk runs in parallel, and the
  // partials reduce in chunk order. Callers keep num_sums <= kExecChunkRows,
  // so the partials take at most one double per report. A sum reads only what
  // it needs: unit weights make it a count (MaskedCount), dense ids read the
  // chunk's weights in place, and only other ids gather them through users_.
  const auto reduce_chunks = [&](const WeightVector& weights, size_t num_sums,
                                 const auto& chunk_sums) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> partial(num_chunks * num_sums);
    exec().ParallelChunks(
        n, kExecChunkRows, [&](uint64_t chunk, uint64_t first, uint64_t last) {
          const size_t len = last - first;
          std::vector<double> gathered;
          const double* w = nullptr;
          if (dense_ids_) {
            w = weights.values().data() + first;
          } else if (!weights.unit()) {
            gathered.resize(len);
            for (uint64_t t = first; t < last; ++t) {
              gathered[t - first] = weights[users_[t]];
            }
            w = gathered.data();
          }
          const auto masked_sum = [&](const uint64_t* const* sets,
                                      size_t num_sets) {
            return weights.unit()
                       ? MaskedCount(sets, num_sets, len)
                       : kernels.masked_weight_sum(sets, num_sets, w, len);
          };
          chunk_sums(first, len, masked_sum,
                     partial.data() + chunk * num_sums);
        });
    FoEstimateMetrics().batches->Add(num_chunks);
    RecordSince(ScPassMetrics().sum_ns, start);
    std::vector<double> sum(num_sums, 0.0);
    for (uint64_t c = 0; c < num_chunks; ++c) {
      for (size_t s = 0; s < num_sums; ++s) sum[s] += partial[c * num_sums + s];
    }
    return sum;
  };

  for (BoxWork& box : boxes) {
    const size_t k = box.k;
    if (k <= kMaxExpandedPieces) continue;
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
    const size_t num_q = box.todo.size();
    const size_t per_batch = std::max<size_t>(1, kExecChunkRows / (k + 1));
    for (size_t q0 = 0; q0 < num_q; q0 += per_batch) {
      const size_t batch = std::min(per_batch, num_q - q0);
      const std::vector<double> class_sum = reduce_chunks(
          *box.weights, batch * (k + 1),
          [&](uint64_t first, size_t len, const auto& masked_sum,
              double* out) {
            const size_t chunk_words = (len + 63) / 64;
            std::vector<uint64_t> count(chunk_words * planes);
            std::vector<uint64_t> mask(chunk_words);
            const uint64_t* mask_set = mask.data();
            for (size_t b = 0; b < batch; ++b) {
              std::fill(count.begin(), count.end(), 0);
              for (size_t r = 0; r < k; ++r) {
                const uint64_t* row = bits.data() +
                                      box.k_rows[(q0 + b) * k + r] * words +
                                      first / 64;
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
                out[b * (k + 1) + j] = masked_sum(&mask_set, 1);
              }
            }
          });
      for (size_t b = 0; b < batch; ++b) {
        double v = 0.0;
        for (size_t j = 0; j <= k; ++j) {
          v += class_factor[j] * class_sum[b * (k + 1) + j];
        }
        box.value[box.todo[q0 + b]] = v;
      }
    }
  }

  // Subset expansion (k <= kMaxExpandedPieces): c(s) = c0 + Delta s, where
  // c0 = -scale / g and Delta = scale (Prop. 10), so the conjunctive
  // estimator (eq. 42) expands over the subsets S of K:
  //   sum_t w_t prod_{i in K} c(s_i(t))
  //     = scale^k  sum_{S subset of K} (-1/g)^(k-|S|) M_S,
  //   M_S = sum_t w_t prod_{i in S} s_i(t)   (M_{} = W, the group weight).
  // Each sub-query's (subset) terms fold into its inner sum in one fixed
  // order — by mask from K down to {} — so for k = 1 the value is
  // scale * (M - W / g): OLH's estimator exactly. M_S is memoized across the
  // sub-queries of every box with the same weight vector, in batches of at
  // most kExecChunkRows sets, so an OR's intersection box reuses the
  // singleton sums of its two sides. g^j and scale^j come from repeated
  // multiplication (g^j is exact below 2^53).
  std::vector<double> g_pow(kMaxExpandedPieces + 1, 1.0);
  std::vector<double> scale_pow(kMaxExpandedPieces + 1, 1.0);
  for (size_t j = 1; j <= kMaxExpandedPieces; ++j) {
    g_pow[j] = g_pow[j - 1] * static_cast<double>(protocols_[0]->g());
    scale_pow[j] = scale_pow[j - 1] * protocols_[0]->scale();
  }
  // Boxes still to expand; each pass takes every pending box that shares
  // the first pending box's weight vector.
  std::vector<char> pending(boxes.size());
  for (size_t b = 0; b < boxes.size(); ++b) {
    pending[b] = boxes[b].k <= kMaxExpandedPieces && !boxes[b].todo.empty();
  }
  struct SubQuery {
    BoxWork* box = nullptr;
    size_t q = 0;  // index into box->todo
  };
  struct Term {
    size_t s = 0;       // index into subs
    uint64_t mask = 0;  // subset of subs[s]'s K, counting down to 0
  };
  std::vector<SubQuery> subs;
  std::unordered_map<std::vector<uint32_t>, size_t, RowsHash> set_index;
  std::vector<std::vector<uint32_t>> sets;
  std::vector<uint32_t> rows;
  for (size_t b0 = 0; b0 < boxes.size(); ++b0) {
    if (!pending[b0]) continue;
    const WeightVector& weights = *boxes[b0].weights;
    subs.clear();
    for (size_t b = b0; b < boxes.size(); ++b) {
      if (!pending[b] || boxes[b].weights->id() != weights.id()) continue;
      pending[b] = 0;
      for (size_t q = 0; q < boxes[b].todo.size(); ++q) {
        subs.push_back({&boxes[b], q});
      }
    }
    const size_t num_subs = subs.size();
    const auto full_mask = [&](size_t s) {
      return (uint64_t{1} << subs[s].box->k) - 1;
    };
    const auto advance = [&](Term* t) {
      if (t->mask > 0) {
        --t->mask;
      } else if (++t->s < num_subs) {
        t->mask = full_mask(t->s);
      }
    };
    const auto subset = [&](const Term& t, std::vector<uint32_t>* out) {
      const BoxWork& box = *subs[t.s].box;
      out->clear();
      for (uint64_t m = t.mask; m != 0; m &= m - 1) {
        out->push_back(box.k_rows[subs[t.s].q * box.k + std::countr_zero(m)]);
      }
    };
    std::vector<double> inner(num_subs, 0.0);
    Term begin{0, full_mask(0)};
    while (begin.s < num_subs) {
      set_index.clear();
      sets.clear();
      Term end = begin;
      for (; end.s < num_subs; advance(&end)) {
        subset(end, &rows);
        if (set_index.count(rows) != 0) continue;
        if (sets.size() == kExecChunkRows) break;
        set_index.emplace(rows, sets.size());
        sets.push_back(rows);
      }
      const std::vector<double> sum = reduce_chunks(
          weights, sets.size(),
          [&](uint64_t first, size_t, const auto& masked_sum, double* out) {
            std::vector<const uint64_t*> set_bits;
            for (size_t s = 0; s < sets.size(); ++s) {
              set_bits.clear();
              for (const uint32_t row : sets[s]) {
                set_bits.push_back(bits.data() + row * words + first / 64);
              }
              out[s] = masked_sum(set_bits.data(), set_bits.size());
            }
          });
      for (Term t = begin; t.s != end.s || t.mask != end.mask; advance(&t)) {
        subset(t, &rows);
        const size_t missing = subs[t.s].box->k - rows.size();
        const double term = sum[set_index.at(rows)] / g_pow[missing];
        inner[t.s] += missing % 2 == 0 ? term : -term;
      }
      begin = end;
    }
    for (size_t s = 0; s < num_subs; ++s) {
      BoxWork& box = *subs[s].box;
      box.value[box.todo[subs[s].q]] = scale_pow[box.k] * inner[s];
    }
  }
}

}  // namespace ldp
