// SIMD kernel layer (src/fo/simd/): every vector level this binary + host
// supports must be bit-identical to the scalar reference kernels —
//  * at the kernel-table level, fuzzing each FoKernels entry over random
//    inputs, tile remainders around the lane width (1, lane-1, lane,
//    lane+1), and misaligned value/output spans; the SC support-bit entries
//    over report counts around the 64-bit word and the report chunk,
//  * at the accumulator level (EstimateManyWeighted under SetSimdLevel),
//  * at the engine level across thread counts and cache states,
// plus the level-name surface (SimdLevelFromString/SimdLevelName) and the
// LDP_CHECK-fatal path for a forced level the host cannot run.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "data/generator.h"
#include "engine/engine.h"
#include "fo/grr.h"
#include "fo/hadamard.h"
#include "fo/olh.h"
#include "fo/oue.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

void ExpectBitEqual(double a, double b, const std::string& what) {
  uint64_t ba = 0;
  uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  EXPECT_EQ(ba, bb) << what << ": " << a << " vs " << b;
}

/// Every level this binary + host can run. Always contains kScalar; AVX2
/// appears exactly when its kernels were compiled in AND the host supports
/// it, so the suite degenerates gracefully on scalar-only builds
/// (check-all-simd-off) without weakening where vectors exist.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelSupported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// A level that must be rejected on this binary + host: AVX2 where it is
/// compiled out or the CPU lacks it, otherwise a value outside the enum —
/// which no binary can run, and which takes the same LDP_CHECK path.
SimdLevel UnsupportedLevel() {
  if (!SimdLevelSupported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return static_cast<SimdLevel>(99);
}

/// Value counts covering the remainder cases around the AVX2 lane width
/// of 4: 1, lane-1, lane, lane+1, and a longer mixed run.
const size_t kValueCounts[] = {1, 2, 3, 4, 5, 8, 37};
/// Element offsets into over-allocated buffers: offset 0 may be 32-byte
/// aligned, the others force 8/16/24-byte misalignment of values AND theta.
const size_t kOffsets[] = {0, 1, 2, 3};

struct FuzzCase {
  uint32_t g = 8;
  uint32_t pool = 64;
  size_t words_per_report = 4;
  std::vector<uint32_t> seeds, ys;
  std::vector<uint64_t> users, oue_bits, hr_indices, values;
  std::vector<double> weights, hist, hr_sums;
};

FuzzCase MakeCase(Rng& rng, size_t num_reports, size_t max_values) {
  FuzzCase c;
  c.g = 2 + static_cast<uint32_t>(rng.UniformInt(15));
  c.pool = 1 + static_cast<uint32_t>(rng.UniformInt(97));
  c.words_per_report = 1 + rng.UniformInt(4);
  const uint64_t domain = c.words_per_report * 64;
  c.seeds.resize(num_reports);
  c.ys.resize(num_reports);
  c.users.resize(num_reports);
  c.weights.resize(num_reports);
  c.oue_bits.resize(num_reports * c.words_per_report);
  for (size_t i = 0; i < num_reports; ++i) {
    c.seeds[i] = static_cast<uint32_t>(rng());
    c.ys[i] = static_cast<uint32_t>(rng.UniformInt(c.g));
    c.users[i] = i;
    // Mixed signs and exact zeros: the weights every batched fan-out feeds.
    c.weights[i] = 0.25 * static_cast<double>(rng.UniformInt(9)) - 1.0;
  }
  Shuffle(c.users, rng);  // exercise the weight gathers out of row order
  c.hist.resize(static_cast<size_t>(c.pool) * c.g);
  for (double& h : c.hist) h = rng.UniformDouble() - 0.5;
  const size_t entries = 16 + rng.UniformInt(100);
  c.hr_indices.resize(entries);
  c.hr_sums.resize(entries);
  for (size_t e = 0; e < entries; ++e) {
    c.hr_indices[e] = rng();
    c.hr_sums[e] = rng.UniformDouble() - 0.5;
  }
  // Over-allocate so callers can offset the span start; include values with
  // high 32 bits set (GRR must truncate them exactly like the scalar loop).
  c.values.resize(max_values + 8);
  for (size_t v = 0; v < c.values.size(); ++v) {
    c.values[v] = rng.UniformInt(domain);
    if (rng.Bernoulli(0.25)) c.values[v] |= rng() << 32;
  }
  return c;
}

/// Runs one kernel entry of `level` against the scalar table on the same
/// inputs for every value-count / offset combination and compares bitwise.
void FuzzKernelsAgainstScalar(SimdLevel level, uint64_t seed) {
  const FoKernels& scalar = KernelsForLevel(SimdLevel::kScalar);
  const FoKernels& vec = KernelsForLevel(level);
  Rng rng(seed);
  const size_t kMaxValues = 37;
  const FuzzCase c = MakeCase(rng, /*num_reports=*/300, kMaxValues);
  const size_t n = c.seeds.size();
  for (const size_t num_values : kValueCounts) {
    for (const size_t off : kOffsets) {
      const uint64_t* values = c.values.data() + off;
      const std::string what = SimdLevelName(level) + " nv=" +
                               std::to_string(num_values) + " off=" +
                               std::to_string(off);
      // Output buffers are offset too, and accumulation starts from zero
      // (the contract: callers zero-fill each tile).
      std::vector<double> a(num_values + 8, 0.0);
      std::vector<double> b(num_values + 8, 0.0);

      scalar.olh_raw(c.seeds.data(), c.ys.data(), c.users.data(), n,
                     c.weights.data(), c.g, values, num_values,
                     a.data() + off);
      vec.olh_raw(c.seeds.data(), c.ys.data(), c.users.data(), n,
                  c.weights.data(), c.g, values, num_values, b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "olh_raw " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      scalar.olh_hist(c.hist.data(), c.pool, c.g, values, num_values,
                      a.data() + off);
      vec.olh_hist(c.hist.data(), c.pool, c.g, values, num_values,
                   b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "olh_hist " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      // OUE bit positions must be in range; mask the fuzzed values.
      std::vector<uint64_t> bit_values(values, values + num_values);
      for (uint64_t& v : bit_values) v %= c.words_per_report * 64;
      scalar.oue_raw(c.oue_bits.data(), c.words_per_report, c.users.data(),
                     n, c.weights.data(), bit_values.data(), num_values,
                     a.data() + off);
      vec.oue_raw(c.oue_bits.data(), c.words_per_report, c.users.data(), n,
                  c.weights.data(), bit_values.data(), num_values,
                  b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "oue_raw " + what);
      }

      std::fill(a.begin(), a.end(), 0.0);
      std::fill(b.begin(), b.end(), 0.0);
      scalar.hr_spectrum(c.hr_indices.data(), c.hr_sums.data(),
                         c.hr_indices.size(), values, num_values,
                         a.data() + off);
      vec.hr_spectrum(c.hr_indices.data(), c.hr_sums.data(),
                      c.hr_indices.size(), values, num_values,
                      b.data() + off);
      for (size_t v = 0; v < num_values; ++v) {
        ExpectBitEqual(b[off + v], a[off + v], "hr_spectrum " + what);
      }
    }
  }
}

TEST(SimdKernelFuzzTest, AllLevelsMatchScalarBitwise) {
  for (const SimdLevel level : SupportedLevels()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      FuzzKernelsAgainstScalar(level, seed);
    }
  }
}

// The SC support-bit entries map lanes to reports, so their edge cases are
// report counts: around one 64-bit word, and around one kExecChunkRows
// report chunk (16384).
const size_t kReportCounts[] = {1, 63, 64, 65, 16383, 16385};

/// Brute-force support bit: H_seed(value) == y.
bool Supports(uint32_t seed, uint32_t y, uint64_t value, uint32_t g) {
  return SeededHashFamily::Eval(seed, value, g) == y;
}

/// Hash ranges of both bucket reductions: the multiply-high for any g, the
/// shift for powers of two (2^31 is the largest a uint32_t g can be).
const uint32_t kHashRanges[] = {2, 3, 4, 5, 7, 8, 1024, 1u << 31};

TEST(SimdKernelFuzzTest, OlhSupportBitsMatchScalarAndBruteForce) {
  Rng rng(21);
  for (const size_t n : kReportCounts) {
    for (const size_t off : kOffsets) {
      for (const uint32_t g : kHashRanges) {
        // 11 values: one row each, all written in one pass over the reports.
        std::vector<uint64_t> values(11 + off);
        for (uint64_t& v : values) v = rng.UniformInt(1000);
        // Half the reports support one of the values, so every row has set
        // bits even when g is large.
        std::vector<uint32_t> seeds(n + off), ys(n + off);
        for (size_t i = 0; i < n + off; ++i) {
          seeds[i] = static_cast<uint32_t>(rng());
          ys[i] = rng.Bernoulli(0.5)
                      ? SeededHashFamily::Eval(
                            seeds[i], values[off + rng.UniformInt(11)], g)
                      : static_cast<uint32_t>(rng.UniformInt(g));
        }
        const size_t words = (n + 63) / 64;
        const size_t stride = words + 3;  // rows need not be adjacent
        const std::string what = "n=" + std::to_string(n) +
                                 " off=" + std::to_string(off) +
                                 " g=" + std::to_string(g);
        std::vector<uint64_t> reference;
        for (const SimdLevel level : SupportedLevels()) {
          // Garbage-filled: the kernel must overwrite every word of a row.
          std::vector<uint64_t> bits(11 * stride + off, ~0ull);
          KernelsForLevel(level).olh_support_bits(
              seeds.data() + off, ys.data() + off, n, g, values.data() + off,
              11, bits.data() + off, stride);
          if (level == SimdLevel::kScalar) {
            for (size_t v = 0; v < 11; ++v) {
              for (size_t i = 0; i < words * 64; ++i) {
                const bool bit =
                    (bits[off + v * stride + i / 64] >> (i % 64)) & 1;
                const bool want =
                    i < n && Supports(seeds[off + i], ys[off + i],
                                      values[off + v], g);
                ASSERT_EQ(bit, want)
                    << what << " value " << v << " report " << i;
              }
            }
            reference = bits;
            continue;
          }
          for (size_t v = 0; v < 11; ++v) {
            for (size_t w = 0; w < words; ++w) {
              ASSERT_EQ(bits[off + v * stride + w],
                        reference[off + v * stride + w])
                  << SimdLevelName(level) << " " << what << " value " << v
                  << " word " << w;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelFuzzTest, MaskedWeightSumMatchesScalarAndBruteForce) {
  Rng rng(22);
  for (const size_t n : kReportCounts) {
    for (const size_t off : kOffsets) {
      const size_t words = (n + 63) / 64;
      std::vector<double> weights(n + off);
      // Inexact, mixed-sign weights (and exact zeros), so a different
      // grouping of the sum would show in its bits.
      for (double& w : weights) {
        w = rng.Bernoulli(0.1) ? 0.0 : rng.UniformDouble() - 0.5;
      }
      // Four sets of mixed density; garbage past n must be ignored.
      std::vector<std::vector<uint64_t>> set_words(4);
      for (size_t j = 0; j < 4; ++j) {
        set_words[j].resize(words + off);
        for (uint64_t& w : set_words[j]) {
          w = rng() | (j % 2 == 0 ? rng() : 0);
        }
      }
      // The first word of set 0 holds each of the 16 nibbles once, and the
      // other sets keep it whole, so every 4-report lane pattern is summed.
      set_words[0][off] = 0xfedcba9876543210ull;
      for (size_t j = 1; j < 4; ++j) set_words[j][off] = ~0ull;
      for (size_t num_sets = 0; num_sets <= 4; ++num_sets) {
        std::vector<const uint64_t*> sets;
        for (size_t j = 0; j < num_sets; ++j) {
          sets.push_back(set_words[j].data() + off);
        }
        // Brute force in long double for the value; the scalar kernel's
        // 4-partial grouping for the bits.
        long double exact = 0.0L;
        for (size_t i = 0; i < n; ++i) {
          bool in = true;
          for (const uint64_t* set : sets) {
            in = in && ((set[i / 64] >> (i % 64)) & 1);
          }
          if (in) exact += weights[off + i];
        }
        const std::string what = "n=" + std::to_string(n) + " off=" +
                                 std::to_string(off) + " sets=" +
                                 std::to_string(num_sets);
        const double reference =
            KernelsForLevel(SimdLevel::kScalar)
                .masked_weight_sum(sets.data(), num_sets,
                                   weights.data() + off, n);
        EXPECT_NEAR(reference, static_cast<double>(exact), 1e-9) << what;
        for (const SimdLevel level : SupportedLevels()) {
          ExpectBitEqual(KernelsForLevel(level).masked_weight_sum(
                             sets.data(), num_sets, weights.data() + off, n),
                         reference, SimdLevelName(level) + " " + what);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Accumulator level: EstimateManyWeighted under a forced level must match
// the scalar-forced run bitwise for every oracle, tiling, and span offset.

WeightVector MixedWeights(uint64_t n) {
  std::vector<double> w(n);
  for (uint64_t i = 0; i < n; ++i) {
    w[i] = 0.25 * static_cast<double>(i % 7) - 0.5;
  }
  return WeightVector(std::move(w));
}

template <typename Protocol, typename Accumulator>
void CheckAccumulatorBitIdenticalAcrossLevels(const Protocol& proto,
                                              uint64_t n, uint64_t domain) {
  const WeightVector w = MixedWeights(n);
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < domain; ++v) values.push_back(v);

  // Scalar reference on a fresh accumulator.
  std::vector<double> reference(values.size());
  {
    SetSimdLevel(SimdLevel::kScalar);
    Accumulator acc(proto);
    Rng rng(17);
    for (uint64_t u = 0; u < n; ++u) {
      acc.Add(proto.Encode((u * 13) % domain, rng), u);
    }
    acc.EstimateManyWeighted(values, w, reference);
  }
  for (const SimdLevel level : SupportedLevels()) {
    SetSimdLevel(level);
    Accumulator acc(proto);
    Rng rng(17);
    for (uint64_t u = 0; u < n; ++u) {
      acc.Add(proto.Encode((u * 13) % domain, rng), u);
    }
    // Tilings around both lane widths, with off-by-`tile` span starts (the
    // second tile of an odd tiling starts misaligned).
    for (const size_t tile : {size_t{1}, size_t{3}, size_t{4}, size_t{5}}) {
      std::vector<double> out(values.size(), -1.0);
      for (size_t v0 = 0; v0 < values.size(); v0 += tile) {
        const size_t len = std::min(tile, values.size() - v0);
        acc.EstimateManyWeighted(
            std::span<const uint64_t>(values.data() + v0, len), w,
            std::span<double>(out.data() + v0, len));
      }
      for (size_t i = 0; i < values.size(); ++i) {
        ExpectBitEqual(out[i], reference[i],
                       SimdLevelName(level) + " tile " +
                           std::to_string(tile) + " value " +
                           std::to_string(values[i]));
      }
    }
  }
  SetSimdLevel(SimdLevel::kAuto);
}

TEST(SimdAccumulatorTest, OlhUnpooledBitIdentical) {
  const OlhProtocol proto(1.0, 24, 0);
  CheckAccumulatorBitIdenticalAcrossLevels<OlhProtocol, OlhAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, OlhPooledBitIdentical) {
  const OlhProtocol proto(1.0, 24, 32);
  CheckAccumulatorBitIdenticalAcrossLevels<OlhProtocol, OlhAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, GrrBitIdentical) {
  const GrrProtocol proto(1.0, 24);
  CheckAccumulatorBitIdenticalAcrossLevels<GrrProtocol, GrrAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, OueBitIdentical) {
  const OueProtocol proto(1.0, 24);
  CheckAccumulatorBitIdenticalAcrossLevels<OueProtocol, OueAccumulator>(
      proto, 500, 24);
}

TEST(SimdAccumulatorTest, HadamardBitIdentical) {
  const HadamardProtocol proto(1.0, 24);
  CheckAccumulatorBitIdenticalAcrossLevels<HadamardProtocol,
                                           HadamardAccumulator>(proto, 500,
                                                                24);
}

// ---------------------------------------------------------------------------
// Engine level: forced levels x thread counts x cache states must answer
// bit-identically.

/// Sensitive dims a and b, plus c when `with_c`; one measure m.
Table EngineTable(uint64_t n, bool with_c) {
  TableSpec spec;
  spec.dims.push_back({"a", AttributeKind::kSensitiveOrdinal, 16,
                       ColumnDist::kGaussianBell, 1.0});
  spec.dims.push_back(
      {"b", AttributeKind::kSensitiveOrdinal, 16, ColumnDist::kZipf, 1.1});
  if (with_c) {
    spec.dims.push_back(
        {"c", AttributeKind::kSensitiveOrdinal, 8, ColumnDist::kUniform, 1.0});
  }
  spec.measures.push_back(
      {"m", 0.0, 10.0, ColumnDist::kUniform, 1.0, -1, 0.0});
  return GenerateTable(spec, n, 99).ValueOrDie();
}

void CheckEngineBitIdenticalAcrossLevelsThreadsAndCache(
    MechanismKind mechanism, const Table& table,
    const std::vector<std::string>& sqls) {
  auto make_engine = [&](SimdLevel level, int threads, bool cache) {
    EngineOptions options;
    options.mechanism = mechanism;
    options.params.epsilon = 2.0;
    options.params.fanout = 2;
    options.seed = 4242;
    options.num_threads = threads;
    options.enable_estimate_cache = cache;
    SetSimdLevel(level);
    return AnalyticsEngine::Create(table, options).ValueOrDie();
  };
  std::vector<double> reference;
  {
    auto engine = make_engine(SimdLevel::kScalar, 1, false);
    for (const auto& sql : sqls) {
      reference.push_back(engine->ExecuteSql(sql).ValueOrDie());
    }
  }
  for (const SimdLevel level : SupportedLevels()) {
    for (const int threads : {1, 2, 8}) {
      for (const bool cache : {false, true}) {
        auto engine = make_engine(level, threads, cache);
        for (size_t q = 0; q < sqls.size(); ++q) {
          ExpectBitEqual(engine->ExecuteSql(sqls[q]).ValueOrDie(),
                         reference[q],
                         MechanismKindName(mechanism) + " " +
                             SimdLevelName(level) + " threads " +
                             std::to_string(threads) +
                             (cache ? " cache" : " no-cache") + " query " +
                             std::to_string(q));
        }
      }
    }
  }
  SetSimdLevel(SimdLevel::kAuto);
}

TEST(SimdEngineTest, BitIdenticalAcrossLevelsThreadsAndCache) {
  CheckEngineBitIdenticalAcrossLevelsThreadsAndCache(
      MechanismKind::kHio, EngineTable(2000, false),
      {"SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 11 AND b BETWEEN 1 AND "
       "13",
       "SELECT SUM(m) FROM T WHERE a BETWEEN 0 AND 7 AND b BETWEEN 4 AND 15"});
  // SC over more than one report chunk with a partial last bitset word
  // (n % 64 != 0): a 2-dim box (subset expansion), a 3-dim box (popcount
  // classes), and an OR (three boxes, one of them the 2-dim intersection).
  CheckEngineBitIdenticalAcrossLevelsThreadsAndCache(
      MechanismKind::kSc, EngineTable(20001, true),
      {"SELECT COUNT(*) FROM T WHERE a BETWEEN 2 AND 11 AND b BETWEEN 1 AND "
       "13",
       "SELECT SUM(m) FROM T WHERE a BETWEEN 2 AND 11 AND b BETWEEN 1 AND 13 "
       "AND c BETWEEN 1 AND 5",
       "SELECT SUM(m) FROM T WHERE a BETWEEN 3 AND 9 OR b BETWEEN 4 AND 15",
       "SELECT AVG(m) FROM T WHERE b BETWEEN 0 AND 6"});
}

// ---------------------------------------------------------------------------
// Level-name surface and dispatch plumbing.

TEST(SimdLevelTest, NamesRoundTrip) {
  for (const SimdLevel level :
       {SimdLevel::kAuto, SimdLevel::kScalar, SimdLevel::kAvx2}) {
    const auto parsed = SimdLevelFromString(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok()) << SimdLevelName(level);
    EXPECT_EQ(parsed.value(), level);
  }
  EXPECT_EQ(SimdLevelFromString("AVX2").ValueOrDie(), SimdLevel::kAvx2);
  EXPECT_FALSE(SimdLevelFromString("sse9").ok());
  EXPECT_FALSE(SimdLevelFromString("neon").ok());
  EXPECT_FALSE(SimdLevelFromString("").ok());
}

TEST(SimdLevelTest, DetectAndAutoAgree) {
  const SimdLevel best = DetectSimdLevel();
  EXPECT_TRUE(SimdLevelSupported(best));
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kAuto));
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kScalar));
  EXPECT_EQ(KernelsForLevel(SimdLevel::kAuto).level, best);
  SetSimdLevel(SimdLevel::kAuto);
  EXPECT_EQ(ActiveSimdLevel(), best);
  EXPECT_EQ(ActiveKernels().level, best);
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdLevel(SimdLevel::kAuto);
}

TEST(SimdLevelDeathTest, ForcingUnsupportedLevelIsFatal) {
  // A forced level the host cannot run must die loudly (LDP_CHECK), never
  // silently fall back — a benchmark recorded under the wrong kernels would
  // be worse than no benchmark.
  const SimdLevel unsupported = UnsupportedLevel();
  EXPECT_DEATH({ SetSimdLevel(unsupported); },
               "simd_level_supported_on_host");
  EXPECT_DEATH({ (void)KernelsForLevel(unsupported); },
               "simd_level_supported_on_host");
}

}  // namespace
}  // namespace ldp
