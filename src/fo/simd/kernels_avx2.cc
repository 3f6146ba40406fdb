// AVX2 kernels: 4 x 64-bit lanes. The per-value estimate kernels map lane =
// value: each value owns one lane for the whole reduction, so its partial
// sum sees exactly the scalar kernel's sequence of adds — the vector width
// changes which VALUES advance together, never the order within one value's
// sum. Non-supporting reports contribute via mask-AND (+0.0), matching the
// scalar branchless form bit-for-bit. The SC support-bit kernels map lane =
// report: olh_support_bits hashes 4 reports at once into integer bits (with
// a shift for the bucket when g is a power of two), and masked_weight_sum's
// lane k is the scalar reference's partial acc[k], selected by a table load.
//
// This TU is compiled with -mavx2 -ffp-contract=off and must not be entered
// unless __builtin_cpu_supports("avx2") — dispatch.cc guarantees that. No
// FMA: a fused multiply-add would round differently from the scalar kernels.

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

/// Lane-wise 64-bit multiply-low (AVX2 has no native epi64 mullo):
/// a*b mod 2^64 = lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32).
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

/// Lane-wise Mix64 (common/hash.h) up to, not including, its final
/// x ^= x >> 31.
inline __m256i Mix64BeforeLastShiftV(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = MulLo64(x, _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  return MulLo64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
}

/// Lane-wise Mix64 (common/hash.h), same xor-shift-multiply chain.
inline __m256i Mix64V(__m256i x) {
  x = Mix64BeforeLastShiftV(x);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// Lane-wise (h * g) >> 64 for g < 2^32 (the multiply-shift bucket reduction
/// in SeededHashFamily::EvalWithBase). With h = h_hi 2^32 + h_lo:
/// (h g) >> 64 = (h_hi g + ((h_lo g) >> 32)) >> 32, and h_hi g + 2^32 < 2^64
/// so the 64-bit lane add cannot overflow.
inline __m256i MulHi64By32(__m256i h, __m256i g) {
  const __m256i h_hi = _mm256_srli_epi64(h, 32);
  const __m256i lo_prod_hi = _mm256_srli_epi64(_mm256_mul_epu32(h, g), 32);
  return _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_mul_epu32(h_hi, g), lo_prod_hi), 32);
}

/// Lane-wise EvalWithBase: bucket_v = ((Mix64(base + v)) * g) >> 64.
inline __m256i EvalWithBaseV(__m256i base, __m256i v, __m256i g) {
  return MulHi64By32(Mix64V(_mm256_add_epi64(base, v)), g);
}

/// Per-64-bit-lane popcount: nibble LUT via pshufb, then psadbw folds the
/// 8 byte counts of each lane into its low byte.
inline __m256i Popcount64V(__m256i x) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low_nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(x, 4), low_nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// theta[vi..vi+4) += contribution (unaligned load/add/store).
inline void AccumulatePd(double* theta, __m256d contribution) {
  _mm256_storeu_pd(theta,
                   _mm256_add_pd(_mm256_loadu_pd(theta), contribution));
}

void OlhRawAvx2(const uint32_t* seeds, const uint32_t* ys,
                const uint64_t* users, size_t num_reports,
                const double* weights, uint32_t g, const uint64_t* values,
                size_t num_values, double* theta) {
  const __m256i g_v = _mm256_set1_epi64x(static_cast<long long>(g));
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t base = SeededHashFamily::SeedBase(seeds[i]);
    const uint32_t y = ys[i];
    const double weight = weights[users[i]];
    const __m256i base_v = _mm256_set1_epi64x(static_cast<long long>(base));
    const __m256i y_v = _mm256_set1_epi64x(static_cast<long long>(y));
    const __m256d w_v = _mm256_set1_pd(weight);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256i eq = _mm256_cmpeq_epi64(EvalWithBaseV(base_v, v, g_v), y_v);
      AccumulatePd(theta + vi, _mm256_and_pd(_mm256_castsi256_pd(eq), w_v));
    }
    for (; vi < num_values; ++vi) {
      const double supports = static_cast<double>(
          SeededHashFamily::EvalWithBase(base, values[vi], g) == y);
      theta[vi] += weight * supports;
    }
  }
}

void OlhHistAvx2(const double* hist, uint32_t pool, uint32_t g,
                 const uint64_t* values, size_t num_values, double* theta) {
  const __m256i g_v = _mm256_set1_epi64x(static_cast<long long>(g));
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (uint32_t s = 0; s < pool; ++s) {
    const uint64_t base = SeededHashFamily::SeedBase(s);
    const __m256i base_v = _mm256_set1_epi64x(static_cast<long long>(base));
    const double* row = hist + static_cast<size_t>(s) * g;
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256d cell =
          _mm256_i64gather_pd(row, EvalWithBaseV(base_v, v, g_v), 8);
      AccumulatePd(theta + vi, cell);
    }
    for (; vi < num_values; ++vi) {
      theta[vi] += row[SeededHashFamily::EvalWithBase(base, values[vi], g)];
    }
  }
}

void OueRawAvx2(const uint64_t* bits, size_t words_per_report,
                const uint64_t* users, size_t num_reports,
                const double* weights, const uint64_t* values,
                size_t num_values, double* theta) {
  const __m256i one_v = _mm256_set1_epi64x(1);
  const __m256i six_three = _mm256_set1_epi64x(63);
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t* row = bits + i * words_per_report;
    const double weight = weights[users[i]];
    const __m256d w_v = _mm256_set1_pd(weight);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256i words = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(row), _mm256_srli_epi64(v, 6), 8);
      const __m256i bit = _mm256_and_si256(
          _mm256_srlv_epi64(words, _mm256_and_si256(v, six_three)), one_v);
      const __m256i set = _mm256_cmpeq_epi64(bit, one_v);
      AccumulatePd(theta + vi, _mm256_and_pd(_mm256_castsi256_pd(set), w_v));
    }
    for (; vi < num_values; ++vi) {
      const uint64_t v = values[vi];
      const double set =
          static_cast<double>((row[v / 64] >> (v % 64)) & 1ull);
      theta[vi] += weight * set;
    }
  }
}

void HrSpectrumAvx2(const uint64_t* indices, const double* sums,
                    size_t num_entries, const uint64_t* values,
                    size_t num_values, double* total) {
  const __m256i one_v = _mm256_set1_epi64x(1);
  const size_t nv4 = num_values & ~static_cast<size_t>(3);
  for (size_t e = 0; e < num_entries; ++e) {
    const uint64_t j = indices[e];
    const double sum = sums[e];
    const __m256i j_v = _mm256_set1_epi64x(static_cast<long long>(j));
    const __m256d sum_v = _mm256_set1_pd(sum);
    size_t vi = 0;
    for (; vi < nv4; vi += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(values + vi));
      const __m256i parity = _mm256_and_si256(
          Popcount64V(_mm256_and_si256(j_v, v)), one_v);
      // Odd parity means Entry = -1; multiplying a finite double by -1.0 is
      // exactly a sign-bit flip, so XOR the parity into the sign bit.
      const __m256d contribution = _mm256_xor_pd(
          sum_v, _mm256_castsi256_pd(_mm256_slli_epi64(parity, 63)));
      AccumulatePd(total + vi, contribution);
    }
    for (; vi < num_values; ++vi) {
      const int entry = (__builtin_popcountll(j & values[vi]) & 1) ? -1 : 1;
      total[vi] += sum * entry;
    }
  }
}

/// Loads 4 consecutive uint32 values zero-extended into 64-bit lanes.
inline __m256i LoadU32x4(const uint32_t* p) {
  return _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// OlhSupportBitsAvx2 for one bucket reduction. kPowerOfTwo requires
/// g = 2^b: then (h g) >> 64 is h >> (64 - b), the top b bits of the hash
/// h. Mix64 ends with h = x ^ (x >> 31), and x >> 31 is zero in its top 31
/// bits, so for b <= 31 (every power of two a uint32_t g can be) those b
/// bits are x's: the bucket is x >> (64 - b), with neither the last
/// xor-shift nor the multiply-high. (b = 0 shifts by 64, which gives 0 on
/// every lane, as (h * 1) >> 64 does.)
template <bool kPowerOfTwo>
void OlhSupportBitsImpl(const uint32_t* seeds, const uint32_t* ys,
                        size_t num_reports, uint32_t g,
                        const uint64_t* values, size_t num_values,
                        uint64_t* bits, size_t stride) {
  // One word of every value's row at a time: a 4-report group's seed base
  // and y are loaded once for all values.
  const __m256i g_v = _mm256_set1_epi64x(static_cast<long long>(g));
  const __m128i bucket_shift = _mm_cvtsi32_si128(64 - std::countr_zero(g));
  const __m256i seed_mul =
      _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m256i seed_add =
      _mm256_set1_epi64x(static_cast<long long>(0x2545f4914f6cdd1dULL));
  const size_t words = (num_reports + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    for (size_t vi = 0; vi < num_values; ++vi) bits[vi * stride + w] = 0;
    const size_t r0 = w * 64;
    const size_t r1 = std::min(r0 + 64, num_reports);
    size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      // Lane-wise SeededHashFamily::SeedBase.
      const __m256i base = _mm256_add_epi64(
          MulLo64(LoadU32x4(seeds + i), seed_mul), seed_add);
      const __m256i y = LoadU32x4(ys + i);
      for (size_t vi = 0; vi < num_values; ++vi) {
        const __m256i v = _mm256_set1_epi64x(static_cast<long long>(values[vi]));
        const __m256i bucket =
            kPowerOfTwo
                ? _mm256_srl_epi64(
                      Mix64BeforeLastShiftV(_mm256_add_epi64(base, v)),
                      bucket_shift)
                : EvalWithBaseV(base, v, g_v);
        const __m256i eq = _mm256_cmpeq_epi64(bucket, y);
        bits[vi * stride + w] |=
            static_cast<uint64_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)))
            << (i - r0);
      }
    }
    for (; i < r1; ++i) {
      const uint64_t base = SeededHashFamily::SeedBase(seeds[i]);
      for (size_t vi = 0; vi < num_values; ++vi) {
        const uint64_t hit =
            SeededHashFamily::EvalWithBase(base, values[vi], g) == ys[i];
        bits[vi * stride + w] |= hit << (i - r0);
      }
    }
  }
}

void OlhSupportBitsAvx2(const uint32_t* seeds, const uint32_t* ys,
                        size_t num_reports, uint32_t g,
                        const uint64_t* values, size_t num_values,
                        uint64_t* bits, size_t stride) {
  (std::has_single_bit(g) ? &OlhSupportBitsImpl<true>
                          : &OlhSupportBitsImpl<false>)(
      seeds, ys, num_reports, g, values, num_values, bits, stride);
}

/// Lane masks by nibble: lane k of entry m is all ones iff bit k of m is
/// set, so entry m selects the reports of a 4-report nibble m.
alignas(32) constexpr std::array<std::array<uint64_t, 4>, 16> kNibbleLanes =
    [] {
      std::array<std::array<uint64_t, 4>, 16> table{};
      for (size_t m = 0; m < 16; ++m) {
        for (size_t k = 0; k < 4; ++k) table[m][k] = (m >> k) & 1 ? ~0ull : 0;
      }
      return table;
    }();

double MaskedWeightSumAvx2(const uint64_t* const* sets, size_t num_sets,
                           const double* weights, size_t num_reports) {
  const size_t full = num_reports & ~static_cast<size_t>(3);
  const auto word_mask = [&](size_t w) {
    const size_t left = num_reports - w * 64;
    uint64_t mask = left >= 64 ? ~0ull : (1ull << left) - 1;
    for (size_t j = 0; j < num_sets; ++j) mask &= sets[j][w];
    return mask;
  };
  __m256d acc = _mm256_setzero_pd();
  for (size_t w = 0; w * 64 < full; ++w) {
    const uint64_t mask = word_mask(w);
    if (mask == 0) continue;  // +0.0 to every partial: the identity
    const size_t r0 = w * 64;
    const size_t r1 = std::min(r0 + 64, full);
    uint64_t nibbles = mask;
    for (size_t i = r0; i < r1; i += 4, nibbles >>= 4) {
      const __m256d select = _mm256_castsi256_pd(_mm256_load_si256(
          reinterpret_cast<const __m256i*>(kNibbleLanes[nibbles & 15].data())));
      acc = _mm256_add_pd(acc,
                          _mm256_and_pd(select, _mm256_loadu_pd(weights + i)));
    }
  }
  alignas(32) double part[4];
  _mm256_store_pd(part, acc);
  // The last < 4 reports, into the partials the scalar reference uses.
  for (size_t i = full; i < num_reports; ++i) {
    if ((word_mask(i / 64) >> (i % 64)) & 1) part[i % 4] += weights[i];
  }
  return (part[0] + part[1]) + (part[2] + part[3]);
}

}  // namespace

const FoKernels& Avx2FoKernels() {
  static const FoKernels kernels = {
      SimdLevel::kAvx2,    &OlhRawAvx2,          &OlhHistAvx2,
      &OueRawAvx2,         &HrSpectrumAvx2,      &OlhSupportBitsAvx2,
      &MaskedWeightSumAvx2,
  };
  return kernels;
}

}  // namespace ldp
