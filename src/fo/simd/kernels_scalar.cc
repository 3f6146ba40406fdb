// Scalar reference kernels: the oracle inner loops exactly as they appeared
// inline in olh.cc / oue.cc / hadamard.cc before the kernel table
// existed, plus SC's support-bit and masked-sum loops. These define the bit
// pattern every vector implementation must reproduce, so keep them boring —
// a change here is a change to the determinism contract, not an
// optimization.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/hash.h"
#include "fo/simd/simd.h"

namespace ldp {
namespace {

void OlhRawScalar(const uint32_t* seeds, const uint32_t* ys,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, uint32_t g, const uint64_t* values,
                  size_t num_values, double* theta) {
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t base = SeededHashFamily::SeedBase(seeds[i]);
    const uint32_t y = ys[i];
    const double weight = weights[users[i]];
    for (size_t vi = 0; vi < num_values; ++vi) {
      // Branchless: adds +0.0 when the report does not support the value,
      // which cannot change theta's bits (theta is never -0.0), so this is
      // bit-identical to the scalar conditional add.
      const double supports = static_cast<double>(
          SeededHashFamily::EvalWithBase(base, values[vi], g) == y);
      theta[vi] += weight * supports;
    }
  }
}

void OlhHistScalar(const double* hist, uint32_t pool, uint32_t g,
                   const uint64_t* values, size_t num_values, double* theta) {
  for (uint32_t s = 0; s < pool; ++s) {
    const uint64_t base = SeededHashFamily::SeedBase(s);
    const double* row = hist + static_cast<size_t>(s) * g;
    for (size_t vi = 0; vi < num_values; ++vi) {
      theta[vi] += row[SeededHashFamily::EvalWithBase(base, values[vi], g)];
    }
  }
}

void OueRawScalar(const uint64_t* bits, size_t words_per_report,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, const uint64_t* values,
                  size_t num_values, double* theta) {
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t* row = bits + i * words_per_report;
    const double weight = weights[users[i]];
    for (size_t vi = 0; vi < num_values; ++vi) {
      const uint64_t v = values[vi];
      const double set = static_cast<double>((row[v / 64] >> (v % 64)) & 1ull);
      theta[vi] += weight * set;
    }
  }
}

void HrSpectrumScalar(const uint64_t* indices, const double* sums,
                      size_t num_entries, const uint64_t* values,
                      size_t num_values, double* total) {
  for (size_t e = 0; e < num_entries; ++e) {
    const uint64_t j = indices[e];
    const double sum = sums[e];
    for (size_t vi = 0; vi < num_values; ++vi) {
      const int entry = (__builtin_popcountll(j & values[vi]) & 1) ? -1 : 1;
      total[vi] += sum * entry;
    }
  }
}

void OlhSupportBitsScalar(const uint32_t* seeds, const uint32_t* ys,
                          size_t num_reports, uint32_t g,
                          const uint64_t* values, size_t num_values,
                          uint64_t* bits, size_t stride) {
  const size_t words = (num_reports + 63) / 64;
  for (size_t vi = 0; vi < num_values; ++vi) {
    std::fill(bits + vi * stride, bits + vi * stride + words, 0);
  }
  for (size_t i = 0; i < num_reports; ++i) {
    const uint64_t base = SeededHashFamily::SeedBase(seeds[i]);
    const uint32_t y = ys[i];
    for (size_t vi = 0; vi < num_values; ++vi) {
      const uint64_t hit =
          SeededHashFamily::EvalWithBase(base, values[vi], g) == y;
      bits[vi * stride + i / 64] |= hit << (i % 64);
    }
  }
}

double MaskedWeightSumScalar(const uint64_t* const* sets, size_t num_sets,
                             const double* weights, size_t num_reports) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t w = 0; w * 64 < num_reports; ++w) {
    const size_t left = num_reports - w * 64;
    uint64_t mask = left >= 64 ? ~0ull : (1ull << left) - 1;
    for (size_t j = 0; j < num_sets; ++j) mask &= sets[j][w];
    // Visiting set bits only: a clear bit's +0.0 is the identity on a
    // partial that starts at +0.0 (it can never become -0.0).
    for (; mask != 0; mask &= mask - 1) {
      const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(mask));
      acc[i % 4] += weights[i];
    }
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

}  // namespace

const FoKernels& ScalarFoKernels() {
  static const FoKernels kernels = {
      SimdLevel::kScalar,    &OlhRawScalar,          &OlhHistScalar,
      &OueRawScalar,         &HrSpectrumScalar,      &OlhSupportBitsScalar,
      &MaskedWeightSumScalar,
  };
  return kernels;
}

}  // namespace ldp
