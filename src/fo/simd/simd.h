#ifndef LDPMDA_FO_SIMD_SIMD_H_
#define LDPMDA_FO_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ldp {

/// Instruction-set level of the frequency-oracle estimate kernels.
///
/// One level is active per process (selected once at startup, or forced via
/// SetSimdLevel / the benches' --simd flag). Every level
/// computes bit-identical results. The per-value estimate kernels map SIMD
/// *lanes to values*, so each value's floating-point partial sum still
/// accumulates in report order (for raw scans), pool-seed order (pooled OLH
/// histograms), or spectrum order (HR) — exactly the scalar loop's order.
/// The SC support-bit kernels map *lanes to reports*: their bit output is
/// integer, and their one floating-point sum is defined with 4 interleaved
/// partials that the scalar reference keeps too (see masked_weight_sum).
enum class SimdLevel {
  kAuto = 0,    ///< resolve to the best supported level at first use
  kScalar = 1,  ///< portable fallback, always available
  kAvx2 = 2,    ///< x86-64 AVX2 (4 x 64-bit lanes)
};

std::string SimdLevelName(SimdLevel level);
Result<SimdLevel> SimdLevelFromString(std::string_view name);

/// The vectorized estimate primitives, one entry per oracle inner loop.
///
/// Contract shared by every implementation (scalar included):
///  * `theta`/`total` are accumulated IN PLACE (callers zero-fill per tile);
///  * per value, floating-point adds happen in the same order as the scalar
///    reference kernel (see SimdLevel) — the per-value entries may vectorize
///    across values only, never across the reduction dimension, and
///    masked_weight_sum across its 4 interleaved partials only;
///  * a non-supporting report contributes +0.0 (mask-AND or `w * 0.0`),
///    which cannot change any partial sum's bits (sums never reach -0.0
///    starting from +0.0);
///  * pointers need no particular alignment and value spans may have any
///    length — implementations handle remainders with the scalar loop.
struct FoKernels {
  SimdLevel level = SimdLevel::kScalar;

  /// OLH raw scan: for each report i (in order) and each value v,
  ///   theta[v] += weights[users[i]] * (H_{seeds[i]}(values[v]) == ys[i]).
  void (*olh_raw)(const uint32_t* seeds, const uint32_t* ys,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, uint32_t g, const uint64_t* values,
                  size_t num_values, double* theta);

  /// OLH pooled histogram gather-sum: for each seed s in [0, pool) (in
  /// order) and each value v,  theta[v] += hist[s * g + H_s(values[v])].
  void (*olh_hist)(const double* hist, uint32_t pool, uint32_t g,
                   const uint64_t* values, size_t num_values, double* theta);

  /// OUE bit-matrix scan over row-major bit vectors (`words_per_report`
  /// 64-bit words per report): for each report i (in order) and value v,
  ///   theta[v] += weights[users[i]] * bit(bits + i * words_per_report, v).
  void (*oue_raw)(const uint64_t* bits, size_t words_per_report,
                  const uint64_t* users, size_t num_reports,
                  const double* weights, const uint64_t* values,
                  size_t num_values, double* theta);

  /// HR spectrum dot product: for each spectrum entry e (in order) and each
  /// value v,  total[v] += sums[e] * (parity(indices[e] & values[v]) ? -1
  /// : +1)  — the Walsh-Hadamard entry as an exact sign flip.
  void (*hr_spectrum)(const uint64_t* indices, const double* sums,
                      size_t num_entries, const uint64_t* values,
                      size_t num_values, double* total);

  /// OLH support bitsets, one row per value: bit i of row v is
  ///   H_{seeds[i]}(values[v]) == ys[i],
  /// stored at word i / 64, bit i % 64 of the row at `bits + v * stride`.
  /// Overwrites the ceil(num_reports / 64) words of every row; bits past
  /// num_reports are zero. Integer output, so every level is trivially
  /// bit-identical.
  void (*olh_support_bits)(const uint32_t* seeds, const uint32_t* ys,
                           size_t num_reports, uint32_t g,
                           const uint64_t* values, size_t num_values,
                           uint64_t* bits, size_t stride);

  /// Masked weight sum over reports [0, num_reports): with m the AND of the
  /// `num_sets` bitsets sets[0..num_sets) (laid out as olh_support_bits
  /// writes them; all ones when num_sets == 0) and `weights` the reports'
  /// weights in report order,
  ///   returns  sum_i weights[i] * bit_i(m).
  /// The sum is grouped as 4 interleaved partials — acc[i % 4] receives
  /// report i's term, in report order — combined as
  /// (acc[0] + acc[1]) + (acc[2] + acc[3]); a clear bit contributes +0.0.
  /// Bits past num_reports are ignored.
  double (*masked_weight_sum)(const uint64_t* const* sets, size_t num_sets,
                              const double* weights, size_t num_reports);
};

/// Highest level this binary + host supports (kScalar when vector kernels
/// were compiled out, e.g. the check-all-simd-off preset).
SimdLevel DetectSimdLevel();

/// Whether `level` can run on this binary + host. kAuto and kScalar are
/// always supported.
bool SimdLevelSupported(SimdLevel level);

/// The kernel table for `level` (kAuto resolves to DetectSimdLevel()).
/// LDP_CHECK-fatal when the level is unsupported on this host — a forced
/// --simd level must never silently fall back, or benchmarks and
/// reproductions would measure a different kernel than requested.
const FoKernels& KernelsForLevel(SimdLevel level);

/// The process-wide active kernel table. Resolved to DetectSimdLevel() on
/// first use; SetSimdLevel overrides it. Reads are lock-free (one acquire
/// load) — this sits on every estimate path.
const FoKernels& ActiveKernels();

/// Forces the active level (kAuto re-resolves to the detected best).
/// LDP_CHECK-fatal when unsupported on this host. Also mirrors the level
/// into the `simd.active_level` gauge for --stats_json consumers.
void SetSimdLevel(SimdLevel level);

/// Level of the currently active kernel table (resolves kAuto on first use).
SimdLevel ActiveSimdLevel();

}  // namespace ldp

#endif  // LDPMDA_FO_SIMD_SIMD_H_
