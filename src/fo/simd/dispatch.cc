#include "fo/simd/simd.h"

#include <atomic>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace ldp {

// Defined in kernels_scalar.cc / kernels_avx2.cc. The AVX2 TU is only
// compiled (and only declared here) when the build sets
// LDPMDA_FO_SIMD_AVX2, so this TU can never reference a table the linker
// does not have.
const FoKernels& ScalarFoKernels();
#if defined(LDPMDA_FO_SIMD_AVX2)
const FoKernels& Avx2FoKernels();
#endif

std::string SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

Result<SimdLevel> SimdLevelFromString(std::string_view name) {
  const std::string lower = ToLower(name);
  if (lower == "auto") return SimdLevel::kAuto;
  if (lower == "scalar") return SimdLevel::kScalar;
  if (lower == "avx2") return SimdLevel::kAvx2;
  return Status::InvalidArgument("unknown SIMD level: " + std::string(name));
}

SimdLevel DetectSimdLevel() {
#if defined(LDPMDA_FO_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool SimdLevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(LDPMDA_FO_SIMD_AVX2)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

const FoKernels& KernelsForLevel(SimdLevel level) {
  if (level == SimdLevel::kAuto) level = DetectSimdLevel();
  const bool simd_level_supported_on_host = SimdLevelSupported(level);
  LDP_CHECK(simd_level_supported_on_host);
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return ScalarFoKernels();
    case SimdLevel::kAvx2:
#if defined(LDPMDA_FO_SIMD_AVX2)
      return Avx2FoKernels();
#else
      break;
#endif
  }
  return ScalarFoKernels();  // unreachable: the support check rejects these
}

namespace {

std::atomic<const FoKernels*> g_active_kernels{nullptr};

void PublishKernels(const FoKernels& kernels) {
  g_active_kernels.store(&kernels, std::memory_order_release);
  GlobalMetrics().gauge("simd.active_level")
      ->Set(static_cast<int64_t>(kernels.level));
}

}  // namespace

const FoKernels& ActiveKernels() {
  const FoKernels* kernels = g_active_kernels.load(std::memory_order_acquire);
  if (kernels == nullptr) {
    // First use: resolve the detected level once. Benign if raced — both
    // threads publish the same table.
    const FoKernels& detected = KernelsForLevel(SimdLevel::kAuto);
    PublishKernels(detected);
    return detected;
  }
  return *kernels;
}

void SetSimdLevel(SimdLevel level) { PublishKernels(KernelsForLevel(level)); }

SimdLevel ActiveSimdLevel() { return ActiveKernels().level; }

}  // namespace ldp
