#include "src/common/simd.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SDC_SIMD_X86 1
#endif

#if defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>
#define SDC_SIMD_NEON 1
#endif

namespace sdc {
namespace {

// Scalar reference for ClassifyDrawPairs, shared as the vector paths' tail handler:
// classifies pairs [begin, end), ORing faulty bits at their absolute positions (the
// caller zeroes the words). The CDF walk is a fixed-trip branch-free count, so the only
// data-dependent branch left is the rare faulty hit itself. Cache-line aligned: at the
// default 16-byte function alignment, the scalar generate kernel's speed moved by up to
// ~35% (micro_screening generate_scalar, x86-64 Xeon with AVX-512) whenever unrelated code
// shifted the link layout.
__attribute__((aligned(64)))
size_t ClassifyRangeScalar(const uint64_t* draws, size_t begin, size_t end,
                           const DrawClassifyTables& tables, uint8_t* class_out,
                           uint64_t* faulty_bits) {
  const int bounds = tables.class_count - 1;
  size_t faulty = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint64_t a = draws[2 * i] >> 11;
    unsigned cls = 0;
    for (int j = 0; j < bounds; ++j) {
      cls += tables.cdf_bounds_u53[j] <= a ? 1u : 0u;
    }
    class_out[i] = static_cast<uint8_t>(cls);
    const uint64_t f = draws[2 * i + 1] >> 11;
    if (f < tables.fault_thresholds_u53[cls]) {
      faulty_bits[i >> 6] |= uint64_t{1} << (i & 63);
      ++faulty;
    }
  }
  return faulty;
}

#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)

// Four pairs per iteration: deinterleave the (arch, fault) draw columns, shift both to
// u53 space, then one compare per CDF boundary both accumulates the class and selects
// that class's fault threshold (blend), so the gather the per-class threshold lookup
// would need never materializes. All values are < 2^54 with the sign bit clear, so the
// signed cmpgt is an unsigned compare here; ">= bound" is "cmpgt(bound - 1)", exact even
// for bound == 0 (a >= 0 always holds, and 0 - 1 wraps to -1, which cmpgt also always
// exceeds).
__attribute__((target("avx2"))) size_t ClassifyDrawPairsAvx2(
    const uint64_t* draws, size_t count, const DrawClassifyTables& tables,
    uint8_t* class_out, uint64_t* faulty_bits) {
  const int bounds = tables.class_count - 1;
  const __m128i pick_lane_bytes = _mm_setr_epi8(0, 8, -1, -1, -1, -1, -1, -1,
                                                -1, -1, -1, -1, -1, -1, -1, -1);
  size_t faulty = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(draws + 2 * i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(draws + 2 * i + 4));
    const __m256i lo = _mm256_unpacklo_epi64(v0, v1);  // a0 a2 a1 a3
    const __m256i hi = _mm256_unpackhi_epi64(v0, v1);  // f0 f2 f1 f3
    const __m256i a = _mm256_srli_epi64(
        _mm256_permute4x64_epi64(lo, _MM_SHUFFLE(3, 1, 2, 0)), 11);
    const __m256i f = _mm256_srli_epi64(
        _mm256_permute4x64_epi64(hi, _MM_SHUFFLE(3, 1, 2, 0)), 11);
    __m256i cls = _mm256_setzero_si256();
    __m256i th = _mm256_set1_epi64x(
        static_cast<long long>(tables.fault_thresholds_u53[0]));
    for (int j = 0; j < bounds; ++j) {
      const __m256i bound_m1 = _mm256_set1_epi64x(
          static_cast<long long>(tables.cdf_bounds_u53[j] - 1));
      const __m256i ge = _mm256_cmpgt_epi64(a, bound_m1);
      cls = _mm256_sub_epi64(cls, ge);
      const __m256i next_th = _mm256_set1_epi64x(
          static_cast<long long>(tables.fault_thresholds_u53[j + 1]));
      th = _mm256_blendv_epi8(th, next_th, ge);
    }
    const __m128i cls_lo = _mm_shuffle_epi8(_mm256_castsi256_si128(cls),
                                            pick_lane_bytes);
    const __m128i cls_hi = _mm_shuffle_epi8(_mm256_extracti128_si256(cls, 1),
                                            pick_lane_bytes);
    const uint32_t four_bytes =
        (static_cast<uint32_t>(_mm_cvtsi128_si32(cls_lo)) & 0xffffu) |
        (static_cast<uint32_t>(_mm_cvtsi128_si32(cls_hi)) << 16);
    std::memcpy(class_out + i, &four_bytes, 4);
    const __m256i fault_mask = _mm256_cmpgt_epi64(th, f);
    const unsigned mask4 = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(fault_mask)));
    // i is a multiple of 4, so the 4 bits never straddle a 64-bit word.
    faulty_bits[i >> 6] |= static_cast<uint64_t>(mask4) << (i & 63);
    faulty += static_cast<size_t>(__builtin_popcount(mask4));
  }
  return faulty + ClassifyRangeScalar(draws, i, count, tables, class_out, faulty_bits);
}

#endif  // SDC_SIMD_X86 && !SDC_FORCE_SCALAR

#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)

size_t ClassifyDrawPairsNeon(const uint64_t* draws, size_t count,
                             const DrawClassifyTables& tables, uint8_t* class_out,
                             uint64_t* faulty_bits) {
  const int bounds = tables.class_count - 1;
  size_t faulty = 0;
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const uint64x2x2_t pair = vld2q_u64(draws + 2 * i);  // deinterleaving load
    const uint64x2_t a = vshrq_n_u64(pair.val[0], 11);
    const uint64x2_t f = vshrq_n_u64(pair.val[1], 11);
    uint64x2_t cls = vdupq_n_u64(0);
    uint64x2_t th = vdupq_n_u64(tables.fault_thresholds_u53[0]);
    for (int j = 0; j < bounds; ++j) {
      const uint64x2_t ge = vcgeq_u64(a, vdupq_n_u64(tables.cdf_bounds_u53[j]));
      cls = vsubq_u64(cls, ge);
      th = vbslq_u64(ge, vdupq_n_u64(tables.fault_thresholds_u53[j + 1]), th);
    }
    class_out[i] = static_cast<uint8_t>(vgetq_lane_u64(cls, 0));
    class_out[i + 1] = static_cast<uint8_t>(vgetq_lane_u64(cls, 1));
    const uint64x2_t fault_mask = vcltq_u64(f, th);
    const uint64_t bit0 = vgetq_lane_u64(fault_mask, 0) & 1;
    const uint64_t bit1 = vgetq_lane_u64(fault_mask, 1) & 1;
    // i is even, so the two bits never straddle a 64-bit word.
    faulty_bits[i >> 6] |= (bit0 | (bit1 << 1)) << (i & 63);
    faulty += static_cast<size_t>(bit0 + bit1);
  }
  return faulty + ClassifyRangeScalar(draws, i, count, tables, class_out, faulty_bits);
}

#endif  // SDC_SIMD_NEON && !SDC_FORCE_SCALAR

SimdLevel DetectBestLevel() {
#if defined(SDC_FORCE_SCALAR)
  return SimdLevel::kScalar;
#else
#if SDC_SIMD_X86
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kAVX2;
  }
  return SimdLevel::kScalar;
#elif SDC_SIMD_NEON
  return SimdLevel::kNEON;
#else
  return SimdLevel::kScalar;
#endif
#endif
}

// True when this build can execute `level` on this host.
bool LevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAVX2:
      return BestSupportedSimdLevel() == SimdLevel::kAVX2;
    case SimdLevel::kNEON:
#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

std::string SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAVX2:
      return "avx2";
    case SimdLevel::kNEON:
      return "neon";
  }
  return "?";
}

SimdLevel ParseSimdLevel(const std::string& name) {
  if (name == "scalar") {
    return SimdLevel::kScalar;
  }
  if (name == "avx2") {
    return SimdLevel::kAVX2;
  }
  if (name == "neon") {
    return SimdLevel::kNEON;
  }
  return SimdLevel::kAuto;
}

SimdLevel BestSupportedSimdLevel() {
  static const SimdLevel best = DetectBestLevel();
  return best;
}

SimdLevel ClampSimdLevel(SimdLevel requested) {
  if (requested == SimdLevel::kAuto || !LevelSupported(requested)) {
    return BestSupportedSimdLevel();
  }
  return requested;
}

SimdLevel ResolveSimdLevel(SimdLevel requested) {
  // Environment override first (read per resolve, not cached: tests and CI toggle it),
  // then kAuto -> best, then clamp anything the host cannot run down to best.
  if (const char* env = std::getenv("SDC_SIMD")) {
    const SimdLevel parsed = ParseSimdLevel(env);
    if (parsed != SimdLevel::kAuto || std::string(env) == "auto") {
      requested = parsed;
    }
  }
  return ClampSimdLevel(requested);
}

size_t ClassifyDrawPairs(const uint64_t* draws, size_t count,
                         const DrawClassifyTables& tables, uint8_t* class_out,
                         uint64_t* faulty_bits, SimdLevel level) {
  if (count == 0) {
    return 0;
  }
  std::memset(faulty_bits, 0, ((count + 63) / 64) * sizeof(uint64_t));
  if (level == SimdLevel::kAuto || !LevelSupported(level)) {
    level = BestSupportedSimdLevel();
  }
  switch (level) {
#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)
    case SimdLevel::kAVX2:
      return ClassifyDrawPairsAvx2(draws, count, tables, class_out, faulty_bits);
#endif
#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)
    case SimdLevel::kNEON:
      return ClassifyDrawPairsNeon(draws, count, tables, class_out, faulty_bits);
#endif
    default:
      return ClassifyRangeScalar(draws, 0, count, tables, class_out, faulty_bits);
  }
}

}  // namespace sdc
