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

// Scalar reference: four interleaved sub-histograms keep the counter increments out of
// each other's store-to-load dependency chains (~4x over a naive scan) -- this is the
// former inline histogram of the screening kernel, now the fallback every vector path is
// checked against (tests/simd_test.cc). Cache-line aligned, like ClassifyRangeScalar
// and Rng::FillBlock: at the default 16-byte function alignment, the scalar generate
// kernel's speed moved by up to ~35% (micro_screening generate_scalar, x86-64 Xeon with
// AVX-512) whenever unrelated code shifted the link layout.
__attribute__((aligned(64)))
void CountBytesScalar(const uint8_t* data, size_t size, int bucket_count,
                      uint64_t* counts) {
  uint64_t hist[4][256] = {};
  size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    ++hist[0][data[i]];
    ++hist[1][data[i + 1]];
    ++hist[2][data[i + 2]];
    ++hist[3][data[i + 3]];
  }
  for (; i < size; ++i) {
    ++hist[0][data[i]];
  }
  for (int v = 0; v < bucket_count; ++v) {
    counts[v] += hist[0][v] + hist[1][v] + hist[2][v] + hist[3][v];
  }
}

// The vector paths count one bucket value per pass: compare-equal produces an all-ones
// (-1) lane per match, subtracting it accumulates matches in 8-bit lanes, and a horizontal
// sum widens to 64 bits before the 8-bit lanes can wrap (every <= 255 iterations). With
// bucket_count <= 16 the column stays L1-resident across the passes, so the extra passes
// cost far less than the scalar load-increment chain.

#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)

uint64_t CountEqualSse2(const uint8_t* data, size_t size, uint8_t value) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(value));
  const __m128i zero = _mm_setzero_si128();
  __m128i wide = zero;
  size_t i = 0;
  while (i + 16 <= size) {
    __m128i acc = zero;
    for (int block = 0; block < 255 && i + 16 <= size; ++block, i += 16) {
      const __m128i chunk =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
      acc = _mm_sub_epi8(acc, _mm_cmpeq_epi8(chunk, needle));
    }
    wide = _mm_add_epi64(wide, _mm_sad_epu8(acc, zero));
  }
  uint64_t total = static_cast<uint64_t>(_mm_cvtsi128_si64(wide)) +
                   static_cast<uint64_t>(
                       _mm_cvtsi128_si64(_mm_unpackhi_epi64(wide, wide)));
  for (; i < size; ++i) {
    total += data[i] == value ? 1 : 0;
  }
  return total;
}

__attribute__((target("avx2"))) uint64_t CountEqualAvx2(const uint8_t* data, size_t size,
                                                        uint8_t value) {
  const __m256i needle = _mm256_set1_epi8(static_cast<char>(value));
  const __m256i zero = _mm256_setzero_si256();
  __m256i wide = zero;
  size_t i = 0;
  while (i + 32 <= size) {
    __m256i acc = zero;
    for (int block = 0; block < 255 && i + 32 <= size; ++block, i += 32) {
      const __m256i chunk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
      acc = _mm256_sub_epi8(acc, _mm256_cmpeq_epi8(chunk, needle));
    }
    wide = _mm256_add_epi64(wide, _mm256_sad_epu8(acc, zero));
  }
  const __m128i halves = _mm_add_epi64(_mm256_castsi256_si128(wide),
                                       _mm256_extracti128_si256(wide, 1));
  uint64_t total = static_cast<uint64_t>(_mm_cvtsi128_si64(halves)) +
                   static_cast<uint64_t>(
                       _mm_cvtsi128_si64(_mm_unpackhi_epi64(halves, halves)));
  for (; i < size; ++i) {
    total += data[i] == value ? 1 : 0;
  }
  return total;
}

#endif  // SDC_SIMD_X86 && !SDC_FORCE_SCALAR

#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)

uint64_t CountEqualNeon(const uint8_t* data, size_t size, uint8_t value) {
  const uint8x16_t needle = vdupq_n_u8(value);
  uint64_t total = 0;
  size_t i = 0;
  while (i + 16 <= size) {
    uint8x16_t acc = vdupq_n_u8(0);
    for (int block = 0; block < 255 && i + 16 <= size; ++block, i += 16) {
      acc = vsubq_u8(acc, vceqq_u8(vld1q_u8(data + i), needle));
    }
    total += vaddlvq_u8(acc);  // 16 lanes of <= 255 sum into 16 bits without wrapping
  }
  for (; i < size; ++i) {
    total += data[i] == value ? 1 : 0;
  }
  return total;
}

#endif  // SDC_SIMD_NEON && !SDC_FORCE_SCALAR

// Scalar reference for ClassifyDrawPairs, shared as the vector paths' tail handler:
// classifies pairs [begin, end), ORing faulty bits at their absolute positions (the
// caller zeroes the words). The CDF walk is a fixed-trip branch-free count, so the only
// data-dependent branch left is the rare faulty hit itself. Cache-line aligned (see
// CountBytesScalar).
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
  return SimdLevel::kSSE2;  // baseline on x86-64
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
    case SimdLevel::kSSE2:
#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)
      return true;
#else
      return false;
#endif
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
    case SimdLevel::kSSE2:
      return "sse2";
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
  if (name == "sse2") {
    return SimdLevel::kSSE2;
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

void CountBytesByValue(const uint8_t* data, size_t size, int bucket_count,
                       uint64_t* counts, SimdLevel level) {
  if (size == 0 || bucket_count <= 0) {
    return;
  }
  // Last-line clamp so an unresolved request can never execute an unsupported
  // instruction; engine callers pass the level their EngineContext pinned at pass start
  // (SDC_SIMD is read once, when the context is built).
  if (level == SimdLevel::kAuto || !LevelSupported(level)) {
    level = BestSupportedSimdLevel();
  }
  switch (level) {
#if SDC_SIMD_X86 && !defined(SDC_FORCE_SCALAR)
    case SimdLevel::kSSE2:
      for (int v = 0; v < bucket_count; ++v) {
        counts[v] += CountEqualSse2(data, size, static_cast<uint8_t>(v));
      }
      return;
    case SimdLevel::kAVX2:
      for (int v = 0; v < bucket_count; ++v) {
        counts[v] += CountEqualAvx2(data, size, static_cast<uint8_t>(v));
      }
      return;
#endif
#if SDC_SIMD_NEON && !defined(SDC_FORCE_SCALAR)
    case SimdLevel::kNEON:
      for (int v = 0; v < bucket_count; ++v) {
        counts[v] += CountEqualNeon(data, size, static_cast<uint8_t>(v));
      }
      return;
#endif
    default:
      CountBytesScalar(data, size, bucket_count, counts);
      return;
  }
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
      // SSE2 has no 64-bit vector compare; it shares the scalar path (still branch-free
      // in the CDF walk), keeping the "any level, same bits" contract trivially true.
      return ClassifyRangeScalar(draws, 0, count, tables, class_out, faulty_bits);
  }
}

}  // namespace sdc
