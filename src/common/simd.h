// Portable SIMD kernel of the blocked fleet generator (docs/performance.md).
//
// ClassifyDrawPairs is the one vector kernel: it turns a block of raw uniform draw pairs
// into arch bytes and faulty bits with vector compares (AVX2 on x86-64, NEON on aarch64)
// and a branch-free scalar fallback. Every implementation produces the same bytes, so
// picking a level is purely a speed decision and never a behavior change -- the
// determinism contract of docs/parallelism.md is untouched by dispatch.
//
// Dispatch layers, strongest wins:
//   1. -DSDC_FORCE_SCALAR (CMake option SDC_FORCE_SCALAR) pins every call to the scalar
//      path at compile time -- the CI matrix leg that proves the fallback end-to-end.
//   2. The EngineContext's level, the only one the fleet engine reads, resolved once
//      when the context is built (src/common/context.h): the SDC_SIMD environment
//      variable ("scalar", "avx2", "neon", "auto"; any other value is ignored) unless the
//      context ignores the environment, else EngineOptions::simd, whose kAuto default
//      takes the best supported level.
//   Requests above the host's capability clamp down, never fault.

#ifndef SDC_SRC_COMMON_SIMD_H_
#define SDC_SRC_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sdc {

enum class SimdLevel {
  kAuto = 0,  // resolve to the best supported level
  kScalar,
  kAVX2,
  kNEON,
};

// Display name ("auto", "scalar", "avx2", "neon").
std::string SimdLevelName(SimdLevel level);

// Parses a SimdLevel name; returns kAuto for unrecognized text.
SimdLevel ParseSimdLevel(const std::string& name);

// Best level this binary can execute on this host (CPUID-checked on x86-64, detected
// once). kScalar when built with SDC_FORCE_SCALAR.
SimdLevel BestSupportedSimdLevel();

// Resolves a requested level against the host alone, without consulting the environment:
// kAuto and anything the host cannot execute map to BestSupportedSimdLevel(). Engine code
// running under an EngineContext (src/common/context.h) uses this form after the context
// resolved SDC_SIMD once at construction.
SimdLevel ClampSimdLevel(SimdLevel requested);

// Resolves a requested level against the environment and the host: SDC_SIMD (when set to
// a recognized name) replaces `requested`; ClampSimdLevel then applies.
SimdLevel ResolveSimdLevel(SimdLevel requested);

// Classification tables of the blocked fleet generator (docs/performance.md): the arch
// CDF boundaries and the per-arch faulty-prevalence thresholds, both in the integer draw
// space u53 = raw >> 11 of src/common/rng.h. Entries beyond the used prefix must be
// padded with kClassifyNever (a boundary above every possible draw) so the kernels can
// run fixed-trip-count loops over the full arrays.
inline constexpr int kMaxClassifyClasses = 16;
inline constexpr uint64_t kClassifyNever = uint64_t{1} << 53;

struct DrawClassifyTables {
  int class_count = 0;  // in [1, kMaxClassifyClasses]
  // cdf_bounds_u53[i] = smallest u53 classified above class i; class_count - 1 used.
  uint64_t cdf_bounds_u53[kMaxClassifyClasses - 1];
  // fault_thresholds_u53[c] = faulty iff the second draw's u53 < this; class_count used.
  uint64_t fault_thresholds_u53[kMaxClassifyClasses];
};

// Classifies `count` interleaved draw pairs: for each i, with a = draws[2i] >> 11 and
// f = draws[2i + 1] >> 11,
//   class_out[i]  = number of cdf_bounds_u53 entries <= a  (the branchless CDF walk);
//   bit i of faulty_bits = (f < fault_thresholds_u53[class_out[i]]).
// faulty_bits must hold (count + 63) / 64 words; the kernel zeroes them first. Returns
// the number of set faulty bits. All u53 values and table entries are < 2^54, which is
// what lets the vector paths use signed 64-bit compares. Every level yields bit-identical
// output. `level` kAuto (or a level the host cannot run) takes BestSupportedSimdLevel().
size_t ClassifyDrawPairs(const uint64_t* draws, size_t count,
                         const DrawClassifyTables& tables, uint8_t* class_out,
                         uint64_t* faulty_bits, SimdLevel level = SimdLevel::kAuto);

}  // namespace sdc

#endif  // SDC_SRC_COMMON_SIMD_H_
