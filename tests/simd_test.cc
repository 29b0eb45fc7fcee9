// Tests for the portable SIMD kernel of the blocked fleet generator (src/common/simd.h,
// docs/performance.md) and its dispatch. The contract is exact equality: every dispatch
// level -- scalar, AVX2, NEON -- classifies every draw pair identically on every input
// shape (vector strides, faulty-bit word boundaries, draws exactly on a bound), and the
// SDC_SIMD environment variable is read once, when an EngineContext is built.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/fleet/population.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

// Every level this build can execute, scalar always included.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel best = BestSupportedSimdLevel();
  if (best != SimdLevel::kScalar) {
    levels.push_back(best);
  }
  return levels;
}

// Reference implementation of ClassifyDrawPairs' contract, written independently of the
// kernel's branchless form.
size_t NaiveClassify(const uint64_t* draws, size_t count, const DrawClassifyTables& tables,
                     uint8_t* class_out, uint64_t* faulty_bits) {
  std::memset(faulty_bits, 0, ((count + 63) / 64) * sizeof(uint64_t));
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t a = draws[2 * i] >> 11;
    int cls = 0;
    while (cls < tables.class_count - 1 && tables.cdf_bounds_u53[cls] <= a) {
      ++cls;
    }
    class_out[i] = static_cast<uint8_t>(cls);
    if ((draws[2 * i + 1] >> 11) < tables.fault_thresholds_u53[cls]) {
      faulty_bits[i / 64] |= uint64_t{1} << (i % 64);
      ++hits;
    }
  }
  return hits;
}

DrawClassifyTables MakeTables(int class_count, std::span<const uint64_t> bounds,
                              std::span<const uint64_t> thresholds) {
  DrawClassifyTables tables;
  tables.class_count = class_count;
  for (int i = 0; i < kMaxClassifyClasses - 1; ++i) {
    tables.cdf_bounds_u53[i] =
        i < static_cast<int>(bounds.size()) ? bounds[static_cast<size_t>(i)] : kClassifyNever;
  }
  for (int i = 0; i < kMaxClassifyClasses; ++i) {
    tables.fault_thresholds_u53[i] =
        i < static_cast<int>(thresholds.size()) ? thresholds[static_cast<size_t>(i)] : 0;
  }
  return tables;
}

TEST(SimdClassifyTest, AllLevelsMatchNaiveOnAdversarialShapes) {
  // Counts bracketing the vector strides (4 pairs per AVX2 iteration, 2 per NEON) and
  // the 64-pair faulty_bits word boundary.
  const size_t counts[] = {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 129, 511, 4099};
  const uint64_t b = uint64_t{1} << 50;
  const std::vector<uint64_t> bounds = {b, 2 * b, 3 * b, 5 * b, 5 * b,  // duplicate: empty class
                                        6 * b, 7 * b, 7 * b + 1};
  // Mix of never (0), always (kClassifyNever covers all u53), and interior thresholds.
  const std::vector<uint64_t> thresholds = {0, uint64_t{1} << 40, kClassifyNever,
                                            1, b, 0, uint64_t{1} << 52, 3, b / 3};
  const DrawClassifyTables tables = MakeTables(9, bounds, thresholds);
  for (const size_t count : counts) {
    Rng rng(count * 977 + 5);
    std::vector<uint64_t> draws(2 * count);
    rng.FillBlock(std::span<uint64_t>(draws));
    std::vector<uint8_t> expected_class(count + 1, 0xee);
    std::vector<uint64_t> expected_bits((count + 63) / 64 + 1, 0xeeee);
    const size_t expected_hits = NaiveClassify(draws.data(), count, tables,
                                               expected_class.data(), expected_bits.data());
    for (const SimdLevel level : SupportedLevels()) {
      std::vector<uint8_t> actual_class(count + 1, 0xee);
      std::vector<uint64_t> actual_bits((count + 63) / 64 + 1, 0xeeee);
      actual_bits.back() = expected_bits.back();  // kernel only touches (count+63)/64 words
      const size_t hits = ClassifyDrawPairs(draws.data(), count, tables,
                                            actual_class.data(), actual_bits.data(), level);
      EXPECT_EQ(hits, expected_hits)
          << "count=" << count << " level=" << SimdLevelName(level);
      EXPECT_EQ(actual_class, expected_class)
          << "count=" << count << " level=" << SimdLevelName(level);
      EXPECT_EQ(actual_bits, expected_bits)
          << "count=" << count << " level=" << SimdLevelName(level);
    }
  }
}

TEST(SimdClassifyTest, BoundaryDrawsClassifyExactly) {
  // Draws landing exactly on a bound or threshold are the cases a sampled test misses:
  // bound - 1 stays below, bound crosses; threshold - 1 is faulty, threshold is not.
  const uint64_t bound = 0x123456789abcdull;
  const uint64_t threshold = 0x000fedcba9876ull;
  const DrawClassifyTables tables =
      MakeTables(2, std::vector<uint64_t>{bound},
                 std::vector<uint64_t>{threshold, threshold});
  const uint64_t pairs[][2] = {
      {(bound - 1) << 11, (threshold - 1) << 11},  // class 0, faulty
      {bound << 11, threshold << 11},              // class 1, clean
      {0, 0},                                      // class 0, faulty iff threshold > 0
      {((uint64_t{1} << 53) - 1) << 11, ((uint64_t{1} << 53) - 1) << 11},  // max u53
  };
  for (const SimdLevel level : SupportedLevels()) {
    for (const auto& pair : pairs) {
      // Replicate one pair across a full vector stride so the vector lanes (not the
      // scalar tail) classify it.
      uint64_t draws[8];
      for (int i = 0; i < 4; ++i) {
        draws[2 * i] = pair[0];
        draws[2 * i + 1] = pair[1];
      }
      uint8_t expected_class[5];
      uint64_t expected_bits[2];
      const size_t expected_hits =
          NaiveClassify(draws, 4, tables, expected_class, expected_bits);
      uint8_t actual_class[5];
      uint64_t actual_bits[2];
      const size_t hits =
          ClassifyDrawPairs(draws, 4, tables, actual_class, actual_bits, level);
      EXPECT_EQ(hits, expected_hits) << SimdLevelName(level);
      EXPECT_EQ(std::memcmp(actual_class, expected_class, 4), 0) << SimdLevelName(level);
      EXPECT_EQ(actual_bits[0], expected_bits[0]) << SimdLevelName(level);
    }
  }
}

TEST(SimdClassifyTest, SingleClassAndExtremes) {
  // class_count = 1 (no bounds consulted) with always/never thresholds.
  for (const uint64_t threshold : {uint64_t{0}, kClassifyNever}) {
    const DrawClassifyTables tables =
        MakeTables(1, {}, std::vector<uint64_t>{threshold});
    Rng rng(61);
    std::vector<uint64_t> draws(2 * 100);
    rng.FillBlock(std::span<uint64_t>(draws));
    for (const SimdLevel level : SupportedLevels()) {
      std::vector<uint8_t> classes(100);
      std::vector<uint64_t> bits(2);
      const size_t hits =
          ClassifyDrawPairs(draws.data(), 100, tables, classes.data(), bits.data(), level);
      EXPECT_EQ(hits, threshold == 0 ? 0u : 100u) << SimdLevelName(level);
      for (uint8_t cls : classes) {
        ASSERT_EQ(cls, 0);
      }
    }
  }
}

TEST(SimdLevelTest, NamesRoundTrip) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAVX2, SimdLevel::kNEON}) {
    EXPECT_EQ(ParseSimdLevel(SimdLevelName(level)), level);
  }
  EXPECT_EQ(ParseSimdLevel("auto"), SimdLevel::kAuto);
  EXPECT_EQ(ParseSimdLevel("sse2"), SimdLevel::kAuto);  // no such level: unrecognized
  EXPECT_EQ(ParseSimdLevel("bogus"), SimdLevel::kAuto);
  EXPECT_EQ(ParseSimdLevel(""), SimdLevel::kAuto);
}

TEST(SimdLevelTest, ResolveClampsToSupported) {
  // kAuto resolves to the best supported level; an explicit request the host cannot run
  // clamps down instead of dispatching an illegal instruction. ResolveSimdLevel honors
  // SDC_SIMD, so the body runs with it unset and the caller's value is restored after.
  const char* inherited = std::getenv("SDC_SIMD");
  const bool had_value = inherited != nullptr;
  const std::string saved = had_value ? inherited : "";
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
  const SimdLevel best = BestSupportedSimdLevel();
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), best);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kNEON) == SimdLevel::kNEON ||
                ResolveSimdLevel(SimdLevel::kNEON) == best,
            true);
  if (had_value) {
    ASSERT_EQ(setenv("SDC_SIMD", saved.c_str(), /*overwrite=*/1), 0);
  }
}

TEST(SimdLevelTest, EnvironmentVariableForcesLevel) {
  // SDC_SIMD wins over the config request: the CI scalar leg and ad-hoc triage both
  // rely on flipping the dispatch without a rebuild.
  ASSERT_EQ(setenv("SDC_SIMD", "scalar", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kAuto), SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(BestSupportedSimdLevel()), SimdLevel::kScalar);
  ASSERT_EQ(setenv("SDC_SIMD", "auto", 1), 0);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), BestSupportedSimdLevel());
  // Unrecognized values leave the request untouched rather than silently changing it.
  ASSERT_EQ(setenv("SDC_SIMD", "bogus", 1), 0);
  EXPECT_EQ(ResolveSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
}

TEST(SimdLevelTest, ContextReadsEnvironmentOnceAtConstruction) {
  // An environment-honoring context resolves SDC_SIMD when it is built and keeps that
  // level after the variable changes; a context that ignores the environment keeps its
  // requested level. GenerationPlan reads the level from the context alone.
  ASSERT_EQ(setenv("SDC_SIMD", "scalar", 1), 0);
  EngineContext forced(EngineOptions{.threads = 1});
  EngineContext pinned(PinnedEngine(1, SimdLevel::kAuto));
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
  EXPECT_EQ(forced.simd(), SimdLevel::kScalar);
  EXPECT_EQ(pinned.simd(), BestSupportedSimdLevel());
  EXPECT_EQ(GenerationPlan::Build(PopulationConfig(), forced).simd, SimdLevel::kScalar);
}

}  // namespace
}  // namespace sdc
