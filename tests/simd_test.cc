// Tests for the portable SIMD byte-counting kernel (src/common/simd.h) and its wiring
// into the screening clean path (docs/performance.md). The contract is exact integer
// equality: every dispatch level -- scalar, SSE2, AVX2, NEON -- produces identical
// counts on every input shape (unaligned begins, tails shorter than a vector, the
// 255-block accumulator flush boundary), and pinning the screening config or the
// SDC_SIMD environment variable to the scalar fallback must not move a bit of fleet
// output, even on adversarial fleets (all-faulty, zero-faulty, sizes that straddle
// shard boundaries).

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

// Deterministic byte column with values in [0, bucket_count).
std::vector<uint8_t> MakeColumn(size_t size, int bucket_count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(rng.NextBelow(static_cast<uint64_t>(bucket_count)));
  }
  return data;
}

std::vector<uint64_t> NaiveCounts(const uint8_t* data, size_t size, int bucket_count) {
  std::vector<uint64_t> counts(static_cast<size_t>(bucket_count), 0);
  for (size_t i = 0; i < size; ++i) {
    ++counts[data[i]];
  }
  return counts;
}

std::vector<uint64_t> KernelCounts(const uint8_t* data, size_t size, int bucket_count,
                                   SimdLevel level) {
  std::vector<uint64_t> counts(static_cast<size_t>(bucket_count), 0);
  CountBytesByValue(data, size, bucket_count, counts.data(), level);
  return counts;
}

// Every level this build can execute, scalar always included.
std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel best = BestSupportedSimdLevel();
  if (best == SimdLevel::kAVX2) {
    levels.push_back(SimdLevel::kSSE2);
  }
  if (best != SimdLevel::kScalar) {
    levels.push_back(best);
  }
  return levels;
}

TEST(SimdKernelTest, AllLevelsMatchNaiveOnAdversarialShapes) {
  // Sizes bracketing every special case: empty, sub-vector tails, exact vector
  // multiples, the 255-iteration accumulator flush for 16- and 32-byte lanes
  // (255*16 = 4080, 255*32 = 8160), and a large non-round size.
  const size_t sizes[] = {0,    1,    7,    15,   16,   17,   31,   32,  33,
                          255,  256,  4079, 4080, 4081, 8159, 8160, 8161, 100003};
  for (const int bucket_count : {1, 4, 9, 16}) {
    for (const size_t size : sizes) {
      const std::vector<uint8_t> column =
          MakeColumn(size, bucket_count, /*seed=*/size * 131 + bucket_count);
      const std::vector<uint64_t> expected =
          NaiveCounts(column.data(), size, bucket_count);
      for (const SimdLevel level : SupportedLevels()) {
        EXPECT_EQ(KernelCounts(column.data(), size, bucket_count, level), expected)
            << "size=" << size << " buckets=" << bucket_count
            << " level=" << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelTest, UnalignedBeginsCountIdentically) {
  // The screening kernel hands the vector path interior pointers (view.begin is rarely
  // a multiple of 16), so every misalignment must count like the aligned scan.
  const std::vector<uint8_t> column = MakeColumn(9000, 9, /*seed=*/42);
  for (const size_t offset : {1, 3, 7, 13, 15, 17, 31}) {
    const uint8_t* begin = column.data() + offset;
    const size_t size = column.size() - offset - 5;  // unaligned tail too
    const std::vector<uint64_t> expected = NaiveCounts(begin, size, 9);
    for (const SimdLevel level : SupportedLevels()) {
      EXPECT_EQ(KernelCounts(begin, size, 9, level), expected)
          << "offset=" << offset << " level=" << SimdLevelName(level);
    }
  }
}

TEST(SimdKernelTest, AccumulatesIntoExistingCounts) {
  // CountBytesByValue adds; the screening loop relies on that when one stats object
  // accumulates several consecutive shards.
  const std::vector<uint8_t> column = MakeColumn(1000, 4, /*seed=*/7);
  for (const SimdLevel level : SupportedLevels()) {
    std::vector<uint64_t> counts = {100, 200, 300, 400};
    CountBytesByValue(column.data(), column.size(), 4, counts.data(), level);
    const std::vector<uint64_t> fresh = NaiveCounts(column.data(), column.size(), 4);
    for (size_t v = 0; v < 4; ++v) {
      EXPECT_EQ(counts[v], fresh[v] + 100 * (v + 1)) << "bucket " << v;
    }
  }
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
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSSE2, SimdLevel::kAVX2,
                                SimdLevel::kNEON}) {
    EXPECT_EQ(ParseSimdLevel(SimdLevelName(level)), level);
  }
  EXPECT_EQ(ParseSimdLevel("auto"), SimdLevel::kAuto);
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

// ----- screening integration: dispatch level must never move a bit ------------------

class SimdScreeningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  static ScreeningStats Screen(const FleetPopulation& fleet, SimdLevel simd,
                               int threads = 2) {
    EngineContext context(PinnedEngine(threads, simd));
    return RunBatchOfOne(ScreeningPipeline(suite_), fleet, ScreeningConfig(), context);
  }

  static void ExpectIdentical(const ScreeningStats& a, const ScreeningStats& b) {
    EXPECT_EQ(a.tested, b.tested);
    EXPECT_EQ(a.faulty, b.faulty);
    EXPECT_EQ(a.detected_by_stage, b.detected_by_stage);
    EXPECT_EQ(a.tested_by_arch, b.tested_by_arch);
    EXPECT_EQ(a.detected_by_arch, b.detected_by_arch);
    ASSERT_EQ(a.detections.size(), b.detections.size());
    for (size_t i = 0; i < a.detections.size(); ++i) {
      EXPECT_EQ(a.detections[i].serial, b.detections[i].serial) << "detection " << i;
      EXPECT_EQ(a.detections[i].stage, b.detections[i].stage) << "detection " << i;
      EXPECT_EQ(std::memcmp(&a.detections[i].month, &b.detections[i].month,
                            sizeof(double)),
                0)
          << "detection " << i;
    }
  }

  static TestSuite* suite_;
};

TestSuite* SimdScreeningTest::suite_ = nullptr;

TEST_F(SimdScreeningTest, ScalarAndVectorScreenIdentically) {
  // 4097 processors: spans two screening shards with a 1-processor tail, so the vector
  // path sees both a full unaligned column and a degenerate one.
  PopulationConfig config;
  config.processor_count = 4097;
  config.seed = 99;
  const FleetPopulation fleet = GenerateFleet(config);
  const ScreeningStats scalar = Screen(fleet, SimdLevel::kScalar);
  ExpectIdentical(Screen(fleet, SimdLevel::kAuto), scalar);
  for (const SimdLevel level : SupportedLevels()) {
    SCOPED_TRACE(SimdLevelName(level));
    ExpectIdentical(Screen(fleet, level), scalar);
  }
  EXPECT_EQ(scalar.tested, 4097u);
}

TEST_F(SimdScreeningTest, AllFaultyFleetScreensIdentically) {
  // detected_rate == detectability makes prevalence 1: every serial is faulty, so the
  // clean-path scan degenerates to nothing and the faulty loop dominates. The dispatch
  // level still must not matter.
  PopulationConfig config;
  config.processor_count = 20000;
  config.seed = 7;
  config.detected_rate.fill(config.detectability);
  const FleetPopulation fleet = GenerateFleet(config);
  const ScreeningStats scalar = Screen(fleet, SimdLevel::kScalar);
  EXPECT_EQ(scalar.faulty, 20000u);
  ExpectIdentical(Screen(fleet, SimdLevel::kAuto), scalar);
  EXPECT_GT(scalar.total_detected(), 0u);
}

TEST_F(SimdScreeningTest, ZeroFaultyFleetScreensIdentically) {
  // detected_rate == 0 makes every serial clean: the whole pass is the SIMD histogram.
  PopulationConfig config;
  config.processor_count = 20001;  // odd size: unaligned tail in every column
  config.seed = 7;
  config.detected_rate.fill(0.0);
  const FleetPopulation fleet = GenerateFleet(config);
  const ScreeningStats scalar = Screen(fleet, SimdLevel::kScalar);
  EXPECT_EQ(scalar.faulty, 0u);
  EXPECT_EQ(scalar.tested, 20001u);
  EXPECT_EQ(scalar.total_detected(), 0u);
  ExpectIdentical(Screen(fleet, SimdLevel::kAuto), scalar);
}

TEST_F(SimdScreeningTest, EnvOverrideForcesScalarInPipeline) {
  // With SDC_SIMD=scalar an environment-honoring context resolves to scalar and its
  // auto-dispatched run must equal the default run -- trivially bitwise, but this pins
  // that the context actually consults the resolver.
  PopulationConfig config;
  config.processor_count = 30000;
  config.seed = 13;
  const FleetPopulation fleet = GenerateFleet(config);
  const ScreeningStats baseline = Screen(fleet, SimdLevel::kAuto);
  ASSERT_EQ(setenv("SDC_SIMD", "scalar", 1), 0);
  EngineContext forced_context(EngineOptions{.threads = 2});
  ASSERT_EQ(unsetenv("SDC_SIMD"), 0);
  EXPECT_EQ(forced_context.simd(), SimdLevel::kScalar);
  ExpectIdentical(
      RunBatchOfOne(ScreeningPipeline(suite_), fleet, ScreeningConfig(), forced_context),
      baseline);
  EXPECT_GT(baseline.total_detected(), 0u);
}

TEST_F(SimdScreeningTest, BatchedScreenIgnoresDispatchLevelBitwise) {
  // The batched engine shares one histogram pass across scenarios; its level choice must
  // be invisible in the output too.
  PopulationConfig config;
  config.processor_count = 30000;
  config.seed = 21;
  const FleetPopulation fleet = GenerateFleet(config);
  ScreeningPipeline pipeline(suite_);
  const auto run_batch = [&](SimdLevel simd) {
    ScenarioBatch batch;
    for (int k = 0; k < 3; ++k) {
      ScreeningConfig scenario;
      scenario.seed = 77 + static_cast<uint64_t>(k);
      batch.scenarios.push_back(scenario);
    }
    EngineContext context(PinnedEngine(2, simd));
    return pipeline.RunBatch(fleet, batch, context);
  };
  const std::vector<ScreeningStats> scalar = run_batch(SimdLevel::kScalar);
  const std::vector<ScreeningStats> automatic = run_batch(SimdLevel::kAuto);
  ASSERT_EQ(scalar.size(), automatic.size());
  for (size_t k = 0; k < scalar.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdentical(automatic[k], scalar[k]);
  }
}

}  // namespace
}  // namespace sdc
