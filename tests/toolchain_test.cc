// Tests for src/toolchain: the 633-case registry, the testcase kernels' self-checking
// behaviour on healthy and seeded-defect machines, and the framework driver.

#include <set>

#include <gtest/gtest.h>

#include "src/fault/catalog.h"
#include "src/toolchain/cases.h"
#include "src/toolchain/framework.h"
#include "src/toolchain/registry.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

// A machine with one hot defect on the given ops/types. The default rate saturates the
// per-op corruption probability; pass a lower `base_log10_rate` where partial activation is
// needed (a coherence defect that drops *every* invalidation leaves the consumer with a
// fully consistent stale snapshot that no checksum can flag).
FaultyMachine SeededMachine(std::vector<OpKind> ops, std::vector<DataType> types,
                            Feature feature, uint64_t seed,
                            double base_log10_rate = -2.0) {
  FaultyProcessorInfo info;
  info.cpu_id = "seeded";
  info.arch = "M2";
  info.age_years = 1.0;
  info.spec = MakeArchSpec("M2");
  Defect defect;
  defect.id = "seeded";
  defect.feature = feature;
  defect.affected_ops = std::move(ops);
  defect.affected_types = std::move(types);
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = base_log10_rate;
  defect.temp_slope = 0.0;
  defect.intensity_ref = 0.0;  // disable the stress term entirely
  defect.pattern_probability = 0.0;
  info.defects.push_back(std::move(defect));
  return FaultyMachine(info, seed);
}

TestRunConfig FastConfig() {
  TestRunConfig config;
  config.time_scale = 1e5;
  config.seed = 42;
  config.pcores_under_test = {0};
  return config;
}

// --- Registry ---

TEST(RegistryTest, FullSuiteHas633Cases) {
  TestSuite suite = TestSuite::BuildFull();
  EXPECT_EQ(suite.size(), kFullSuiteSize);
}

TEST(RegistryTest, AllIdsUnique) {
  TestSuite suite = TestSuite::BuildFull();
  std::set<std::string> ids;
  for (size_t i = 0; i < suite.size(); ++i) {
    ids.insert(suite.info(i).id);
  }
  EXPECT_EQ(ids.size(), suite.size());
}

TEST(RegistryTest, EveryFeatureTargeted) {
  TestSuite suite = TestSuite::BuildFull();
  for (Feature feature : {Feature::kAlu, Feature::kVecUnit, Feature::kFpu, Feature::kCache,
                          Feature::kTxMem}) {
    EXPECT_FALSE(suite.IndicesTargeting(feature).empty()) << FeatureName(feature);
  }
}

TEST(RegistryTest, ConsistencyCasesAreMultithreaded) {
  TestSuite suite = TestSuite::BuildFull();
  for (size_t i = 0; i < suite.size(); ++i) {
    const TestcaseInfo& info = suite.info(i);
    const bool consistency_target =
        info.target == Feature::kCache || info.target == Feature::kTxMem;
    EXPECT_EQ(info.multithreaded, consistency_target) << info.id;
  }
}

TEST(RegistryTest, AllThreeStylesPresent) {
  TestSuite suite = TestSuite::BuildFull();
  std::set<TestcaseStyle> styles;
  for (size_t i = 0; i < suite.size(); ++i) {
    styles.insert(suite.info(i).style);
  }
  EXPECT_EQ(styles.size(), 3u);
}

TEST(RegistryTest, IndexOfFindsKnownCases) {
  TestSuite suite = TestSuite::BuildFull();
  EXPECT_GE(suite.IndexOf("lib.crc32.scalar.b1024"), 0);
  EXPECT_GE(suite.IndexOf("mt.tx.invariant.r50"), 0);
  EXPECT_EQ(suite.IndexOf("no.such.case"), -1);
}

TEST(RegistryTest, SampledSuiteIsSubset) {
  TestSuite sampled = TestSuite::BuildSampled(10);
  EXPECT_NEAR(static_cast<double>(sampled.size()), 633.0 / 10.0, 1.0);
}

// --- Healthy machines never report errors ---

TEST(TestcaseTest, HealthySweepHasZeroErrors) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildSampled(7);  // ~90 cases across all families
  TestFramework framework(&suite);
  FaultyMachine machine(MakeArchSpec("M2"));
  std::vector<TestPlanEntry> plan;
  for (size_t i = 0; i < suite.size(); ++i) {
    plan.push_back({i, 0.5});
  }
  const RunReport report = framework.RunPlan(machine, plan, FastConfig(), context);
  EXPECT_EQ(report.total_errors(), 0u);
  EXPECT_FALSE(report.any_error());
}

// --- Seeded defects are detected by the matching testcases ---

TEST(TestcaseTest, ComputationDefectDetectedByMatchingCase) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine =
      SeededMachine({OpKind::kFpArctan}, {DataType::kFloat64}, Feature::kFpu, 3);
  const int matching = suite.IndexOf("lib.math.fp_arctan.f64.n256");
  const int unrelated = suite.IndexOf("lib.crc32.scalar.b1024");
  ASSERT_GE(matching, 0);
  ASSERT_GE(unrelated, 0);
  const RunReport report = framework.RunPlan(
      machine, {{static_cast<size_t>(matching), 2.0}, {static_cast<size_t>(unrelated), 2.0}},
      FastConfig(), context);
  EXPECT_GT(report.results[0].errors, 0u);
  EXPECT_EQ(report.results[1].errors, 0u);
}

TEST(TestcaseTest, RecordsCarryExpectedActualBits) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine =
      SeededMachine({OpKind::kVecFmaF32}, {DataType::kFloat32}, Feature::kVecUnit, 5);
  const int index = suite.IndexOf("vec.vec_fma_f32.f32.l8.n128");
  ASSERT_GE(index, 0);
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 1.0}}, FastConfig(), context);
  ASSERT_GT(report.records.size(), 0u);
  for (const SdcRecord& record : report.records) {
    EXPECT_EQ(record.sdc_type, SdcType::kComputation);
    EXPECT_EQ(record.type, DataType::kFloat32);
    EXPECT_NE(record.expected, record.actual);
    EXPECT_GT(record.FlipMask().Popcount(), 0);
    EXPECT_GT(record.temperature, 20.0);
  }
}

TEST(TestcaseTest, CoherenceDefectDetectedByHandoffCase) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine = SeededMachine({OpKind::kStore}, {}, Feature::kCache, 7, -5.5);
  const int index = suite.IndexOf("mt.coherence.handoff.b256.r50");
  ASSERT_GE(index, 0);
  TestRunConfig config = FastConfig();
  config.pcores_under_test = {0, 1};
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 5.0}}, config, context);
  EXPECT_GT(report.total_errors(), 0u);
  for (const SdcRecord& record : report.records) {
    EXPECT_EQ(record.sdc_type, SdcType::kConsistency);
  }
}

TEST(TestcaseTest, TxDefectDetectedByInvariantCase) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine = SeededMachine({OpKind::kTxCommit}, {}, Feature::kTxMem, 9);
  const int index = suite.IndexOf("mt.tx.invariant.r50");
  ASSERT_GE(index, 0);
  TestRunConfig config = FastConfig();
  config.pcores_under_test = {0, 1};
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 5.0}}, config, context);
  EXPECT_GT(report.total_errors(), 0u);
}

TEST(TestcaseTest, LockCounterDetectsCoherenceDefect) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine = SeededMachine({OpKind::kStore}, {}, Feature::kCache, 11);
  const int index = suite.IndexOf("mt.lock.counter.n100");
  ASSERT_GE(index, 0);
  TestRunConfig config = FastConfig();
  config.pcores_under_test = {0, 1};
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 5.0}}, config, context);
  EXPECT_GT(report.total_errors(), 0u);
}

TEST(TestcaseTest, SingleCoreDefectOnlyFiresOnItsCore) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyProcessorInfo info;
  info.cpu_id = "single";
  info.arch = "M2";
  info.age_years = 1.0;
  info.spec = MakeArchSpec("M2");
  Defect defect;
  defect.id = "single";
  defect.feature = Feature::kFpu;
  defect.affected_ops = {OpKind::kFpMul};
  defect.affected_types = {DataType::kFloat64};
  defect.affected_pcores = {5};
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = -2.0;
  defect.temp_slope = 0.0;
  defect.intensity_ref = 0.0;
  info.defects.push_back(defect);
  FaultyMachine machine(info, 13);
  const int index = suite.IndexOf("loop.fp_mul.f64.n480");
  ASSERT_GE(index, 0);
  TestRunConfig config = FastConfig();
  config.pcores_under_test.clear();  // test all cores
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 8.0}}, config, context);
  const TestcaseResult& result = report.results.front();
  EXPECT_GT(result.errors_per_pcore[5], 0u);
  for (size_t pcore = 0; pcore < result.errors_per_pcore.size(); ++pcore) {
    if (pcore != 5) {
      EXPECT_EQ(result.errors_per_pcore[pcore], 0u) << pcore;
    }
  }
}

// --- Framework behaviour ---

TEST(FrameworkTest, OpHistogramMatchesKernel) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine(MakeArchSpec("M2"));
  const int index = suite.IndexOf("lib.math.fp_arctan.f64.n256");
  ASSERT_GE(index, 0);
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 1.0}}, FastConfig(), context);
  const TestcaseResult& result = report.results.front();
  EXPECT_GT(result.op_histogram[static_cast<int>(OpKind::kFpArctan)], 0u);
  EXPECT_EQ(result.op_histogram[static_cast<int>(OpKind::kVecFmaF32)], 0u);
}

TEST(FrameworkTest, SimultaneousModeRunsHotter) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  const int index = suite.IndexOf("loop.fp_mul.f64.n480");
  ASSERT_GE(index, 0);

  FaultyMachine sequential_machine(MakeArchSpec("M2"));
  TestRunConfig sequential = FastConfig();
  sequential.pcores_under_test.clear();
  framework.RunPlan(sequential_machine, {{static_cast<size_t>(index), 30.0}}, sequential, context);
  const double sequential_temp = sequential_machine.cpu().core_temperature(0);

  FaultyMachine hot_machine(MakeArchSpec("M2"));
  TestRunConfig hot = sequential;
  hot.simultaneous_cores = true;
  hot.burn_in_seconds = 300.0;
  framework.RunPlan(hot_machine, {{static_cast<size_t>(index), 30.0}}, hot, context);
  const double hot_temp = hot_machine.cpu().core_temperature(0);

  EXPECT_GT(hot_temp, sequential_temp + 8.0);
}

TEST(FrameworkTest, PinnedTemperatureHolds) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine(MakeArchSpec("M5"));
  TestRunConfig config = FastConfig();
  config.pin_temperature_celsius = 63.0;
  const int index = suite.IndexOf("loop.fp_add.f64.n224");
  ASSERT_GE(index, 0);
  framework.RunPlan(machine, {{static_cast<size_t>(index), 5.0}}, config, context);
  EXPECT_NEAR(machine.cpu().core_temperature(0), 63.0, 1e-6);
}


TEST(FrameworkTest, RemainingHeatEnablesDetection) {
  EngineContext context(PinnedEngine(1));
  // Observation 10's test-order anecdote: a temperature-gated defect reproduces only when
  // a stressful phase ran just before, leaving the heatsink hot.
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyProcessorInfo info;
  info.cpu_id = "heat-gated";
  info.arch = "M2";
  info.age_years = 1.0;
  info.spec = MakeArchSpec("M2");
  Defect defect;
  defect.id = "heat-gated";
  defect.feature = Feature::kFpu;
  defect.affected_ops = {OpKind::kFpArctan};
  defect.affected_types = {DataType::kFloat64};
  defect.affected_pcores = {0};
  defect.min_trigger_celsius = 62.0;  // above anything single-core testing reaches
  defect.base_log10_rate = -5.0;
  defect.temp_slope = 0.0;
  defect.intensity_ref = 0.0;
  info.defects.push_back(defect);
  const int index = suite.IndexOf("lib.math.fp_arctan.f64.n256");
  ASSERT_GE(index, 0);

  // Cold: the testcase alone cannot reach 62C.
  FaultyMachine cold(info, 71);
  TestRunConfig cold_config;
  cold_config.time_scale = 1e6;
  cold_config.seed = 5;
  cold_config.pcores_under_test = {0};
  const RunReport cold_report =
      framework.RunPlan(cold, {{static_cast<size_t>(index), 30.0}}, cold_config, context);
  EXPECT_EQ(cold_report.total_errors(), 0u);

  // Preheated: a preceding all-core stress phase leaves the package hot enough.
  FaultyMachine hot(info, 71);
  TestRunConfig hot_config = cold_config;
  hot_config.burn_in_seconds = 600.0;
  const RunReport hot_report =
      framework.RunPlan(hot, {{static_cast<size_t>(index), 30.0}}, hot_config, context);
  EXPECT_GT(hot_report.total_errors(), 0u);
}

TEST(FrameworkTest, EqualPlanCoversSuite) {
  TestSuite suite = TestSuite::BuildSampled(50);
  TestFramework framework(&suite);
  const std::vector<TestPlanEntry> plan = framework.EqualPlan(60.0);
  EXPECT_EQ(plan.size(), suite.size());
  for (const TestPlanEntry& entry : plan) {
    EXPECT_DOUBLE_EQ(entry.duration_seconds, 60.0);
  }
}

TEST(FrameworkTest, RecordCapBoundsStorageNotCounting) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine =
      SeededMachine({OpKind::kFpMul}, {DataType::kFloat64}, Feature::kFpu, 21);
  TestRunConfig config = FastConfig();
  config.max_records = 10;
  const int index = suite.IndexOf("loop.fp_mul.f64.n480");
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 5.0}}, config, context);
  EXPECT_LE(report.records.size(), 10u);
  EXPECT_GT(report.total_errors(), 10u);
}

TEST(FrameworkTest, WallClockAdvancesWithPlan) {
  EngineContext context(PinnedEngine(1));
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine(MakeArchSpec("M2"));
  TestRunConfig config = FastConfig();
  const int index = suite.IndexOf("loop.int_add.i32.n96");
  const RunReport report =
      framework.RunPlan(machine, {{static_cast<size_t>(index), 10.0}}, config, context);
  // Sequential single-core plan: wall time tracks the tested duration (batch quantization
  // can overshoot).
  EXPECT_GE(report.total_wall_seconds, 10.0);
  EXPECT_LT(report.total_wall_seconds, 60.0);
}

}  // namespace
}  // namespace sdc
