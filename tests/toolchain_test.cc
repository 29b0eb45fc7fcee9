// Tests for src/toolchain: the 633-case registry, the testcase kernels' self-checking
// behaviour on healthy and seeded-defect machines, and the framework driver.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/catalog.h"
#include "src/toolchain/cases.h"
#include "src/toolchain/framework.h"
#include "src/toolchain/registry.h"
#include "tests/oracles/oracles.h"
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

// --- Instruction loops: the batched kernels against the per-element loop they replaced ---

// Golden results of the instruction-loop kernels, as the per-element loop computed them.
int64_t OracleGoldenInt(OpKind op, int64_t a, int64_t b) {
  const auto ua = static_cast<uint64_t>(a);
  const auto ub = static_cast<uint64_t>(b);
  switch (op) {
    case OpKind::kIntAdd:
      return static_cast<int64_t>(ua + ub);
    case OpKind::kIntSub:
      return static_cast<int64_t>(ua - ub);
    case OpKind::kIntMul:
      return static_cast<int64_t>(ua * ub);
    case OpKind::kIntDiv:
      return a / (b | 1);
    case OpKind::kIntShift:
      return static_cast<int64_t>(ua << (ub & 15));
    case OpKind::kLogicAnd:
      return a & b;
    case OpKind::kLogicOr:
      return a | b;
    case OpKind::kLogicXor:
      return a ^ b;
    case OpKind::kPopcount:
      return std::popcount(static_cast<uint64_t>(a));
    case OpKind::kCompare:
      return a < b ? -1 : (a > b ? 1 : 0);
    case OpKind::kHashStep:
      return static_cast<int64_t>((static_cast<uint64_t>(a) ^ static_cast<uint64_t>(b)) *
                                  0x100000001b3ull);
    case OpKind::kCrc32Step:
      return static_cast<int64_t>(
          (static_cast<uint64_t>(a) >> 8) ^ ((static_cast<uint64_t>(a ^ b) & 0xff) * 0x1db7));
    default:
      return static_cast<int64_t>(ua + ub);
  }
}

long double OracleGoldenFloat(OpKind op, long double a, long double b) {
  switch (op) {
    case OpKind::kFpAdd:
    case OpKind::kVecAddF32:
    case OpKind::kVecAddF64:
      return a + b;
    case OpKind::kFpSub:
      return a - b;
    case OpKind::kFpMul:
    case OpKind::kVecMulF32:
    case OpKind::kVecMulF64:
      return a * b;
    case OpKind::kFpDiv:
      return a / (b == 0.0L ? 1.0L : b);
    case OpKind::kFpSqrt:
      return std::sqrt(std::fabs(a));
    case OpKind::kFpFma:
    case OpKind::kVecFmaF32:
    case OpKind::kVecFmaF64:
      return a * b + (a - b);
    case OpKind::kFpArctan:
      return std::atan(a);
    case OpKind::kFpSin:
      return std::sin(a);
    case OpKind::kFpLog:
      return std::log(std::fabs(a) + 1.0L);
    case OpKind::kFpExp:
      return std::exp(a / 64.0L);
    default:
      return a + b;
  }
}

// One instruction-loop kernel batch the per-element way: a typed Processor::Execute* call
// and a typed comparison per element. `lanes` == 0 is a scalar sweep over `count`
// elements; otherwise a vector sweep of `count` vectors of `lanes` lanes.
void OracleLoopBatch(TestContext& context, const std::string& id, OpKind op, DataType type,
                     int lanes, int count) {
  Processor& cpu = context.cpu();
  const int lcore = context.lcores.front();
  Rng& rng = *context.rng;
  if (lanes == 0) {
    for (int i = 0; i < count; ++i) {
      switch (type) {
        case DataType::kInt16: {
          const auto a = static_cast<int16_t>(rng.NextInRange(-20000, 20000));
          const auto b = static_cast<int16_t>(rng.NextInRange(-20000, 20000));
          const auto golden = static_cast<int16_t>(OracleGoldenInt(op, a, b));
          const int16_t routed =
              Int16FromBits(cpu.Execute(lcore, op, DataType::kInt16, BitsOfInt16(golden)));
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfInt16(golden),
                                      BitsOfInt16(routed));
          }
          break;
        }
        case DataType::kInt32: {
          const auto a = static_cast<int32_t>(rng.NextInRange(-1000000, 1000000));
          const auto b = static_cast<int32_t>(rng.NextInRange(-1000000, 1000000));
          const auto golden = static_cast<int32_t>(OracleGoldenInt(op, a, b));
          const int32_t routed = cpu.ExecuteI32(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfInt32(golden),
                                      BitsOfInt32(routed));
          }
          break;
        }
        case DataType::kUInt32: {
          const auto a = static_cast<uint32_t>(rng.Next());
          const auto b = static_cast<uint32_t>(rng.Next());
          const auto golden = static_cast<uint32_t>(
              OracleGoldenInt(op, static_cast<int64_t>(a), static_cast<int64_t>(b)));
          const uint32_t routed = cpu.ExecuteU32(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfUInt32(golden),
                                      BitsOfUInt32(routed));
          }
          break;
        }
        case DataType::kFloat32: {
          const auto a = static_cast<float>(rng.NextDouble() * 200.0 - 100.0);
          const auto b = static_cast<float>(rng.NextDouble() * 200.0 - 100.0);
          const float golden = static_cast<float>(OracleGoldenFloat(op, a, b));
          const float routed = cpu.ExecuteF32(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfFloat(golden),
                                      BitsOfFloat(routed));
          }
          break;
        }
        case DataType::kFloat64: {
          const double a = rng.NextDouble() * 200.0 - 100.0;
          const double b = rng.NextDouble() * 200.0 - 100.0;
          const double golden = static_cast<double>(OracleGoldenFloat(op, a, b));
          const double routed = cpu.ExecuteF64(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfDouble(golden),
                                      BitsOfDouble(routed));
          }
          break;
        }
        case DataType::kFloat80: {
          const long double a = rng.NextDouble() * 200.0L - 100.0L;
          const long double b = rng.NextDouble() * 200.0L - 100.0L;
          const long double golden = OracleGoldenFloat(op, a, b);
          const long double routed = cpu.ExecuteF80(lcore, op, golden);
          if (BitsOfFloat80(routed) != BitsOfFloat80(golden)) {
            context.RecordComputation(id, lcore, type, BitsOfFloat80(golden),
                                      BitsOfFloat80(routed));
          }
          break;
        }
        default: {
          const int width = BitWidth(type);
          const uint64_t mask = width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
          const uint64_t a = rng.Next() & mask;
          const uint64_t b = rng.Next() & mask;
          const uint64_t golden =
              static_cast<uint64_t>(
                  OracleGoldenInt(op, static_cast<int64_t>(a), static_cast<int64_t>(b))) &
              mask;
          const uint64_t routed = cpu.ExecuteRaw(lcore, op, golden, type);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfRaw(golden, width),
                                      BitsOfRaw(routed, width));
          }
          break;
        }
      }
    }
    return;
  }
  for (int v = 0; v < count; ++v) {
    for (int lane = 0; lane < lanes; ++lane) {
      switch (type) {
        case DataType::kFloat32: {
          const auto a = static_cast<float>(rng.NextDouble() * 16.0 - 8.0);
          const auto b = static_cast<float>(rng.NextDouble() * 16.0 - 8.0);
          const float golden = static_cast<float>(OracleGoldenFloat(op, a, b));
          const float routed = cpu.ExecuteF32(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfFloat(golden),
                                      BitsOfFloat(routed));
          }
          break;
        }
        case DataType::kFloat64: {
          const double a = rng.NextDouble() * 16.0 - 8.0;
          const double b = rng.NextDouble() * 16.0 - 8.0;
          const double golden = static_cast<double>(OracleGoldenFloat(op, a, b));
          const double routed = cpu.ExecuteF64(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfDouble(golden),
                                      BitsOfDouble(routed));
          }
          break;
        }
        case DataType::kInt32: {
          const auto a = static_cast<int32_t>(rng.NextInRange(-30000, 30000));
          const auto b = static_cast<int32_t>(rng.NextInRange(-30000, 30000));
          const int32_t golden = op == OpKind::kVecMulI32 ? a * b : a + b;
          const int32_t routed = cpu.ExecuteI32(lcore, op, golden);
          if (routed != golden) {
            context.RecordComputation(id, lcore, type, BitsOfInt32(golden),
                                      BitsOfInt32(routed));
          }
          break;
        }
        default: {
          const uint64_t a = rng.Next() & 0xffffffffull;
          const uint64_t golden = ((a << 16) | (a >> 16)) & 0xffffffffull;
          const uint64_t routed = cpu.ExecuteRaw(lcore, op, golden, DataType::kBin32);
          if (routed != golden) {
            context.RecordComputation(id, lcore, DataType::kBin32, BitsOfRaw(golden, 32),
                                      BitsOfRaw(routed, 32));
          }
          break;
        }
      }
    }
  }
}

// Flips the sign bit (the top bit of the datatype's width) of every result.
class SignBitHook : public CorruptionHook {
 public:
  void OnExecuteBatch(const OpContext& context, std::span<Word128> values) override {
    for (Word128& value : values) {
      value.FlipBit(BitWidth(context.type) - 1);
    }
  }
  bool OnCoherenceFault(const OpContext&) override { return false; }
  bool OnTxFault(const OpContext&) override { return false; }
};

// Changes every result's image without always changing its value: f64x images become the
// non-canonical encoding of the same value (exponent up one, mantissa halved) when the
// mantissa is even and lose their lowest set fraction bit otherwise; other images gain the
// first bit past their width, which only a raw payload's low word still sees.
class ImageOnlyHook : public CorruptionHook {
 public:
  void OnExecuteBatch(const OpContext& context, std::span<Word128> values) override {
    for (Word128& value : values) {
      if (context.type != DataType::kFloat80) {
        value.FlipBit(BitWidth(context.type));
      } else if ((value.lo & 1) == 0 && value.lo != 0) {
        value.lo >>= 1;
        value.hi += 1;
      } else {
        value.lo &= value.lo - 1;
      }
    }
  }
  bool OnCoherenceFault(const OpContext&) override { return false; }
  bool OnTxFault(const OpContext&) override { return false; }
};

// A part whose one defect hits `ops` on every datatype, firing on about a third of the ops
// (at the time scale RunLoopShape sets) with both pattern and positional-noise damage.
FaultyMachine LoopDefectMachine(const std::vector<OpKind>& ops) {
  FaultyProcessorInfo info;
  info.cpu_id = "loop-defect";
  info.arch = "M2";
  info.spec = MakeArchSpec("M2");
  Defect defect;
  defect.id = "loop-defect";
  defect.feature = Feature::kFpu;
  defect.affected_ops = ops;
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = -3.5;
  defect.temp_slope = 0.0;
  defect.intensity_ref = 0.0;
  defect.pattern_probability = 0.5;
  Rng pattern_rng(4);
  for (int t = 0; t <= static_cast<int>(DataType::kBin64); ++t) {
    const auto type = static_cast<DataType>(t);
    const int flips = std::min(2, BitWidth(type));
    PatternSet set;
    set.type = type;
    set.patterns = {{MakePatternMask(type, flips, pattern_rng), 1.0}};
    defect.pattern_sets.push_back(std::move(set));
  }
  defect.SealPatternCdfs();
  info.defects.push_back(std::move(defect));
  return FaultyMachine(info, 9);
}

struct LoopShape {
  OpKind op;
  DataType type;
  int lanes;  // 0: scalar sweep
  int count;  // elements, or vectors of `lanes`
};

std::vector<LoopShape> LoopShapes() {
  std::vector<LoopShape> shapes;
  const auto add_scalar = [&](std::initializer_list<DataType> types,
                              std::initializer_list<OpKind> ops) {
    for (DataType type : types) {
      for (OpKind op : ops) {
        // One element, a partial chunk past the first, several chunks.
        for (int count : {1, 300, 992}) {
          shapes.push_back({op, type, 0, count});
        }
      }
    }
  };
  add_scalar({DataType::kInt16, DataType::kInt32, DataType::kUInt32},
             {OpKind::kIntAdd, OpKind::kIntDiv, OpKind::kIntShift});
  add_scalar({DataType::kBit, DataType::kByte, DataType::kBin16, DataType::kBin32,
              DataType::kBin64},
             {OpKind::kLogicXor, OpKind::kPopcount, OpKind::kCompare, OpKind::kCrc32Step,
              OpKind::kHashStep});
  add_scalar({DataType::kFloat32, DataType::kFloat64, DataType::kFloat80},
             {OpKind::kFpAdd, OpKind::kFpDiv, OpKind::kFpSqrt, OpKind::kFpFma,
              OpKind::kFpArctan, OpKind::kFpSin, OpKind::kFpLog, OpKind::kFpExp});
  const std::pair<OpKind, DataType> vector_combos[] = {
      {OpKind::kVecAddF32, DataType::kFloat32}, {OpKind::kVecFmaF32, DataType::kFloat32},
      {OpKind::kVecMulF64, DataType::kFloat64}, {OpKind::kVecFmaF64, DataType::kFloat64},
      {OpKind::kVecAddI32, DataType::kInt32},   {OpKind::kVecMulI32, DataType::kInt32},
      {OpKind::kVecShuffle, DataType::kBin32}};
  for (const auto& [op, type] : vector_combos) {
    for (int lanes : {4, 16}) {
      shapes.push_back({op, type, lanes, 32});
    }
  }
  return shapes;
}

// Runs two kernel batches of `shape` on a fresh machine from `make_machine`, either through
// the production testcase or through the per-element oracle, and returns what they left.
struct LoopOutcome {
  std::vector<SdcRecord> records;
  uint64_t errors = 0;
  uint64_t next_input_draw = 0;
  uint64_t ops = 0;
  double busy_seconds = 0.0;
};

template <typename MakeMachine>
LoopOutcome RunLoopShape(const LoopShape& shape, bool oracle, MakeMachine make_machine) {
  FaultyMachine machine = make_machine();
  machine.cpu().SetTimeScale(1e3);
  machine.cpu().thermal().ForceUniform(65.0);
  const std::unique_ptr<Testcase> testcase =
      shape.lanes == 0 ? MakeScalarSweepCase(shape.op, shape.type, shape.count)
                       : MakeVectorSweepCase(shape.op, shape.type, shape.lanes, shape.count);
  Rng rng(77);
  LoopOutcome outcome;
  TestContext context;
  context.machine = &machine;
  context.lcores = {2};
  context.rng = &rng;
  context.records = &outcome.records;
  context.cpu_id = "loop";
  for (int batch = 0; batch < 2; ++batch) {
    if (oracle) {
      OracleLoopBatch(context, testcase->info().id, shape.op, shape.type, shape.lanes,
                      shape.count);
    } else {
      testcase->RunBatch(context);
    }
    machine.cpu().AdvanceSeconds(1e-3);
  }
  const int pcore = machine.cpu().pcore_of(context.lcores.front());
  outcome.errors = context.errors_found;
  outcome.next_input_draw = rng.Next();
  outcome.ops = machine.cpu().op_count(pcore, shape.op);
  outcome.busy_seconds = machine.cpu().ConsumeBusySeconds(pcore);
  return outcome;
}

void ExpectSameOutcome(const LoopOutcome& batched, const LoopOutcome& oracle,
                       const std::string& label) {
  EXPECT_GT(batched.ops, 0u) << label;
  EXPECT_EQ(batched.errors, oracle.errors) << label;
  EXPECT_EQ(batched.next_input_draw, oracle.next_input_draw) << label;
  EXPECT_EQ(batched.ops, oracle.ops) << label;
  EXPECT_EQ(batched.busy_seconds, oracle.busy_seconds) << label;
  ASSERT_EQ(batched.records.size(), oracle.records.size()) << label;
  for (size_t i = 0; i < batched.records.size(); ++i) {
    const SdcRecord& a = batched.records[i];
    const SdcRecord& b = oracle.records[i];
    EXPECT_EQ(a.testcase_id, b.testcase_id) << label << " record " << i;
    EXPECT_EQ(a.lcore, b.lcore) << label << " record " << i;
    EXPECT_EQ(a.pcore, b.pcore) << label << " record " << i;
    EXPECT_EQ(a.type, b.type) << label << " record " << i;
    EXPECT_EQ(a.expected, b.expected) << label << " record " << i;
    EXPECT_EQ(a.actual, b.actual) << label << " record " << i;
    EXPECT_EQ(a.temperature, b.temperature) << label << " record " << i;
    EXPECT_EQ(a.time_seconds, b.time_seconds) << label << " record " << i;
  }
}

TEST(InstructionLoopTest, BatchedKernelsMatchPerElementLoop) {
  const std::vector<LoopShape> shapes = LoopShapes();
  std::vector<OpKind> ops;
  for (const LoopShape& shape : shapes) {
    ops.push_back(shape.op);
  }
  SignBitHook sign_bit;
  ImageOnlyHook image_only;
  const auto with_hook = [](CorruptionHook* hook) {
    return [hook] {
      FaultyMachine machine(MakeArchSpec("M2"));
      machine.cpu().SetCorruptionHook(hook);
      return machine;
    };
  };
  uint64_t defect_records = 0;
  uint64_t sign_records = 0;
  uint64_t image_records = 0;
  for (const LoopShape& shape : shapes) {
    const std::string label = OpKindName(shape.op) + "." + DataTypeName(shape.type) + " l" +
                              std::to_string(shape.lanes) + " n" + std::to_string(shape.count);
    const auto defective = [&ops] { return LoopDefectMachine(ops); };
    const LoopOutcome batched = RunLoopShape(shape, false, defective);
    ExpectSameOutcome(batched, RunLoopShape(shape, true, defective), label + " defect");
    defect_records += batched.records.size();
    for (auto [hook, tally] : {std::pair{static_cast<CorruptionHook*>(&sign_bit), &sign_records},
                               std::pair{static_cast<CorruptionHook*>(&image_only),
                                         &image_records}}) {
      const LoopOutcome hooked = RunLoopShape(shape, false, with_hook(hook));
      ExpectSameOutcome(hooked, RunLoopShape(shape, true, with_hook(hook)), label);
      *tally += hooked.records.size();
    }
  }
  EXPECT_GT(defect_records, 10000u);
  EXPECT_GT(sign_records, 10000u);
  // Raw payloads narrower than 64 bits and f64x results that lost a fraction bit record;
  // the other image-only changes keep the value.
  EXPECT_GT(image_records, 1000u);
  EXPECT_LT(image_records, sign_records);
}

// Every loop shape on a part whose defect hits every other shape's op but not this one's:
// the kernel takes the clean path (skip the input draws, count the ops) and must leave
// what the per-element oracle leaves when every op runs through the full path.
TEST(InstructionLoopTest, CleanKernelsMatchFullPathPerElementLoop) {
  const std::vector<LoopShape> shapes = LoopShapes();
  for (const LoopShape& shape : shapes) {
    const std::string label = OpKindName(shape.op) + "." + DataTypeName(shape.type) + " l" +
                              std::to_string(shape.lanes) + " n" + std::to_string(shape.count);
    std::vector<OpKind> others;
    for (const LoopShape& other : shapes) {
      if (other.op != shape.op) {
        others.push_back(other.op);
      }
    }
    const auto clean = [&others] { return LoopDefectMachine(others); };
    ASSERT_FALSE(clean().cpu().MayCorrupt(shape.op)) << label;
    std::unique_ptr<FullPathHook> full_path;
    const auto full = [&] {
      FaultyMachine machine = LoopDefectMachine(others);
      full_path = std::make_unique<FullPathHook>(machine.injector());
      machine.cpu().SetCorruptionHook(full_path.get());
      return machine;
    };
    const LoopOutcome batched = RunLoopShape(shape, false, clean);
    ExpectSameOutcome(batched, RunLoopShape(shape, true, full), label + " clean");
    EXPECT_TRUE(batched.records.empty()) << label;
    EXPECT_EQ(batched.errors, 0u) << label;
  }
}

// Bit image of a double: clock and temperature comparisons below are bitwise.
uint64_t DoubleBits(double value) { return std::bit_cast<uint64_t>(value); }

// Two plan reports agree entry by entry and record by record, floating point bitwise.
void ExpectSameReport(const RunReport& a, const RunReport& b, const std::string& label) {
  ASSERT_EQ(a.results.size(), b.results.size()) << label;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const TestcaseResult& x = a.results[i];
    const TestcaseResult& y = b.results[i];
    EXPECT_EQ(x.testcase_id, y.testcase_id) << label;
    EXPECT_EQ(x.duration_seconds, y.duration_seconds) << label << " " << x.testcase_id;
    EXPECT_EQ(x.errors, y.errors) << label << " " << x.testcase_id;
    EXPECT_EQ(x.errors_per_pcore, y.errors_per_pcore) << label << " " << x.testcase_id;
    EXPECT_EQ(x.op_histogram, y.op_histogram) << label << " " << x.testcase_id;
  }
  EXPECT_EQ(DoubleBits(a.total_wall_seconds), DoubleBits(b.total_wall_seconds)) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    const SdcRecord& x = a.records[i];
    const SdcRecord& y = b.records[i];
    EXPECT_EQ(x.testcase_id, y.testcase_id) << label << " record " << i;
    EXPECT_EQ(x.cpu_id, y.cpu_id) << label << " record " << i;
    EXPECT_EQ(x.pcore, y.pcore) << label << " record " << i;
    EXPECT_EQ(x.lcore, y.lcore) << label << " record " << i;
    EXPECT_EQ(x.sdc_type, y.sdc_type) << label << " record " << i;
    EXPECT_EQ(x.type, y.type) << label << " record " << i;
    EXPECT_EQ(x.expected, y.expected) << label << " record " << i;
    EXPECT_EQ(x.actual, y.actual) << label << " record " << i;
    EXPECT_EQ(DoubleBits(x.temperature), DoubleBits(y.temperature))
        << label << " record " << i;
    EXPECT_EQ(DoubleBits(x.time_seconds), DoubleBits(y.time_seconds))
        << label << " record " << i;
  }
}

// One RunPlan over every loop.* / vec.* case of the suite on a part whose defect hits
// every other loop op: the injector alone (clean ops skipped) and the same injector behind
// FullPathHook (every op computed and routed) must produce the same report.
TEST(InstructionLoopTest, SuiteLoopPlanMatchesFullPath) {
  const TestSuite suite = TestSuite::BuildFull();
  std::vector<TestPlanEntry> plan;
  std::vector<OpKind> loop_ops;
  for (size_t i = 0; i < suite.size(); ++i) {
    const TestcaseInfo& info = suite.info(i);
    if (info.id.starts_with("loop.") || info.id.starts_with("vec.")) {
      plan.push_back({i, 1.0});
      if (std::find(loop_ops.begin(), loop_ops.end(), info.ops.front()) == loop_ops.end()) {
        loop_ops.push_back(info.ops.front());
      }
    }
  }
  ASSERT_GT(plan.size(), 400u);
  std::vector<OpKind> hit;
  for (size_t k = 0; k < loop_ops.size(); k += 2) {
    hit.push_back(loop_ops[k]);
  }
  FaultyProcessorInfo info = LoopDefectMachine(hit).info();
  info.defects.front().base_log10_rate = -8.0;  // ~1e-3 of represented ops at 1e5
  FaultyMachine direct(info, 9);
  FaultyMachine routed(info, 9);
  FullPathHook full_path(routed.injector());
  routed.cpu().SetCorruptionHook(&full_path);

  TestRunConfig config = FastConfig();
  config.pcores_under_test = {0, 1};
  EngineContext context(PinnedEngine(1));
  TestFramework framework(&suite);
  const RunReport a = framework.RunPlan(direct, plan, config, context);
  const RunReport b = framework.RunPlan(routed, plan, config, context);

  ExpectSameReport(a, b, "loop plan");
  size_t clean_entries = 0;
  size_t failed_entries = 0;
  for (size_t i = 0; i < a.results.size(); ++i) {
    clean_entries += direct.cpu().MayCorrupt(suite.info(plan[i].testcase_index).ops.front())
                         ? 0
                         : 1;
    failed_entries += a.results[i].failed() ? 1 : 0;
  }
  EXPECT_GT(clean_entries, 100u);
  EXPECT_GT(failed_entries, 20u);
  EXPECT_EQ(direct.injector()->total_activations(), routed.injector()->total_activations());
}

// A context on lcore 0 of `machine` that stores every record.
TestContext RecordingContext(FaultyMachine& machine, std::vector<SdcRecord>& records) {
  TestContext context;
  context.machine = &machine;
  context.lcores = {0};
  context.records = &records;
  return context;
}

// The typed comparisons on values a loop cannot produce: a sign-bit-only change of a
// +-0 golden keeps the f32/f64 value, so it is no SDC; NaN never equals itself.
TEST(InstructionLoopTest, SignOnlyChangeOfZeroIsNoMismatch) {
  SignBitHook hook;
  for (DataType type : {DataType::kFloat32, DataType::kFloat64}) {
    const bool f32 = type == DataType::kFloat32;
    const auto image = [f32](double value) {
      return f32 ? BitsOfFloat(static_cast<float>(value)) : BitsOfDouble(value);
    };
    const std::vector<Word128> golden = {image(0.0), image(-0.0), image(1.5),
                                         image(std::nan(""))};
    FaultyMachine batched_machine(MakeArchSpec("M2"));
    FaultyMachine oracle_machine(MakeArchSpec("M2"));
    batched_machine.cpu().SetCorruptionHook(&hook);
    oracle_machine.cpu().SetCorruptionHook(&hook);
    std::vector<SdcRecord> batched_records;
    std::vector<SdcRecord> oracle_records;
    TestContext batched = RecordingContext(batched_machine, batched_records);
    TestContext oracle = RecordingContext(oracle_machine, oracle_records);

    std::vector<Word128> routed = golden;
    batched_machine.cpu().ExecuteBatch(0, OpKind::kFpMul, type, routed);
    RecordLoopMismatches(batched, "zero", 0, type, golden, routed);
    for (const Word128& bits : golden) {
      if (f32) {
        const float value = FloatFromBits(bits);
        const float result = oracle_machine.cpu().ExecuteF32(0, OpKind::kFpMul, value);
        if (result != value) {
          oracle.RecordComputation("zero", 0, type, BitsOfFloat(value), BitsOfFloat(result));
        }
      } else {
        const double value = DoubleFromBits(bits);
        const double result = oracle_machine.cpu().ExecuteF64(0, OpKind::kFpMul, value);
        if (result != value) {
          oracle.RecordComputation("zero", 0, type, BitsOfDouble(value),
                                   BitsOfDouble(result));
        }
      }
    }
    ASSERT_EQ(batched_records.size(), 2u) << DataTypeName(type);  // 1.5 and NaN only
    ASSERT_EQ(oracle_records.size(), 2u) << DataTypeName(type);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(batched_records[i].expected, golden[i + 2]);
      EXPECT_EQ(batched_records[i].expected, oracle_records[i].expected);
      EXPECT_EQ(batched_records[i].actual, oracle_records[i].actual);
    }
  }
}

// An f64x corruption that only re-encodes the golden value is no SDC; one that changes it
// is recorded with the canonical image.
TEST(InstructionLoopTest, F64xReencodingOfGoldenIsNoMismatch) {
  FaultyMachine machine(MakeArchSpec("M2"));
  std::vector<SdcRecord> records;
  TestContext context = RecordingContext(machine, records);
  const Word128 golden = BitsOfFloat80(3.0L);  // mantissa 0xc000..., even
  const Word128 reencoded{golden.lo >> 1, golden.hi + 1};
  ASSERT_NE(reencoded, golden);
  ASSERT_EQ(Float80FromBits(reencoded), 3.0L);
  Word128 changed = golden;
  changed.FlipBit(40);
  const std::vector<Word128> goldens = {golden, golden};
  const std::vector<Word128> routed = {reencoded, changed};
  RecordLoopMismatches(context, "f64x", 0, DataType::kFloat80, goldens, routed);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(context.errors_found, 1u);
  EXPECT_EQ(records[0].expected, golden);
  EXPECT_EQ(records[0].actual, BitsOfFloat80(Float80FromBits(changed)));
}

// --- Clean plan entries ---

// The op contract of TestcaseInfo (src/toolchain/testcase.h), for every suite testcase on a
// defect-free part under three input seeds: a batch executes only the kinds its info
// declares, on the context's cores, and records nothing. A testcase that does not declare
// ops_depend_on_inputs executes the same count of every kind in every batch under every
// seed; one that declares it does vary, so the flag cannot go stale. TestFramework::RunEntry
// replays a clean entry's first batch on the strength of this contract.
TEST(ToolchainContractTest, EveryTestcaseKeepsItsOpContract) {
  const TestSuite suite = TestSuite::BuildFull();
  using Profile = std::array<uint64_t, kOpKindCount>;
  constexpr int kBatches = 3;
  size_t flagged = 0;
  for (size_t index = 0; index < suite.size(); ++index) {
    Testcase& testcase = suite.at(index);
    const TestcaseInfo& info = testcase.info();
    if (!info.multithreaded) {
      // The coherence bus and transactional memory consult the hook whatever its
      // corruptible-op mask says, so only a consistency test may use them.
      for (OpKind op : info.ops) {
        EXPECT_LT(static_cast<int>(op), static_cast<int>(OpKind::kLoad)) << info.id;
      }
    }
    std::set<Profile> profiles;
    for (uint64_t seed : {1, 2, 3}) {
      FaultyMachine machine(MakeArchSpec("M2"));
      Processor& cpu = machine.cpu();
      Rng rng(seed);
      std::vector<SdcRecord> records;
      TestContext context;
      context.machine = &machine;
      context.lcores = info.multithreaded ? std::vector<int>{2, 6} : std::vector<int>{2};
      context.rng = &rng;
      context.records = &records;
      context.cpu_id = "contract";
      const auto count_ops = [&] {
        Profile total{};
        Profile on_context_cores{};
        for (int kind = 0; kind < kOpKindCount; ++kind) {
          const auto op = static_cast<OpKind>(kind);
          total[kind] = cpu.total_op_count(op);
          for (int lcore : context.lcores) {
            on_context_cores[kind] += cpu.op_count(cpu.pcore_of(lcore), op);
          }
        }
        return std::pair{total, on_context_cores};
      };
      for (int batch = 0; batch < kBatches; ++batch) {
        const auto [total_before, on_cores_before] = count_ops();
        testcase.RunBatch(context);
        const auto [total_after, on_cores_after] = count_ops();
        Profile profile{};
        for (int kind = 0; kind < kOpKindCount; ++kind) {
          profile[kind] = total_after[kind] - total_before[kind];
          const std::string kind_name = OpKindName(static_cast<OpKind>(kind));
          EXPECT_EQ(profile[kind], on_cores_after[kind] - on_cores_before[kind])
              << info.id << " ran " << kind_name << " off its cores";
          // Consistency tests pad their rounds with private-cell loads (PadRound) that the
          // transactional ones do not declare: the fleet model matches those by their tx
          // kinds. A consistency test never replays.
          const bool padding = info.multithreaded && kind == static_cast<int>(OpKind::kLoad);
          if (profile[kind] != 0 && !padding) {
            EXPECT_NE(std::find(info.ops.begin(), info.ops.end(), static_cast<OpKind>(kind)),
                      info.ops.end())
                << info.id << " ran undeclared " << kind_name;
          }
        }
        profiles.insert(profile);
      }
      EXPECT_EQ(context.errors_found, 0u) << info.id << " seed " << seed;
      EXPECT_TRUE(records.empty()) << info.id << " seed " << seed;
    }
    if (info.ops_depend_on_inputs) {
      ++flagged;
      EXPECT_GT(profiles.size(), 1u)
          << info.id << " declares ops_depend_on_inputs but ran one profile";
    } else {
      EXPECT_EQ(profiles.size(), 1u)
          << info.id << " ran input-dependent op counts: declare ops_depend_on_inputs";
    }
  }
  EXPECT_EQ(flagged, 10u);
}

// RunPlan over the whole suite on a part whose defect hits every third computation kind.
// The injector alone replays each clean entry after its first batch; the same injector
// behind FullPathHook makes every kind corruptible, so every batch of every entry runs its
// kernel. Both must leave the same report, clock and core temperatures in every run mode,
// including a core that carries busy time into the plan.
TEST(ToolchainContractTest, SuitePlanReplayMatchesFullPath) {
  const TestSuite suite = TestSuite::BuildFull();
  const TestFramework framework(&suite);
  std::vector<TestPlanEntry> plan = framework.EqualPlan(1.0);
  std::vector<OpKind> hit;
  for (int kind = 0; kind <= static_cast<int>(OpKind::kVecGf256); kind += 3) {
    hit.push_back(static_cast<OpKind>(kind));
  }
  FaultyProcessorInfo info = LoopDefectMachine(hit).info();
  info.defects.front().base_log10_rate = -8.0;

  FaultyMachine probe(info, 9);
  const auto is_clean = [&](const TestPlanEntry& entry) {
    const TestcaseInfo& case_info = suite.info(entry.testcase_index);
    return !case_info.multithreaded && !case_info.ops_depend_on_inputs &&
           std::none_of(case_info.ops.begin(), case_info.ops.end(),
                        [&](OpKind op) { return probe.cpu().MayCorrupt(op); });
  };
  size_t flagged_entries = 0;
  for (const TestPlanEntry& entry : plan) {
    flagged_entries += suite.info(entry.testcase_index).ops_depend_on_inputs ? 1 : 0;
  }
  EXPECT_GT(std::count_if(plan.begin(), plan.end(), is_clean), 300);
  EXPECT_EQ(flagged_entries, 10u);
  // Start the plan with a clean entry, so the busy time the cores carry in below meets a
  // replayed core slot.
  std::rotate(plan.begin(), std::find_if(plan.begin(), plan.end(), is_clean), plan.end());

  TestRunConfig sequential = FastConfig();
  sequential.pcores_under_test = {0, 1};
  TestRunConfig simultaneous = sequential;
  simultaneous.simultaneous_cores = true;
  simultaneous.burn_in_seconds = 30.0;
  TestRunConfig pinned = sequential;
  pinned.pin_temperature_celsius = 75.0;
  TestRunConfig parallel = sequential;
  parallel.parallel_plan_entries = true;
  const struct {
    const char* name;
    const TestRunConfig& config;
    int lanes;
  } modes[] = {{"sequential", sequential, 1},
               {"simultaneous+burn-in", simultaneous, 1},
               {"pinned", pinned, 1},
               {"parallel/1", parallel, 1},
               {"parallel/4", parallel, 4}};
  for (const auto& mode : modes) {
    FaultyMachine direct(info, 9);
    FaultyMachine routed(info, 9);
    FullPathHook full_path(routed.injector());
    routed.cpu().SetCorruptionHook(&full_path);
    for (FaultyMachine* machine : {&direct, &routed}) {
      machine->cpu().CountCleanOps(0, OpKind::kIntSub, 5000);  // busy time pcores 0 and 1
      machine->cpu().CountCleanOps(2, OpKind::kIntSub, 7000);  // carry into the plan
    }
    EngineContext context(PinnedEngine(mode.lanes));
    const RunReport a = framework.RunPlan(direct, plan, mode.config, context);
    const RunReport b = framework.RunPlan(routed, plan, mode.config, context);
    ExpectSameReport(a, b, mode.name);
    EXPECT_GT(a.total_errors(), 0u) << mode.name;
    EXPECT_EQ(DoubleBits(direct.cpu().now_seconds()), DoubleBits(routed.cpu().now_seconds()))
        << mode.name;
    for (int pcore = 0; pcore < direct.cpu().spec().physical_cores; ++pcore) {
      EXPECT_EQ(DoubleBits(direct.cpu().core_temperature(pcore)),
                DoubleBits(routed.cpu().core_temperature(pcore)))
          << mode.name << " pcore " << pcore;
    }
    EXPECT_EQ(direct.injector()->total_activations(), routed.injector()->total_activations())
        << mode.name;
  }
}

// Every mt.* testcase on three parts: computation defects only (one on kLoad, which the
// bus never routes), a kStore coherence defect, and a kTxCommit tx defect. The injector
// alone runs a plain memory bus and hook-free commits wherever its mask lacks kStore /
// kTxCommit; behind FullPathHook every kind is corruptible, so the bus keeps cached
// copies and every conflicting commit asks the hook. Both must leave the same report, op
// histograms, activations and shared memory.
TEST(ToolchainContractTest, ConsistencyCasesMatchFullPath) {
  const TestSuite suite = TestSuite::BuildFull();
  const TestFramework framework(&suite);
  std::vector<TestPlanEntry> plan;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite.info(i).id.starts_with("mt.")) {
      plan.push_back({i, 1.0});
    }
  }
  ASSERT_GE(plan.size(), 8u);
  const struct {
    const char* name;
    FaultyMachine machine;
    bool store_corruptible;
    bool commit_corruptible;
  } parts[] = {
      {"computation", LoopDefectMachine({OpKind::kLoad, OpKind::kIntAdd}), false, false},
      {"coherence", SeededMachine({OpKind::kStore}, {}, Feature::kCache, 7, -5.5), true,
       false},
      {"tx", SeededMachine({OpKind::kTxCommit}, {}, Feature::kTxMem, 9), false, true},
  };
  TestRunConfig sequential = FastConfig();
  sequential.pcores_under_test = {0, 1, 2};
  TestRunConfig simultaneous = sequential;
  simultaneous.simultaneous_cores = true;
  simultaneous.burn_in_seconds = 30.0;
  for (const auto& part : parts) {
    for (const TestRunConfig* config : {&sequential, &simultaneous}) {
      const std::string label = std::string(part.name) +
                                (config->simultaneous_cores ? " simultaneous" : " sequential");
      FaultyMachine direct = part.machine.CloneFresh();
      FaultyMachine routed = part.machine.CloneFresh();
      ASSERT_NE(direct.injector(), nullptr) << label;
      FullPathHook full_path(routed.injector());
      routed.cpu().SetCorruptionHook(&full_path);
      ASSERT_EQ(direct.cpu().MayCorrupt(OpKind::kStore), part.store_corruptible) << label;
      ASSERT_EQ(direct.cpu().MayCorrupt(OpKind::kTxCommit), part.commit_corruptible) << label;
      EngineContext context(PinnedEngine(1));
      const RunReport a = framework.RunPlan(direct, plan, *config, context);
      const RunReport b = framework.RunPlan(routed, plan, *config, context);
      ExpectSameReport(a, b, label);
      if (part.store_corruptible || part.commit_corruptible) {
        EXPECT_GT(a.total_errors(), 0u) << label;
      }
      EXPECT_EQ(DoubleBits(direct.cpu().now_seconds()), DoubleBits(routed.cpu().now_seconds()))
          << label;
      const DefectInjector& x = *direct.injector();
      const DefectInjector& y = *routed.injector();
      EXPECT_EQ(x.total_activations(), y.total_activations()) << label;
      for (size_t d = 0; d < x.defects().size(); ++d) {
        EXPECT_EQ(x.activations(d), y.activations(d)) << label << " defect " << d;
      }
      EXPECT_EQ(direct.txmem().isolation_violations(), routed.txmem().isolation_violations())
          << label;
      size_t differing_cells = 0;
      for (size_t cell = 0; cell < FaultyMachine::kSharedCells; ++cell) {
        differing_cells += direct.bus().BackingValue(cell) != routed.bus().BackingValue(cell);
        differing_cells += direct.txmem().DirectRead(cell) != routed.txmem().DirectRead(cell);
      }
      EXPECT_EQ(differing_cells, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace sdc
