// Parameterized property sweeps:
//  * every catalog processor is detectable by its matching testcases, with the right SDC
//    type and (for single-core computation parts) the right core attribution;
//  * every micro-architecture's simulated package behaves thermally;
//  * the damage model respects width/type invariants for every datatype;
//  * every catalog defect's activation law is monotone in temperature and capped.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/fault/catalog.h"
#include "src/fleet/pipeline.h"
#include "src/toolchain/framework.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

TestSuite* g_suite = nullptr;

class GlobalSuite : public ::testing::Environment {
 public:
  void SetUp() override { g_suite = new TestSuite(TestSuite::BuildFull()); }
  void TearDown() override {
    delete g_suite;
    g_suite = nullptr;
  }
};

const ::testing::Environment* const kSuiteEnvironment =
    ::testing::AddGlobalTestEnvironment(new GlobalSuite());

// --- Every catalog processor is caught by its matching testcases ---

class CatalogProcessorTest : public ::testing::TestWithParam<int> {};

TEST_P(CatalogProcessorTest, DetectableWithCorrectTypeAndAttribution) {
  EngineContext context(PinnedEngine(1));
  const auto catalog = StudyCatalog();
  const FaultyProcessorInfo& info = catalog[static_cast<size_t>(GetParam())];
  ScreeningPipeline pipeline(g_suite);
  // Plan: only the testcases this part's defects can touch, tested hot.
  std::set<size_t> indices;
  for (const Defect& defect : info.defects) {
    for (size_t i = 0; i < g_suite->size(); ++i) {
      const TestcaseInfo& testcase = g_suite->info(i);
      bool op_match = false;
      for (OpKind op : testcase.ops) {
        op_match |= defect.AffectsOp(op);
      }
      if (!op_match) {
        continue;
      }
      if (defect.type() == SdcType::kComputation) {
        bool type_match = false;
        for (DataType type : testcase.types) {
          type_match |= defect.AffectsType(type);
        }
        if (!type_match) {
          continue;
        }
      }
      indices.insert(i);
    }
  }
  ASSERT_FALSE(indices.empty()) << info.cpu_id;

  FaultyMachine machine(info, 1000 + GetParam());
  TestFramework framework(g_suite);
  TestRunConfig config;
  config.time_scale = 2e7;
  config.simultaneous_cores = true;
  config.burn_in_seconds = 300.0;
  config.seed = 7;
  std::vector<TestPlanEntry> plan;
  for (size_t index : indices) {
    plan.push_back({index, 60.0});
  }
  const RunReport report = framework.RunPlan(machine, plan, config, context);
  // Ultra-tricky parts (trigger temperatures at/above what even hot testing reaches,
  // frequencies in the per-day range) may legitimately escape one round -- exactly the
  // paper's escape cases. Require detection only when the activation law predicts a
  // comfortable expected-error count at the hot-test temperature.
  double expected_errors = 0.0;
  const StageParams hot_stage{60.0, 71.0, 1.0};
  for (const Defect& defect : info.defects) {
    expected_errors +=
        pipeline.ExpectedErrors(defect, hot_stage, info.spec.physical_cores);
  }
  if (expected_errors >= 5.0) {
    EXPECT_TRUE(report.any_error()) << info.cpu_id << " escaped its matching testcases"
                                    << " (expected ~" << expected_errors << " errors)";
  }

  // Records carry the part's SDC type...
  for (const SdcRecord& record : report.records) {
    EXPECT_EQ(record.sdc_type, info.sdc_type()) << info.cpu_id;
  }
  // ...and computation errors stay on the defective cores (consistency attribution can
  // involve the test's partner core).
  if (info.sdc_type() == SdcType::kComputation) {
    std::set<int> defective;
    bool all_cores = false;
    for (const Defect& defect : info.defects) {
      if (defect.affected_pcores.empty()) {
        all_cores = true;
      }
      defective.insert(defect.affected_pcores.begin(), defect.affected_pcores.end());
    }
    if (!all_cores) {
      for (const TestcaseResult& result : report.results) {
        for (size_t pcore = 0; pcore < result.errors_per_pcore.size(); ++pcore) {
          if (result.errors_per_pcore[pcore] > 0) {
            EXPECT_TRUE(defective.count(static_cast<int>(pcore)))
                << info.cpu_id << " errored on healthy pcore " << pcore;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTwentySeven, CatalogProcessorTest, ::testing::Range(0, 27),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return StudyCatalog()[static_cast<size_t>(param.param)].cpu_id;
                         });

// --- Per-architecture thermal sanity ---

class ArchThermalTest : public ::testing::TestWithParam<int> {};

TEST_P(ArchThermalTest, PackageTemperaturesInBand) {
  const ProcessorSpec spec = MakeArchSpec(GetParam());
  ThermalModel thermal(spec.physical_cores, spec.thermal);
  EXPECT_GT(thermal.IdleTemperature(), 40.0) << spec.arch;
  EXPECT_LT(thermal.IdleTemperature(), 50.0) << spec.arch;
  thermal.SettleToSteadyState(
      std::vector<double>(static_cast<size_t>(spec.physical_cores), 1.0));
  EXPECT_GT(thermal.core_temperature(0), 60.0) << spec.arch;
  EXPECT_LT(thermal.core_temperature(0), 85.0) << spec.arch;
}

TEST_P(ArchThermalTest, HealthyMachineOfArchRunsClean) {
  EngineContext context(PinnedEngine(1));
  FaultyMachine machine(MakeArchSpec(GetParam()));
  TestFramework framework(g_suite);
  TestRunConfig config;
  config.time_scale = 1e6;
  config.seed = 5;
  config.pcores_under_test = {0};
  std::vector<TestPlanEntry> plan;
  for (size_t i = 0; i < g_suite->size(); i += 37) {
    plan.push_back({i, 0.5});
  }
  EXPECT_EQ(framework.RunPlan(machine, plan, config, context).total_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArches, ArchThermalTest, ::testing::Range(0, kArchCount),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return ArchName(param.param);
                         });

// --- Damage-model invariants per datatype ---

class DatatypeDamageTest : public ::testing::TestWithParam<DataType> {};

TEST_P(DatatypeDamageTest, CorruptChangesValueWithinWidth) {
  const DataType type = GetParam();
  Defect defect;
  defect.pattern_probability = 0.35;
  Rng pattern_rng(51);
  defect.pattern_sets.push_back({type, {{MakePatternMask(type, 1, pattern_rng), 1.0}}});
  Rng rng(52);
  const int width = BitWidth(type);
  for (int trial = 0; trial < 500; ++trial) {
    const Word128 golden = BitsOfRaw(rng.Next(), std::min(width, 64));
    const Word128 corrupted = defect.Corrupt(golden, type, rng);
    EXPECT_NE(corrupted, golden);
    for (int bit = width; bit < 128; ++bit) {
      EXPECT_EQ(corrupted.GetBit(bit), golden.GetBit(bit)) << "bit " << bit;
    }
  }
}

TEST_P(DatatypeDamageTest, FlipPositionsInRange) {
  const DataType type = GetParam();
  Rng rng(53);
  for (int trial = 0; trial < 2000; ++trial) {
    const int position = SampleFlipPosition(type, rng);
    EXPECT_GE(position, 0);
    EXPECT_LT(position, BitWidth(type));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, DatatypeDamageTest,
                         ::testing::Values(DataType::kInt16, DataType::kInt32,
                                           DataType::kUInt32, DataType::kFloat32,
                                           DataType::kFloat64, DataType::kFloat80,
                                           DataType::kBit, DataType::kByte,
                                           DataType::kBin16, DataType::kBin32,
                                           DataType::kBin64),
                         [](const ::testing::TestParamInfo<DataType>& param) {
                           std::string name = DataTypeName(param.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- Activation-law properties across every catalog defect ---

TEST(DefectLawTest, RateMonotoneInTemperatureAndCapped) {
  for (const FaultyProcessorInfo& info : StudyCatalog()) {
    for (const Defect& defect : info.defects) {
      int best_pcore = 0;
      double best_scale = 0.0;
      for (int pcore = 0; pcore < info.spec.physical_cores; ++pcore) {
        if (defect.PcoreScale(pcore) > best_scale) {
          best_scale = defect.PcoreScale(pcore);
          best_pcore = pcore;
        }
      }
      double previous = -1.0;
      for (double temperature = 40.0; temperature <= 90.0; temperature += 5.0) {
        const double rate =
            defect.RatePerOp(temperature, defect.intensity_ref, best_pcore);
        EXPECT_GE(rate, previous) << defect.id << " @ " << temperature;
        EXPECT_LE(rate, 1.0);
        // Frequency cap: never beyond ~2000 errors/minute at reference intensity.
        EXPECT_LE(defect.OccurrenceFrequencyPerMinute(temperature, defect.intensity_ref,
                                                      best_pcore),
                  2000.0 * 1.01)
            << defect.id;
        previous = rate;
      }
      EXPECT_EQ(defect.RatePerOp(defect.min_trigger_celsius - 0.1, defect.intensity_ref,
                                 best_pcore),
                0.0)
          << defect.id;
    }
  }
}

}  // namespace
}  // namespace sdc
