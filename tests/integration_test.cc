#include <algorithm>
// Cross-module integration tests: the full lifecycle of a faulty processor from screening
// through mitigation, and end-to-end consistency between the analytic fleet model and the
// operation-level simulation.

#include <set>

#include <gtest/gtest.h>

#include "src/analysis/bitflip.h"
#include "src/analysis/patterns.h"
#include "src/analysis/repro.h"
#include "src/farron/baseline.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fleet/pipeline.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
  EngineContext context_{PinnedEngine(1)};
};

TestSuite* IntegrationTest::suite_ = nullptr;

TEST_F(IntegrationTest, FaultyProcessorLifecycle) {
  // Pre-production testing on an FPU1-class part: detected, defective core masked,
  // remaining cores serve a protected workload with zero SDC events.
  FaultyMachine machine(FindInCatalog("FPU1"), 101);
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  const FarronRoundSummary pre_production = farron.RunPreProduction();
  EXPECT_TRUE(pre_production.report.any_error());
  EXPECT_FALSE(pre_production.processor_deprecated);
  const int defective = FindInCatalog("FPU1").defects.front().affected_pcores.front();
  EXPECT_TRUE(farron.pool().IsMasked(defective));

  // The workload (arctan-heavy, the defect's home turf) runs on the remaining cores.
  const int kernel = suite_->IndexOf("lib.math.fp_arctan.f64.n256");
  ASSERT_GE(kernel, 0);
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(kernel);
  spec.base_utilization = 0.5;
  spec.burst_probability = 0.0;
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
  EXPECT_EQ(report.sdc_events, 0u);
}

TEST_F(IntegrationTest, UnmaskedFaultyCoreCorruptsWorkload) {
  // The same workload on the defective core without mitigation sees corruptions -- FPU1's
  // defect is apparent (trigger below idle temperatures).
  FaultyMachine machine(FindInCatalog("FPU1"), 103);
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);  // no pre-production: core not masked
  const int kernel = suite_->IndexOf("lib.math.fp_arctan.f64.n256");
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(kernel);
  spec.base_utilization = 0.6;
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
  // The defective core is pcore 1 of 8 and the workload uses the first usable core (0), so
  // corruption requires the defect to live there; re-run against the full-core defect
  // instead for a deterministic signal.
  FaultyMachine mix2(FindInCatalog("MIX2"), 103);
  Farron unguarded(suite_, &mix2, config, context_);
  WorkloadSpec mix_spec;
  mix_spec.kernel_case_index =
      static_cast<size_t>(suite_->IndexOf("app.matmul.f64.n16.l8"));
  mix_spec.base_utilization = 0.6;
  const ProtectionReport mix_report =
      SimulateProtectedWorkload(unguarded, mix2, *suite_, mix_spec, 1.0, true);
  EXPECT_GT(mix_report.sdc_events + report.sdc_events, 0u);
}

TEST_F(IntegrationTest, BaselineDeprecatesWholePartFarronKeepsCores) {
  // Observation 4 / Section 7.1: fine-grained decommission preserves capacity.
  FaultyMachine for_baseline(FindInCatalog("SIMD1"), 105);
  BaselinePolicy baseline(suite_, BaselineConfig());
  const RunReport baseline_report = baseline.RunRegularRound(for_baseline, context_);
  EXPECT_TRUE(baseline_report.any_error());  // baseline would now discard all 16 cores

  FaultyMachine for_farron(FindInCatalog("SIMD1"), 105);
  FarronConfig config;
  Farron farron(suite_, &for_farron, config, context_);
  std::vector<std::string> history;
  for (size_t index : suite_->IndicesTargeting(Feature::kVecUnit)) {
    history.push_back(suite_->info(index).id);
  }
  farron.SetActiveFromHistory(history);
  const FarronRoundSummary summary = farron.RunRegularRound({Feature::kVecUnit});
  EXPECT_TRUE(summary.report.any_error());
  EXPECT_EQ(farron.pool().UsableCores().size(), 15u);  // 15 of 16 cores keep serving
}

TEST_F(IntegrationTest, SdcRecordsFeedAnalysisPipeline) {
  // Records collected by the toolchain flow through every analysis: bitflips, precision
  // losses, patterns, and suspect ranking, reproducing the paper's qualitative findings.
  FaultyMachine machine(FindInCatalog("FPU1"), 107);
  TestFramework framework(suite_);
  TestRunConfig config;
  config.time_scale = 1e5;
  config.seed = 9;
  config.pcores_under_test = {FindInCatalog("FPU1").defects.front().affected_pcores.front()};
  std::vector<TestPlanEntry> plan;
  for (size_t index : suite_->IndicesTargeting(Feature::kFpu)) {
    plan.push_back({index, 5.0});
  }
  const RunReport report = framework.RunPlan(machine, plan, config, context_);
  ASSERT_GT(report.records.size(), 20u);

  // Observation 7: flips live in the fraction part, so f64 precision losses are tiny.
  const BitflipStats stats = AnalyzeBitflips(report.records, DataType::kFloat64);
  EXPECT_GT(stats.FractionPartShare(), 0.9);
  const std::vector<double> losses = PrecisionLosses(report.records, DataType::kFloat64);
  ASSERT_FALSE(losses.empty());
  EXPECT_LT(Quantile(losses, 0.99), 2e-4);  // paper: 99.9% below 0.02% (99% here: the
                                            // extreme tail is sampling-noise sensitive)

  // Observation 8: strong fixed patterns on FPU1 (pattern probability 0.9).
  uint64_t patterned_settings = 0;
  uint64_t settings = 0;
  for (const TestcaseResult& result : report.results) {
    if (!result.failed()) {
      continue;
    }
    const PatternAnalysis analysis =
        MinePatterns(FilterSetting(report.records, result.testcase_id), 0.05);
    if (analysis.record_count >= 20) {
      ++settings;
      patterned_settings += analysis.patterned_record_fraction > 0.5 ? 1 : 0;
    }
  }
  ASSERT_GT(settings, 0u);
  EXPECT_GT(patterned_settings, 0u);

  // Section 4.1: the statistical instruction study points at arctan.
  const std::vector<SuspectScore> suspects = RankSuspectOps(report);
  ASSERT_FALSE(suspects.empty());
  std::set<OpKind> top;
  for (size_t i = 0; i < std::min<size_t>(2, suspects.size()); ++i) {
    top.insert(suspects[i].op);
  }
  EXPECT_TRUE(top.count(OpKind::kFpArctan) == 1);
}

TEST_F(IntegrationTest, AnalyticFleetModelAgreesWithOpLevelSimulation) {
  // The screening pipeline predicts detection via closed-form expected errors; verify the
  // prediction against an actual toolchain run for an apparent catalog defect.
  ScreeningPipeline pipeline(suite_);
  const FaultyProcessorInfo fpu1 = FindInCatalog("FPU1");
  const StageParams stage{60.0, 58.0, 1.0};
  const double expected =
      pipeline.ExpectedErrors(fpu1.defects.front(), stage, fpu1.spec.physical_cores);
  EXPECT_GT(expected, 1.0);  // the model says: detected

  FaultyMachine machine(fpu1, 109);
  TestFramework framework(suite_);
  TestRunConfig config;
  config.time_scale = 1e6;
  config.seed = 10;
  const RunReport report = framework.RunPlan(machine, framework.EqualPlan(60.0), config, context_);
  EXPECT_TRUE(report.any_error());  // and the simulation agrees
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  auto run_once = [this]() {
    FaultyMachine machine(FindInCatalog("SIMD1"), 111);
    TestFramework framework(suite_);
    TestRunConfig config;
    config.time_scale = 1e6;
    config.seed = 11;
    config.pcores_under_test = {5};
    std::vector<TestPlanEntry> plan;
    for (size_t index : suite_->IndicesTargeting(Feature::kVecUnit)) {
      plan.push_back({index, 10.0});
    }
    return framework.RunPlan(machine, plan, config, context_);
  };
  const RunReport first = run_once();
  const RunReport second = run_once();
  EXPECT_EQ(first.total_errors(), second.total_errors());
  ASSERT_EQ(first.records.size(), second.records.size());
  for (size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(first.records[i].expected, second.records[i].expected);
    EXPECT_EQ(first.records[i].actual, second.records[i].actual);
  }
}

}  // namespace
}  // namespace sdc
