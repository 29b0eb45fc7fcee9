// Tests for the longitudinal lifecycle simulation: wear-out onset, exposure window,
// detection, masking, and post-masking cleanliness.

#include <gtest/gtest.h>

#include "src/farron/longitudinal.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

class LifecycleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
  EngineContext context_{PinnedEngine(1)};
};

TestSuite* LifecycleTest::suite_ = nullptr;

TEST_F(LifecycleTest, WearOutDefectCaughtAtNextRound) {
  FaultyProcessorInfo info = FindInCatalog("FPU1");
  info.defects[0].onset_months = 10.0;
  FaultyMachine machine(info, 42);
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);

  LifecycleConfig lifecycle;
  lifecycle.horizon_months = 18.0;
  lifecycle.app_hours_per_interval = 1.0;
  lifecycle.workload.kernel_case_index =
      static_cast<size_t>(suite_->IndexOf("lib.math.fp_arctan.f64.n256"));
  lifecycle.workload.base_utilization = 0.5;
  lifecycle.workload.preferred_pcore = info.defects[0].affected_pcores.front();
  lifecycle.app_features = {Feature::kFpu};

  const LifecycleReport report = RunLifecycle(farron, machine, *suite_, lifecycle);
  // Pre-production and the rounds before onset are clean.
  for (const LifecyclePeriod& period : report.periods) {
    if (period.month < 10.0) {
      EXPECT_FALSE(period.detected) << "month " << period.month;
      EXPECT_EQ(period.app_sdc_events, 0u) << "month " << period.month;
    }
  }
  // Detection at the first round after onset (month 12 on a 3-month cadence).
  EXPECT_DOUBLE_EQ(report.first_detection_month, 12.0);
  EXPECT_DOUBLE_EQ(report.DetectionLatencyMonths(10.0), 2.0);
  EXPECT_EQ(report.final_masked_cores, 1);
  EXPECT_FALSE(report.deprecated);
  // The exposure window saw corruption; the post-masking periods did not.
  EXPECT_GT(report.total_app_sdc_events, 0u);
  for (const LifecyclePeriod& period : report.periods) {
    if (period.month > 12.0) {
      EXPECT_EQ(period.app_sdc_events, 0u) << "month " << period.month;
      EXPECT_FALSE(period.detected) << "month " << period.month;
    }
  }
}

TEST_F(LifecycleTest, HealthyPartStaysCleanForTheHorizon) {
  FaultyMachine machine(MakeArchSpec("M5"));
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  LifecycleConfig lifecycle;
  lifecycle.horizon_months = 9.0;
  lifecycle.app_hours_per_interval = 0.5;
  lifecycle.workload.kernel_case_index =
      static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  const LifecycleReport report = RunLifecycle(farron, machine, *suite_, lifecycle);
  EXPECT_LT(report.first_detection_month, 0.0);
  EXPECT_EQ(report.total_app_sdc_events, 0u);
  EXPECT_EQ(report.final_masked_cores, 0);
}

TEST_F(LifecycleTest, ManufacturingDefectCaughtAtPreProduction) {
  FaultyMachine machine(FindInCatalog("SIMD1"), 43);  // onset 0
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  LifecycleConfig lifecycle;
  lifecycle.horizon_months = 6.0;
  lifecycle.app_hours_per_interval = 0.5;
  lifecycle.workload.kernel_case_index =
      static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  const LifecycleReport report = RunLifecycle(farron, machine, *suite_, lifecycle);
  EXPECT_DOUBLE_EQ(report.first_detection_month, 0.0);
  EXPECT_GE(report.final_masked_cores, 1);
}

TEST_F(LifecycleTest, DeprecatedPartStopsRunning) {
  FaultyMachine machine(FindInCatalog("MIX1"), 44);  // all cores defective from day one
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  LifecycleConfig lifecycle;
  lifecycle.horizon_months = 9.0;
  lifecycle.app_hours_per_interval = 0.5;
  lifecycle.workload.kernel_case_index =
      static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  const LifecycleReport report = RunLifecycle(farron, machine, *suite_, lifecycle);
  EXPECT_TRUE(report.deprecated);
  for (const LifecyclePeriod& period : report.periods) {
    if (period.month > 0.0) {
      EXPECT_EQ(period.app_sdc_events, 0u);  // nothing runs on a withdrawn part
      EXPECT_FALSE(period.tested);
    }
  }
}

}  // namespace
}  // namespace sdc
