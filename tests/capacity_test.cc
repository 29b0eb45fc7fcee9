// Tests for src/fleet/capacity.h: the fine-grained vs whole-part decommission replay.

#include <gtest/gtest.h>

#include "src/fleet/capacity.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

class CapacityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PopulationConfig config;
    config.processor_count = 300000;
    config.seed = 999;
    EngineContext context(PinnedEngine(2));
    fleet_ = new FleetPopulation(FleetPopulation::Generate(config, context));
    suite_ = new TestSuite(TestSuite::BuildFull());
    pipeline_ = new ScreeningPipeline(suite_);
    stats_ = new ScreeningStats(pipeline_->Run(*fleet_, ScreeningConfig(), context));
  }
  static void TearDownTestSuite() {
    delete stats_;
    delete pipeline_;
    delete suite_;
    delete fleet_;
    stats_ = nullptr;
    pipeline_ = nullptr;
    suite_ = nullptr;
    fleet_ = nullptr;
  }

  static FleetPopulation* fleet_;
  static TestSuite* suite_;
  static ScreeningPipeline* pipeline_;
  static ScreeningStats* stats_;
};

FleetPopulation* CapacityTest::fleet_ = nullptr;
TestSuite* CapacityTest::suite_ = nullptr;
ScreeningPipeline* CapacityTest::pipeline_ = nullptr;
ScreeningStats* CapacityTest::stats_ = nullptr;

TEST_F(CapacityTest, DefectiveCoreCountUnionsDefects) {
  FleetProcessorView processor;
  processor.arch_index = 1;  // M2: 16 cores
  Defect a;
  a.affected_pcores = {1, 2};
  Defect b;
  b.affected_pcores = {2, 3};
  const std::vector<Defect> two_defects = {a, b};
  processor.defects = two_defects;
  EXPECT_EQ(DefectiveCoreCount(processor), 3);
  const std::vector<Defect> all_cores(1);  // empty pcore list = every core
  processor.defects = all_cores;
  EXPECT_EQ(DefectiveCoreCount(processor), 16);
}

TEST_F(CapacityTest, FineGrainedNeverLosesMoreThanBaseline) {
  const CapacityReport report =
      SimulateCapacityRetention(*fleet_, *stats_, ScreeningConfig());
  EXPECT_LE(report.fine_grained_cores_lost, report.baseline_cores_lost);
  for (const CapacityPoint& point : report.timeline) {
    EXPECT_LE(point.fine_grained_cores_lost, point.baseline_cores_lost);
  }
}

TEST_F(CapacityTest, OnlyProductionDetectionsCost) {
  const CapacityReport report =
      SimulateCapacityRetention(*fleet_, *stats_, ScreeningConfig());
  uint64_t regular = 0;
  for (const ProcessorOutcome& outcome : stats_->detections) {
    regular += outcome.stage == TestStage::kRegular ? 1 : 0;
  }
  EXPECT_EQ(report.production_detections, regular);
}

TEST_F(CapacityTest, TimelineIsMonotoneCumulative) {
  const CapacityReport report =
      SimulateCapacityRetention(*fleet_, *stats_, ScreeningConfig());
  for (size_t i = 1; i < report.timeline.size(); ++i) {
    EXPECT_GE(report.timeline[i].baseline_cores_lost,
              report.timeline[i - 1].baseline_cores_lost);
    EXPECT_GE(report.timeline[i].fine_grained_cores_lost,
              report.timeline[i - 1].fine_grained_cores_lost);
  }
  if (!report.timeline.empty()) {
    EXPECT_EQ(report.timeline.back().baseline_cores_lost, report.baseline_cores_lost);
    EXPECT_EQ(report.timeline.back().fine_grained_cores_lost,
              report.fine_grained_cores_lost);
  }
}

TEST_F(CapacityTest, SingleCoreDefectsDriveTheSavings) {
  const CapacityReport report =
      SimulateCapacityRetention(*fleet_, *stats_, ScreeningConfig());
  if (report.production_detections > 0) {
    // About half of faulty parts have single-core defects (Observation 4), so the
    // fine-grained policy must save a meaningful share of the baseline's losses.
    EXPECT_GT(report.cores_saved(), 0u);
  }
}

}  // namespace
}  // namespace sdc
