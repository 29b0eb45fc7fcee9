// Tests for src/fleet/capacity.h: the fine-grained vs whole-part decommission replay.

#include <gtest/gtest.h>

#include "src/fleet/capacity.h"
#include "src/fleet/stream.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

// One streamed generate+screen pass with the capacity replay attached; every property
// below reads that pass's stats and report.
class CapacityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PopulationConfig config;
    config.processor_count = 300000;
    config.seed = 999;
    const TestSuite suite = TestSuite::BuildFull();
    const ScreeningPipeline pipeline(&suite);
    StreamingScreen screen(&pipeline, ScreeningConfig());
    CapacityAccumulator capacity;
    screen.AddObserver(&capacity);
    EngineContext context(PinnedEngine(2));
    FleetShardStream(config).Drive({&screen}, context);
    stats_ = new ScreeningStats(screen.TakeStats());
    report_ = new CapacityReport(capacity.TakeReport());
  }
  static void TearDownTestSuite() {
    delete report_;
    delete stats_;
    report_ = nullptr;
    stats_ = nullptr;
  }

  static ScreeningStats* stats_;
  static CapacityReport* report_;
};

ScreeningStats* CapacityTest::stats_ = nullptr;
CapacityReport* CapacityTest::report_ = nullptr;

TEST_F(CapacityTest, DefectiveCoreCountUnionsDefects) {
  const int arch_index = 1;  // M2: 16 cores
  Defect a;
  a.affected_pcores = {1, 2};
  Defect b;
  b.affected_pcores = {2, 3};
  const std::vector<Defect> two_defects = {a, b};
  EXPECT_EQ(DefectiveCoreCount(arch_index, two_defects), 3);
  const std::vector<Defect> all_cores(1);  // empty pcore list = every core
  EXPECT_EQ(DefectiveCoreCount(arch_index, all_cores), 16);
}

TEST_F(CapacityTest, FineGrainedNeverLosesMoreThanBaseline) {
  const CapacityReport& report = *report_;
  EXPECT_LE(report.fine_grained_cores_lost, report.baseline_cores_lost);
  for (const CapacityPoint& point : report.timeline) {
    EXPECT_LE(point.fine_grained_cores_lost, point.baseline_cores_lost);
  }
}

TEST_F(CapacityTest, OnlyProductionDetectionsCost) {
  const CapacityReport& report = *report_;
  uint64_t regular = 0;
  for (const ProcessorOutcome& outcome : stats_->detections) {
    regular += outcome.stage == TestStage::kRegular ? 1 : 0;
  }
  EXPECT_EQ(report.production_detections, regular);
}

TEST_F(CapacityTest, TimelineIsMonotoneCumulative) {
  const CapacityReport& report = *report_;
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
  const CapacityReport& report = *report_;
  if (report.production_detections > 0) {
    // About half of faulty parts have single-core defects (Observation 4), so the
    // fine-grained policy must save a meaningful share of the baseline's losses.
    EXPECT_GT(report.cores_saved(), 0u);
  }
}

}  // namespace
}  // namespace sdc
