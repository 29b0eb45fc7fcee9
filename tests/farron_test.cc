// Tests for src/farron: adaptive boundary, reliable pool, priority planning, the Farron
// orchestrator against the baseline, and the protection loop.

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "src/farron/baseline.h"
#include "src/farron/boundary.h"
#include "src/farron/farron.h"
#include "src/farron/pool.h"
#include "src/farron/priorities.h"
#include "src/farron/protection.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

class FarronTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
  EngineContext context_{PinnedEngine(1)};
};

TestSuite* FarronTest::suite_ = nullptr;

// --- Adaptive boundary ---

TEST(BoundaryTest, NormalBelowBoundary) {
  AdaptiveBoundary boundary(59.0, 10);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(boundary.Observe(55.0), BoundaryDecision::kNormal);
  }
  EXPECT_DOUBLE_EQ(boundary.boundary_celsius(), 59.0);
}

TEST(BoundaryTest, RareExcursionTriggersBackoff) {
  AdaptiveBoundary boundary(59.0, 10);
  for (int i = 0; i < 10; ++i) {
    boundary.Observe(55.0);
  }
  EXPECT_EQ(boundary.Observe(61.0), BoundaryDecision::kBackoff);
  EXPECT_DOUBLE_EQ(boundary.boundary_celsius(), 59.0);  // unchanged
}

TEST(BoundaryTest, PersistentExcessRaisesBoundary) {
  AdaptiveBoundary boundary(59.0, 10, 1.0);
  // Fill the window with hot samples: more than half exceed the boundary -> learn upward.
  BoundaryDecision last = BoundaryDecision::kNormal;
  for (int i = 0; i < 12; ++i) {
    last = boundary.Observe(62.0);
  }
  EXPECT_EQ(last, BoundaryDecision::kRaised);
  EXPECT_GT(boundary.boundary_celsius(), 59.0);
}

TEST(BoundaryTest, LearningConverges) {
  AdaptiveBoundary boundary(59.0, 10, 1.0);
  for (int i = 0; i < 200; ++i) {
    boundary.Observe(63.0);
  }
  // Once the boundary passes the ambient workload temperature, raising stops.
  EXPECT_GE(boundary.boundary_celsius(), 63.0);
  EXPECT_LE(boundary.boundary_celsius(), 65.0);
  EXPECT_EQ(boundary.Observe(63.0), BoundaryDecision::kNormal);
}

TEST(BoundaryTest, AblationFixedBoundaryNeverRaises) {
  AdaptiveBoundary boundary(59.0, 10, 1.0);
  boundary.set_adaptive(false);
  for (int i = 0; i < 50; ++i) {
    const BoundaryDecision decision = boundary.Observe(62.0);
    EXPECT_EQ(decision, BoundaryDecision::kBackoff);
  }
  EXPECT_DOUBLE_EQ(boundary.boundary_celsius(), 59.0);
}

// --- Reliable pool ---

TEST(PoolTest, MaskingAndDeprecation) {
  ReliablePool pool(16);
  EXPECT_EQ(pool.UsableCores().size(), 16u);
  pool.MaskCore(3);
  pool.MaskCore(3);  // idempotent
  EXPECT_EQ(pool.masked_count(), 1);
  EXPECT_TRUE(pool.IsMasked(3));
  EXPECT_FALSE(pool.processor_deprecated());
  EXPECT_EQ(pool.UsableCores().size(), 15u);
  pool.MaskCore(5);
  EXPECT_FALSE(pool.processor_deprecated());  // exactly two is still fine
  pool.MaskCore(9);
  EXPECT_TRUE(pool.processor_deprecated());   // more than two -> deprecate
  EXPECT_TRUE(pool.UsableCores().empty());
}

// --- Priorities ---

TEST_F(FarronTest, PriorityLifecycle) {
  PriorityTracker tracker(suite_);
  EXPECT_EQ(tracker.CountWithPriority(TestPriority::kBasic), suite_->size());
  tracker.MarkActiveFromHistory({suite_->info(3).id, suite_->info(7).id, "bogus-id"});
  EXPECT_EQ(tracker.CountWithPriority(TestPriority::kActive), 2u);
  tracker.MarkSuspected(suite_->info(3).id);  // active -> suspected
  EXPECT_EQ(tracker.CountWithPriority(TestPriority::kSuspected), 1u);
  EXPECT_EQ(tracker.CountWithPriority(TestPriority::kActive), 1u);
}

TEST_F(FarronTest, RegularPlanDurationNearPaperHeadline) {
  // Paper: Farron's average one-round regular test is 1.02 h vs the baseline's 10.55 h.
  PriorityTracker tracker(suite_);
  std::vector<std::string> history;
  for (size_t i = 0; i < 73; ++i) {  // the paper's 73 effective testcases
    history.push_back(suite_->info(i * 8).id);
  }
  tracker.MarkActiveFromHistory(history);
  const std::vector<TestPlanEntry> plan =
      tracker.BuildRegularPlan({}, PriorityPlanParams());
  const double hours = PriorityTracker::PlanSeconds(plan) / 3600.0;
  EXPECT_NEAR(hours, 1.02, 0.15);
  EXPECT_EQ(plan.size(), suite_->size());  // everything still swept at least best-effort
}


TEST_F(FarronTest, PriorityPersistenceRoundTrip) {
  PriorityTracker tracker(suite_);
  tracker.MarkActiveFromHistory({suite_->info(4).id, suite_->info(9).id});
  tracker.MarkSuspected(suite_->info(9).id);
  tracker.MarkSuspected(suite_->info(17).id);
  std::stringstream stream;
  tracker.Save(stream);

  PriorityTracker restored(suite_);
  restored.Load(stream);
  EXPECT_EQ(restored.priority(4), TestPriority::kActive);
  EXPECT_EQ(restored.priority(9), TestPriority::kSuspected);
  EXPECT_EQ(restored.priority(17), TestPriority::kSuspected);
  EXPECT_EQ(restored.CountWithPriority(TestPriority::kActive), 1u);
  EXPECT_EQ(restored.CountWithPriority(TestPriority::kSuspected), 2u);
}

TEST_F(FarronTest, PriorityLoadIgnoresGarbage) {
  PriorityTracker tracker(suite_);
  std::stringstream stream("nonsense line\nactive\tno.such.case\nsuspected\t" +
                           suite_->info(2).id + "\n");
  tracker.Load(stream);
  EXPECT_EQ(tracker.CountWithPriority(TestPriority::kSuspected), 1u);
  EXPECT_EQ(tracker.CountWithPriority(TestPriority::kActive), 0u);
}

TEST_F(FarronTest, SuspectedScheduledFirstAndLongest) {
  PriorityTracker tracker(suite_);
  tracker.MarkActiveFromHistory({suite_->info(10).id});
  tracker.MarkSuspected(suite_->info(20).id);
  const std::vector<TestPlanEntry> plan =
      tracker.BuildRegularPlan({}, PriorityPlanParams());
  EXPECT_EQ(plan.front().testcase_index, 20u);
  EXPECT_DOUBLE_EQ(plan.front().duration_seconds, PriorityPlanParams().suspected_seconds);
}

TEST_F(FarronTest, FeatureFilterDowngradesIrrelevantActive) {
  PriorityTracker tracker(suite_);
  // Find one active FPU case and one active Cache case.
  const size_t fpu_case = suite_->IndicesTargeting(Feature::kFpu).front();
  const size_t cache_case = suite_->IndicesTargeting(Feature::kCache).front();
  tracker.MarkActiveFromHistory({suite_->info(fpu_case).id, suite_->info(cache_case).id});
  const std::vector<TestPlanEntry> plan =
      tracker.BuildRegularPlan({Feature::kFpu}, PriorityPlanParams());
  double fpu_seconds = 0.0;
  double cache_seconds = 0.0;
  for (const TestPlanEntry& entry : plan) {
    if (entry.testcase_index == fpu_case) {
      fpu_seconds = entry.duration_seconds;
    }
    if (entry.testcase_index == cache_case) {
      cache_seconds = entry.duration_seconds;
    }
  }
  EXPECT_DOUBLE_EQ(fpu_seconds, PriorityPlanParams().active_seconds);
  EXPECT_DOUBLE_EQ(cache_seconds, PriorityPlanParams().basic_seconds);
}

// --- Baseline ---

TEST_F(FarronTest, BaselineRoundDurationIsPaperHeadline) {
  BaselinePolicy baseline(suite_, BaselineConfig());
  EXPECT_NEAR(baseline.RoundDurationSeconds() / 3600.0, 10.55, 0.01);
  // Table 4 baseline test overhead: 0.488%.
  EXPECT_NEAR(baseline.TestOverhead() * 100.0, 0.488, 0.01);
}

TEST_F(FarronTest, BaselineDetectsApparentDefect) {
  FaultyMachine machine(FindInCatalog("FPU1"), 31);
  BaselinePolicy baseline(suite_, BaselineConfig());
  const RunReport report = baseline.RunRegularRound(machine, context_);
  EXPECT_TRUE(report.any_error());
}

// --- Farron orchestrator ---

TEST_F(FarronTest, RegularRoundDetectsAndMasksDefectiveCore) {
  FaultyMachine machine(FindInCatalog("SIMD1"), 33);
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  // Seed history so the failing vector testcases are active.
  std::vector<std::string> history;
  for (size_t index : suite_->IndicesTargeting(Feature::kVecUnit)) {
    history.push_back(suite_->info(index).id);
  }
  farron.SetActiveFromHistory(history);
  const FarronRoundSummary summary = farron.RunRegularRound({Feature::kVecUnit});
  EXPECT_TRUE(summary.report.any_error());
  // SIMD1's single defective core (pcore 5) gets masked; the processor survives.
  EXPECT_FALSE(summary.processor_deprecated);
  ASSERT_FALSE(summary.newly_masked_cores.empty());
  EXPECT_TRUE(farron.pool().IsMasked(5));
  EXPECT_EQ(farron.pool().masked_count(), 1);
  EXPECT_GT(farron.priorities().CountWithPriority(TestPriority::kSuspected), 0u);
}

TEST_F(FarronTest, HealthyMachinePassesRegularRound) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  const FarronRoundSummary summary = farron.RunRegularRound({});
  EXPECT_FALSE(summary.report.any_error());
  EXPECT_EQ(farron.pool().masked_count(), 0);
  EXPECT_LT(farron.TestOverhead(), BaselinePolicy(suite_, BaselineConfig()).TestOverhead());
}

TEST_F(FarronTest, MultiCoreDefectDeprecatesProcessor) {
  FaultyMachine machine(FindInCatalog("MIX1"), 35);  // all 16 cores defective
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  std::vector<std::string> history;
  for (Feature feature : {Feature::kVecUnit, Feature::kAlu, Feature::kFpu}) {
    for (size_t index : suite_->IndicesTargeting(feature)) {
      history.push_back(suite_->info(index).id);
    }
  }
  farron.SetActiveFromHistory(history);
  const FarronRoundSummary summary = farron.RunRegularRound({});
  EXPECT_TRUE(summary.report.any_error());
  EXPECT_TRUE(summary.processor_deprecated);
  // Once deprecated, further rounds are no-ops.
  const FarronRoundSummary next = farron.RunRegularRound({});
  EXPECT_TRUE(next.processor_deprecated);
  EXPECT_EQ(next.report.results.size(), 0u);
}

TEST_F(FarronTest, DurationScaleTracksBoundary) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  config.initial_boundary_celsius = 59.0;
  Farron farron(suite_, &machine, config, context_);
  EXPECT_NEAR(farron.DurationScale(), 1.0, 1e-9);
  FarronConfig cold = config;
  cold.initial_boundary_celsius = 47.0;
  Farron cold_farron(suite_, &machine, cold, context_);
  EXPECT_LT(cold_farron.DurationScale(), 0.7);
}


TEST_F(FarronTest, CoolingControlPrecedesBackoff) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  config.enable_cooling_control = true;
  config.enable_adaptive_boundary = false;
  Farron farron(suite_, &machine, config, context_);
  // Hold temperatures over the boundary: the controller must exhaust cooling steps first.
  int boosts = 0;
  int backoffs = 0;
  for (int i = 0; i < 10; ++i) {
    switch (farron.ControlStep(62.0)) {
      case Farron::ControlAction::kCoolingBoosted:
        ++boosts;
        break;
      case Farron::ControlAction::kWorkloadBackoff:
        ++backoffs;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(boosts, 4);  // (2.0 - 1.0) / 0.25 steps
  EXPECT_EQ(backoffs, 6);
  EXPECT_DOUBLE_EQ(machine.cpu().thermal().cooling_boost(), 2.0);
  // Once comfortably below the boundary, the boost relaxes.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(farron.ControlStep(50.0), Farron::ControlAction::kNone);
  }
  EXPECT_DOUBLE_EQ(machine.cpu().thermal().cooling_boost(), 1.0);
}

TEST_F(FarronTest, CoolingControlDisabledGoesStraightToBackoff) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  config.enable_adaptive_boundary = false;
  Farron farron(suite_, &machine, config, context_);
  EXPECT_EQ(farron.ControlStep(62.0), Farron::ControlAction::kWorkloadBackoff);
  EXPECT_DOUBLE_EQ(machine.cpu().thermal().cooling_boost(), 1.0);
}

// --- Protection loop ---


TEST_F(FarronTest, DiurnalWorkloadBreathes) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  WorkloadSpec flat;
  flat.kernel_case_index = static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  flat.base_utilization = 0.4;
  flat.burst_probability = 0.0;
  const ProtectionReport flat_report =
      SimulateProtectedWorkload(farron, machine, *suite_, flat, 2.0, false);

  FaultyMachine machine2(MakeArchSpec("M2"));
  Farron farron2(suite_, &machine2, config, context_);
  WorkloadSpec diurnal = flat;
  diurnal.diurnal_amplitude = 0.4;
  diurnal.diurnal_period_seconds = 3600.0;  // compressed "day" inside the 2 h window
  const ProtectionReport diurnal_report =
      SimulateProtectedWorkload(farron2, machine2, *suite_, diurnal, 2.0, false);
  // The peak of the diurnal swing runs hotter than the flat profile ever does.
  EXPECT_GT(diurnal_report.max_temperature, flat_report.max_temperature + 3.0);
}

TEST_F(FarronTest, ProtectionSuppressesTrickySdc) {
  // MIX1's tricky VecCrc defect triggers only above 59C. Under Farron's boundary control
  // the workload stays below it; unprotected bursts cross it and corrupt.
  const int kernel = suite_->IndexOf("lib.crc32.vector.b4096");
  ASSERT_GE(kernel, 0);
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(kernel);
  spec.base_utilization = 0.45;
  spec.burst_probability = 0.01;
  spec.burst_seconds = 240.0;
  spec.seed = 5;

  FarronConfig config;
  config.initial_boundary_celsius = 59.0;
  config.enable_adaptive_boundary = false;  // hold the paper's 59C line

  FaultyMachine protected_machine(FindInCatalog("MIX1"), 41);
  Farron protector(suite_, &protected_machine, config, context_);
  const ProtectionReport protected_run =
      SimulateProtectedWorkload(protector, protected_machine, *suite_, spec, 2.0, true);

  FaultyMachine unprotected_machine(FindInCatalog("MIX1"), 41);
  Farron idle(suite_, &unprotected_machine, config, context_);
  const ProtectionReport unprotected_run =
      SimulateProtectedWorkload(idle, unprotected_machine, *suite_, spec, 2.0, false);

  EXPECT_GT(unprotected_run.max_temperature, 62.0);  // bursts run away unchecked
  EXPECT_LT(protected_run.max_temperature, unprotected_run.max_temperature);
  EXPECT_GT(protected_run.backoff_engagements, 0u);
  EXPECT_GT(protected_run.backoff_seconds, 0.0);
  EXPECT_LE(protected_run.sdc_events, unprotected_run.sdc_events);
  EXPECT_GT(unprotected_run.sdc_events, 0u);
  EXPECT_EQ(protected_run.sdc_events, 0u);
}

TEST_F(FarronTest, ProtectionIdleWorkloadNeverBacksOff) {
  const int kernel = suite_->IndexOf("lib.crc32.scalar.b1024");
  ASSERT_GE(kernel, 0);
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(kernel);
  spec.base_utilization = 0.2;
  spec.burst_probability = 0.0;
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
  EXPECT_EQ(report.backoff_engagements, 0u);
  EXPECT_EQ(report.sdc_events, 0u);
}

}  // namespace
}  // namespace sdc
