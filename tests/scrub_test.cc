// Tests for src/scrub: streamed discovery against a materialized reference walk, report
// byte-identity at 1/2/8 threads, strict budget accounting, degenerate configs, and the
// coverage-vs-budget tradeoff direction.

#include <algorithm>
#include <bit>
#include <iomanip>
#include <span>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/scrub/scrubber.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

class ScrubTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
  EngineContext context_;  // default lanes, no sinks
};

TestSuite* ScrubTest::suite_ = nullptr;

ScrubConfig SmallConfig() {
  ScrubConfig config;
  config.population.processor_count = 50'000;
  config.population.seed = 2024;
  config.budget_fraction = 2e-5;
  config.horizon_months = 4.0;
  config.epoch_months = 1.0;
  config.max_cases_per_round = 8;
  config.workload_sample_hours = 0.02;
  return config;
}

// Full-precision fingerprint of every report field; byte-identity across runs is
// equality of these strings.
std::string Fingerprint(const ScrubReport& report) {
  std::ostringstream out;
  out << std::hexfloat;
  out << report.fleet_processors << ' ' << report.fleet_cores << ' ' << report.faulty
      << ' ' << report.pre_production_detections << ' ' << report.sessions << ' '
      << report.undetectable_sessions << '\n';
  out << report.budget_fraction << ' ' << report.nominal_round_seconds << ' '
      << report.total_budget_seconds << ' ' << report.session_seconds << ' '
      << report.sweep_seconds << ' ' << report.diagnosis_seconds << ' '
      << report.workload_sdc_events << '\n';
  for (const ScrubEpochPoint& point : report.timeline) {
    out << point.epoch << ' ' << point.month << ' ' << point.budget_seconds << ' '
        << point.session_seconds << ' ' << point.sweep_seconds << ' '
        << point.sessions_funded << ' ' << point.parts_swept << ' ' << point.detections
        << '\n';
  }
  for (const ScrubDetection& detection : report.detections) {
    out << detection.serial << ' ' << detection.arch_index << ' ' << detection.month
        << ' ' << detection.rounds << ' ' << detection.scheduled_seconds << ' '
        << detection.screen_regular_month << ' ' << detection.deprecated << ' '
        << detection.masked_cores << ' ' << detection.provenance.epoch << ' '
        << detection.provenance.rank << ' ' << detection.provenance.score << ' '
        << detection.provenance.granted_seconds << ' '
        << detection.provenance.consumed_seconds << '\n';
  }
  out << report.capacity.fleet_cores << ' ' << report.capacity.production_detections
      << ' ' << report.capacity.baseline_cores_lost << ' '
      << report.capacity.fine_grained_cores_lost << ' '
      << report.capacity.parts_deprecated_fine << '\n';
  for (const CapacityPoint& point : report.capacity.timeline) {
    out << point.month << ' ' << point.baseline_cores_lost << ' '
        << point.fine_grained_cores_lost << '\n';
  }
  return out.str();
}

// Identical JSON-able output at 1, 2, and 8 threads.
TEST_F(ScrubTest, ByteIdenticalAcrossThreads) {
  FleetScrubber scrubber(suite_);
  std::string expected;
  for (const int threads : {1, 2, 8}) {
    EngineContext context(EngineOptions{.threads = threads, .env_overrides = false});
    const ScrubReport report = scrubber.Run(SmallConfig(), context);
    const std::string fingerprint = Fingerprint(report);
    if (expected.empty()) {
      expected = fingerprint;
      EXPECT_GT(report.sessions, 0u);
      EXPECT_GT(report.timeline.size(), 0u);
    } else {
      EXPECT_EQ(fingerprint, expected) << "threads=" << threads;
    }
  }
}

// Reference discovery: the candidate walk over a materialized fleet and its screening
// stats -- every faulty part in serial order, marked by its detection (if any).
std::vector<ScrubCandidate> ReferenceCandidates(const FleetPopulation& fleet,
                                                const ScreeningStats& stats) {
  std::vector<ScrubCandidate> candidates;
  size_t cursor = 0;
  for (uint64_t serial = 0; serial < fleet.size(); ++serial) {
    const FleetShard shard = fleet.shard(serial / kFleetShardGrain);
    const FaultyPart* part = shard.FindFaulty(serial);
    if (part == nullptr) {
      continue;
    }
    ScrubCandidate candidate;
    candidate.serial = serial;
    candidate.arch_index = shard.arch_index(serial);
    candidate.toolchain_detectable = part->detectable;
    const std::span<const Defect> defects = shard.Defects(*part);
    candidate.defects.assign(defects.begin(), defects.end());
    while (cursor < stats.detections.size() && stats.detections[cursor].serial < serial) {
      ++cursor;
    }
    if (cursor < stats.detections.size() && stats.detections[cursor].serial == serial &&
        stats.detections[cursor].detected) {
      if (stats.detections[cursor].stage == TestStage::kRegular) {
        candidate.screen_regular_month = stats.detections[cursor].month;
      } else {
        candidate.pre_production_detected = true;
      }
    }
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

// Streamed discovery (what FleetScrubber::Run uses) yields exactly the reference
// candidates, and its screen the fleet's arch histogram, at every lane count.
TEST_F(ScrubTest, DiscoveryMatchesMaterializedReference) {
  const ScrubConfig config = SmallConfig();
  const ScreeningPipeline pipeline(suite_);
  EngineContext reference_context(EngineOptions{.threads = 1, .env_overrides = false});
  const FleetPopulation fleet = FleetPopulation::Generate(config.population, reference_context);
  const std::vector<ScrubCandidate> expected = ReferenceCandidates(
      fleet, RunBatchOfOne(pipeline, fleet, config.screening, reference_context));
  ASSERT_GT(expected.size(), 0u);
  // Both outcome kinds occur, so the walk's detection matching is exercised.
  EXPECT_TRUE(std::any_of(expected.begin(), expected.end(), [](const ScrubCandidate& c) {
    return c.pre_production_detected;
  }));
  EXPECT_TRUE(std::any_of(expected.begin(), expected.end(), [](const ScrubCandidate& c) {
    return c.screen_regular_month >= 0.0;
  }));
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    EngineContext context(EngineOptions{.threads = threads, .env_overrides = false});
    StreamingScreen screen(&pipeline, config.screening);
    ScrubDiscoveryObserver discovery;
    screen.AddObserver(&discovery);
    FleetShardStream(config.population).Drive({&screen}, context);
    // The arch histogram FleetScrubber::Run sizes its clean sweep buckets with.
    const ScreeningStats stats = screen.TakeStats();
    for (int arch = 0; arch < kArchCount; ++arch) {
      EXPECT_EQ(stats.tested_by_arch[arch], fleet.CountByArch(arch)) << "arch " << arch;
    }
    const std::vector<ScrubCandidate> candidates = discovery.TakeCandidates();
    ASSERT_EQ(candidates.size(), expected.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const ScrubCandidate& got = candidates[i];
      const ScrubCandidate& want = expected[i];
      EXPECT_EQ(got.serial, want.serial) << i;
      EXPECT_EQ(got.arch_index, want.arch_index) << i;
      EXPECT_EQ(got.toolchain_detectable, want.toolchain_detectable) << i;
      EXPECT_EQ(got.pre_production_detected, want.pre_production_detected) << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.screen_regular_month),
                std::bit_cast<uint64_t>(want.screen_regular_month))
          << i;
      ASSERT_EQ(got.defects.size(), want.defects.size()) << i;
      for (size_t d = 0; d < got.defects.size(); ++d) {
        EXPECT_EQ(got.defects[d].id, want.defects[d].id) << i << '/' << d;
      }
    }
  }
}

// Strict funding: no epoch -- and therefore no run -- ever spends more than its budget.
TEST_F(ScrubTest, SpendNeverExceedsBudget) {
  FleetScrubber scrubber(suite_);
  ScrubConfig budget_limited = SmallConfig();
  // Below the fleet's one-round-per-part-per-epoch demand (~0.52M s/epoch at this size),
  // so the scheduler must exhaust the budget rather than the demand.
  budget_limited.budget_fraction = 2e-6;
  const ScrubReport report = scrubber.Run(budget_limited, context_);
  ASSERT_FALSE(report.timeline.empty());
  for (const ScrubEpochPoint& point : report.timeline) {
    EXPECT_LE(point.spent_seconds(), point.budget_seconds * (1.0 + 1e-9));
  }
  EXPECT_LE(report.total_spent_seconds(), report.total_budget_seconds * (1.0 + 1e-9));
  EXPECT_GT(report.total_spent_seconds(), 0.0);
  // At this budget the fleet demands more rounds than the budget can fund, so the
  // scrubber must spend essentially all of it (the 1%-of-budget acceptance band).
  EXPECT_GE(report.total_spent_seconds(), report.total_budget_seconds * 0.99);
}

// Detections carry usable provenance: the funding decision that bought each one.
TEST_F(ScrubTest, DetectionsCarryProvenance) {
  FleetScrubber scrubber(suite_);
  ScrubConfig config = SmallConfig();
  config.budget_fraction = 2e-4;    // fund aggressively so detections happen early
  config.max_cases_per_round = 0;   // full plans: escapes carry tricky defects, and a
                                    // narrow ripple window can take months to reach the
                                    // one testcase that exposes them
  config.farron.time_scale = 1e9;   // coarse toolchain sim keeps the test fast
  config.horizon_months = 3.0;
  const ScrubReport report = scrubber.Run(config, context_);
  ASSERT_GT(report.detections.size(), 0u);
  for (const ScrubDetection& detection : report.detections) {
    EXPECT_GT(detection.month, 0.0);
    EXPECT_GT(detection.rounds, 0u);
    EXPECT_LE(detection.provenance.consumed_seconds,
              detection.provenance.granted_seconds + 1e-9);
    EXPECT_GT(detection.provenance.score, 0.0);
    EXPECT_LT(detection.provenance.epoch, report.timeline.size());
  }
  // Capacity replay covers exactly the detections.
  EXPECT_EQ(report.capacity.production_detections, report.detections.size());
  EXPECT_GE(report.capacity.baseline_cores_lost,
            report.capacity.fine_grained_cores_lost);
}

// A zero budget funds nothing and detects nothing, but the report stays well-formed.
TEST_F(ScrubTest, ZeroBudgetFundsNothing) {
  FleetScrubber scrubber(suite_);
  ScrubConfig config = SmallConfig();
  config.budget_fraction = 0.0;
  config.workload_sample_hours = 0.0;
  const ScrubReport report = scrubber.Run(config, context_);
  EXPECT_GT(report.sessions, 0u);
  EXPECT_EQ(report.detections.size(), 0u);
  EXPECT_EQ(report.total_spent_seconds(), 0.0);
  EXPECT_EQ(report.coverage(), 0.0);
  for (const ScrubEpochPoint& point : report.timeline) {
    EXPECT_EQ(point.sessions_funded, 0u);
    EXPECT_EQ(point.parts_swept, 0u);
  }
}

// No faulty parts at all: the scrubber sweeps the clean fleet and reports zero coverage
// work without tripping on the empty session set.
TEST_F(ScrubTest, FaultFreeFleetSweepsOnly) {
  FleetScrubber scrubber(suite_);
  ScrubConfig config = SmallConfig();
  config.population.processor_count = 4096;
  config.population.detected_rate = {};  // nobody is faulty
  const ScrubReport report = scrubber.Run(config, context_);
  EXPECT_EQ(report.faulty, 0u);
  EXPECT_EQ(report.sessions, 0u);
  EXPECT_EQ(report.detections.size(), 0u);
  EXPECT_EQ(report.session_seconds, 0.0);
  EXPECT_GT(report.sweep_seconds, 0.0);  // budget still sweeps clean parts
  EXPECT_LE(report.total_spent_seconds(), report.total_budget_seconds * (1.0 + 1e-9));
}

// An empty fleet is a no-op, not a crash.
TEST_F(ScrubTest, EmptyFleetIsNoop) {
  FleetScrubber scrubber(suite_);
  ScrubConfig config = SmallConfig();
  config.population.processor_count = 0;
  const ScrubReport report = scrubber.Run(config, context_);
  EXPECT_EQ(report.fleet_processors, 0u);
  EXPECT_EQ(report.sessions, 0u);
  EXPECT_EQ(report.total_budget_seconds, 0.0);
  EXPECT_EQ(report.total_spent_seconds(), 0.0);
}

// The step limits hold for a library caller that fills ScrubConfig directly, not only
// behind the spec parsers: a hostile epoch or screening cadence throws before any work
// instead of spinning a lane. ctest also runs these two under a timeout
// (step_limits_fail_fast), so a hang fails instead of stalling the suite.
TEST_F(ScrubTest, HostileEpochFailsFast) {
  FleetScrubber scrubber(suite_);
  for (const double epoch_months : {1e-300, 0.0, -1.0, 4.0 / (kMaxScrubEpochs + 1)}) {
    ScrubConfig config = SmallConfig();
    config.epoch_months = epoch_months;
    EXPECT_THROW(scrubber.Run(config, context_), std::invalid_argument) << epoch_months;
  }
  ScrubConfig backwards = SmallConfig();
  backwards.horizon_months = -1.0;  // a negative epoch count would wrap
  EXPECT_THROW(scrubber.Run(backwards, context_), std::invalid_argument);
}

TEST_F(ScrubTest, HostileCadenceFailsFast) {
  FleetScrubber scrubber(suite_);
  ScrubConfig config = SmallConfig();
  config.screening.regular_period_months = 1e-300;
  EXPECT_THROW(scrubber.Run(config, context_), std::invalid_argument);
  const ScreeningPipeline pipeline(suite_);
  config.screening.regular_period_months =
      config.screening.horizon_months / (kMaxRegularRounds + 1);
  EXPECT_THROW(StreamingScreen(&pipeline, config.screening), std::invalid_argument);
  config.screening.regular_period_months = config.screening.horizon_months / 100;
  EXPECT_NO_THROW(StreamingScreen(&pipeline, config.screening));
}

// More budget never detects fewer escapes: the coverage-vs-budget curve the tradeoff
// study plots is monotone.
TEST_F(ScrubTest, CoverageMonotoneInBudget) {
  FleetScrubber scrubber(suite_);
  ScrubConfig low = SmallConfig();
  low.budget_fraction = 5e-6;
  ScrubConfig high = SmallConfig();
  high.budget_fraction = 2e-4;
  const ScrubReport low_report = scrubber.Run(low, context_);
  const ScrubReport high_report = scrubber.Run(high, context_);
  EXPECT_GE(high_report.coverage(), low_report.coverage());
  EXPECT_GE(high_report.total_spent_seconds(), low_report.total_spent_seconds());
}

// scrub.* metrics and the scrub trace track are emitted once per run through the pinned
// sinks.
TEST_F(ScrubTest, EmitsMetricsAndTrace) {
  FleetScrubber scrubber(suite_);
  ScrubConfig config = SmallConfig();
  MetricsRegistry metrics;
  TraceRecorder trace;
  EngineContext context(EngineOptions{.metrics = &metrics, .trace = &trace});
  const ScrubReport report = scrubber.Run(config, context);
  std::ostringstream text;
  metrics.Snapshot().DumpText(text);
  EXPECT_NE(text.str().find("scrub.runs"), std::string::npos);
  EXPECT_NE(text.str().find("scrub.sessions"), std::string::npos);
  const TraceSnapshot snapshot = trace.Snapshot();
  uint64_t epoch_spans = 0;
  for (const TraceEvent& event : snapshot.sim) {
    if (event.name == "scrub.epoch") {
      EXPECT_EQ(event.track, kTraceTrackScrub);
      ++epoch_spans;
    }
  }
  EXPECT_EQ(epoch_spans, report.timeline.size());
}

}  // namespace
}  // namespace sdc
