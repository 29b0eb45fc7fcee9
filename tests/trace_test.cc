// Tests for the deterministic trace/span layer (src/telemetry/trace.h): the recorder and
// delta semantics, the byte-identity of WriteTraceJson's sim timeline across thread
// counts and execution modes, the per-detection provenance invariants, and the toolchain
// and protection-loop instrumentation.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

constexpr uint64_t kFleetSize = 30000;

std::string SimTraceJson(const TraceRecorder& recorder) {
  std::ostringstream out;
  WriteTraceJson(out, recorder.Snapshot(), /*include_host=*/false);
  return out.str();
}

TEST(TraceDeltaTest, MergePreservesOrder) {
  TraceDelta first;
  first.Add(MakeTraceSpan("a", "cat", kTraceTrackGenerate, 0.0, 1.0));
  TraceDelta second;
  second.Add(MakeTraceSpan("b", "cat", kTraceTrackGenerate, 1.0, 1.0));
  second.Add(MakeTraceInstant("c", "cat", kTraceTrackGenerate, 1.5));
  first.MergeFrom(std::move(second));
  ASSERT_EQ(first.events().size(), 3u);
  EXPECT_EQ(first.events()[0].name, "a");
  EXPECT_EQ(first.events()[1].name, "b");
  EXPECT_EQ(first.events()[2].name, "c");
  EXPECT_EQ(first.events()[2].phase, 'i');
}

TEST(TraceRecorderTest, SegregatesDomainsAndClears) {
  TraceRecorder recorder;
  TraceDelta delta;
  delta.Add(MakeTraceSpan("sim.span", "cat", kTraceTrackScreen, 10.0, 5.0));
  recorder.MergeDelta(std::move(delta));
  recorder.RecordHostSpan("host.span", "cat", kTraceTrackScreen, 0.0, 0.25);
  const TraceSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.sim.size(), 1u);
  ASSERT_EQ(snapshot.host.size(), 1u);
  EXPECT_EQ(snapshot.sim[0].name, "sim.span");
  EXPECT_EQ(snapshot.host[0].name, "host.span");
  EXPECT_DOUBLE_EQ(snapshot.host[0].duration, 0.25 * 1e6);  // seconds -> microseconds
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().sim.empty());
  EXPECT_TRUE(recorder.Snapshot().host.empty());
}

TEST(TraceRecorderTest, ScopedHostSpanToleratesNull) {
  TraceRecorder recorder;
  {
    TraceRecorder::ScopedHostSpan span(&recorder, "s", "cat", kTraceTrackToolchain);
  }
  {
    TraceRecorder::ScopedHostSpan null_span(nullptr, "s", "cat", kTraceTrackToolchain);
  }
  EXPECT_EQ(recorder.Snapshot().host.size(), 1u);
}

class TraceFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  // Materialized generate+screen with a recorder attached.
  static ScreeningStats RunMaterialized(int threads, TraceRecorder* recorder,
                                        MetricsRegistry* metrics = nullptr) {
    EngineContext context(PinnedEngine(threads, metrics, recorder));
    PopulationConfig population;
    population.processor_count = kFleetSize;
    const FleetPopulation fleet = FleetPopulation::Generate(population, context);
    ScreeningPipeline pipeline(suite_);
    return pipeline.Run(fleet, ScreeningConfig(), context);
  }

  // Fused streaming generate+screen with a recorder attached.
  static ScreeningStats RunStreaming(int threads, TraceRecorder* recorder) {
    EngineContext context(PinnedEngine(threads, nullptr, recorder));
    PopulationConfig population;
    population.processor_count = kFleetSize;
    FleetShardStream stream(population);
    ScreeningPipeline pipeline(suite_);
    StreamingScreen screen(&pipeline, ScreeningConfig());
    stream.Drive({&screen}, context);
    return screen.TakeStats();
  }

  static TestSuite* suite_;
};

TestSuite* TraceFleetTest::suite_ = nullptr;

TEST_F(TraceFleetTest, SimTraceIsByteIdenticalAcrossThreadCounts) {
  // Every run is on a PinnedEngine, so SDC_THREADS cannot relabel the lane counts.
  TraceRecorder at1;
  RunMaterialized(1, &at1);
  const std::string baseline = SimTraceJson(at1);
  for (int threads : {2, 8}) {
    TraceRecorder recorder;
    RunMaterialized(threads, &recorder);
    EXPECT_EQ(SimTraceJson(recorder), baseline) << "threads=" << threads;
  }
  EXPECT_NE(baseline.find("generate.shard"), std::string::npos);
  EXPECT_NE(baseline.find("screen.subshard"), std::string::npos);
  EXPECT_NE(baseline.find("\"detection\""), std::string::npos);
}

TEST_F(TraceFleetTest, StreamingSimTraceMatchesMaterializedAtEveryThreadCount) {
  TraceRecorder materialized;
  RunMaterialized(1, &materialized);
  const std::string baseline = SimTraceJson(materialized);
  for (int threads : {1, 2, 8}) {
    TraceRecorder recorder;
    RunStreaming(threads, &recorder);
    EXPECT_EQ(SimTraceJson(recorder), baseline) << "streaming threads=" << threads;
  }
}

TEST_F(TraceFleetTest, EveryDetectionCarriesConsistentProvenance) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  const ScreeningStats stats = RunMaterialized(4, &recorder, &registry);
  ASSERT_GT(stats.detections.size(), 0u);
  ASSERT_EQ(stats.provenance.size(), stats.detections.size());
  ScreeningConfig defaults;
  for (size_t i = 0; i < stats.detections.size(); ++i) {
    const ProcessorOutcome& outcome = stats.detections[i];
    const DetectionProvenance& record = stats.provenance[i];
    EXPECT_EQ(record.serial, outcome.serial);
    EXPECT_EQ(record.arch_index, outcome.arch_index);
    EXPECT_EQ(record.stage, outcome.stage);
    EXPECT_DOUBLE_EQ(record.month, outcome.month);
    EXPECT_EQ(record.sub_shard, outcome.serial / kScreeningShardGrain);
    EXPECT_EQ(record.rng_stream, record.sub_shard);
    EXPECT_GE(record.defect_count, 1u);
    EXPECT_FALSE(record.defect_id.empty());
    EXPECT_DOUBLE_EQ(
        record.stage_temperature_celsius,
        defaults.stages[static_cast<size_t>(record.stage)].temperature_celsius);
  }
  // The metrics bridge sees the same totals, which is what check_trace_json.py
  // cross-checks end to end through sdcctl.
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("screening.provenance.records"), stats.total_detected());
  EXPECT_EQ(snapshot.CounterOr("screening.detected"), stats.total_detected());
}

TEST_F(TraceFleetTest, DetectionInstantsMatchProvenanceCount) {
  TraceRecorder recorder;
  const ScreeningStats stats = RunStreaming(4, &recorder);
  const TraceSnapshot snapshot = recorder.Snapshot();
  uint64_t instants = 0;
  uint64_t subshard_spans = 0;
  for (const TraceEvent& event : snapshot.sim) {
    if (event.name == "detection") {
      ++instants;
    }
    if (event.name == "screen.subshard") {
      ++subshard_spans;
    }
  }
  EXPECT_EQ(instants, stats.provenance.size());
  EXPECT_EQ(instants, stats.total_detected());
  EXPECT_EQ(subshard_spans,
            (kFleetSize + kScreeningShardGrain - 1) / kScreeningShardGrain);
}

// Single-scenario Run is a batch of one, so Run and a materialized RunBatch leave the
// same pass-level host telemetry on the context's sinks: exactly one "screening.run" host
// span and one "screening.run.wall" sample per pass, whatever the batch size.
TEST_F(TraceFleetTest, RunAndRunBatchLeaveOneRunSpanAndOneRunTimerSample) {
  PopulationConfig population;
  population.processor_count = kFleetSize;
  const FleetPopulation fleet = GenerateFleet(population);
  ScreeningPipeline pipeline(suite_);
  auto run_spans = [](const TraceRecorder& recorder) {
    uint64_t spans = 0;
    for (const TraceEvent& event : recorder.Snapshot().host) {
      if (event.name == "screening.run") {
        ++spans;
      }
    }
    return spans;
  };
  auto run_timer_samples = [](const MetricsRegistry& registry) -> uint64_t {
    const MetricsSnapshot snapshot = registry.Snapshot();
    const auto it = snapshot.timers.find("screening.run.wall");
    return it == snapshot.timers.end() ? 0 : it->second.count;
  };

  {
    SCOPED_TRACE("Run");
    TraceRecorder recorder;
    MetricsRegistry registry;
    EngineContext context(PinnedEngine(2, &registry, &recorder));
    (void)pipeline.Run(fleet, ScreeningConfig(), context);
    EXPECT_EQ(run_spans(recorder), 1u);
    EXPECT_EQ(run_timer_samples(registry), 1u);
  }

  {
    SCOPED_TRACE("RunBatch, K=3");
    ScenarioBatch batch;
    for (uint64_t k = 0; k < 3; ++k) {
      ScreeningConfig scenario;
      scenario.seed = 900 + k;
      batch.scenarios.push_back(scenario);
    }
    TraceRecorder recorder;
    MetricsRegistry registry;
    EngineContext context(PinnedEngine(2, &registry, &recorder));
    (void)pipeline.RunBatch(fleet, batch, context);
    EXPECT_EQ(run_spans(recorder), 1u);
    EXPECT_EQ(run_timer_samples(registry), 1u);
  }
}

TEST_F(TraceFleetTest, NullRecorderRecordsNothingAndChangesNothing) {
  // The zero-cost contract's functional half: stats are the same object with tracing on,
  // off, and with metrics detached.
  TraceRecorder recorder;
  const ScreeningStats traced = RunMaterialized(2, &recorder);
  const ScreeningStats untraced = RunMaterialized(2, nullptr);
  EXPECT_EQ(traced.total_detected(), untraced.total_detected());
  EXPECT_EQ(traced.detections.size(), untraced.detections.size());
  EXPECT_EQ(traced.provenance.size(), untraced.provenance.size());
}

TEST_F(TraceFleetTest, SummaryAttributesSimTimeByCategory) {
  TraceRecorder recorder;
  RunStreaming(2, &recorder);
  const TraceSummary summary = SummarizeTrace(recorder.Snapshot(), 3);
  EXPECT_GT(summary.sim_events, 0u);
  EXPECT_GT(summary.host_spans, 0u);
  EXPECT_LE(summary.slowest_host.size(), 3u);
  bool saw_generate = false;
  bool saw_screen = false;
  for (const TraceCategorySummary& category : summary.categories) {
    if (category.category == "generate") {
      saw_generate = true;
      // Generation spans tile the serial axis exactly once.
      EXPECT_DOUBLE_EQ(category.sim_duration_total, static_cast<double>(kFleetSize));
    }
    if (category.category == "screen") {
      saw_screen = true;
    }
  }
  EXPECT_TRUE(saw_generate);
  EXPECT_TRUE(saw_screen);
  std::ostringstream out;
  summary.DumpText(out);
  EXPECT_NE(out.str().find("category generate"), std::string::npos);
  EXPECT_NE(out.str().find("slowest host spans"), std::string::npos);
}

class TraceToolchainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
};

TestSuite* TraceToolchainTest::suite_ = nullptr;

TEST_F(TraceToolchainTest, PlanTraceIsThreadCountInvariant) {
  const std::vector<TestPlanEntry> plan = {{0, 4.0}, {1, 6.0}, {2, 2.0}};
  auto run = [&](int threads) {
    TestFramework framework(suite_);
    FaultyMachine machine(FindInCatalog("SIMD1"), 31);
    TestRunConfig config;
    config.time_scale = 2e7;
    config.seed = 5;
    config.parallel_plan_entries = true;
    TraceRecorder recorder;
    EngineContext context(PinnedEngine(threads, nullptr, &recorder));
    framework.RunPlan(machine, plan, config, context);
    return SimTraceJson(recorder);
  };
  const std::string baseline = run(1);
  EXPECT_EQ(run(4), baseline);
  EXPECT_NE(baseline.find("toolchain.entry"), std::string::npos);
}

TEST_F(TraceToolchainTest, PlanEntriesSpanBackToBackInPlanOrder) {
  const std::vector<TestPlanEntry> plan = {{0, 4.0}, {1, 6.0}, {2, 2.0}};
  TestFramework framework(suite_);
  FaultyMachine machine(FindInCatalog("SIMD1"), 31);
  TestRunConfig config;
  config.time_scale = 2e7;
  TraceRecorder recorder;
  EngineContext context(PinnedEngine(1, nullptr, &recorder));
  framework.RunPlan(machine, plan, config, context);
  const TraceSnapshot snapshot = recorder.Snapshot();
  std::vector<const TraceEvent*> entries;
  for (const TraceEvent& event : snapshot.sim) {
    if (event.name == "toolchain.entry") {
      entries.push_back(&event);
    }
  }
  ASSERT_EQ(entries.size(), plan.size());
  double cursor = 0.0;
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_DOUBLE_EQ(entries[i]->timestamp, cursor);
    EXPECT_DOUBLE_EQ(entries[i]->duration, plan[i].duration_seconds * 1e6);
    ASSERT_FALSE(entries[i]->str_args.empty());
    EXPECT_EQ(entries[i]->str_args[0].second, suite_->info(plan[i].testcase_index).id);
    cursor += entries[i]->duration;
  }
  // The serial plan still records the host-domain plan span.
  ASSERT_FALSE(snapshot.host.empty());
  EXPECT_EQ(snapshot.host.back().name, "toolchain.plan");
}

TEST_F(TraceToolchainTest, ProtectionRunEmitsSpanAndBackoffInstants) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  config.enable_adaptive_boundary = false;
  TraceRecorder recorder;
  EngineContext context(PinnedEngine(1, nullptr, &recorder));
  Farron farron(suite_, &machine, config, context);
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  spec.base_utilization = 0.45;
  spec.burst_probability = 0.02;
  spec.burst_seconds = 120.0;
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
  const TraceSnapshot snapshot = recorder.Snapshot();
  uint64_t runs = 0;
  uint64_t engaged = 0;
  uint64_t released = 0;
  for (const TraceEvent& event : snapshot.sim) {
    if (event.name == "protection.run") {
      ++runs;
      EXPECT_EQ(event.track, kTraceTrackProtection);
      EXPECT_NEAR(event.duration, 3600.0 * 1e6, 3600.0 * 1e6 * 0.05);
    }
    if (event.name == "backoff.engaged") {
      ++engaged;
    }
    if (event.name == "backoff.released") {
      ++released;
    }
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(engaged, report.backoff_engagements);
  EXPECT_GE(engaged, released);
  EXPECT_LE(engaged, released + 1);
}

TEST(TraceJsonTest, DocumentShapeAndHostExclusion) {
  TraceRecorder recorder;
  TraceDelta delta;
  TraceEvent span = MakeTraceSpan("s", "cat", kTraceTrackScreen, 1.0, 2.0);
  span.str_args.emplace_back("key", "value \"quoted\"");
  span.num_args.emplace_back("n", 3.5);
  delta.Add(std::move(span));
  recorder.MergeDelta(std::move(delta));
  recorder.RecordHostSpan("wall", "cat", kTraceTrackScreen, 0.0, 1.0);
  std::ostringstream with_host;
  WriteTraceJson(with_host, recorder.Snapshot(), /*include_host=*/true);
  std::ostringstream sim_only;
  WriteTraceJson(sim_only, recorder.Snapshot(), /*include_host=*/false);
  EXPECT_NE(with_host.str().find("\"wall\""), std::string::npos);
  EXPECT_EQ(sim_only.str().find("\"wall\""), std::string::npos);
  EXPECT_NE(sim_only.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(sim_only.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(sim_only.str().find("\"value \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(sim_only.str().find("\"hostEventsIncluded\":false"), std::string::npos);
}

}  // namespace
}  // namespace sdc
