// Tests for src/telemetry and its wiring into Farron and the protection loop.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/common/parallel.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/telemetry/event_log.h"
#include "src/telemetry/metrics.h"

namespace sdc {
namespace {

TEST(MetricsDeltaTest, AccumulatesAllKinds) {
  MetricsDelta delta;
  delta.Add("c");
  delta.Add("c", 4);
  delta.Set("g", 1.5);
  delta.Set("g", 2.5);
  delta.Observe("h", 5.0, 0.0, 10.0, 2);
  delta.Observe("h", 9.0, 0.0, 10.0, 2);
  EXPECT_EQ(delta.counters().at("c"), 5u);
  EXPECT_DOUBLE_EQ(delta.gauges().at("g"), 2.5);  // last write wins
  const Histogram& histogram = delta.histograms().at("h");
  EXPECT_EQ(histogram.total(), 2u);
  EXPECT_EQ(histogram.count(1), 2u);
  EXPECT_FALSE(delta.empty());
}

TEST(MetricsDeltaTest, MergeFromAppliesOtherAfterOwn) {
  MetricsDelta first;
  first.Add("c", 2);
  first.Set("g", 1.0);
  first.Observe("h", 1.0, 0.0, 4.0, 4);
  MetricsDelta second;
  second.Add("c", 3);
  second.Set("g", 7.0);
  second.Observe("h", 3.0, 0.0, 4.0, 4);
  first.MergeFrom(second);
  EXPECT_EQ(first.counters().at("c"), 5u);
  EXPECT_DOUBLE_EQ(first.gauges().at("g"), 7.0);  // other's gauge applied after
  EXPECT_EQ(first.histograms().at("h").total(), 2u);
}

TEST(MetricsRegistryTest, SnapshotAndClear) {
  MetricsRegistry registry;
  registry.Add("c", 2);
  registry.Set("g", 3.0);
  registry.Observe("h", 0.5, 0.0, 1.0, 4);
  registry.RecordTimerSeconds("t", 0.25);
  registry.RecordTimerSeconds("t", 0.75);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("c"), 2u);
  EXPECT_EQ(snapshot.CounterOr("absent", 9u), 9u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("g"), 3.0);
  EXPECT_EQ(snapshot.histograms.at("h").total(), 1u);
  const TimerStat& timer = snapshot.timers.at("t");
  EXPECT_EQ(timer.count, 2u);
  EXPECT_DOUBLE_EQ(timer.total_seconds, 1.0);
  EXPECT_DOUBLE_EQ(timer.min_seconds, 0.25);
  EXPECT_DOUBLE_EQ(timer.max_seconds, 0.75);
  registry.Clear();
  const MetricsSnapshot cleared = registry.Snapshot();
  EXPECT_TRUE(cleared.counters.empty());
  EXPECT_TRUE(cleared.timers.empty());
}

TEST(MetricsRegistryTest, MergeDeltaInShardOrderIsDeterministic) {
  // Two shards built in shard order must produce the same registry contents no matter how
  // the shard bodies interleaved, because each shard's delta is private until the merge.
  auto run = [] {
    MetricsDelta shard0;
    shard0.Add("n", 1);
    shard0.Set("last", 0.0);
    MetricsDelta shard1;
    shard1.Add("n", 2);
    shard1.Set("last", 1.0);
    MetricsRegistry registry;
    registry.MergeDelta(shard0);
    registry.MergeDelta(shard1);
    return registry.Snapshot();
  };
  const MetricsSnapshot a = run();
  const MetricsSnapshot b = run();
  EXPECT_EQ(a.counters.at("n"), 3u);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_DOUBLE_EQ(a.gauges.at("last"), 1.0);  // shard 1 merged last
}

TEST(MetricsRegistryTest, ScopedTimerRecordsAndToleratesNull) {
  MetricsRegistry registry;
  {
    MetricsRegistry::ScopedTimer timer(&registry, "span");
  }
  {
    MetricsRegistry::ScopedTimer null_timer(nullptr, "span");  // must not crash
  }
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.timers.at("span").count, 1u);
}

TEST(MetricsRegistryTest, DumpTextRendersEverySection) {
  MetricsRegistry registry;
  registry.Add("my.counter", 7);
  registry.Set("my.gauge", 2.0);
  registry.Observe("my.hist", 1.0, 0.0, 2.0, 2);
  registry.RecordTimerSeconds("my.timer", 0.5);
  std::ostringstream out;
  registry.Snapshot().DumpText(out);
  EXPECT_NE(out.str().find("counter my.counter = 7"), std::string::npos);
  EXPECT_NE(out.str().find("my.gauge"), std::string::npos);
  EXPECT_NE(out.str().find("my.hist"), std::string::npos);
  EXPECT_NE(out.str().find("my.timer"), std::string::npos);
  EXPECT_NE(out.str().find("nondeterministic"), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreSerialized) {
  // Hammer one registry from the worker pool; run under SDC_TSAN=ON this doubles as the
  // data-race check for the registry's single-mutex design.
  MetricsRegistry registry;
  ThreadPool pool(8);
  constexpr uint64_t kItems = 4096;
  pool.ParallelFor(0, kItems, 64, [&](uint64_t, uint64_t begin, uint64_t end) {
    for (uint64_t index = begin; index < end; ++index) {
      registry.Add("n");
      registry.RecordTimerSeconds("t", 1e-9 * static_cast<double>(index + 1));
    }
  });
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("n"), kItems);
  EXPECT_EQ(snapshot.timers.at("t").count, kItems);
}

// Regression pin for TimerStat's min handling: the first sample must become the min
// even though min_seconds starts at 0, both through Record and through MergeFrom into a
// default-constructed stat (the path MetricsSnapshot::MergeFrom takes for a timer name
// the destination has never seen).
TEST(TimerStatTest, FirstRecordSetsMinNotZero) {
  TimerStat stat;
  stat.Record(5.0);
  EXPECT_EQ(stat.count, 1u);
  EXPECT_DOUBLE_EQ(stat.min_seconds, 5.0);
  EXPECT_DOUBLE_EQ(stat.max_seconds, 5.0);
  stat.Record(2.0);
  stat.Record(9.0);
  EXPECT_EQ(stat.count, 3u);
  EXPECT_DOUBLE_EQ(stat.min_seconds, 2.0);
  EXPECT_DOUBLE_EQ(stat.max_seconds, 9.0);
  EXPECT_DOUBLE_EQ(stat.total_seconds, 16.0);
}

TEST(TimerStatTest, MergeIntoEmptyAdoptsOtherMin) {
  TimerStat other;
  other.Record(3.0);
  other.Record(7.0);
  TimerStat empty;
  empty.MergeFrom(other);
  EXPECT_EQ(empty.count, 2u);
  EXPECT_DOUBLE_EQ(empty.min_seconds, 3.0);  // not min(0, 3)
  EXPECT_DOUBLE_EQ(empty.max_seconds, 7.0);
  // Merging an empty stat in is a no-op, including on the min.
  TimerStat untouched = empty;
  empty.MergeFrom(TimerStat{});
  EXPECT_EQ(empty.count, untouched.count);
  EXPECT_DOUBLE_EQ(empty.min_seconds, untouched.min_seconds);
}

TEST(TimerStatTest, MergeKeepsTrueExtremes) {
  TimerStat a;
  a.Record(4.0);
  TimerStat b;
  b.Record(1.0);
  b.Record(6.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(a.max_seconds, 6.0);
  EXPECT_DOUBLE_EQ(a.total_seconds, 11.0);
}

// MetricsSnapshot::MergeFrom is how the sdcd daemon folds per-campaign registries into
// one exposition document; every section must combine by its own rule.
TEST(MetricsSnapshotTest, MergeFromCombinesEverySection) {
  MetricsRegistry first;
  first.Add("shared", 2);
  first.Add("only_first");
  first.Set("g", 1.0);
  first.Observe("h", 0.5, 0.0, 1.0, 4);
  first.RecordTimerSeconds("t", 4.0);

  MetricsRegistry second;
  second.Add("shared", 3);
  second.Add("only_second", 7);
  second.Set("g", 9.0);
  second.Observe("h", 0.9, 0.0, 1.0, 4);
  second.RecordTimerSeconds("t", 1.0);
  second.RecordTimerSeconds("t2", 2.0);

  MetricsSnapshot merged = first.Snapshot();
  merged.MergeFrom(second.Snapshot());
  EXPECT_EQ(merged.CounterOr("shared"), 5u);
  EXPECT_EQ(merged.CounterOr("only_first"), 1u);
  EXPECT_EQ(merged.CounterOr("only_second"), 7u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("g"), 9.0);  // last-write-wins
  EXPECT_EQ(merged.histograms.at("h").total(), 2u);
  const TimerStat& timer = merged.timers.at("t");
  EXPECT_EQ(timer.count, 2u);
  EXPECT_DOUBLE_EQ(timer.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(timer.max_seconds, 4.0);
  // t2 arrives via the default-construct-then-merge path; min must be 2, not 0.
  EXPECT_EQ(merged.timers.at("t2").count, 1u);
  EXPECT_DOUBLE_EQ(merged.timers.at("t2").min_seconds, 2.0);
}

TEST(EventLogTest, BridgesRecordsIntoMetrics) {
  MetricsRegistry registry;
  EventLog log;
  log.AttachMetrics(&registry);
  log.Record(EventKind::kSdcDetected, 1.0, "case-a");
  log.Record(EventKind::kSdcDetected, 2.0, "case-b");
  log.Record(EventKind::kBackoffEngaged, 3.0, "CPU");
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("events.recorded"), 3u);
  EXPECT_EQ(snapshot.CounterOr("events." + EventKindName(EventKind::kSdcDetected)), 2u);
  EXPECT_EQ(snapshot.CounterOr("events." + EventKindName(EventKind::kBackoffEngaged)), 1u);
  log.AttachMetrics(nullptr);
  log.Record(EventKind::kSdcDetected, 4.0, "case-c");
  EXPECT_EQ(registry.Snapshot().CounterOr("events.recorded"), 3u);  // detached
}

TEST(EventLogTest, ConcurrentRecordKeepsTotals) {
  // The TSAN-covered regression for the unsynchronized-Record bug: many workers logging
  // at once (as under parallel_plan_entries) must neither race nor lose counts.
  MetricsRegistry registry;
  EventLog log(64);
  log.AttachMetrics(&registry);
  ThreadPool pool(8);
  constexpr uint64_t kEvents = 2048;
  pool.ParallelFor(0, kEvents, 32, [&](uint64_t, uint64_t begin, uint64_t end) {
    for (uint64_t index = begin; index < end; ++index) {
      log.Record(EventKind::kBackoffEngaged, static_cast<double>(index), "worker");
    }
  });
  EXPECT_EQ(log.total_recorded(), kEvents);
  EXPECT_EQ(log.CountOf(EventKind::kBackoffEngaged), kEvents);
  EXPECT_EQ(log.RetainedEvents().size(), 64u);  // bounded window intact
  EXPECT_EQ(registry.Snapshot().CounterOr("events.recorded"), kEvents);
}

TEST(EventLogTest, RecordsAndCounts) {
  EventLog log;
  log.Record(EventKind::kSdcDetected, 1.0, "case-a", 3, 12.0);
  log.Record(EventKind::kSdcDetected, 2.0, "case-b");
  log.Record(EventKind::kCoreMasked, 3.0, "CPU", 5);
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.CountOf(EventKind::kSdcDetected), 2u);
  EXPECT_EQ(log.CountOf(EventKind::kCoreMasked), 1u);
  EXPECT_EQ(log.CountOf(EventKind::kBackoffEngaged), 0u);
  const auto detected = log.EventsOf(EventKind::kSdcDetected);
  ASSERT_EQ(detected.size(), 2u);
  EXPECT_EQ(detected[0].subject, "case-a");
  EXPECT_EQ(detected[0].pcore, 3);
  EXPECT_DOUBLE_EQ(detected[0].value, 12.0);
}

TEST(EventLogTest, BoundedRetentionKeepsTotals) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(EventKind::kBackoffEngaged, i, "w");
  }
  EXPECT_EQ(log.RetainedEvents().size(), 4u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.CountOf(EventKind::kBackoffEngaged), 10u);
  EXPECT_DOUBLE_EQ(log.RetainedEvents().front().time_seconds, 6.0);  // oldest retained
  // Evictions are counted, not silent: retained + dropped always accounts for every
  // record, and the counter is visible through the metrics bridge below.
  EXPECT_EQ(log.dropped_events(), 6u);
  EXPECT_EQ(log.total_recorded(), log.RetainedEvents().size() + log.dropped_events());
}

TEST(EventLogTest, DroppedEventsBridgeIntoMetricsAndReset) {
  MetricsRegistry registry;
  EventLog log(2);
  log.AttachMetrics(&registry);
  for (int i = 0; i < 5; ++i) {
    log.Record(EventKind::kSdcDetected, i, "case");
  }
  EXPECT_EQ(log.dropped_events(), 3u);
  EXPECT_EQ(registry.Snapshot().CounterOr("events.dropped"), 3u);
  EXPECT_EQ(registry.Snapshot().CounterOr("events.recorded"), 5u);
  log.Clear();
  EXPECT_EQ(log.dropped_events(), 0u);
  EXPECT_EQ(log.total_recorded(), 0u);
}

TEST(EventLogTest, DumpRendersEveryRetainedEvent) {
  EventLog log;
  log.Record(EventKind::kBoundaryRaised, 5.5, "CPU", -1, 60.0);
  std::ostringstream out;
  log.Dump(out);
  EXPECT_NE(out.str().find("boundary-raised"), std::string::npos);
  EXPECT_NE(out.str().find("CPU"), std::string::npos);
}

TEST(EventLogTest, ClearResetsEverything) {
  EventLog log;
  log.Record(EventKind::kRoundStarted, 0.0, "x");
  log.Clear();
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_TRUE(log.RetainedEvents().empty());
}

TEST(EventLogTest, EveryKindHasAName) {
  for (int kind = 0; kind <= static_cast<int>(EventKind::kBoundaryRaised); ++kind) {
    EXPECT_NE(EventKindName(static_cast<EventKind>(kind)), "?");
  }
}

class FarronTelemetryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
};

TestSuite* FarronTelemetryTest::suite_ = nullptr;

// A serial context carrying Farron's event log and, optionally, a registry.
EngineOptions FarronEngine(EventLog* log, MetricsRegistry* metrics = nullptr) {
  return EngineOptions{
      .threads = 1, .env_overrides = false, .metrics = metrics, .event_log = log};
}

TEST_F(FarronTelemetryTest, RegularRoundEmitsLifecycleEvents) {
  FaultyMachine machine(FindInCatalog("SIMD1"), 61);
  FarronConfig config;
  EventLog log;
  EngineContext context(FarronEngine(&log));
  Farron farron(suite_, &machine, config, context);
  std::vector<std::string> history;
  for (size_t index : suite_->IndicesTargeting(Feature::kVecUnit)) {
    history.push_back(suite_->info(index).id);
  }
  farron.SetActiveFromHistory(history);
  farron.RunRegularRound({});
  EXPECT_EQ(log.CountOf(EventKind::kRoundStarted), 1u);
  EXPECT_EQ(log.CountOf(EventKind::kRoundCompleted), 1u);
  EXPECT_GT(log.CountOf(EventKind::kSdcDetected), 0u);
  EXPECT_EQ(log.CountOf(EventKind::kCoreMasked), 1u);  // SIMD1's single bad core
  const auto masked = log.EventsOf(EventKind::kCoreMasked);
  ASSERT_EQ(masked.size(), 1u);
  EXPECT_EQ(masked[0].pcore, 5);
}

TEST_F(FarronTelemetryTest, ControlStepEmitsCoolingEvents) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  config.enable_cooling_control = true;
  config.enable_adaptive_boundary = false;
  EventLog log;
  EngineContext context(FarronEngine(&log));
  Farron farron(suite_, &machine, config, context);
  for (int i = 0; i < 6; ++i) {
    farron.ControlStep(62.0);
  }
  EXPECT_EQ(log.CountOf(EventKind::kCoolingBoosted), 4u);
}

TEST_F(FarronTelemetryTest, ProtectionLoopEmitsBackoffTransitions) {
  FaultyMachine machine(MakeArchSpec("M2"));
  FarronConfig config;
  config.enable_adaptive_boundary = false;
  EventLog log;
  EngineContext context(FarronEngine(&log));
  Farron farron(suite_, &machine, config, context);
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  spec.base_utilization = 0.45;
  spec.burst_probability = 0.02;
  spec.burst_seconds = 120.0;
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
  EXPECT_EQ(log.CountOf(EventKind::kBackoffEngaged), report.backoff_engagements);
  // Every engagement eventually releases (or the run ends throttled; allow off-by-one).
  EXPECT_GE(log.CountOf(EventKind::kBackoffEngaged),
            log.CountOf(EventKind::kBackoffReleased));
  EXPECT_LE(log.CountOf(EventKind::kBackoffEngaged),
            log.CountOf(EventKind::kBackoffReleased) + 1);
}

TEST_F(FarronTelemetryTest, ProtectionLoopRecordsMetrics) {
  FaultyMachine machine(MakeArchSpec("M2"));
  MetricsRegistry registry;
  FarronConfig config;
  config.enable_adaptive_boundary = false;
  EventLog log;
  log.AttachMetrics(&registry);
  EngineContext context(FarronEngine(&log, &registry));
  Farron farron(suite_, &machine, config, context);
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(suite_->IndexOf("lib.crc32.scalar.b1024"));
  spec.burst_probability = 0.02;
  spec.burst_seconds = 120.0;
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("protection.runs"), 1u);
  EXPECT_EQ(snapshot.CounterOr("protection.sdc_events"), report.sdc_events);
  EXPECT_EQ(snapshot.CounterOr("protection.backoff_engagements"),
            report.backoff_engagements);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("protection.max_temperature_celsius"),
                   report.max_temperature);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("protection.backoff_seconds_per_hour"),
                   report.BackoffSecondsPerHour());
  // The attached log bridged the same engagements into event counters.
  EXPECT_EQ(snapshot.CounterOr("events." + EventKindName(EventKind::kBackoffEngaged)),
            report.backoff_engagements);
}

TEST_F(FarronTelemetryTest, NoLogMeansNoCrash) {
  FaultyMachine machine(MakeArchSpec("M5"));
  EngineContext context(FarronEngine(nullptr));
  Farron farron(suite_, &machine, FarronConfig(), context);
  EXPECT_EQ(farron.event_log(), nullptr);
  farron.ControlStep(62.0);  // emits nothing, crashes nothing
}

}  // namespace
}  // namespace sdc
