// Tests for src/telemetry/series.h and the engine paths that feed it: ring mechanics
// (capacity eviction, dropped accounting, clock pinning), the clock-domain segregation
// the exporter honors, and the PR's acceptance bar -- the sim-series JSON document is
// byte-identical at 1, 2, and 8 threads, in streaming and materialized execution, for
// both the screening pass and the scrubber's epoch loop.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/scrub/scrubber.h"
#include "src/telemetry/series.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

TEST(SeriesRecorderTest, AppendsInOrderWithTotals) {
  SeriesRecorder recorder;
  recorder.Append("a", SeriesClock::kSim, 1.0, 10.0);
  recorder.Append("a", SeriesClock::kSim, 2.0, 20.0);
  recorder.Append("b", SeriesClock::kSim, 5.0, 50.0);
  const SeriesSnapshot snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.sim.size(), 2u);
  EXPECT_TRUE(snapshot.host.empty());
  const SeriesData& a = snapshot.sim.at("a");
  ASSERT_EQ(a.points.size(), 2u);
  EXPECT_EQ(a.points[0], (SeriesPoint{1.0, 10.0}));
  EXPECT_EQ(a.points[1], (SeriesPoint{2.0, 20.0}));
  EXPECT_EQ(a.dropped, 0u);
  EXPECT_EQ(a.total_points, 2u);
  EXPECT_EQ(snapshot.sim.at("b").total_points, 1u);
}

TEST(SeriesRecorderTest, EvictsOldestOnceFullAndCountsDropped) {
  SeriesRecorder recorder(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    recorder.Append("ring", SeriesClock::kSim, i, i * 10.0);
  }
  const SeriesSnapshot snapshot = recorder.Snapshot();
  const SeriesData& ring = snapshot.sim.at("ring");
  // Oldest-first window: points 2, 3, 4 survive; 0 and 1 were evicted.
  ASSERT_EQ(ring.points.size(), 3u);
  EXPECT_EQ(ring.points[0], (SeriesPoint{2.0, 20.0}));
  EXPECT_EQ(ring.points[1], (SeriesPoint{3.0, 30.0}));
  EXPECT_EQ(ring.points[2], (SeriesPoint{4.0, 40.0}));
  EXPECT_EQ(ring.dropped, 2u);
  EXPECT_EQ(ring.total_points, 5u);
  EXPECT_EQ(ring.points.size() + ring.dropped, ring.total_points);
}

TEST(SeriesRecorderTest, ClockDomainIsPinnedByFirstAppend) {
  SeriesRecorder recorder;
  recorder.Append("pinned", SeriesClock::kSim, 1.0, 1.0);
  // A later append claiming a different clock reuses the pinned domain rather than
  // splitting one series across the two snapshot sections.
  recorder.Append("pinned", SeriesClock::kHost, 2.0, 2.0);
  const SeriesSnapshot snapshot = recorder.Snapshot();
  EXPECT_TRUE(snapshot.host.empty());
  EXPECT_EQ(snapshot.sim.at("pinned").points.size(), 2u);
}

TEST(SeriesRecorderTest, HostSeriesAreSegregated) {
  SeriesRecorder recorder;
  recorder.Append("sim.counter", SeriesClock::kSim, 1.0, 1.0);
  recorder.Append("host.rate", SeriesClock::kHost, 0.5, 100.0);
  const SeriesSnapshot snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.sim.count("sim.counter"), 1u);
  EXPECT_EQ(snapshot.host.count("host.rate"), 1u);
  EXPECT_EQ(snapshot.sim.count("host.rate"), 0u);
}

TEST(SeriesRecorderTest, ClearEmptiesEverything) {
  SeriesRecorder recorder;
  recorder.Append("a", SeriesClock::kSim, 1.0, 1.0);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(SeriesJsonTest, IncludeHostFlagExcludesOnlyHostSection) {
  SeriesRecorder recorder;
  recorder.Append("sim.counter", SeriesClock::kSim, 1.0, 1.0);
  recorder.Append("host.rate", SeriesClock::kHost, 0.5, 100.0);
  const SeriesSnapshot snapshot = recorder.Snapshot();
  std::ostringstream with_host;
  WriteSeriesJson(with_host, snapshot, /*include_host=*/true);
  std::ostringstream without_host;
  WriteSeriesJson(without_host, snapshot, /*include_host=*/false);
  EXPECT_NE(with_host.str().find("host.rate"), std::string::npos);
  EXPECT_EQ(without_host.str().find("host.rate"), std::string::npos);
  EXPECT_NE(without_host.str().find("sim.counter"), std::string::npos);
}

// --- Engine determinism: the acceptance bar -------------------------------------------

constexpr uint64_t kFleetSize = 200000;
constexpr uint64_t kFleetSeed = 20260805;

class SeriesDeterminismTest : public ::testing::Test {
 protected:

  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  // One generate+screen pass on a context carrying a series sink, rendered as the
  // deterministic (sim-only) JSON document. The bytes ARE the contract.
  static std::string MaterializedSeriesJson(int threads) {
    SeriesRecorder recorder;
    EngineContext context(PinnedEngine(threads, nullptr, nullptr, &recorder));
    PopulationConfig population;
    population.processor_count = kFleetSize;
    population.seed = kFleetSeed;
    const FleetPopulation fleet = FleetPopulation::Generate(population, context);
    ScreeningPipeline pipeline(suite_);
    RunBatchOfOne(pipeline, fleet, ScreeningConfig(), context);
    std::ostringstream out;
    WriteSeriesJson(out, recorder.Snapshot(), /*include_host=*/false);
    return out.str();
  }

  static std::string StreamingSeriesJson(int threads) {
    SeriesRecorder recorder;
    EngineContext context(PinnedEngine(threads, nullptr, nullptr, &recorder));
    PopulationConfig population;
    population.processor_count = kFleetSize;
    population.seed = kFleetSeed;
    ScreeningPipeline pipeline(suite_);
    FleetShardStream stream(population);
    StreamingScreen screen(&pipeline, ScreeningConfig());
    stream.Drive({&screen}, context);
    std::ostringstream out;
    WriteSeriesJson(out, recorder.Snapshot(), /*include_host=*/false);
    return out.str();
  }

  static std::string ScrubSeriesJson(int threads) {
    SeriesRecorder recorder;
    EngineContext context(PinnedEngine(threads, nullptr, nullptr, &recorder));
    ScrubConfig config;
    config.population.processor_count = 50'000;
    config.population.seed = 2024;
    config.budget_fraction = 2e-5;
    config.horizon_months = 4.0;
    config.epoch_months = 1.0;
    config.max_cases_per_round = 8;
    config.workload_sample_hours = 0.02;
    FleetScrubber scrubber(suite_);
    scrubber.Run(config, context);
    std::ostringstream out;
    WriteSeriesJson(out, recorder.Snapshot(), /*include_host=*/false);
    return out.str();
  }

  static TestSuite* suite_;
};

TestSuite* SeriesDeterminismTest::suite_ = nullptr;

TEST_F(SeriesDeterminismTest, ScreeningSeriesIsThreadCountInvariant) {
  const std::string one = MaterializedSeriesJson(1);
  EXPECT_EQ(one, MaterializedSeriesJson(2));
  EXPECT_EQ(one, MaterializedSeriesJson(8));
}

TEST_F(SeriesDeterminismTest, StreamingSeriesMatchesMaterialized) {
  const std::string materialized = MaterializedSeriesJson(1);
  EXPECT_EQ(materialized, StreamingSeriesJson(1));
  EXPECT_EQ(materialized, StreamingSeriesJson(2));
  EXPECT_EQ(materialized, StreamingSeriesJson(8));
}

TEST_F(SeriesDeterminismTest, ScreeningSeriesIsNotVacuous) {
  const std::string document = MaterializedSeriesJson(2);
  // Both stages sampled: the generator's trajectory and the screen's.
  EXPECT_NE(document.find("fleet.generate.faulty"), std::string::npos);
  EXPECT_NE(document.find("screening.tested"), std::string::npos);
  EXPECT_NE(document.find("screening.detected"), std::string::npos);
  EXPECT_NE(document.find("screening.escapes"), std::string::npos);
}

TEST_F(SeriesDeterminismTest, ScrubSeriesIsThreadCountInvariant) {
  const std::string one = ScrubSeriesJson(1);
  EXPECT_EQ(one, ScrubSeriesJson(2));
  EXPECT_EQ(one, ScrubSeriesJson(8));
  EXPECT_NE(one.find("scrub.budget"), std::string::npos);
  EXPECT_NE(one.find("scrub.detections"), std::string::npos);
}

// The context's series sink feeds every pass that runs on it -- the same pinning
// discipline metrics/trace use.
TEST_F(SeriesDeterminismTest, ContextAttachmentFeedsSeries) {
  SeriesRecorder recorder;
  EngineOptions options;
  options.threads = 2;
  options.env_overrides = false;
  options.series = &recorder;
  EngineContext context(options);
  PopulationConfig population;
  population.processor_count = 50'000;
  population.seed = kFleetSeed;
  const FleetPopulation fleet = FleetPopulation::Generate(population, context);
  ScreeningPipeline pipeline(suite_);
  RunBatchOfOne(pipeline, fleet, ScreeningConfig{}, context);
  const SeriesSnapshot snapshot = recorder.Snapshot();
  EXPECT_EQ(snapshot.sim.count("fleet.generate.faulty"), 1u);
  EXPECT_EQ(snapshot.sim.count("screening.tested"), 1u);
}

}  // namespace
}  // namespace sdc
