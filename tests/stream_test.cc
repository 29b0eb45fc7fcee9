// Equivalence suite for the streaming shard pipeline (docs/streaming.md): a fused
// generate->screen->aggregate pass over FleetShardStream must be byte-identical -- every
// counter, every detection in order, detection months compared bitwise, metrics snapshot
// included -- to generating a materialized FleetPopulation and screening it, at several
// thread counts, and every aggregation the stream carries (capacity, effectiveness,
// exposure) must be lane-count invariant. Also pins the memory contract: peak streaming
// scratch is O(lanes * shard), not O(fleet).

#include <algorithm>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/farron/longitudinal.h"
#include "src/fleet/capacity.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stats.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

constexpr uint64_t kFleetSize = 200000;
constexpr uint64_t kFleetSeed = 20260805;

// Everything one generate+screen pass produces. The materialized pass fills only stats
// and exposures; capacity and effectiveness exist only as stream consumers.
struct PassResults {
  ScreeningStats stats;
  CapacityReport capacity;
  TestcaseEffectiveness effectiveness;
  std::vector<WearoutExposure> exposures;
  StreamReport report;  // streaming mode only
};

class StreamEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  static PopulationConfig MakePopulationConfig(uint64_t processors) {
    PopulationConfig config;
    config.processor_count = processors;
    config.seed = kFleetSeed;
    return config;
  }

  // The materialized baseline: build the fleet, screen it, and derive the exposures
  // through its random-access processor(serial).defects.
  static PassResults RunMaterialized(uint64_t processors, int threads,
                                     MetricsRegistry* metrics = nullptr) {
    EngineContext context(PinnedEngine(threads, metrics));
    const FleetPopulation fleet =
        FleetPopulation::Generate(MakePopulationConfig(processors), context);
    ScreeningPipeline pipeline(suite_);
    const ScreeningConfig screening;
    PassResults results;
    results.stats = RunBatchOfOne(pipeline, fleet, screening, context);
    // The cadence study's exposure derivation (bench/cadence_tradeoff.cc).
    for (const ProcessorOutcome& outcome : results.stats.detections) {
      if (outcome.stage != TestStage::kRegular) {
        continue;
      }
      double onset = 0.0;
      for (const Defect& defect : fleet.processor(outcome.serial).defects) {
        if (defect.onset_months > 0.0 && defect.onset_months <= outcome.month) {
          onset = defect.onset_months;
        }
      }
      results.exposures.push_back({outcome.serial, onset, outcome.month});
    }
    return results;
  }

  // The fused pass: all four aggregations ride one FleetShardStream drive.
  static PassResults RunStreaming(uint64_t processors, int threads,
                                  MetricsRegistry* metrics = nullptr) {
    ScreeningPipeline pipeline(suite_);
    const ScreeningConfig screening;
    FleetShardStream stream(MakePopulationConfig(processors));
    StreamingScreen screen(&pipeline, screening);
    CapacityAccumulator capacity;
    WearoutExposureObserver exposure;
    screen.AddObserver(&capacity);
    screen.AddObserver(&exposure);
    EffectivenessAccumulator effectiveness(
        suite_, screening.stages[static_cast<size_t>(TestStage::kRegular)]);
    PassResults results;
    EngineContext context(PinnedEngine(threads, metrics));
    results.report = stream.Drive({&screen, &effectiveness}, context);
    results.stats = screen.TakeStats();
    results.capacity = capacity.TakeReport();
    results.effectiveness = effectiveness.TakeResult();
    results.exposures = exposure.exposures();
    return results;
  }

  static void ExpectIdenticalStats(const ScreeningStats& streaming,
                                   const ScreeningStats& materialized) {
    EXPECT_EQ(streaming.tested, materialized.tested);
    EXPECT_EQ(streaming.faulty, materialized.faulty);
    EXPECT_EQ(streaming.detected_by_stage, materialized.detected_by_stage);
    EXPECT_EQ(streaming.tested_by_arch, materialized.tested_by_arch);
    EXPECT_EQ(streaming.detected_by_arch, materialized.detected_by_arch);
    ASSERT_EQ(streaming.detections.size(), materialized.detections.size());
    for (size_t i = 0; i < streaming.detections.size(); ++i) {
      const ProcessorOutcome& s = streaming.detections[i];
      const ProcessorOutcome& m = materialized.detections[i];
      EXPECT_EQ(s.serial, m.serial) << "detection " << i;
      EXPECT_EQ(s.arch_index, m.arch_index) << "detection " << i;
      EXPECT_EQ(s.detected, m.detected) << "detection " << i;
      EXPECT_EQ(s.stage, m.stage) << "detection " << i;
      // Bitwise, not EXPECT_DOUBLE_EQ: the streaming path must reproduce the
      // materialized floating-point rounding exactly, not merely approximately.
      EXPECT_EQ(std::memcmp(&s.month, &m.month, sizeof(double)), 0)
          << "detection " << i << " month " << s.month << " vs " << m.month;
    }
  }

  static void ExpectIdenticalCapacity(const CapacityReport& a, const CapacityReport& b) {
    EXPECT_EQ(a.fleet_cores, b.fleet_cores);
    EXPECT_EQ(a.production_detections, b.production_detections);
    EXPECT_EQ(a.baseline_cores_lost, b.baseline_cores_lost);
    EXPECT_EQ(a.fine_grained_cores_lost, b.fine_grained_cores_lost);
    EXPECT_EQ(a.parts_deprecated_fine, b.parts_deprecated_fine);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a.timeline[i].month, &b.timeline[i].month, sizeof(double)), 0)
          << "timeline point " << i;
      EXPECT_EQ(a.timeline[i].baseline_cores_lost, b.timeline[i].baseline_cores_lost)
          << "timeline point " << i;
      EXPECT_EQ(a.timeline[i].fine_grained_cores_lost, b.timeline[i].fine_grained_cores_lost)
          << "timeline point " << i;
    }
  }

  // What a stream and the materialized pass both produce: stats and exposures.
  static void ExpectMatchesMaterialized(const PassResults& streaming,
                                        const PassResults& materialized) {
    ExpectIdenticalStats(streaming.stats, materialized.stats);
    ASSERT_EQ(streaming.exposures.size(), materialized.exposures.size());
    for (size_t i = 0; i < streaming.exposures.size(); ++i) {
      EXPECT_EQ(streaming.exposures[i].serial, materialized.exposures[i].serial);
      EXPECT_EQ(std::memcmp(&streaming.exposures[i].onset_months,
                            &materialized.exposures[i].onset_months, sizeof(double)),
                0)
          << "exposure " << i;
      EXPECT_EQ(std::memcmp(&streaming.exposures[i].detection_month,
                            &materialized.exposures[i].detection_month, sizeof(double)),
                0)
          << "exposure " << i;
    }
  }

  // Two streams: everything, the stream-only aggregations included.
  static void ExpectIdenticalStreams(const PassResults& a, const PassResults& b) {
    ExpectMatchesMaterialized(a, b);
    ExpectIdenticalCapacity(a.capacity, b.capacity);
    EXPECT_EQ(a.effectiveness.total_testcases, b.effectiveness.total_testcases);
    EXPECT_EQ(a.effectiveness.effective_testcases, b.effectiveness.effective_testcases);
    EXPECT_EQ(a.effectiveness.effective_ids, b.effectiveness.effective_ids);
  }

  static TestSuite* suite_;
};

TestSuite* StreamEquivalenceTest::suite_ = nullptr;

TEST_F(StreamEquivalenceTest, MatchesMaterializedAtOneThread) {
  ExpectMatchesMaterialized(RunStreaming(kFleetSize, 1), RunMaterialized(kFleetSize, 1));
}

TEST_F(StreamEquivalenceTest, MatchesMaterializedAtTwoThreads) {
  ExpectMatchesMaterialized(RunStreaming(kFleetSize, 2), RunMaterialized(kFleetSize, 2));
}

TEST_F(StreamEquivalenceTest, MatchesMaterializedAtEightThreads) {
  ExpectMatchesMaterialized(RunStreaming(kFleetSize, 8), RunMaterialized(kFleetSize, 8));
}

TEST_F(StreamEquivalenceTest, StreamingIsThreadCountInvariant) {
  const PassResults one = RunStreaming(kFleetSize, 1);
  ExpectIdenticalStreams(RunStreaming(kFleetSize, 2), one);
  ExpectIdenticalStreams(RunStreaming(kFleetSize, 8), one);
  // Cross-mode, cross-thread-count: streaming at 1 equals materialized at 8.
  ExpectMatchesMaterialized(one, RunMaterialized(kFleetSize, 8));
}

TEST_F(StreamEquivalenceTest, NotVacuouslyEqual) {
  // Guard against the equivalence holding because nothing happened at all.
  const PassResults streaming = RunStreaming(kFleetSize, 2);
  EXPECT_EQ(streaming.stats.tested, kFleetSize);
  EXPECT_GT(streaming.stats.faulty, 0u);
  EXPECT_GT(streaming.stats.total_detected(), 0u);
  EXPECT_GT(streaming.capacity.production_detections, 0u);
  EXPECT_GT(streaming.capacity.fleet_cores, 0u);
  EXPECT_GT(streaming.effectiveness.effective_testcases, 0u);
  EXPECT_FALSE(streaming.exposures.empty());
}

TEST_F(StreamEquivalenceTest, MetricsSnapshotsIdenticalAcrossModes) {
  // The observable metric stream (sans wall-clock timers) is part of the contract:
  // streaming merges the same per-shard deltas in the same shard order.
  const auto snapshot_json = [](bool streaming, int threads) {
    MetricsRegistry registry;
    if (streaming) {
      (void)RunStreaming(kFleetSize, threads, &registry);
    } else {
      (void)RunMaterialized(kFleetSize, threads, &registry);
    }
    std::ostringstream out;
    WriteMetricsJson(out, registry.Snapshot(), /*include_timers=*/false);
    return out.str();
  };
  const std::string materialized = snapshot_json(false, 1);
  EXPECT_EQ(materialized, snapshot_json(true, 1));
  EXPECT_EQ(materialized, snapshot_json(true, 2));
  EXPECT_EQ(materialized, snapshot_json(true, 8));
  EXPECT_NE(materialized.find("fleet.generate.processors"), std::string::npos);
  EXPECT_NE(materialized.find("screening.tested"), std::string::npos);
}

TEST_F(StreamEquivalenceTest, MaterializerReproducesGenerate) {
  // A consumer riding the same drive as the screen sees exactly the shards Generate keeps
  // (Generate is one collecting consumer on its own drive; this pins the multi-consumer
  // path).
  class ShardComparer : public ShardConsumer {
   public:
    explicit ShardComparer(const FleetPopulation* expected)
        : expected_(expected), same_(expected->shard_count(), 0) {}
    void ConsumeShard(const FleetShard& shard) override {
      const FleetShard want = expected_->shard(shard.shard);
      bool same = shard.begin == want.begin && shard.end == want.end &&
                  std::ranges::equal(shard.arch_bytes, want.arch_bytes) &&
                  std::ranges::equal(shard.flag_bytes, want.flag_bytes) &&
                  std::ranges::equal(shard.faulty_serials, want.faulty_serials) &&
                  shard.defects.size() == want.defects.size() &&
                  shard.tally->by_arch == want.tally->by_arch;
      for (size_t ordinal = 0; same && ordinal < shard.faulty_serials.size(); ++ordinal) {
        const std::span<const Defect> got = shard.FaultyDefects(ordinal);
        const std::span<const Defect> expected = want.FaultyDefects(ordinal);
        same = got.size() == expected.size();
        for (size_t d = 0; same && d < got.size(); ++d) {
          same = got[d].id == expected[d].id;
        }
      }
      same_[shard.shard] = same ? 1 : 0;  // shards own disjoint slots
    }
    const std::vector<int>& same() const { return same_; }

   private:
    const FleetPopulation* expected_;
    std::vector<int> same_;
  };

  const PopulationConfig config = MakePopulationConfig(kFleetSize);
  EngineContext context(PinnedEngine(4));
  const FleetPopulation expected = FleetPopulation::Generate(config, context);
  ShardComparer comparer(&expected);
  ScreeningPipeline pipeline(suite_);
  StreamingScreen screen(&pipeline, ScreeningConfig());
  FleetShardStream stream(config);
  ASSERT_EQ(stream.shard_count(), expected.shard_count());
  stream.Drive({&screen, &comparer}, context);
  for (uint64_t s = 0; s < expected.shard_count(); ++s) {
    EXPECT_EQ(comparer.same()[s], 1) << "shard " << s;
  }
}

// ----- batched streaming (StreamingScreen over a ScenarioBatch) ---------------------
//
// One fused generate->screen pass evaluating K scenarios must hand every scenario the
// same bits as (a) a materialized RunBatch and (b) K independent single-scenario runs,
// at any thread count -- including per-scenario observers, which must see exactly their
// scenario's shard outcomes.

class StreamBatchTest : public StreamEquivalenceTest {
 protected:
  static ScenarioBatch MakeBatch(int k_count) {
    static constexpr double kPeriods[] = {3.0, 1.0, 2.0, 6.0};
    ScenarioBatch batch;
    for (int k = 0; k < k_count; ++k) {
      ScreeningConfig config;
      config.seed = 77 + static_cast<uint64_t>(k);
      config.regular_period_months = kPeriods[k % 4];
      batch.scenarios.push_back(config);
    }
    return batch;
  }

  // Streaming batched pass with one WearoutExposureObserver per scenario.
  static std::vector<PassResults> RunStreamingBatch(int k_count, int threads) {
    ScreeningPipeline pipeline(suite_);
    const ScenarioBatch batch = MakeBatch(k_count);
    FleetShardStream stream(MakePopulationConfig(kFleetSize));
    StreamingScreen screen(&pipeline, batch);
    std::vector<WearoutExposureObserver> exposure(batch.scenarios.size());
    for (size_t k = 0; k < batch.scenarios.size(); ++k) {
      screen.AddObserver(&exposure[k], k);
    }
    EngineContext context(PinnedEngine(threads));
    stream.Drive({&screen}, context);
    std::vector<ScreeningStats> stats = screen.TakeBatchStats();
    std::vector<PassResults> results(stats.size());
    for (size_t k = 0; k < stats.size(); ++k) {
      results[k].stats = std::move(stats[k]);
      results[k].exposures = exposure[k].exposures();
    }
    return results;
  }

  static void ExpectIdenticalExposures(const std::vector<WearoutExposure>& a,
                                       const std::vector<WearoutExposure>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].serial, b[i].serial) << "exposure " << i;
      EXPECT_EQ(std::memcmp(&a[i].onset_months, &b[i].onset_months, sizeof(double)), 0)
          << "exposure " << i;
      EXPECT_EQ(
          std::memcmp(&a[i].detection_month, &b[i].detection_month, sizeof(double)), 0)
          << "exposure " << i;
    }
  }

  static void ExpectBatchEquivalence(int k_count, int threads) {
    const std::vector<PassResults> streamed = RunStreamingBatch(k_count, threads);
    ASSERT_EQ(streamed.size(), static_cast<size_t>(k_count));

    // (a) materialized batched pass over the same fleet.
    const PopulationConfig population = MakePopulationConfig(kFleetSize);
    EngineContext context(PinnedEngine(threads));
    const FleetPopulation fleet = FleetPopulation::Generate(population, context);
    ScreeningPipeline pipeline(suite_);
    const ScenarioBatch batch = MakeBatch(k_count);
    const std::vector<ScreeningStats> materialized = pipeline.RunBatch(fleet, batch, context);
    ASSERT_EQ(materialized.size(), static_cast<size_t>(k_count));

    for (int k = 0; k < k_count; ++k) {
      SCOPED_TRACE("scenario " + std::to_string(k));
      ExpectIdenticalStats(streamed[static_cast<size_t>(k)].stats,
                           materialized[static_cast<size_t>(k)]);

      // (b) an independent single-scenario streaming pass, observer included.
      FleetShardStream stream(population);
      StreamingScreen screen(&pipeline, batch.scenarios[static_cast<size_t>(k)]);
      WearoutExposureObserver exposure;
      screen.AddObserver(&exposure);
      stream.Drive({&screen}, context);
      ExpectIdenticalStats(streamed[static_cast<size_t>(k)].stats, screen.TakeStats());
      ExpectIdenticalExposures(streamed[static_cast<size_t>(k)].exposures,
                               exposure.exposures());
    }
  }
};

TEST_F(StreamBatchTest, BatchedStreamMatchesBatchedRunAndIndependentAtOneThread) {
  ExpectBatchEquivalence(4, 1);
}

TEST_F(StreamBatchTest, BatchedStreamMatchesBatchedRunAndIndependentAtTwoThreads) {
  ExpectBatchEquivalence(4, 2);
}

TEST_F(StreamBatchTest, BatchedStreamMatchesBatchedRunAndIndependentAtEightThreads) {
  ExpectBatchEquivalence(4, 8);
}

TEST_F(StreamBatchTest, BatchedStreamIsThreadCountInvariant) {
  const std::vector<PassResults> one = RunStreamingBatch(4, 1);
  const std::vector<PassResults> eight = RunStreamingBatch(4, 8);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t k = 0; k < one.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdenticalStats(eight[k].stats, one[k].stats);
    ExpectIdenticalExposures(eight[k].exposures, one[k].exposures);
  }
}

TEST_F(StreamBatchTest, BatchedScenariosNotVacuouslyEqual) {
  const std::vector<PassResults> streamed = RunStreamingBatch(4, 2);
  bool any_difference = false;
  for (size_t k = 0; k < streamed.size(); ++k) {
    EXPECT_EQ(streamed[k].stats.tested, kFleetSize);
    EXPECT_GT(streamed[k].stats.total_detected(), 0u);
    if (k > 0 &&
        (streamed[k].stats.detections.size() != streamed[0].stats.detections.size() ||
         streamed[k].exposures.size() != streamed[0].exposures.size())) {
      any_difference = true;
    }
  }
  // Different seeds and cadences: at least the regular-stage timelines must differ.
  for (size_t k = 1; k < streamed.size() && !any_difference; ++k) {
    for (size_t i = 0; i < streamed[k].stats.detections.size(); ++i) {
      if (streamed[k].stats.detections[i].serial !=
          streamed[0].stats.detections[i].serial) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference) << "all scenarios produced identical outcomes";
}

TEST(StreamMemoryTest, TenMillionProcessorsStayWithinShardBudget) {
  // The point of the tentpole: a 10M-processor generate+screen pass must peak at
  // O(lanes * shard) scratch, orders of magnitude below the ~20 MB of fleet columns a
  // materialized run would hold (let alone its defect arena).
  constexpr uint64_t kBigFleet = 10'000'000;
  TestSuite suite = TestSuite::BuildFull();
  PopulationConfig population;
  population.processor_count = kBigFleet;
  ScreeningPipeline pipeline(&suite);
  FleetShardStream stream(population);
  StreamingScreen screen(&pipeline, ScreeningConfig());
  EngineContext context(PinnedEngine(2));
  const StreamReport report = stream.Drive({&screen}, context);
  const ScreeningStats stats = screen.TakeStats();
  EXPECT_EQ(stats.tested, kBigFleet);
  EXPECT_GT(stats.faulty, 0u);
  EXPECT_GT(stats.total_detected(), 0u);
  EXPECT_EQ(report.shards, (kBigFleet + kFleetShardGrain - 1) / kFleetShardGrain);
  // Budget: half a MiB of scratch per lane comfortably covers the two 8 KiB byte columns
  // plus the shard's handful of faulty parts and their defects -- and is ~40x below what
  // materializing this fleet's columns alone would take.
  const uint64_t budget = static_cast<uint64_t>(report.lanes) * 512 * 1024;
  EXPECT_GT(report.peak_scratch_bytes, 0u);
  EXPECT_LT(report.peak_scratch_bytes, budget)
      << "streaming scratch grew beyond the per-lane shard budget";
}

}  // namespace
}  // namespace sdc
