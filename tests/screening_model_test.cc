// Equivalence suite for the memoized detection model (docs/performance.md): the default
// cached screening path must be byte-identical -- every counter, every detection in
// order, every provenance field, months and temperatures compared bitwise -- to the
// pre-memoization ReferenceScreen oracle (tests/oracles/oracles.h) at several thread
// counts. Any divergence means the memoization changed the model or the RNG draw order,
// both of which break the determinism contract in docs/parallelism.md.

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "tests/oracles/oracles.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

constexpr uint64_t kFleetSize = 250000;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectIdentical(const ScreeningStats& cached, const ScreeningStats& reference) {
  EXPECT_EQ(cached.tested, reference.tested);
  EXPECT_EQ(cached.faulty, reference.faulty);
  EXPECT_EQ(cached.detected_by_stage, reference.detected_by_stage);
  EXPECT_EQ(cached.tested_by_arch, reference.tested_by_arch);
  EXPECT_EQ(cached.detected_by_arch, reference.detected_by_arch);
  ASSERT_EQ(cached.detections.size(), reference.detections.size());
  for (size_t i = 0; i < cached.detections.size(); ++i) {
    const ProcessorOutcome& c = cached.detections[i];
    const ProcessorOutcome& r = reference.detections[i];
    EXPECT_EQ(c.serial, r.serial) << "detection " << i;
    EXPECT_EQ(c.arch_index, r.arch_index) << "detection " << i;
    EXPECT_EQ(c.detected, r.detected) << "detection " << i;
    EXPECT_EQ(c.stage, r.stage) << "detection " << i;
    // Bitwise, not EXPECT_DOUBLE_EQ: the cached path must reproduce the reference's
    // floating-point rounding exactly, not merely approximately.
    EXPECT_TRUE(SameBits(c.month, r.month))
        << "detection " << i << " month " << c.month << " vs " << r.month;
  }
  // The whole provenance record, field by field; doubles bitwise.
  ASSERT_EQ(cached.provenance.size(), reference.provenance.size());
  for (size_t i = 0; i < cached.provenance.size(); ++i) {
    const DetectionProvenance& c = cached.provenance[i];
    const DetectionProvenance& r = reference.provenance[i];
    EXPECT_EQ(c.serial, r.serial) << "provenance " << i;
    EXPECT_EQ(c.defect_id, r.defect_id) << "provenance " << i;
    EXPECT_EQ(c.defect_count, r.defect_count) << "provenance " << i;
    EXPECT_EQ(c.arch_index, r.arch_index) << "provenance " << i;
    EXPECT_EQ(c.stage, r.stage) << "provenance " << i;
    EXPECT_EQ(c.sub_shard, r.sub_shard) << "provenance " << i;
    EXPECT_EQ(c.rng_stream, r.rng_stream) << "provenance " << i;
    EXPECT_TRUE(SameBits(c.onset_months, r.onset_months)) << "provenance " << i;
    EXPECT_TRUE(SameBits(c.min_trigger_celsius, r.min_trigger_celsius))
        << "provenance " << i;
    EXPECT_TRUE(SameBits(c.stage_temperature_celsius, r.stage_temperature_celsius))
        << "provenance " << i;
    EXPECT_TRUE(SameBits(c.month, r.month)) << "provenance " << i;
  }
}

class ScreeningModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PopulationConfig config;
    config.processor_count = kFleetSize;
    config.seed = 20260805;
    fleet_ = new FleetPopulation(GenerateFleet(config));
    suite_ = new TestSuite(TestSuite::BuildFull());
    reference_ = new ScreeningStats(Reference(ScreeningConfig()));
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete suite_;
    delete reference_;
    fleet_ = nullptr;
    suite_ = nullptr;
    reference_ = nullptr;
  }

  // Screens the shared fleet under `config` alone, on a fresh context.
  static ScreeningStats RunAlone(const ScreeningConfig& config, int threads,
                                 MetricsRegistry* metrics = nullptr) {
    EngineContext context(PinnedEngine(threads, metrics));
    return RunBatchOfOne(ScreeningPipeline(suite_), *fleet_, config, context);
  }

  // Screens the shared fleet under every scenario of `batch` in one pass, on a fresh
  // context.
  static std::vector<ScreeningStats> RunBatchOn(const ScenarioBatch& batch, int threads,
                                                MetricsRegistry* metrics = nullptr) {
    EngineContext context(PinnedEngine(threads, metrics));
    return ScreeningPipeline(suite_).RunBatch(*fleet_, batch, context);
  }

  // The oracle's screen of the shared fleet under `config` (one lane, no sinks).
  static ScreeningStats Reference(const ScreeningConfig& config) {
    return ReferenceScreen(ScreeningPipeline(suite_), *fleet_, config);
  }

  static FleetPopulation* fleet_;
  static TestSuite* suite_;
  static ScreeningStats* reference_;  // the oracle's screen under the default config
};

FleetPopulation* ScreeningModelTest::fleet_ = nullptr;
TestSuite* ScreeningModelTest::suite_ = nullptr;
ScreeningStats* ScreeningModelTest::reference_ = nullptr;

TEST_F(ScreeningModelTest, CachedMatchesReferenceAtOneThread) {
  ExpectIdentical(RunAlone(ScreeningConfig(), 1), *reference_);
}

TEST_F(ScreeningModelTest, CachedMatchesReferenceAtTwoThreads) {
  ExpectIdentical(RunAlone(ScreeningConfig(), 2), *reference_);
}

TEST_F(ScreeningModelTest, CachedMatchesReferenceAtEightThreads) {
  ExpectIdentical(RunAlone(ScreeningConfig(), 8), *reference_);
}

TEST_F(ScreeningModelTest, CachedIsThreadCountInvariant) {
  // The cached fast path skips clean processors outright; that must not perturb the
  // shard-order merge that makes stats thread-count invariant.
  const ScreeningStats one = RunAlone(ScreeningConfig(), 1);
  ExpectIdentical(RunAlone(ScreeningConfig(), 2), one);
  ExpectIdentical(RunAlone(ScreeningConfig(), 8), one);
  // And the engine agrees with the oracle across thread counts, not just within one.
  ExpectIdentical(one, *reference_);
}

TEST_F(ScreeningModelTest, MetricsSnapshotsIdenticalAcrossModels) {
  // The observable metric stream (sans wall-clock timers) is part of the contract too.
  // The oracle emits no metrics, so this compares thread counts only; the absolute
  // bytes are pinned by FleetDigestManifest (tests/fleet_test.cc).
  const auto snapshot_json = [](int threads) {
    MetricsRegistry registry;
    (void)RunAlone(ScreeningConfig(), threads, &registry);
    std::ostringstream out;
    WriteMetricsJson(out, registry.Snapshot(), /*include_timers=*/false);
    return out.str();
  };
  const std::string cached = snapshot_json(1);
  EXPECT_EQ(cached, snapshot_json(8));
  EXPECT_NE(cached.find("screening.tested"), std::string::npos);
}

TEST_F(ScreeningModelTest, FastPathActuallyDetects) {
  // Guard against the equivalence holding vacuously (nothing detected at all).
  const ScreeningStats stats = RunAlone(ScreeningConfig(), 1);
  EXPECT_EQ(stats.tested, kFleetSize);
  EXPECT_GT(stats.faulty, 0u);
  EXPECT_GT(stats.total_detected(), 0u);
  EXPECT_FALSE(stats.detections.empty());
}

// ----- edge-shaped fleets: the stream against the oracle ----------------------------
//
// The screen counts tested parts from the generator's per-shard tally instead of
// rescanning the arch column, and the oracle counts them one processor at a time. These
// fleets pin the two against each other where a tally is easiest to get wrong: two
// screening sub-shards plus a 1-part tail (the blocked generator, with a histogram tail
// that is not a multiple of 4), and the all-faulty and zero-faulty fleets, whose
// degenerate prevalence sends generation down the per-processor reference loop.

// Screens `config`'s fleet with a StreamingScreen at 1, 2 and 8 lanes and with the
// materialized RunBatch, and expects each to equal ReferenceScreen over the reference
// generator's fleet. Returns the oracle's stats for the caller's shape checks.
ScreeningStats ExpectStreamMatchesReference(const PopulationConfig& config) {
  const TestSuite suite = TestSuite::BuildFull();
  const ScreeningPipeline pipeline(&suite);
  ScreeningStats reference =
      ReferenceScreen(pipeline, GenerateFleetReference(config), ScreeningConfig());
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("stream, threads " + std::to_string(threads));
    EngineContext context(PinnedEngine(threads));
    StreamingScreen screen(&pipeline, ScreeningConfig());
    FleetShardStream(config).Drive({&screen}, context);
    ExpectIdentical(screen.TakeStats(), reference);
  }
  SCOPED_TRACE("materialized");
  EngineContext context(PinnedEngine(2));
  ExpectIdentical(RunBatchOfOne(pipeline, GenerateFleet(config), ScreeningConfig(), context),
                  reference);
  return reference;
}

bool GeneratesBlocked(const PopulationConfig& config) {
  EngineContext context(PinnedEngine(1));
  return GenerationPlan::Build(config, context).blocked;
}

TEST(ScreeningEdgeFleetTest, TwoSubShardsAndATailMatchReference) {
  PopulationConfig config;
  config.processor_count = 4097;  // 4096 + a 1-part sub-shard, all in one stream shard
  config.seed = 99;
  ASSERT_TRUE(GeneratesBlocked(config));
  const ScreeningStats reference = ExpectStreamMatchesReference(config);
  EXPECT_EQ(reference.tested, 4097u);
}

TEST(ScreeningEdgeFleetTest, AllFaultyFleetMatchesReference) {
  // detected_rate == detectability makes prevalence 1: every part is faulty, and the
  // faulty loop does all the screening.
  PopulationConfig config;
  config.processor_count = 20000;
  config.seed = 7;
  config.detected_rate.fill(config.detectability);
  ASSERT_FALSE(GeneratesBlocked(config));
  const ScreeningStats reference = ExpectStreamMatchesReference(config);
  EXPECT_EQ(reference.faulty, 20000u);
  EXPECT_GT(reference.total_detected(), 0u);
}

TEST(ScreeningEdgeFleetTest, ZeroFaultyFleetMatchesReference) {
  // detected_rate == 0 makes every part clean: the tally is the whole screen.
  PopulationConfig config;
  config.processor_count = 20001;  // odd: a partial last shard
  config.seed = 7;
  config.detected_rate.fill(0.0);
  ASSERT_FALSE(GeneratesBlocked(config));
  const ScreeningStats reference = ExpectStreamMatchesReference(config);
  EXPECT_EQ(reference.faulty, 0u);
  EXPECT_EQ(reference.tested, 20001u);
  EXPECT_EQ(reference.total_detected(), 0u);
}

// ----- batched multi-scenario engine (ScreeningPipeline::RunBatch) ------------------
//
// The contract (docs/performance.md): every slot of a batched run is byte-identical to
// running that scenario alone -- scenario k draws only from Rng(seed_k).Fork(shard), so
// sharing the clean-path histogram and the MatchingTestcases memo across scenarios must
// not move a bit.

// K scenarios with distinct seeds and cadences (the spread the bench uses too), so the
// batch cannot pass by accidentally computing one scenario K times.
ScenarioBatch MakeBatch(int k_count) {
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

class ScreeningBatchTest : public ScreeningModelTest {
 protected:
  static void ExpectBatchMatchesIndependent(int k_count, int threads) {
    const ScenarioBatch batch = MakeBatch(k_count);
    const std::vector<ScreeningStats> batched = RunBatchOn(batch, threads);
    ASSERT_EQ(batched.size(), batch.scenarios.size());
    for (int k = 0; k < k_count; ++k) {
      SCOPED_TRACE("scenario " + std::to_string(k));
      ExpectIdentical(batched[static_cast<size_t>(k)],
                      RunAlone(batch.scenarios[static_cast<size_t>(k)], threads));
    }
  }
};

TEST_F(ScreeningBatchTest, BatchedMatchesIndependentAtOneThread) {
  ExpectBatchMatchesIndependent(8, 1);
}

TEST_F(ScreeningBatchTest, BatchedMatchesIndependentAtTwoThreads) {
  ExpectBatchMatchesIndependent(8, 2);
}

TEST_F(ScreeningBatchTest, BatchedMatchesIndependentAtEightThreads) {
  ExpectBatchMatchesIndependent(8, 8);
}

TEST_F(ScreeningBatchTest, DistinctStageParamsBatchMatchesIndependent) {
  // Scenarios with bit-identical stage parameters share one survive-term table per
  // faulty part; scenarios whose parameters differ must land in their own group and
  // still match their solo runs bitwise. Three groups here: {0, 2} (default stages),
  // {1} (hotter re-install), {3} (weaker factory catch). Each slot is also checked
  // against the oracle, which recomputes every term from its own stage parameters.
  ScenarioBatch batch = MakeBatch(4);
  batch.scenarios[1].stages[2].temperature_celsius = 72.0;
  batch.scenarios[3].stages[0].catch_factor = 0.05;
  const std::vector<ScreeningStats> batched = RunBatchOn(batch, 2);
  ASSERT_EQ(batched.size(), 4u);
  for (size_t k = 0; k < batch.scenarios.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdentical(batched[k], RunAlone(batch.scenarios[k], 2));
    ExpectIdentical(batched[k], Reference(batch.scenarios[k]));
  }
}

TEST_F(ScreeningBatchTest, BatchIsThreadCountInvariant) {
  const std::vector<ScreeningStats> one = RunBatchOn(MakeBatch(4), 1);
  const std::vector<ScreeningStats> eight = RunBatchOn(MakeBatch(4), 8);
  ASSERT_EQ(one.size(), eight.size());
  for (size_t k = 0; k < one.size(); ++k) {
    SCOPED_TRACE("scenario " + std::to_string(k));
    ExpectIdentical(eight[k], one[k]);
  }
}

TEST_F(ScreeningBatchTest, ScenariosActuallyDiffer) {
  // Guard against the equivalence holding because every slot carries the same bits: the
  // seeds differ, so the detection sets must differ somewhere.
  const std::vector<ScreeningStats> batched = RunBatchOn(MakeBatch(4), 2);
  ASSERT_EQ(batched.size(), 4u);
  bool any_difference = false;
  for (size_t k = 1; k < batched.size(); ++k) {
    EXPECT_EQ(batched[k].tested, kFleetSize);
    EXPECT_GT(batched[k].total_detected(), 0u);
    if (batched[k].detections.size() != batched[0].detections.size()) {
      any_difference = true;
      continue;
    }
    for (size_t i = 0; i < batched[k].detections.size(); ++i) {
      if (batched[k].detections[i].serial != batched[0].detections[i].serial ||
          batched[k].detections[i].stage != batched[0].detections[i].stage) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference) << "all scenarios produced identical detections";
}

TEST_F(ScreeningBatchTest, EmptyBatchReturnsNoStats) {
  EXPECT_TRUE(RunBatchOn(ScenarioBatch{}, 2).empty());
}

TEST_F(ScreeningBatchTest, SharedRegistryGetsTheSumOfIndependentRuns) {
  // Every scenario of a batch merges into the context's one registry, so each counter
  // (and histogram bucket) is the sum of the scenarios' independent runs.
  const ScenarioBatch batch = MakeBatch(3);
  MetricsRegistry batch_registry;
  (void)RunBatchOn(batch, 2, &batch_registry);
  MetricsSnapshot expected;
  for (const ScreeningConfig& scenario : batch.scenarios) {
    MetricsRegistry independent;
    (void)RunAlone(scenario, 2, &independent);
    expected.MergeFrom(independent.Snapshot());
  }
  const MetricsSnapshot batched = batch_registry.Snapshot();
  EXPECT_EQ(batched.CounterOr("screening.tested"), 3 * kFleetSize);
  for (const auto& [name, value] : expected.counters) {
    EXPECT_EQ(batched.CounterOr(name), value) << name;
  }
  EXPECT_EQ(batched.counters.size(), expected.counters.size());
  std::ostringstream batched_json;
  std::ostringstream expected_json;
  WriteMetricsJson(batched_json, batched, /*include_timers=*/false);
  WriteMetricsJson(expected_json, expected, /*include_timers=*/false);
  EXPECT_EQ(batched_json.str(), expected_json.str());
}

// ----- ordered shard fold (ScreeningStats::MergeFrom) ---------------------------------
//
// A 100M streaming pass folds ~12k shard results on one thread. An exact-size reserve in
// MergeFrom would reallocate and move the whole accumulated array on every merge, making
// the fold quadratic in shards. Counted as buffer moves rather than timed, so a busy host
// cannot make these flake.

constexpr uint64_t kFoldShards = 20000;

ScreeningStats OneDetectionShard(uint64_t serial) {
  ScreeningStats shard;
  shard.tested = 1;
  shard.faulty = 1;
  ++shard.detected_by_stage[static_cast<size_t>(TestStage::kFactory)];
  shard.detections.push_back({serial, 0, true, TestStage::kFactory, 0.0});
  DetectionProvenance record;
  record.serial = serial;
  record.defect_id = "fold-test-defect-" + std::to_string(serial);
  shard.provenance.push_back(std::move(record));
  return shard;
}

void ExpectFoldedInOrder(const ScreeningStats& total, uint64_t shard_count) {
  EXPECT_EQ(total.tested, shard_count);
  EXPECT_EQ(total.total_detected(), shard_count);
  ASSERT_EQ(total.detections.size(), shard_count);
  ASSERT_EQ(total.provenance.size(), shard_count);
  for (uint64_t serial = 0; serial < shard_count; ++serial) {
    ASSERT_EQ(total.detections[serial].serial, serial);
    ASSERT_EQ(total.provenance[serial].defect_id,
              "fold-test-defect-" + std::to_string(serial));
  }
}

TEST(ScreeningFoldTest, RepeatedMergesReallocateLogarithmically) {
  ScreeningStats total;
  const ProcessorOutcome* detections = nullptr;
  const DetectionProvenance* provenance = nullptr;
  int detection_moves = 0;
  int provenance_moves = 0;
  for (uint64_t serial = 0; serial < kFoldShards; ++serial) {
    total.MergeFrom(OneDetectionShard(serial));
    detection_moves += total.detections.data() != detections ? 1 : 0;
    provenance_moves += total.provenance.data() != provenance ? 1 : 0;
    detections = total.detections.data();
    provenance = total.provenance.data();
  }
  // Geometric growth moves the buffer O(log N) times (~15 for 20k); an exact-size
  // reserve per merge would move it on all 20k merges.
  EXPECT_LE(detection_moves, 64);
  EXPECT_LE(provenance_moves, 64);
  ExpectFoldedInOrder(total, kFoldShards);
}

TEST(ScreeningFoldTest, PresizedFoldKeepsItsOneAllocation) {
  // The shard-ordered folds reserve the summed shard totals once; every merge after that,
  // including the first into an empty accumulator, must append in place.
  ScreeningStats total;
  total.detections.reserve(kFoldShards);
  total.provenance.reserve(kFoldShards);
  const ProcessorOutcome* detections = total.detections.data();
  const DetectionProvenance* provenance = total.provenance.data();
  total.MergeFrom(ScreeningStats{});  // a shard without detections comes first
  for (uint64_t serial = 0; serial < kFoldShards; ++serial) {
    total.MergeFrom(OneDetectionShard(serial));
  }
  EXPECT_EQ(total.detections.capacity(), kFoldShards);
  EXPECT_EQ(total.provenance.capacity(), kFoldShards);
  EXPECT_EQ(total.detections.data(), detections);
  EXPECT_EQ(total.provenance.data(), provenance);
  ExpectFoldedInOrder(total, kFoldShards);
}

}  // namespace
}  // namespace sdc
