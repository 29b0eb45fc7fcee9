// Tests for src/common/parallel.h and the determinism contract of the parallelized hot
// paths: fleet generation, fleet screening, and parallel plan execution must produce
// bit-identical results at any thread count (docs/parallelism.md).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"
#include "src/fault/catalog.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/toolchain/framework.h"
#include "src/toolchain/registry.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

// --- ThreadPool primitives ---

TEST(ThreadPoolTest, ShardCountCeilDivides) {
  EXPECT_EQ(ThreadPool::ShardCountFor(0, 0, 10), 0u);
  EXPECT_EQ(ThreadPool::ShardCountFor(0, 1, 10), 1u);
  EXPECT_EQ(ThreadPool::ShardCountFor(0, 10, 10), 1u);
  EXPECT_EQ(ThreadPool::ShardCountFor(0, 11, 10), 2u);
  EXPECT_EQ(ThreadPool::ShardCountFor(5, 25, 10), 2u);
  EXPECT_EQ(ThreadPool::ShardCountFor(0, 7, 0), 7u);  // grain 0 clamps to 1
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr uint64_t kCount = 10007;  // prime: last shard is ragged
    std::vector<std::atomic<int>> hits(kCount);
    pool.ParallelFor(0, kCount, 64, [&](uint64_t shard, uint64_t begin, uint64_t end) {
      EXPECT_EQ(begin, shard * 64);
      EXPECT_LE(end, kCount);
      for (uint64_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (uint64_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelMapReturnsResultsInShardOrder) {
  ThreadPool pool(4);
  const std::vector<uint64_t> results = pool.ParallelMap<uint64_t>(
      0, 1000, 10, [](uint64_t shard, uint64_t, uint64_t) { return shard * shard; });
  ASSERT_EQ(results.size(), 100u);
  for (uint64_t shard = 0; shard < results.size(); ++shard) {
    EXPECT_EQ(results[shard], shard * shard);
  }
}

TEST(ThreadPoolTest, ParallelReduceMergesInShardOrder) {
  // Merge order matters for the determinism contract: concatenation must reproduce the
  // serial sequence even when later shards finish first.
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    const std::vector<uint64_t> merged = pool.ParallelReduce<std::vector<uint64_t>>(
        0, 257, 16, {},
        [](uint64_t, uint64_t begin, uint64_t end) {
          std::vector<uint64_t> shard_values;
          for (uint64_t i = begin; i < end; ++i) {
            shard_values.push_back(i);
          }
          return shard_values;
        },
        [](std::vector<uint64_t>& total, const std::vector<uint64_t>& shard_values) {
          total.insert(total.end(), shard_values.begin(), shard_values.end());
        });
    ASSERT_EQ(merged.size(), 257u);
    for (uint64_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i], i);
    }
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 100, 7, [&](uint64_t, uint64_t begin, uint64_t end) {
      uint64_t local = 0;
      for (uint64_t i = begin; i < end; ++i) {
        local += i;
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(0, 100, 1,
                         [](uint64_t shard, uint64_t, uint64_t) {
                           if (shard == 37) {
                             throw std::runtime_error("shard 37 failed");
                           }
                         }),
        std::runtime_error);
    // The pool survives a failed job.
    std::atomic<int> ran{0};
    pool.ParallelFor(0, 10, 1, [&](uint64_t, uint64_t, uint64_t) { ++ran; });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPoolTest, ResolveThreadCountHonorsEnvOverride) {
  ASSERT_EQ(setenv("SDC_THREADS", "3", 1), 0);
  EXPECT_EQ(ResolveThreadCount(8), 3);
  EXPECT_EQ(ResolveThreadCount(0), 3);
  ASSERT_EQ(setenv("SDC_THREADS", "0", 1), 0);
  EXPECT_EQ(ResolveThreadCount(5), HardwareThreads());
  ASSERT_EQ(setenv("SDC_THREADS", "garbage", 1), 0);
  EXPECT_EQ(ResolveThreadCount(5), 5);  // unparsable values are ignored
  ASSERT_EQ(unsetenv("SDC_THREADS"), 0);
  EXPECT_EQ(ResolveThreadCount(0), HardwareThreads());
  EXPECT_EQ(ResolveThreadCount(-2), 1);
  EXPECT_EQ(ResolveThreadCount(6), 6);
}

// --- Determinism across thread counts (the regression the refactor must never break) ---

bool SameDefects(std::span<const Defect> a, std::span<const Defect> b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const Defect& x = a[i];
    const Defect& y = b[i];
    if (x.id != y.id || x.feature != y.feature || x.affected_ops != y.affected_ops ||
        x.affected_types != y.affected_types || x.affected_pcores != y.affected_pcores ||
        x.base_log10_rate != y.base_log10_rate ||
        x.min_trigger_celsius != y.min_trigger_celsius ||
        x.onset_months != y.onset_months) {
      return false;
    }
  }
  return true;
}

// Every part of one shard: arch bytes, then each faulty part's serial, detectability and
// defects.
bool SameShard(const FleetShard& a, const FleetShard& b) {
  if (a.begin != b.begin || a.end != b.end ||
      !std::ranges::equal(a.arch_bytes, b.arch_bytes) || a.faulty.size() != b.faulty.size()) {
    return false;
  }
  for (size_t i = 0; i < a.faulty.size(); ++i) {
    if (a.faulty[i].serial != b.faulty[i].serial ||
        a.faulty[i].detectable != b.faulty[i].detectable ||
        !SameDefects(a.Defects(a.faulty[i]), b.Defects(b.faulty[i]))) {
      return false;
    }
  }
  return true;
}

TEST(ParallelDeterminismTest, GenerationIsThreadCountInvariant) {
  PopulationConfig config;
  config.processor_count = 50000;
  config.seed = 20230901;
  const FleetPopulation serial = GenerateFleet(config, 1);
  for (int threads : {2, 8}) {
    const FleetPopulation parallel = GenerateFleet(config, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(parallel.faulty_count(), serial.faulty_count());
    for (int arch = 0; arch < kArchCount; ++arch) {
      EXPECT_EQ(parallel.CountByArch(arch), serial.CountByArch(arch));
    }
    ASSERT_EQ(parallel.shard_count(), serial.shard_count());
    for (uint64_t s = 0; s < serial.shard_count(); ++s) {
      ASSERT_TRUE(SameShard(serial.shard(s), parallel.shard(s)))
          << "shard " << s << " differs at threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, ScreeningIsThreadCountInvariant) {
  PopulationConfig population_config;
  population_config.processor_count = 50000;
  population_config.seed = 20230901;
  const FleetPopulation fleet = GenerateFleet(population_config);
  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);

  const ScreeningConfig config;
  EngineContext serial_context(PinnedEngine(1));
  const ScreeningStats serial = RunBatchOfOne(pipeline, fleet, config, serial_context);
  for (int threads : {2, 8}) {
    EngineContext context(PinnedEngine(threads));
    const ScreeningStats parallel = RunBatchOfOne(pipeline, fleet, config, context);
    EXPECT_EQ(parallel.tested, serial.tested);
    EXPECT_EQ(parallel.faulty, serial.faulty);
    EXPECT_EQ(parallel.detected_by_stage, serial.detected_by_stage);
    EXPECT_EQ(parallel.tested_by_arch, serial.tested_by_arch);
    EXPECT_EQ(parallel.detected_by_arch, serial.detected_by_arch);
    ASSERT_EQ(parallel.detections.size(), serial.detections.size());
    for (size_t i = 0; i < serial.detections.size(); ++i) {
      EXPECT_EQ(parallel.detections[i].serial, serial.detections[i].serial);
      EXPECT_EQ(parallel.detections[i].stage, serial.detections[i].stage);
      EXPECT_EQ(parallel.detections[i].month, serial.detections[i].month);
    }
  }
}

TEST(ParallelDeterminismTest, RunPlanIsThreadCountInvariant) {
  const TestSuite suite = TestSuite::BuildSampled(5);  // ~126 cases
  TestFramework framework(&suite);
  FaultyMachine machine(FindInCatalog("MIX2"), 77);

  TestRunConfig config;
  config.time_scale = 2e7;
  config.simultaneous_cores = true;
  config.seed = 11;
  config.parallel_plan_entries = true;
  const std::vector<TestPlanEntry> plan = framework.EqualPlan(5.0);

  EngineContext serial_context(PinnedEngine(1));
  const RunReport serial = framework.RunPlan(machine, plan, config, serial_context);
  for (int threads : {2, 8}) {
    EngineContext context(PinnedEngine(threads));
    const RunReport parallel = framework.RunPlan(machine, plan, config, context);
    EXPECT_EQ(parallel.total_errors(), serial.total_errors());
    EXPECT_EQ(parallel.failed_testcase_ids(), serial.failed_testcase_ids());
    EXPECT_DOUBLE_EQ(parallel.total_wall_seconds, serial.total_wall_seconds);
    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i) {
      EXPECT_EQ(parallel.results[i].testcase_id, serial.results[i].testcase_id);
      EXPECT_EQ(parallel.results[i].errors, serial.results[i].errors);
      EXPECT_EQ(parallel.results[i].errors_per_pcore, serial.results[i].errors_per_pcore);
      EXPECT_EQ(parallel.results[i].op_histogram, serial.results[i].op_histogram);
    }
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (size_t i = 0; i < serial.records.size(); ++i) {
      EXPECT_EQ(parallel.records[i].testcase_id, serial.records[i].testcase_id);
      EXPECT_EQ(parallel.records[i].pcore, serial.records[i].pcore);
      EXPECT_TRUE((parallel.records[i].expected ^ serial.records[i].expected).Popcount() ==
                      0 &&
                  (parallel.records[i].actual ^ serial.records[i].actual).Popcount() == 0);
    }
  }
}

TEST(ParallelDeterminismTest, MetricsSnapshotIsByteIdenticalAcrossThreadCounts) {
  // The tentpole acceptance check: instrument every parallel hot path, render the
  // deterministic sections of the snapshot (timers excluded -- they measure the host),
  // and require the JSON to be byte-identical at 1, 2, and 8 threads.
  const TestSuite suite = TestSuite::BuildSampled(10);  // ~63 cases
  TestFramework framework(&suite);
  const ScreeningPipeline pipeline(&suite);

  auto run_all = [&](int threads) {
    MetricsRegistry registry;
    EngineContext context(PinnedEngine(threads, &registry));

    PopulationConfig population_config;
    population_config.processor_count = 30000;
    population_config.seed = 20230901;
    const FleetPopulation fleet = FleetPopulation::Generate(population_config, context);
    (void)RunBatchOfOne(pipeline, fleet, ScreeningConfig(), context);

    FaultyMachine machine(FindInCatalog("MIX2"), 77);
    TestRunConfig run_config;
    run_config.time_scale = 2e7;
    run_config.simultaneous_cores = true;
    run_config.seed = 11;
    run_config.parallel_plan_entries = true;
    (void)framework.RunPlan(machine, framework.EqualPlan(2.0), run_config, context);

    std::ostringstream out;
    WriteMetricsJson(out, registry.Snapshot(), /*include_timers=*/false);
    return out.str();
  };

  const std::string serial = run_all(1);
  EXPECT_NE(serial.find("fleet.generate.processors"), std::string::npos);
  EXPECT_NE(serial.find("screening.tested"), std::string::npos);
  EXPECT_NE(serial.find("toolchain.invocations"), std::string::npos);
  for (int threads : {2, 8}) {
    EXPECT_EQ(run_all(threads), serial) << "metrics diverge at threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, ParallelRunPlanLeavesCallerMachineUntouched) {
  // Isolated plans never touch the caller's machine, whatever their size: an empty plan
  // with a burn-in and a 1-entry plan included.
  const TestSuite suite = TestSuite::BuildSampled(40);
  TestFramework framework(&suite);
  EngineContext context(PinnedEngine(2));
  TestRunConfig config;
  config.parallel_plan_entries = true;
  config.burn_in_seconds = 30.0;
  const std::vector<TestPlanEntry> full = framework.EqualPlan(0.5);
  for (const size_t entries : {size_t{0}, size_t{1}, full.size()}) {
    FaultyMachine machine(MakeArchSpec("M2"));
    const double before = machine.cpu().now_seconds();
    const std::vector<TestPlanEntry> plan(full.begin(),
                                          full.begin() + static_cast<ptrdiff_t>(entries));
    const RunReport report = framework.RunPlan(machine, plan, config, context);
    EXPECT_EQ(report.results.size(), entries);
    EXPECT_EQ(report.total_errors(), 0u);
    EXPECT_EQ(machine.cpu().now_seconds(), before) << entries << "-entry plan";
  }
}

TEST(ParallelDeterminismTest, OneEntryIsolatedPlanMatchesItsEntryInALargerPlan) {
  // An isolated entry runs on a fresh clone, so its result cannot depend on how many
  // entries share its plan -- nor on what the caller's machine ran before.
  const TestSuite suite = TestSuite::BuildSampled(16);
  TestFramework framework(&suite);
  EngineContext context(PinnedEngine(2));
  const int failing = suite.IndexOf("lib.bigint.int_mul.limbs2");
  ASSERT_GE(failing, 0);
  const std::vector<TestPlanEntry> plan = {{static_cast<size_t>(failing), 10.0},
                                           {0, 10.0}};
  TestRunConfig config;
  config.time_scale = 2e7;
  config.simultaneous_cores = true;
  config.burn_in_seconds = 60.0;
  config.seed = 3;
  FaultyMachine machine(FindInCatalog("MIX2"), 1);
  framework.RunPlan(machine, plan, config, context);  // the part has already run

  config.parallel_plan_entries = true;
  const RunReport pair = framework.RunPlan(machine, plan, config, context);
  const RunReport single = framework.RunPlan(machine, {plan[0]}, config, context);
  ASSERT_EQ(pair.results.size(), 2u);
  ASSERT_EQ(single.results.size(), 1u);
  ASSERT_GT(pair.results[0].errors, 0u);
  EXPECT_EQ(single.results[0].testcase_id, pair.results[0].testcase_id);
  EXPECT_EQ(single.results[0].errors, pair.results[0].errors);
  EXPECT_EQ(single.results[0].errors_per_pcore, pair.results[0].errors_per_pcore);
  EXPECT_EQ(single.results[0].op_histogram, pair.results[0].op_histogram);
}

// --- Cached population counts (satellite: faulty_count / CountByArch are O(1)) ---

TEST(PopulationCountsTest, CachedCountsMatchFullScan) {
  PopulationConfig config;
  config.processor_count = 40000;
  config.seed = 515;
  const FleetPopulation fleet = GenerateFleet(config);

  uint64_t scanned_faulty = 0;
  std::vector<uint64_t> scanned_by_arch(kArchCount, 0);
  for (uint64_t serial = 0; serial < fleet.size(); ++serial) {
    const FleetShard shard = fleet.shard(serial / kFleetShardGrain);
    scanned_faulty += shard.FindFaulty(serial) != nullptr ? 1 : 0;
    ++scanned_by_arch[static_cast<size_t>(shard.arch_index(serial))];
  }
  EXPECT_EQ(fleet.faulty_count(), scanned_faulty);
  uint64_t total = 0;
  for (int arch = 0; arch < kArchCount; ++arch) {
    EXPECT_EQ(fleet.CountByArch(arch), scanned_by_arch[static_cast<size_t>(arch)]);
    total += fleet.CountByArch(arch);
  }
  EXPECT_EQ(total, config.processor_count);
}

}  // namespace
}  // namespace sdc
