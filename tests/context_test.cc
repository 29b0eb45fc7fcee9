// EngineContext contract tests (src/common/context.h): the environment is consulted
// exactly once, at construction -- a setenv after that point cannot re-shape an in-flight
// campaign; and two campaigns interleaved on private contexts in one process are
// byte-identical (stats JSON, deterministic metrics JSON, sim trace JSON) to the same
// campaigns run serially, at 1, 2, and 8 lanes. This suite runs under TSAN in CI
// alongside parallel_test -- a reintroduced getenv on the hot path would race with the
// setenv calls below.

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/common/parallel.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace sdc {
namespace {

// Scoped SDC_THREADS override that restores the previous value on destruction, so a
// failing assertion cannot leak an override into later tests.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("SDC_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    Set(value);
  }
  ~ScopedThreadsEnv() { Set(had_old_ ? old_.c_str() : nullptr); }

  static void Set(const char* value) {
    if (value != nullptr) {
      ::setenv("SDC_THREADS", value, 1);
    } else {
      ::unsetenv("SDC_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

class ContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  static TestSuite* suite_;
};

TestSuite* ContextTest::suite_ = nullptr;

TEST_F(ContextTest, EnvResolvedOnceAtConstruction) {
  ScopedThreadsEnv env("3");
  EngineContext context(EngineOptions{.threads = 8});
  EXPECT_EQ(context.threads(), 3);  // SDC_THREADS overrides the requested count
  ScopedThreadsEnv::Set("1");
  EXPECT_EQ(context.threads(), 3);  // construction-time resolution is immutable
  EXPECT_EQ(context.pool().thread_count(), 3);
}

TEST_F(ContextTest, EnvOverridesDisabledIgnoresEnvironment) {
  ScopedThreadsEnv env("5");
  EngineContext context(EngineOptions{.threads = 2, .env_overrides = false});
  EXPECT_EQ(context.threads(), 2);
  ThreadPool exact(ExactThreadCount{4});
  EXPECT_EQ(exact.thread_count(), 4);
}

// Flips SDC_THREADS from inside the pass (first shard consumed) -- the in-flight
// campaign must keep the lanes its context resolved at construction.
class EnvFlippingConsumer : public ShardConsumer {
 public:
  void ConsumeShard(const FleetShard& /*shard*/) override {
    if (!flipped_.exchange(true)) {
      ScopedThreadsEnv::Set("1");
    }
  }

 private:
  std::atomic<bool> flipped_{false};
};

TEST_F(ContextTest, MidRunEnvChangeCannotAlterInFlightCampaign) {
  PopulationConfig population;
  population.processor_count = 60000;
  population.seed = 411;

  // Baseline: the same campaign with no environment games, same lane count.
  ScreeningPipeline pipeline(suite_);
  std::string baseline_stats;
  {
    EngineContext context(EngineOptions{.threads = 2, .env_overrides = false});
    FleetShardStream stream(population);
    StreamingScreen screen(&pipeline, ScreeningConfig{});
    stream.Drive({&screen}, context);
    ScreeningStats stats = screen.TakeStats();
    std::ostringstream out;
    WriteScreeningStatsJson(out, stats);
    baseline_stats = out.str();
  }

  ScopedThreadsEnv env("2");
  EngineContext context(EngineOptions{.threads = 0});  // env resolves this to 2
  ASSERT_EQ(context.threads(), 2);
  FleetShardStream stream(population);
  EnvFlippingConsumer flipper;
  StreamingScreen screen(&pipeline, ScreeningConfig{});
  const StreamReport report = stream.Drive({&flipper, &screen}, context);
  EXPECT_EQ(report.lanes, 2);  // the setenv("1") mid-pass changed nothing
  ScreeningStats stats = screen.TakeStats();
  std::ostringstream out;
  WriteScreeningStatsJson(out, stats);
  EXPECT_EQ(out.str(), baseline_stats);
}

// One daemon-style campaign: private context, private sinks, fused streaming pass.
struct CampaignOutput {
  std::string stats;
  std::string metrics;
  std::string trace;
};

CampaignOutput RunCampaign(const TestSuite& suite, uint64_t processors,
                           uint64_t fleet_seed, uint64_t screening_seed, int lanes) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  EngineContext context(EngineOptions{
      .threads = lanes, .env_overrides = false, .metrics = &registry, .trace = &recorder});
  PopulationConfig population;
  population.processor_count = processors;
  population.seed = fleet_seed;
  ScreeningPipeline pipeline(&suite);
  ScreeningConfig screening;
  screening.seed = screening_seed;
  FleetShardStream stream(population);
  StreamingScreen screen(&pipeline, screening);
  stream.Drive({&screen}, context);
  ScreeningStats stats = screen.TakeStats();
  CampaignOutput output;
  std::ostringstream stats_json;
  WriteScreeningStatsJson(stats_json, stats);
  output.stats = stats_json.str();
  std::ostringstream metrics_json;
  WriteMetricsJson(metrics_json, registry.Snapshot(), /*include_timers=*/false);
  output.metrics = metrics_json.str();
  std::ostringstream trace_json;
  WriteTraceJson(trace_json, recorder.Snapshot(), /*include_host=*/false);
  output.trace = trace_json.str();
  return output;
}

TEST_F(ContextTest, InterleavedCampaignsMatchSerialRuns) {
  constexpr uint64_t kFleetA = 60000, kSeedA = 1234, kScreenA = 77;
  constexpr uint64_t kFleetB = 90000, kSeedB = 5678, kScreenB = 901;
  for (const int lanes : {1, 2, 8}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    const CampaignOutput serial_a = RunCampaign(*suite_, kFleetA, kSeedA, kScreenA, lanes);
    const CampaignOutput serial_b = RunCampaign(*suite_, kFleetB, kSeedB, kScreenB, lanes);

    CampaignOutput concurrent_a;
    CampaignOutput concurrent_b;
    std::thread thread_a([&] {
      concurrent_a = RunCampaign(*suite_, kFleetA, kSeedA, kScreenA, lanes);
    });
    std::thread thread_b([&] {
      concurrent_b = RunCampaign(*suite_, kFleetB, kSeedB, kScreenB, lanes);
    });
    thread_a.join();
    thread_b.join();

    EXPECT_EQ(concurrent_a.stats, serial_a.stats);
    EXPECT_EQ(concurrent_a.metrics, serial_a.metrics);
    EXPECT_EQ(concurrent_a.trace, serial_a.trace);
    EXPECT_EQ(concurrent_b.stats, serial_b.stats);
    EXPECT_EQ(concurrent_b.metrics, serial_b.metrics);
    EXPECT_EQ(concurrent_b.trace, serial_b.trace);
  }
}

}  // namespace
}  // namespace sdc
