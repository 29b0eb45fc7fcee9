// micro_trace: the cost of the trace/span layer (docs/observability.md) on the fused
// streaming generate+screen workload.
//
// Emits one JSON object per line so runs can be diffed mechanically. Grid: phase
// "generate_screen" under
//   disabled -- PopulationConfig/ScreeningConfig carry trace = nullptr; every hook is a
//               null-pointer check and no per-shard trace buffers are allocated.
//   enabled  -- a TraceRecorder is attached; per-shard deltas record generate.shard and
//               screen.subshard spans plus one detection instant (with provenance args)
//               per detection, merged in shard order.
// each at 1/2/8 worker threads. The closing "summary" line reports the enabled/disabled
// wall-time ratio at one thread; the binary asserts the tracing-enabled run stays within
// 5% of the disabled run (the zero-cost-when-detached contract's measurable half) and
// that the enabled run recorded a nonempty sim timeline whose detection instants match
// the screening stats, exiting non-zero otherwise.
//
// Usage: micro_trace [processor_count] [repeats]
// Defaults: 1,000,000 processors, best-of-5.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>

#include "src/common/context.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/telemetry/trace.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

constexpr double kMaxEnabledOverhead = 1.05;

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

int Main(int argc, char** argv) {
  const uint64_t processors =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1'000'000ull;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 5;
  std::printf("# micro_trace: %llu processors, best of %d\n",
              static_cast<unsigned long long>(processors), repeats);

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  double disabled_t1 = 0.0;
  double enabled_t1 = 0.0;
  bool consistent = true;

  PopulationConfig population_config;
  population_config.processor_count = processors;
  const FleetShardStream stream(population_config);
  for (int threads : {1, 2, 8}) {
    EngineContext context(EngineOptions{.threads = threads});
    auto run_once = [&](TraceRecorder* recorder) {
      context.AttachTrace(recorder);
      StreamingScreen screen(&pipeline, ScreeningConfig());
      stream.Drive({&screen}, context);
      context.AttachTrace(nullptr);
      return screen.TakeStats();
    };

    // Consistency is checked on an untimed run; the timed passes measure only the
    // pipeline itself.
    uint64_t sim_events = 0;
    uint64_t detections = 0;
    {
      TraceRecorder recorder;
      const ScreeningStats stats = run_once(&recorder);
      const TraceSnapshot snapshot = recorder.Snapshot();
      sim_events = snapshot.sim.size();
      uint64_t instants = 0;
      for (const TraceEvent& event : snapshot.sim) {
        if (event.phase == 'i') {
          ++instants;
        }
      }
      detections = stats.total_detected();
      consistent &= instants == detections && detections == stats.provenance.size();
    }

    // Interleave the two configurations repeat by repeat so scheduler noise and clock
    // drift (this is often a single-hardware-thread host) hit both arms equally; the
    // reported figure is best-of-repeats per arm.
    double disabled_wall = 1e300;
    double enabled_wall = 1e300;
    for (int i = 0; i < repeats; ++i) {
      disabled_wall =
          std::min(disabled_wall, WallSeconds([&] { (void)run_once(nullptr); }));
      enabled_wall = std::min(enabled_wall, WallSeconds([&] {
                                TraceRecorder recorder;
                                (void)run_once(&recorder);
                              }));
    }
    std::printf("{\"bench\": \"generate_screen\", \"trace\": \"disabled\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f}\n",
                threads, static_cast<unsigned long long>(processors), disabled_wall,
                disabled_wall * 1e9 / static_cast<double>(processors));
    std::fflush(stdout);
    std::printf("{\"bench\": \"generate_screen\", \"trace\": \"enabled\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f, \"sim_events\": %llu, "
                "\"detection_instants\": %llu}\n",
                threads, static_cast<unsigned long long>(processors), enabled_wall,
                enabled_wall * 1e9 / static_cast<double>(processors),
                static_cast<unsigned long long>(sim_events),
                static_cast<unsigned long long>(detections));
    std::fflush(stdout);
    consistent &= sim_events > 0;

    if (threads == 1) {
      disabled_t1 = disabled_wall;
      enabled_t1 = enabled_wall;
    }
  }

  const double ratio = disabled_t1 > 0.0 ? enabled_t1 / disabled_t1 : 0.0;
  std::printf("{\"bench\": \"summary\", \"enabled_vs_disabled_t1\": %.3f, "
              "\"overhead_bound\": %.2f, \"consistent\": %s}\n",
              ratio, kMaxEnabledOverhead, consistent ? "true" : "false");
  if (!consistent) {
    std::fprintf(stderr, "FAIL: trace events diverged from screening stats\n");
    return 1;
  }
  if (ratio > kMaxEnabledOverhead) {
    std::fprintf(stderr, "FAIL: tracing overhead %.3f exceeds bound %.2f\n", ratio,
                 kMaxEnabledOverhead);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
