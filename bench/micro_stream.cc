// micro_stream: the streaming shard pipeline (docs/streaming.md) against the
// materialize-then-scan baseline, on the fused generate+screen workload.
//
// Emits one JSON object per line so runs can be diffed and checked mechanically
// (tools/check_stream_json.py validates the same invariants against sdcctl). Grid:
// phase "generate_screen" under
//   materialized -- FleetPopulation::Generate, then ScreeningPipeline::Run over the
//                   materialized columns.
//   streaming    -- FleetShardStream driving a StreamingScreen: the fleet is never
//                   materialized and scratch peaks at O(lanes * shard) bytes.
// each at 1/2/8 worker threads. Streaming rows carry "peak_scratch_bytes" (the summed
// per-lane buffer high-water mark from StreamReport) next to the bytes a materialized
// fleet of the same size holds, so the memory win is in the same line as the time cost.
// The binary asserts that every combination produces ScreeningStats identical to the
// materialized one-thread run (counters and detections, months compared bitwise) and
// exits non-zero on divergence; the closing "summary" line reports the streaming/
// materialized ns-per-processor ratio at one thread (the acceptance bound is <= 1.2).
//
// Usage: micro_stream [processor_count] [repeats]
// Defaults: 1,000,000 processors, best-of-5. CI smoke runs use a small count.

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
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

double BestWallSeconds(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

// Bitwise equality of two screening results: every counter and every detection,
// including the exact bit pattern of the detection-month doubles.
bool IdenticalStats(const ScreeningStats& a, const ScreeningStats& b) {
  if (a.tested != b.tested || a.faulty != b.faulty ||
      a.detected_by_stage != b.detected_by_stage || a.tested_by_arch != b.tested_by_arch ||
      a.detected_by_arch != b.detected_by_arch ||
      a.detections.size() != b.detections.size()) {
    return false;
  }
  for (size_t i = 0; i < a.detections.size(); ++i) {
    const ProcessorOutcome& x = a.detections[i];
    const ProcessorOutcome& y = b.detections[i];
    if (x.serial != y.serial || x.arch_index != y.arch_index || x.detected != y.detected ||
        x.stage != y.stage ||
        std::memcmp(&x.month, &y.month, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  const uint64_t processors =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1'000'000ull;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 5;
  std::printf("# micro_stream: %llu processors, best of %d\n",
              static_cast<unsigned long long>(processors), repeats);

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  bool deterministic = true;
  double materialized_t1 = 0.0;
  double streaming_t1 = 0.0;

  // Ground truth for the determinism assertion, and the memory yardstick: what a
  // materialized fleet of this size actually holds (columns + faulty index + arena).
  ScreeningStats golden;
  uint64_t materialized_bytes = 0;
  {
    PopulationConfig population_config;
    population_config.processor_count = processors;
    EngineContext serial(EngineOptions{.threads = 1});
    const FleetPopulation fleet = FleetPopulation::Generate(population_config, serial);
    golden = pipeline.Run(fleet, ScreeningConfig(), serial);
    materialized_bytes =
        fleet.arch_bytes().capacity() + fleet.flag_bytes().capacity() +
        fleet.faulty_serials().capacity() * sizeof(uint64_t) +
        fleet.faulty_ranges().capacity() * sizeof(DefectRange) +
        fleet.defect_arena().capacity() * sizeof(Defect);
  }

  for (int threads : {1, 2, 8}) {
    PopulationConfig population_config;
    population_config.processor_count = processors;
    const ScreeningConfig screening_config;
    // Both modes run on one explicit EngineContext, so the lane pool is built once and
    // reused across every repeat at this width.
    EngineContext context(EngineOptions{.threads = threads});

    // Materialized baseline: build the fleet, scan it.
    deterministic &= IdenticalStats(
        golden, pipeline.Run(FleetPopulation::Generate(population_config, context),
                             screening_config, context));
    const double materialized_wall = BestWallSeconds(repeats, [&] {
      const FleetPopulation fleet = FleetPopulation::Generate(population_config, context);
      (void)pipeline.Run(fleet, screening_config, context);
    });
    std::printf("{\"bench\": \"generate_screen\", \"mode\": \"materialized\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f, \"fleet_bytes\": %llu}\n",
                threads, static_cast<unsigned long long>(processors), materialized_wall,
                materialized_wall * 1e9 / static_cast<double>(processors),
                static_cast<unsigned long long>(materialized_bytes));
    std::fflush(stdout);

    // Streaming: one fused pass, no fleet.
    const FleetShardStream stream(population_config);
    uint64_t peak_scratch = 0;
    {
      StreamingScreen screen(&pipeline, screening_config);
      const StreamReport report = stream.Drive({&screen}, context);
      peak_scratch = report.peak_scratch_bytes;
      deterministic &= IdenticalStats(golden, screen.TakeStats());
    }
    const double streaming_wall = BestWallSeconds(repeats, [&] {
      StreamingScreen screen(&pipeline, screening_config);
      (void)stream.Drive({&screen}, context);
      (void)screen.TakeStats();
    });
    std::printf("{\"bench\": \"generate_screen\", \"mode\": \"streaming\", "
                "\"threads\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
                "\"ns_per_processor\": %.2f, \"peak_scratch_bytes\": %llu, "
                "\"fleet_bytes\": %llu}\n",
                threads, static_cast<unsigned long long>(processors), streaming_wall,
                streaming_wall * 1e9 / static_cast<double>(processors),
                static_cast<unsigned long long>(peak_scratch),
                static_cast<unsigned long long>(materialized_bytes));
    std::fflush(stdout);

    if (threads == 1) {
      materialized_t1 = materialized_wall;
      streaming_t1 = streaming_wall;
    }
  }

  const double ratio = materialized_t1 > 0.0 ? streaming_t1 / materialized_t1 : 0.0;
  std::printf("{\"bench\": \"summary\", \"streaming_vs_materialized_t1\": %.3f, "
              "\"deterministic\": %s}\n",
              ratio, deterministic ? "true" : "false");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: streaming and materialized runs diverged (see docs/streaming.md)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
