// Streaming fleet pipeline (docs/streaming.md): run the whole Tables 1-2 workflow --
// generation, four-stage screening, capacity retention, testcase effectiveness, wear-out
// exposure -- as ONE fused pass over shard-sized buffers, without ever materializing the
// fleet. Peak scratch is O(threads x shard) bytes no matter how many processors stream
// past, and every number below is byte-identical to what the materialized workflow in
// fleet_screening.cpp produces for the same size and seed.
//
//   $ ./streaming_fleet [processor_count]

#include <cstdlib>
#include <iostream>

#include "src/common/context.h"
#include "src/common/table.h"
#include "src/farron/longitudinal.h"
#include "src/fleet/capacity.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stats.h"
#include "src/fleet/stream.h"

int main(int argc, char** argv) {
  using namespace sdc;

  PopulationConfig population_config;
  population_config.processor_count =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000'000;

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  const ScreeningConfig screening_config;

  // One stream, four consumers. StreamingScreen screens each shard in place; the
  // observers fold each shard's outcomes while its defect spans are still alive.
  FleetShardStream stream(population_config);
  StreamingScreen screen(&pipeline, screening_config);
  CapacityAccumulator capacity;
  WearoutExposureObserver exposure;
  screen.AddObserver(&capacity);
  screen.AddObserver(&exposure);
  EffectivenessAccumulator effectiveness(
      &suite, screening_config.stages[static_cast<size_t>(TestStage::kRegular)]);

  // The context owns the execution environment: worker lanes (SDC_THREADS may override),
  // the vector level, and any telemetry sinks.
  EngineContext context;
  std::cout << "streaming " << population_config.processor_count << " processors through "
            << stream.shard_count() << " shards of " << kFleetShardGrain << "...\n";
  const StreamReport report = stream.Drive({&screen, &effectiveness}, context);
  const ScreeningStats stats = screen.TakeStats();
  const CapacityReport capacity_report = capacity.TakeReport();
  const TestcaseEffectiveness effective = effectiveness.TakeResult();

  std::cout << "peak scratch: " << report.peak_scratch_bytes << " bytes across "
            << report.lanes << " lane(s) -- vs ~"
            << population_config.processor_count * 2 / 1024
            << " KiB of packed columns alone had the fleet been materialized\n\n";

  TextTable table({"stage", "detections", "rate"});
  for (int stage = 0; stage < kStageCount; ++stage) {
    table.AddRow({StageName(static_cast<TestStage>(stage)),
                  std::to_string(stats.detected_by_stage[stage]),
                  FormatPermyriad(stats.StageRate(static_cast<TestStage>(stage)))});
  }
  table.AddRow({"total", std::to_string(stats.total_detected()),
                FormatPermyriad(stats.TotalRate())});
  table.Print(std::cout);

  std::cout << "\ncapacity: baseline deprecation loses " << capacity_report.baseline_cores_lost
            << " cores, fine-grained masking loses "
            << capacity_report.fine_grained_cores_lost << " (saves "
            << capacity_report.cores_saved() << " of " << capacity_report.fleet_cores
            << ")\n";
  std::cout << "effectiveness: " << effective.effective_testcases << " of "
            << effective.total_testcases << " testcases ever detect anything\n";
  std::cout << "wear-out exposure: " << exposure.exposures().size()
            << " regular-round detections, mean window "
            << FormatDouble(exposure.MeanExposureMonths(), 2) << " months\n";
  return 0;
}
