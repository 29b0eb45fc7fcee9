// Extension experiment: fleet capacity retained by fine-grained decommission vs the
// baseline's whole-processor deprecation (Observation 4 / Section 7.1; the fail-in-place
// direction the paper cites via Hyrax). Replays the screening pipeline's in-production
// detections over the 32-month horizon against both policies.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/context.h"
#include "src/common/table.h"
#include "src/fleet/capacity.h"
#include "src/fleet/stream.h"

int main() {
  using namespace sdc;
  PrintExperimentHeader("Capacity", "cores retained: fine-grained decommission vs baseline");

  EngineContext context;
  PopulationConfig population_config;
  population_config.processor_count = 1'000'000;
  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  StreamingScreen screen(&pipeline, ScreeningConfig());
  CapacityAccumulator capacity;
  screen.AddObserver(&capacity);
  FleetShardStream(population_config).Drive({&screen}, context);
  const CapacityReport report = capacity.TakeReport();

  TextTable table({"month", "baseline cores lost", "fine-grained cores lost"});
  for (const CapacityPoint& point : report.timeline) {
    if (static_cast<int>(point.month) % 6 == 0) {
      table.AddRow({FormatDouble(point.month, 0),
                    std::to_string(point.baseline_cores_lost),
                    std::to_string(point.fine_grained_cores_lost)});
    }
  }
  table.Print(std::cout);

  std::cout << "\nfleet: " << report.fleet_cores << " cores; " << report.production_detections
            << " faulty parts flagged during production\n";
  std::cout << "baseline policy discards " << report.baseline_cores_lost
            << " cores; fine-grained discards " << report.fine_grained_cores_lost << " ("
            << report.parts_deprecated_fine
            << " parts still deprecated by the >2-defective-cores rule)\n";
  std::cout << "cores kept in service by fine-grained decommission: " << report.cores_saved()
            << " (" << FormatDouble(report.RetentionFactor(), 1) << "x fewer cores lost)\n";
  std::cout << "\npaper hook: Section 3.2 -- \"it could be worthwhile to investigate the\n"
               "feasibility of continuing to utilize the unaffected cores\" [Hyrax, 56].\n";
  return 0;
}
