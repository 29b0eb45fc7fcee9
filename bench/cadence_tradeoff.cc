// Extension experiment: regular-test cadence vs SDC exposure (Observation 2's tension:
// "services continue to be exposed... as it is not feasible to perform regular SDC tests
// frequently"). Sweeps the regular period and measures (a) mean months a wear-out defect
// sits undetected in production and (b) the testing overhead that cadence costs under the
// baseline's 10.55 h rounds and under Farron's prioritized ~1 h rounds.
//
// Runs as ONE batched fused generate->screen pass (docs/performance.md): the four
// cadences form a ScenarioBatch, so the 400k-processor fleet is generated and scanned
// once instead of once per period, with a per-scenario WearoutExposureObserver deriving
// each cadence's exposure windows shard by shard -- the fleet is never materialized. The
// records are identical to four independent passes (tests/stream_test.cc pins the
// batched/independent equivalence bitwise).

#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/context.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/farron/longitudinal.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"

int main() {
  using namespace sdc;
  PrintExperimentHeader("Cadence", "regular-test period vs SDC exposure window");

  PopulationConfig population_config;
  population_config.processor_count = 400000;
  const FleetShardStream stream(population_config);
  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);

  const std::vector<double> periods = {1.0, 2.0, 3.0, 6.0};
  ScenarioBatch batch;
  for (double period : periods) {
    ScreeningConfig config;
    config.regular_period_months = period;
    batch.scenarios.push_back(config);
  }
  StreamingScreen screen(&pipeline, batch);
  std::vector<WearoutExposureObserver> exposure(periods.size());
  for (size_t k = 0; k < periods.size(); ++k) {
    screen.AddObserver(&exposure[k], k);
  }
  EngineContext context;
  stream.Drive({&screen}, context);

  TextTable table({"period (months)", "regular detections", "mean exposure (months)",
                   "baseline test overhead", "Farron test overhead"});
  for (size_t k = 0; k < periods.size(); ++k) {
    const double period = periods[k];
    std::vector<double> exposures;
    exposures.reserve(exposure[k].exposures().size());
    for (const WearoutExposure& record : exposure[k].exposures()) {
      exposures.push_back(record.exposure_months());
    }
    const double period_seconds = period * 30.44 * 24.0 * 3600.0;
    table.AddRow({FormatDouble(period, 0), std::to_string(exposures.size()),
                  FormatDouble(Mean(exposures), 2),
                  FormatPercent(10.55 * 3600.0 / period_seconds, 3),
                  FormatPercent(1.02 * 3600.0 / period_seconds, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nreading: shorter periods shrink the exposure window but the baseline's\n"
               "10.55 h rounds make frequent testing expensive -- Farron's ~1 h rounds\n"
               "move the achievable point of that trade-off (Sections 3.1 and 7.2).\n";
  return 0;
}
