// Fleet screening: generate a production CPU population, push it through the four-stage
// screening pipeline of Figure 1 (factory -> datacenter -> re-install -> regular), and
// summarize who was caught where -- the workflow behind Tables 1 and 2.
//
//   $ ./fleet_screening [processor_count]

#include <cstdlib>
#include <iostream>

#include "src/common/context.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stats.h"

int main(int argc, char** argv) {
  using namespace sdc;

  // The execution environment -- worker lanes (SDC_THREADS may override), the vector
  // level, and any telemetry sinks -- lives on the context; the configs below only
  // describe the experiment.
  EngineContext context;
  PopulationConfig population_config;
  population_config.processor_count = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 250000;
  std::cout << "generating a fleet of " << population_config.processor_count
            << " processors across " << kArchCount << " micro-architectures...\n";
  const FleetPopulation fleet = FleetPopulation::Generate(population_config, context);
  std::cout << fleet.faulty_count() << " carry latent silicon defects ("
            << FormatPermyriad(static_cast<double>(fleet.faulty_count()) /
                               static_cast<double>(population_config.processor_count))
            << " true prevalence)\n\n";

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  const ScreeningStats stats = pipeline.Run(fleet, ScreeningConfig(), context);

  TextTable table({"stage", "detections", "rate"});
  for (int stage = 0; stage < kStageCount; ++stage) {
    table.AddRow({StageName(static_cast<TestStage>(stage)),
                  std::to_string(stats.detected_by_stage[stage]),
                  FormatPermyriad(stats.StageRate(static_cast<TestStage>(stage)))});
  }
  table.AddRow({"total", std::to_string(stats.total_detected()),
                FormatPermyriad(stats.TotalRate())});
  table.Print(std::cout);

  std::cout << "\nescaped every stage: " << stats.faulty - stats.total_detected()
            << " faulty parts (tricky trigger conditions or uncovered scenarios)\n";

  // What months do regular tests catch their parts in? (wear-out onset + leftovers)
  Histogram months(0.0, 33.0, 11);
  for (const ProcessorOutcome& outcome : stats.detections) {
    if (outcome.stage == TestStage::kRegular) {
      months.Add(outcome.month);
    }
  }
  std::cout << "\nregular-test detections by month in fleet:\n";
  for (size_t bin = 0; bin < months.bin_count(); ++bin) {
    if (months.count(bin) > 0) {
      std::cout << "  month ~" << months.BinCenter(bin) << ": " << months.count(bin)
                << "\n";
    }
  }

  // Which testcases earned their keep? (Observation 11)
  const TestcaseEffectiveness effectiveness =
      ComputeTestcaseEffectiveness(suite, fleet, ScreeningConfig().stages[3]);
  std::cout << "\ntestcase effectiveness: " << effectiveness.effective_testcases << " of "
            << effectiveness.total_testcases
            << " ever detect anything -- prioritize those (Farron's 'active' list)\n";
  return 0;
}
