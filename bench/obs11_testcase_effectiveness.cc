// Observation 11: in a production environment with tens of thousands of CPUs, 560 of the
// 633 testcases never detect an error. This harness evaluates testcase effectiveness over a
// 30,000-CPU production sub-fleet under regular-test settings.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/context.h"
#include "src/common/table.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/stats.h"

int main() {
  using namespace sdc;
  PrintExperimentHeader("Observation 11", "testcase effectiveness in a production cluster");

  const TestSuite suite = TestSuite::BuildFull();
  PopulationConfig config;
  config.processor_count = 30000;  // "tens of thousands of CPUs"
  config.seed = 123;
  EngineContext context;
  const FleetPopulation fleet = FleetPopulation::Generate(config, context);
  const TestcaseEffectiveness effectiveness =
      ComputeTestcaseEffectiveness(suite, fleet, ScreeningConfig().stages[3]);

  TextTable table({"", "measured", "paper"});
  table.AddRow({"testcases", std::to_string(effectiveness.total_testcases), "633"});
  table.AddRow({"effective (found >= 1 fault)",
                std::to_string(effectiveness.effective_testcases), "73"});
  table.AddRow({"never detected anything",
                std::to_string(effectiveness.ineffective_testcases()), "560"});
  table.Print(std::cout);

  std::cout << "\nfaulty parts in this cluster: " << fleet.faulty_count() << "\n";
  std::cout << "effective testcases by kernel family:\n";
  std::set<std::string> families;
  for (const std::string& id : effectiveness.effective_ids) {
    families.insert(KernelFamily(id));
  }
  for (const std::string& family : families) {
    std::cout << "  " << family << "\n";
  }
  std::cout << "\nimplication (Section 6.1): equal-resource testing wastes most of its\n"
               "budget; Farron's priority levels give the effective minority long slices.\n";
  return 0;
}
