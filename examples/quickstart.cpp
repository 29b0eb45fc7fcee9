// Quickstart: build a simulated machine with a known-faulty processor from the study
// catalog, run a slice of the SDC test toolchain against it, and look at what corrupted.
//
//   $ ./quickstart
//
// Walks through the core objects in dependency order: ProcessorSpec/FaultyMachine (the
// simulated CPU with defects wired in), TestSuite/TestFramework (the 633-testcase
// toolchain), and SdcRecord (one observed silent corruption).

#include <iostream>

#include "src/common/context.h"
#include "src/fault/catalog.h"
#include "src/fault/machine.h"
#include "src/toolchain/framework.h"

int main() {
  using namespace sdc;

  // 1. A healthy machine: the toolchain never reports an error on it.
  FaultyMachine healthy(MakeArchSpec("M2"));
  std::cout << "healthy machine: " << healthy.cpu().spec().physical_cores
            << " cores at " << healthy.cpu().spec().frequency_ghz << " GHz, idle "
            << healthy.cpu().thermal().IdleTemperature() << " C\n";

  // 2. A faulty machine: FPU1 from the paper's Table 3 -- one defective core whose
  //    arctangent path silently corrupts float64/float64x results.
  const FaultyProcessorInfo info = FindInCatalog("FPU1");
  FaultyMachine faulty(info, /*seed=*/2024);
  std::cout << "faulty machine: " << info.cpu_id << " (" << info.arch << ", "
            << info.age_years << " years in fleet, " << info.defects.size()
            << " defect(s), type " << SdcTypeName(info.sdc_type()) << ")\n\n";

  // 3. Drive both through the toolchain. BuildSampled keeps the demo fast; production
  //    screening uses BuildFull()'s 633 cases.
  const TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  EngineContext context;  // worker lanes and telemetry sinks; none attached here
  TestRunConfig config;
  config.time_scale = 1e6;   // each simulated op stands for a million executions
  config.seed = 1;

  std::vector<TestPlanEntry> plan;
  for (size_t i = 0; i < suite.size(); i += 8) {  // every 8th case, 10 s each
    plan.push_back({i, 10.0});
  }

  const RunReport healthy_report = framework.RunPlan(healthy, plan, config, context);
  std::cout << "healthy run:  " << healthy_report.total_errors() << " errors in "
            << healthy_report.results.size() << " testcases\n";

  const RunReport faulty_report = framework.RunPlan(faulty, plan, config, context);
  std::cout << "faulty run:   " << faulty_report.total_errors() << " errors, failing:";
  for (const std::string& id : faulty_report.failed_testcase_ids()) {
    std::cout << " " << id;
  }
  std::cout << "\n\n";

  // 4. Inspect a corruption: expected vs actual bits of one silent error.
  if (!faulty_report.records.empty()) {
    const SdcRecord& record = faulty_report.records.front();
    std::cout << "first SDC record:\n";
    std::cout << "  testcase:    " << record.testcase_id << "\n";
    std::cout << "  core:        pcore " << record.pcore << " at "
              << record.temperature << " C\n";
    std::cout << "  datatype:    " << DataTypeName(record.type) << "\n";
    std::cout << "  expected:    " << DoubleFromBits(record.expected) << "\n";
    std::cout << "  actual:      " << DoubleFromBits(record.actual) << "\n";
    std::cout << "  flipped bits " << record.FlipMask().Popcount() << " (relative loss "
              << RelativePrecisionLoss(record.type, record.expected, record.actual)
              << ")\n";
  }
  return 0;
}
