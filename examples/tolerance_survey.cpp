// Tolerance survey: run every Section 6.2 technique against the same defective processor
// and watch what each one catches -- then protect the same workload the Farron way
// (conditions, not datapath) and compare, with the telemetry log as the audit trail.
//
//   $ ./tolerance_survey

#include <iostream>

#include "src/common/context.h"
#include "src/common/table.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/telemetry/event_log.h"
#include "src/tolerance/evaluation.h"
#include "src/tolerance/selective.h"

int main() {
  using namespace sdc;

  // The threat: FPU1's arctangent defect, apparent at production temperatures.
  const FaultyProcessorInfo info = FindInCatalog("FPU1");
  const int bad_pcore = info.defects.front().affected_pcores.front();
  const int bad_lcore = bad_pcore * info.spec.threads_per_core;
  const int shadow_lcore = ((bad_pcore + 1) % info.spec.physical_cores) *
                           info.spec.threads_per_core;
  std::cout << "threat: " << info.cpu_id << ", defective pcore " << bad_pcore << "\n\n";

  constexpr uint64_t kTrials = 20000;
  TextTable table({"technique", "corruptions", "detected", "silent escapes", "cost"});
  auto add = [&table](const TechniqueEvaluation& evaluation) {
    table.AddRow({evaluation.technique, std::to_string(evaluation.corruptions),
                  FormatPercent(evaluation.DetectionRate(), 1),
                  std::to_string(evaluation.silent_escapes()),
                  FormatDouble(evaluation.cost_factor, 2) + "x"});
  };
  {
    FaultyMachine machine(info, 1);
    add(EvaluateChecksumAfterCompute(machine, bad_lcore, kTrials, 2));
  }
  {
    FaultyMachine machine(info, 3);
    add(EvaluateDmr(machine, bad_lcore, shadow_lcore, kTrials, 4));
  }
  {
    FaultyMachine machine(info, 5);
    add(EvaluateSelectiveGuard(machine, bad_lcore, shadow_lcore, kTrials, 6));
  }
  {
    FaultyMachine machine(info, 7);
    add(EvaluateRangeDetector(machine, bad_lcore, DataType::kFloat64, kTrials, 8));
  }
  table.Print(std::cout);

  // The Farron alternative: attack the conditions. Mask the core after detection and let
  // the application run clean at 1x datapath cost.
  std::cout << "\nFarron's answer (attack conditions, not the datapath):\n";
  const TestSuite suite = TestSuite::BuildFull();
  FaultyMachine machine(info, 9);
  FarronConfig config;
  EventLog log;
  EngineContext context(EngineOptions{.event_log = &log});
  Farron farron(&suite, &machine, config, context);
  farron.RunPreProduction();
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(suite.IndexOf("lib.math.fp_arctan.f64.n256"));
  spec.base_utilization = 0.5;
  spec.preferred_pcore = bad_pcore;  // the scheduler tries, the pool reroutes
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, suite, spec, 2.0, true);
  std::cout << "  defective core masked after pre-production; app SDC events over 2 h: "
            << report.sdc_events << "; datapath cost: 1.00x\n\n";
  std::cout << "telemetry (" << log.total_recorded() << " events, newest window):\n";
  size_t shown = 0;
  for (const Event& event : log.RetainedEvents()) {
    if (event.kind != EventKind::kSdcDetected || shown < 3) {
      std::cout << "  [" << FormatDouble(event.time_seconds, 0) << "s] "
                << EventKindName(event.kind) << " " << event.subject << "\n";
    }
    if (event.kind == EventKind::kSdcDetected) {
      ++shown;
    }
    if (shown > 8) {
      break;
    }
  }
  std::cout << "  ... sdc-detected events total: "
            << log.CountOf(EventKind::kSdcDetected) << "\n";
  return 0;
}
