// Farron end-to-end: protect an application running on a faulty processor.
//
//   $ ./farron_protection [cpu_id]     (default MIX1)
//
// The full Figure 10 workflow: pre-production adequate testing seeds suspected priorities
// and masks apparently-defective cores; the online state runs prioritized regular tests and
// watches core temperatures, backing the workload off when it crosses the adaptive
// boundary; the suspected state performs targeted analysis and fine-grained decommission.

#include <iostream>

#include "src/common/context.h"
#include "src/common/table.h"
#include "src/farron/baseline.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"

int main(int argc, char** argv) {
  using namespace sdc;
  const std::string cpu_id = argc > 1 ? argv[1] : "FPU1";

  const TestSuite suite = TestSuite::BuildFull();
  const FaultyProcessorInfo info = FindInCatalog(cpu_id);
  std::cout << "=== protecting an application on faulty processor " << cpu_id << " ("
            << info.arch << ", " << info.spec.physical_cores << " cores) ===\n\n";

  FaultyMachine machine(info, 7);
  FarronConfig config;
  EngineContext context;
  Farron farron(&suite, &machine, config, context);

  // --- Pre-production state: adequate testing. ---
  std::cout << "[pre-production] full-suite adequate test...\n";
  const FarronRoundSummary pre_production = farron.RunPreProduction();
  std::cout << "  errors: " << pre_production.report.total_errors() << ", failing cases: "
            << pre_production.report.failed_testcase_ids().size() << "\n";
  std::cout << "  masked cores:";
  for (int pcore : pre_production.newly_masked_cores) {
    std::cout << " " << pcore;
  }
  std::cout << "\n  processor deprecated: "
            << (pre_production.processor_deprecated ? "yes" : "no") << ", usable cores: "
            << farron.pool().UsableCores().size() << "/" << info.spec.physical_cores
            << "\n\n";
  if (pre_production.processor_deprecated) {
    std::cout << "more than two defective cores -- the whole part is withdrawn "
                 "(Observation 4 policy); try FPU1 or SIMD1 for the fine-grained path\n";
    return 0;
  }

  // --- Online state: the application runs under temperature control, preferring the
  //     (now masked) defective core's slot -- the pool reroutes it. ---
  const int defective_pcore =
      pre_production.newly_masked_cores.empty() ? 0 : pre_production.newly_masked_cores[0];
  std::cout << "[online] application (arctangent-heavy HPC kernel) for 4 hours...\n";
  WorkloadSpec spec;
  spec.kernel_case_index = static_cast<size_t>(suite.IndexOf("lib.math.fp_arctan.f64.n256"));
  spec.base_utilization = 0.47;
  spec.burst_probability = 3e-4;
  spec.burst_seconds = 10.0;
  spec.preferred_pcore = defective_pcore;
  const ProtectionReport protection =
      SimulateProtectedWorkload(farron, machine, suite, spec, 4.0, /*protect=*/true);
  std::cout << "  SDC events reaching the application: " << protection.sdc_events << "\n";
  std::cout << "  workload backoff: " << FormatDouble(protection.BackoffSecondsPerHour(), 2)
            << " s/hour over " << protection.backoff_engagements
            << " engagements (paper: 0.864 s/hour)\n";
  std::cout << "  hottest core: " << FormatDouble(protection.max_temperature, 1)
            << " C, boundary now " << FormatDouble(protection.final_boundary, 1) << " C\n\n";

  // --- Online state: one prioritized regular round. ---
  std::cout << "[online] prioritized regular test round...\n";
  const FarronRoundSummary round = farron.RunRegularRound({});
  std::cout << "  round duration: " << FormatDouble(round.plan_seconds / 3600.0, 2)
            << " h (baseline: "
            << FormatDouble(BaselinePolicy(&suite, BaselineConfig()).RoundDurationSeconds() /
                                3600.0, 2)
            << " h); test overhead " << FormatPercent(farron.TestOverhead(), 3) << "\n";
  std::cout << "  suspected testcases tracked: "
            << farron.priorities().CountWithPriority(TestPriority::kSuspected) << "\n\n";

  // --- The counterfactual: no screening, no masking, no temperature control -- and the
  //     scheduler happens to place the application on the defective core. ---
  std::cout << "[counterfactual] same workload, no mitigation, on the defective core...\n";
  FaultyMachine unprotected(info, 7);
  Farron idle(&suite, &unprotected, config, context);
  const ProtectionReport bare =
      SimulateProtectedWorkload(idle, unprotected, suite, spec, 4.0, /*protect=*/false);
  std::cout << "  SDC events reaching the application: " << bare.sdc_events
            << " (hottest core " << FormatDouble(bare.max_temperature, 1) << " C)\n";
  return 0;
}
