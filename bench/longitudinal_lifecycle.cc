// Extension experiment: the full 32-month lifecycle of a processor with a wear-out defect
// (onset after deployment, Observation 2's "passed pre-production tests and some have even
// passed several rounds of regular tests"). Shows the paper's story end to end: clean
// pre-production, clean early rounds, defect onset, detection at the next round,
// fine-grained masking, and the application continuing on the remaining cores.

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/farron/longitudinal.h"

int main() {
  using namespace sdc;
  EngineContext context(SessionEngine());
  PrintExperimentHeader("Lifecycle", "32 months of one processor with a wear-out defect");

  // A part whose single FPU core starts failing 10 months into production.
  FaultyProcessorInfo info = FindInCatalog("FPU1");
  info.cpu_id = "FPU1-wearout";
  info.defects[0].onset_months = 10.0;
  FaultyMachine machine(info, 777);

  const TestSuite suite = TestSuite::BuildFull();
  FarronConfig config;
  Farron farron(&suite, &machine, config, context);

  LifecycleConfig lifecycle;
  lifecycle.app_hours_per_interval = 2.0;
  lifecycle.workload.kernel_case_index =
      static_cast<size_t>(suite.IndexOf("lib.math.fp_arctan.f64.n256"));
  lifecycle.workload.base_utilization = 0.5;
  lifecycle.workload.preferred_pcore = info.defects[0].affected_pcores.front();
  lifecycle.app_features = {Feature::kFpu};

  const LifecycleReport report = RunLifecycle(farron, machine, suite, lifecycle);

  TextTable table({"month", "tested", "detected", "app SDC events", "masked cores",
                   "deprecated"});
  for (const LifecyclePeriod& period : report.periods) {
    table.AddRow({FormatDouble(period.month, 0), period.tested ? "yes" : "",
                  period.detected ? "YES" : "", std::to_string(period.app_sdc_events),
                  std::to_string(period.masked_cores), period.deprecated ? "yes" : ""});
  }
  table.Print(std::cout);

  std::cout << "\ndefect onset: month 10; first detection: month "
            << FormatDouble(report.first_detection_month, 0) << " (exposure "
            << FormatDouble(report.DetectionLatencyMonths(10.0), 0) << " months)\n";
  std::cout << "application corruptions over the horizon: " << report.total_app_sdc_events
            << "; cores masked: " << report.final_masked_cores << "/"
            << info.spec.physical_cores << "; deprecated: "
            << (report.deprecated ? "yes" : "no") << "\n";
  std::cout << "\nreading: pre-production and early rounds are clean (the defect does not\n"
               "exist yet); after onset the next regular round catches it, the core is\n"
               "masked, and later periods run clean on the remaining cores -- Figure 10's\n"
               "workflow over a part's actual life.\n";
  return 0;
}
