// Ablation study of Farron's design choices (DESIGN.md section 4): each mechanism is
// disabled in turn and its contribution measured on the scenarios it was built for.
//
//   priorities      -> round duration (10.55 h without, ~1 h with)
//   hot testing     -> coverage of temperature-gated defects (FPU2's 48C band)
//   backoff         -> SDC events from MIX1's 59C-gated defect under load bursts
//   adaptive bound  -> spurious backoff on a legitimately warm application
//   fine decommission -> usable cores left after detecting SIMD1's single bad core

#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/farron/baseline.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"

namespace {

using namespace sdc;

double CoverageOf(const std::set<std::string>& known, const RunReport& report) {
  if (known.empty()) {
    return 0.0;
  }
  size_t hit = 0;
  for (const std::string& id : report.failed_testcase_ids()) {
    hit += known.count(id);
  }
  return static_cast<double>(hit) / static_cast<double>(known.size());
}

}  // namespace

int main() {
  using namespace sdc;
  EngineContext context(SessionEngine());
  PrintExperimentHeader("Ablation", "contribution of each Farron mechanism");
  const TestSuite suite = TestSuite::BuildFull();

  // --- 1. Priorities: round duration. ---
  {
    FaultyMachine machine(FindInCatalog("FPU1"), 400);
    FarronConfig with;
    Farron farron(&suite, &machine, with, context);
    farron.MarkSuspectedTestcases({"lib.math.fp_arctan.f64.n256"});
    const FarronRoundSummary round = farron.RunRegularRound({});
    std::cout << "priorities ON : round = "
              << FormatDouble(round.plan_seconds / 3600.0, 2) << " h\n";
    std::cout << "priorities OFF: round = "
              << FormatDouble(BaselinePolicy(&suite, BaselineConfig()).RoundDurationSeconds() /
                                  3600.0, 2)
              << " h (equal allocation)\n\n";
  }

  // --- 2. Hot testing environment: coverage of FPU2's 48C-gated defect. ---
  {
    const FaultyProcessorInfo info = FindInCatalog("FPU2");
    FaultyMachine ground_truth_machine(info, 401);
    const RunReport ground_truth = AdequateSweep(suite, ground_truth_machine, 60.0, 19);
    std::set<std::string> known;
    for (const std::string& id : ground_truth.failed_testcase_ids()) {
      known.insert(id);
    }
    for (bool hot : {true, false}) {
      FaultyMachine machine(info, 402);
      FarronConfig config;
      config.enable_hot_testing = hot;
      Farron farron(&suite, &machine, config, context);
      farron.MarkSuspectedTestcases({known.begin(), known.end()});
      const FarronRoundSummary round = farron.RunRegularRound({});
      std::cout << "hot testing " << (hot ? "ON " : "OFF") << ": FPU2 coverage = "
                << FormatDouble(CoverageOf(known, round.report), 3) << " (known "
                << known.size() << " cases)\n";
    }
    std::cout << "\n";
  }

  // --- 3. Backoff: MIX1's tricky 59C defect under load bursts. ---
  {
    WorkloadSpec spec;
    spec.kernel_case_index = static_cast<size_t>(suite.IndexOf("lib.crc32.vector.b4096"));
    spec.base_utilization = 0.45;
    spec.burst_probability = 0.01;
    spec.burst_seconds = 240.0;
    for (bool backoff : {true, false}) {
      FaultyMachine machine(FindInCatalog("MIX1"), 403);
      FarronConfig config;
      config.enable_backoff = backoff;
      config.enable_adaptive_boundary = false;
      Farron farron(&suite, &machine, config, context);
      const ProtectionReport report =
          SimulateProtectedWorkload(farron, machine, suite, spec, 2.0, true);
      std::cout << "backoff " << (backoff ? "ON " : "OFF") << ": app SDC events = "
                << report.sdc_events << ", max temp = "
                << FormatDouble(report.max_temperature, 1) << " C, backoff = "
                << FormatDouble(report.BackoffSecondsPerHour(), 2) << " s/h\n";
    }
    std::cout << "\n";
  }

  // --- 4. Adaptive boundary: a legitimately warm application. ---
  {
    WorkloadSpec spec;
    spec.kernel_case_index = static_cast<size_t>(suite.IndexOf("lib.crc32.scalar.b1024"));
    spec.base_utilization = 0.75;  // steady temperature above the initial 59C boundary
    spec.burst_probability = 0.0;
    for (bool adaptive : {true, false}) {
      FaultyMachine machine(MakeArchSpec("M2"));
      FarronConfig config;
      config.enable_adaptive_boundary = adaptive;
      Farron farron(&suite, &machine, config, context);
      const ProtectionReport report =
          SimulateProtectedWorkload(farron, machine, suite, spec, 2.0, true);
      std::cout << "adaptive boundary " << (adaptive ? "ON " : "OFF")
                << ": backoff = " << FormatDouble(report.BackoffSecondsPerHour(), 1)
                << " s/h, final boundary = " << FormatDouble(report.final_boundary, 1)
                << " C\n";
    }
    std::cout << "\n";
  }

  // --- 4b. Cooling control (extension): performance-neutral alternative to backoff. ---
  {
    WorkloadSpec spec;
    spec.kernel_case_index = static_cast<size_t>(suite.IndexOf("lib.crc32.vector.b4096"));
    spec.base_utilization = 0.45;
    spec.burst_probability = 0.01;
    spec.burst_seconds = 240.0;
    for (bool cooling : {false, true}) {
      FaultyMachine machine(FindInCatalog("MIX1"), 406);
      FarronConfig config;
      config.enable_adaptive_boundary = false;
      config.enable_cooling_control = cooling;
      Farron farron(&suite, &machine, config, context);
      const ProtectionReport report =
          SimulateProtectedWorkload(farron, machine, suite, spec, 2.0, true);
      std::cout << "cooling control " << (cooling ? "ON " : "OFF")
                << ": backoff = " << FormatDouble(report.BackoffSecondsPerHour(), 1)
                << " s/h, cooling boosts = " << report.cooling_boosts
                << ", app SDC events = " << report.sdc_events
                << ", final boost = " << FormatDouble(report.final_cooling_boost, 2)
                << "\n";
    }
    std::cout << "\n";
  }

  // --- 5. Fine-grained decommission: SIMD1's single defective core. ---
  {
    for (bool fine : {true, false}) {
      FaultyMachine machine(FindInCatalog("SIMD1"), 405);
      FarronConfig config;
      config.enable_fine_decommission = fine;
      Farron farron(&suite, &machine, config, context);
      farron.MarkSuspectedTestcases({"vec.vec_fma_f32.f32.l8.n128"});
      farron.RunRegularRound({});
      std::cout << "fine decommission " << (fine ? "ON " : "OFF") << ": usable cores = "
                << farron.pool().UsableCores().size() << " / 16\n";
    }
  }
  return 0;
}
