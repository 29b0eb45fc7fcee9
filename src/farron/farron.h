// Farron: the paper's SDC mitigation system (Section 7).
//
// Farron combines four mechanisms, each keyed to one of the study's observations:
//  * prioritized, efficiency-focused regular testing (Observation 11) -- suspected/active
//    testcases get full time slices, the rest a best-effort sweep;
//  * a hot testing environment -- burn-in plus all cores tested simultaneously -- so that
//    regular tests cover the application's execution temperatures (Observation 10);
//  * an adaptive temperature boundary with workload backoff to suppress "tricky" SDCs whose
//    trigger temperatures testing cannot reach economically (Observation 10, Figure 9);
//  * fine-grained core decommission backed by a reliable resource pool (Observation 4).
//
// The workflow follows Figure 10's three states: pre-production (adequate testing), online
// (regular prioritized tests + triggering-condition control), and suspected (targeted tests
// and health analysis feeding the pool).

#ifndef SDC_SRC_FARRON_FARRON_H_
#define SDC_SRC_FARRON_FARRON_H_

#include <string>
#include <vector>

#include "src/farron/boundary.h"
#include "src/farron/pool.h"
#include "src/farron/priorities.h"
#include "src/fault/machine.h"
#include "src/telemetry/event_log.h"
#include "src/toolchain/framework.h"

namespace sdc {

struct FarronConfig {
  PriorityPlanParams plan_params;
  double pre_production_per_case_seconds = 60.0;
  double targeted_per_case_seconds = 120.0;
  double regular_period_months = 3.0;
  double burn_in_seconds = 120.0;
  double initial_boundary_celsius = 59.0;  // workload-backoff boundary (adaptive)
  size_t boundary_window = 120;
  double backoff_utilization = 0.3;
  double time_scale = 1e7;
  uint64_t seed = 99;
  // Cooling-device control (Section 5's performance-neutral alternative): when available,
  // the controller first steps up fan/pump speed and only throttles the workload once the
  // boost is exhausted. Off by default -- the paper notes it "is not widely applicable in
  // Alibaba Cloud yet".
  bool enable_cooling_control = false;
  double max_cooling_boost = 2.0;
  double cooling_boost_step = 0.25;
  // Ablation switches (all on for full Farron).
  bool enable_priorities = true;
  bool enable_hot_testing = true;
  bool enable_adaptive_boundary = true;
  bool enable_backoff = true;
  bool enable_fine_decommission = true;
};

// Per-round summary used by the evaluation harnesses.
struct FarronRoundSummary {
  RunReport report;
  double plan_seconds = 0.0;  // scheduled testing time for the round
  std::vector<int> newly_masked_cores;
  bool processor_deprecated = false;
};

class Farron {
 public:
  // `suite`, `machine` and `context` must outlive the Farron instance. Every test round
  // runs on `context`: its lanes, and its metrics/trace sinks read at the start of each
  // round ("toolchain.*" spans and counters) and by the protection loop
  // ("protection.*"). Its event log is read once, here: Farron emits round, detection,
  // decommission, and triggering-condition-control events through it. For per-event
  // counters, attach the registry to the log too (EventLog::AttachMetrics).
  Farron(const TestSuite* suite, FaultyMachine* machine, FarronConfig config,
         EngineContext& context);

  // --- Pre-production state. ---

  // Adequate full-suite testing; failures seed "suspected" priorities and the pool.
  FarronRoundSummary RunPreProduction();

  // Seeds "active" priorities from fleet history (Observation 11's guidance data).
  void SetActiveFromHistory(const std::vector<std::string>& testcase_ids);

  // Seeds "suspected" priorities directly (e.g. from an earlier deployment's records),
  // without re-running pre-production testing.
  void MarkSuspectedTestcases(const std::vector<std::string>& testcase_ids);

  // --- Online state. ---

  // One prioritized regular round under the current adaptive duration scale; absorbs
  // failures into priorities and (via the suspected state) the reliable pool.
  FarronRoundSummary RunRegularRound(const std::vector<Feature>& app_features);

  // Temperature-control step for the protected application; returns the decision.
  BoundaryDecision ObserveTemperature(double temperature_celsius);

  // What the triggering-condition controller did on one observation.
  enum class ControlAction {
    kNone,             // temperature within bounds
    kBoundaryRaised,   // persistent pressure: learned the boundary upward
    kCoolingBoosted,   // fan/pump stepped up (performance-neutral)
    kWorkloadBackoff,  // throttle the workload until below the boundary
  };

  // Full control step: consult the adaptive boundary and, when it calls for intervention,
  // prefer cooling control (if enabled and not exhausted) over workload backoff. Relaxes
  // the cooling boost once the temperature is comfortably below the boundary.
  ControlAction ControlStep(double temperature_celsius);

  // Test overhead of the last regular round over the regular period (Table 4).
  double TestOverhead() const;

  // Adaptive test-duration scale derived from the current boundary: a lower boundary means
  // temperature control suppresses more SDCs, so less regular testing is needed.
  double DurationScale() const;

  // --- Suspected state. ---

  // Targeted analysis after failures: reruns suspected testcases long and hot to map which
  // cores are defective, masks them, and decides on deprecation.
  void RunTargetedAnalysis(FarronRoundSummary& summary);

  // --- Telemetry. ---

  EventLog* event_log() const { return event_log_; }
  EngineContext& context() const { return context_; }

  // --- State access. ---
  const PriorityTracker& priorities() const { return priorities_; }
  const ReliablePool& pool() const { return pool_; }
  const AdaptiveBoundary& boundary() const { return boundary_; }
  double backoff_utilization() const { return config_.backoff_utilization; }
  const FarronConfig& config() const { return config_; }

 private:
  // Sessions decompose the regular-test cycle into budgeted chunks and need the same
  // internals RunRegularRound uses (plan build, plan execution, round close, event
  // emission).
  friend class ProtectionSession;

  // Runs `plan` on the machine in Farron's testing environment (hot testing, usable cores
  // only), on the context.
  RunReport RunTestPlan(const std::vector<TestPlanEntry>& plan) const;
  // The regular round's plan: prioritized under the current duration scale, or the
  // ablation's equal allocation.
  std::vector<TestPlanEntry> BuildRegularPlan(
      const std::vector<Feature>& app_features) const;
  // Closes a regular round whose report and plan_seconds are filled in: records the plan
  // time for TestOverhead(), absorbs failures and emits kRoundCompleted.
  void CloseRegularRound(FarronRoundSummary& summary);
  void AbsorbFailures(const RunReport& report, FarronRoundSummary& summary);
  void Emit(EventKind kind, const std::string& subject, int pcore = -1, double value = 0.0);

  const TestSuite* suite_;
  FaultyMachine* machine_;
  FarronConfig config_;
  EngineContext& context_;
  TestFramework framework_;
  PriorityTracker priorities_;
  ReliablePool pool_;
  AdaptiveBoundary boundary_;
  EventLog* event_log_;
  double last_plan_seconds_ = 0.0;
};

}  // namespace sdc

#endif  // SDC_SRC_FARRON_FARRON_H_
