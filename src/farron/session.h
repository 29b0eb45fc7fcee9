// Reentrant per-processor protection sessions.
//
// SimulateProtectedWorkload and the regular-test cycle were run-to-completion loops: one
// call simulated hours of workload (or a whole prioritized round) and returned only when
// finished. That shape cannot be interleaved across a fleet, budgeted, or driven from a
// scheduler. ProtectionSession decomposes both loops into explicit state -- the machine,
// Farron's boundary controller and priority plan, the workload Rng stream, and the
// next-due round time -- plus a Step/RunTestRound API that advances in bounded quanta and
// reports what it consumed.
//
// Equivalence contract: driving a session to completion reproduces the original
// monolithic loop byte for byte -- same ProtectionReport, same event-log sequence, same
// metrics and trace deltas -- regardless of the Step quantum (an iteration of the control
// loop is the indivisible unit, and iterations never look at quantum boundaries). That
// loop is kept as a test oracle (tests/oracles/oracles.h), and tests/session_test.cc pins
// the equivalence at several quanta.
//
// The budgeted round path (RunTestRound with a finite budget, optionally with a rotating
// ripple window over the plan) is new capability for the fleet scrubber
// (docs/scrubbing.md); an unbudgeted call is exactly Farron::RunRegularRound.

#ifndef SDC_SRC_FARRON_SESSION_H_
#define SDC_SRC_FARRON_SESSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fault/machine.h"
#include "src/telemetry/trace.h"
#include "src/toolchain/registry.h"
#include "src/toolchain/testcase.h"

namespace sdc {

struct SessionOptions {
  // Run Farron's triggering-condition controller during workload steps (false = the
  // unprotected comparison, as SimulateProtectedWorkload's `protect` argument).
  bool protect = true;
  // Reseed the workload stream from WorkloadSpec::seed at every BeginWorkload -- the
  // legacy per-call behavior of SimulateProtectedWorkload, required for byte-identity
  // with the reference loop. Fleet-scale callers pass false and seed the constructor
  // with a forked per-processor stream instead (Rng(seed).Fork(serial)), so session
  // randomness is deterministic under any lane count and interleaving.
  bool reseed_workload_each_run = true;
  // Funded rounds run at most this many plan entries per round, as a rotating window
  // over the prioritized plan ("opportunistic ripple testing"); 0 = the full plan.
  size_t max_cases_per_round = 0;
  // Application features for plan prioritization, as Farron::RunRegularRound's argument.
  std::vector<Feature> app_features;
};

class ProtectionSession {
 public:
  // `farron`, `machine`, and `suite` must outlive the session, and `machine` must be the
  // instance `farron` was constructed over. `workload_rng` is the session's workload
  // stream: pass Rng(spec.seed) for the legacy reference behavior, or a per-processor
  // fork for fleet-scale determinism (see SessionOptions::reseed_workload_each_run).
  ProtectionSession(Farron* farron, FaultyMachine* machine, const TestSuite* suite,
                    const WorkloadSpec& spec, Rng workload_rng, SessionOptions options);

  ProtectionSession(const ProtectionSession&) = delete;
  ProtectionSession& operator=(const ProtectionSession&) = delete;

  // --- Workload phase (the decomposed SimulateProtectedWorkload loop). ---

  // Starts a workload run of `hours` simulated hours: the reference loop's setup step
  // (time scale, core placement, steady-state thermals). On a deprecated processor the
  // run completes immediately and FinishWorkload returns the reference loop's empty
  // report. Requires no run in flight.
  void BeginWorkload(double hours);

  // Advances the running workload by up to `sim_seconds` simulated seconds and returns
  // what was actually consumed. Control-loop iterations are indivisible, so the last
  // iteration may overshoot the quantum; the iteration sequence -- and therefore every
  // output -- is independent of how the run is cut into steps.
  double Step(double sim_seconds);

  bool workload_active() const { return workload_active_; }
  bool workload_done() const;

  // Completes the run (the reference loop's teardown: restore utilization, emit the
  // metrics/trace delta) and returns the report. Requires workload_done().
  ProtectionReport FinishWorkload();

  // --- Regular-test cycle (the decomposed Farron::RunRegularRound). ---

  // Advances the regular-test cycle by at most `budget_seconds` of scheduled plan time.
  // An unbudgeted call (infinite budget, no round in progress, no ripple window) is
  // exactly Farron::RunRegularRound. Otherwise the due round's plan is built once
  // (emitting kRoundStarted), the longest prefix of remaining entries whose scheduled
  // seconds fit the budget runs, and when the last entry completes the round is finished
  // exactly as RunRegularRound finishes it: failures absorbed into priorities, targeted
  // analysis, kRoundCompleted. Returns the scheduled seconds consumed -- never more than
  // `budget_seconds`; 0 when the budget does not cover the next entry or the processor
  // is deprecated. Targeted-analysis time is diagnosis, not scheduled testing; it is
  // reported via last_round_summary() and diagnosis_seconds(), not charged here.
  double RunTestRound(double budget_seconds);

  bool round_in_progress() const { return round_in_progress_; }
  // Scheduled seconds of the in-progress round still to run (0 when no round is open).
  double PendingRoundSeconds() const;
  // Scheduled seconds of the next funded round: the pending remainder of an open round,
  // or the full plan the next RunTestRound would build. The scrub scheduler prices a
  // grant with this before dispatching budget (docs/scrubbing.md).
  double NextRoundPlanSeconds() const;

  // Summary of the most recently completed round; nullopt until one completes.
  const std::optional<FarronRoundSummary>& last_round_summary() const {
    return last_round_summary_;
  }

  // --- Session clock and scheduler signals. ---

  // Simulated month of the next due regular round (FarronConfig::regular_period_months
  // cadence, first round due one period after deployment). Advanced when a round
  // completes.
  double next_round_due_months() const { return next_round_due_months_; }

  // Hottest core temperature seen by the last finished workload run (0 before any run) --
  // the temperature signal the scrub scheduler weighs (hotter parts trigger more
  // defects, Figures 8-9).
  double last_workload_max_temperature() const { return last_workload_max_temperature_; }

  // Cumulative across the session's lifetime.
  double scheduled_seconds() const { return scheduled_seconds_; }
  double diagnosis_seconds() const { return diagnosis_seconds_; }
  uint64_t completed_rounds() const { return completed_rounds_; }
  uint64_t workload_sdc_events() const { return workload_sdc_events_; }

  const Farron& farron() const { return *farron_; }
  const WorkloadSpec& spec() const { return spec_; }

 private:
  // One indivisible iteration of the protection control loop (the reference loop's
  // body); advances the machine clock and updates the in-flight report.
  void StepOnce();
  // Zeroes all cores then applies `utilization` to the run's usable set (the reference
  // loop's set_utilization).
  void SetUtilization(double utilization);
  // Builds the due round's plan: Farron's prioritized plan (or the ablation baseline),
  // cut to the rotating ripple window when one is configured. `advance_cursor` rotates
  // the window forward (pricing passes false).
  std::vector<TestPlanEntry> BuildRoundPlan(bool advance_cursor);
  // Closes a fully-run round exactly as Farron::RunRegularRound closes it.
  void FinishRound();
  // Targeted-analysis seconds implied by a just-absorbed failing round.
  void AccountDiagnosis(const FarronRoundSummary& summary);

  Farron* farron_;
  FaultyMachine* machine_;
  const TestSuite* suite_;
  WorkloadSpec spec_;
  SessionOptions options_;
  Rng rng_;

  // Workload-run state (valid while workload_active_).
  bool workload_active_ = false;
  bool workload_degenerate_ = false;  // deprecated pool: reference loop's early return
  double end_seconds_ = 0.0;
  double run_start_seconds_ = 0.0;
  double burst_until_ = -1.0;
  bool throttled_ = false;
  std::vector<int> usable_;
  Testcase* kernel_ = nullptr;
  TestContext context_;
  std::vector<SdcRecord> records_;
  ProtectionReport report_;
  TraceRecorder* trace_ = nullptr;  // pinned at BeginWorkload, as the reference loop does
  TraceDelta trace_delta_;

  // Regular-round state.
  bool round_in_progress_ = false;
  std::vector<TestPlanEntry> round_plan_;
  size_t round_next_entry_ = 0;
  RunReport round_report_;
  double round_plan_seconds_ = 0.0;
  size_t ripple_cursor_ = 0;  // rotation origin of the next ripple window
  std::optional<FarronRoundSummary> last_round_summary_;
  double next_round_due_months_ = 0.0;

  // Lifetime accumulators.
  double last_workload_max_temperature_ = 0.0;
  double scheduled_seconds_ = 0.0;
  double diagnosis_seconds_ = 0.0;
  uint64_t completed_rounds_ = 0;
  uint64_t workload_sdc_events_ = 0;
};

}  // namespace sdc

#endif  // SDC_SRC_FARRON_SESSION_H_
