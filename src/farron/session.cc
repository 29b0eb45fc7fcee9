#include "src/farron/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/context.h"
#include "src/telemetry/metrics.h"

namespace sdc {

ProtectionSession::ProtectionSession(Farron* farron, FaultyMachine* machine,
                                     const TestSuite* suite, const WorkloadSpec& spec,
                                     Rng workload_rng, SessionOptions options)
    : farron_(farron),
      machine_(machine),
      suite_(suite),
      spec_(spec),
      options_(std::move(options)),
      rng_(workload_rng),
      next_round_due_months_(farron->config().regular_period_months) {}

void ProtectionSession::SetUtilization(double utilization) {
  machine_->SetAllCoreUtilization(0.0);
  for (int pcore : usable_) {
    machine_->cpu().SetCoreUtilization(pcore, utilization);
  }
}

void ProtectionSession::BeginWorkload(double hours) {
  assert(!workload_active_);
  report_ = ProtectionReport{};
  report_.simulated_hours = hours;
  Processor& cpu = machine_->cpu();
  kernel_ = &suite_->at(spec_.kernel_case_index);
  // Batch granularity ~0.5 s of represented execution keeps the control loop fine enough
  // to clip short excursions while staying cheap to simulate.
  cpu.SetTimeScale(2e5);

  workload_active_ = true;
  usable_ = farron_->pool().UsableCores();
  if (usable_.empty()) {
    // Deprecated processor: the workload would run elsewhere; nothing to simulate.
    workload_degenerate_ = true;
    return;
  }
  workload_degenerate_ = false;
  const int smt = cpu.spec().threads_per_core;
  int app_pcore = usable_.front();
  for (int pcore : usable_) {
    if (pcore == spec_.preferred_pcore) {
      app_pcore = pcore;
    }
  }
  if (options_.reseed_workload_each_run) {
    rng_ = Rng(spec_.seed);
  }
  records_.clear();
  context_ = TestContext{};
  context_.machine = machine_;
  context_.rng = &rng_;
  context_.records = &records_;
  context_.max_records = 4096;
  context_.cpu_id = machine_->info().cpu_id;
  context_.lcores = {app_pcore * smt};
  if (kernel_->info().multithreaded) {
    int partner = (app_pcore + 1) % cpu.spec().physical_cores;
    for (int pcore : usable_) {
      if (pcore != app_pcore) {
        partner = pcore;
        break;
      }
    }
    context_.lcores.push_back(partner * smt);
  }

  SetUtilization(spec_.base_utilization);
  cpu.thermal().SettleToSteadyState(
      std::vector<double>(static_cast<size_t>(cpu.spec().physical_cores), 0.0));

  // Sim-domain trace of the serial control loop, accumulated locally and merged once at
  // the end: one span for the whole run on the simulated clock (microseconds), plus one
  // instant per backoff transition. The loop is serial, so the delta is trivially in
  // order; the simulated clock makes it deterministic.
  trace_ = farron_->context().trace();
  trace_delta_ = TraceDelta{};
  run_start_seconds_ = cpu.now_seconds();
  end_seconds_ = cpu.now_seconds() + hours * 3600.0;
  burst_until_ = -1.0;
  throttled_ = false;
}

bool ProtectionSession::workload_done() const {
  if (!workload_active_) {
    return false;
  }
  return workload_degenerate_ || machine_->cpu().now_seconds() >= end_seconds_;
}

double ProtectionSession::Step(double sim_seconds) {
  assert(workload_active_);
  if (workload_degenerate_) {
    return 0.0;
  }
  Processor& cpu = machine_->cpu();
  const double step_start = cpu.now_seconds();
  const double step_end = step_start + sim_seconds;
  // An iteration runs exactly when the run isn't over; the quantum only decides when we
  // hand control back, never how far an iteration advances -- so any sequence of Step
  // calls executes the same iterations as the reference loop's single `while`.
  while (cpu.now_seconds() < end_seconds_ && cpu.now_seconds() < step_end) {
    StepOnce();
  }
  return cpu.now_seconds() - step_start;
}

void ProtectionSession::StepOnce() {
  Processor& cpu = machine_->cpu();
  // Workload phase: steady load with occasional sustained bursts.
  if (cpu.now_seconds() > burst_until_ && rng_.NextBernoulli(spec_.burst_probability)) {
    burst_until_ = cpu.now_seconds() + spec_.burst_seconds;
  }
  const bool bursting = cpu.now_seconds() <= burst_until_;
  double base = spec_.base_utilization;
  if (spec_.diurnal_amplitude > 0.0) {
    base += spec_.diurnal_amplitude *
            std::sin(2.0 * M_PI * cpu.now_seconds() / spec_.diurnal_period_seconds);
    base = std::clamp(base, 0.0, 1.0);
  }
  double utilization = bursting ? spec_.burst_utilization : base;
  if (throttled_) {
    utilization = std::min(utilization, farron_->backoff_utilization());
  }
  SetUtilization(utilization);

  kernel_->RunBatch(context_);
  double busy = 0.0;
  for (int lcore : context_.lcores) {
    busy = std::max(busy, cpu.ConsumeBusySeconds(cpu.pcore_of(lcore)));
  }
  busy = std::max(busy, 1e-8);
  // Throttled or lightly loaded execution stretches the same work over more wall time.
  const double dt = busy * cpu.time_scale() / std::max(utilization, 0.05);
  cpu.AdvanceSeconds(dt);
  if (throttled_) {
    report_.backoff_seconds += dt;
  }

  double hottest = 0.0;
  for (int pcore : usable_) {
    hottest = std::max(hottest, cpu.core_temperature(pcore));
  }
  report_.max_temperature = std::max(report_.max_temperature, hottest);
  if (options_.protect) {
    const Farron::ControlAction action = farron_->ControlStep(hottest);
    const bool should_throttle = action == Farron::ControlAction::kWorkloadBackoff;
    if (action == Farron::ControlAction::kCoolingBoosted) {
      ++report_.cooling_boosts;
    }
    if (should_throttle != throttled_ && farron_->event_log() != nullptr) {
      farron_->event_log()->Record(
          should_throttle ? EventKind::kBackoffEngaged : EventKind::kBackoffReleased,
          cpu.now_seconds(), machine_->info().cpu_id, -1, hottest);
    }
    if (should_throttle != throttled_ && trace_ != nullptr) {
      TraceEvent instant = MakeTraceInstant(
          should_throttle ? "backoff.engaged" : "backoff.released", "protection",
          kTraceTrackProtection, cpu.now_seconds() * 1e6);
      instant.num_args.emplace_back("temperature_celsius", hottest);
      trace_delta_.Add(std::move(instant));
    }
    if (should_throttle && !throttled_) {
      ++report_.backoff_engagements;
    }
    throttled_ = should_throttle;
  }
}

ProtectionReport ProtectionSession::FinishWorkload() {
  assert(workload_done());
  workload_active_ = false;
  if (workload_degenerate_) {
    // The reference loop's early return: no teardown, no telemetry.
    return report_;
  }
  Processor& cpu = machine_->cpu();
  report_.sdc_events = context_.errors_found;
  report_.final_boundary = farron_->boundary().boundary_celsius();
  report_.final_cooling_boost = cpu.thermal().cooling_boost();
  SetUtilization(spec_.base_utilization);
  // One delta per simulated run: the loop above is serial, so a single end-of-run summary
  // keeps the registry cheap and the values a pure function of (machine, spec, hours).
  // Per-event counters ("events.*") flow separately through EventLog::AttachMetrics.
  if (MetricsRegistry* metrics = farron_->context().metrics(); metrics != nullptr) {
    MetricsDelta delta;
    delta.Add("protection.runs");
    delta.Add("protection.sdc_events", report_.sdc_events);
    delta.Add("protection.backoff_engagements", report_.backoff_engagements);
    delta.Add("protection.cooling_boosts", report_.cooling_boosts);
    delta.Set("protection.max_temperature_celsius", report_.max_temperature);
    delta.Set("protection.final_boundary_celsius", report_.final_boundary);
    delta.Set("protection.backoff_seconds_per_hour",
              report_.simulated_hours > 0.0
                  ? report_.backoff_seconds / report_.simulated_hours
                  : 0.0);
    metrics->MergeDelta(delta);
  }
  if (trace_ != nullptr) {
    TraceEvent span = MakeTraceSpan("protection.run", "protection", kTraceTrackProtection,
                                    run_start_seconds_ * 1e6,
                                    (cpu.now_seconds() - run_start_seconds_) * 1e6);
    span.num_args.emplace_back("sdc_events", static_cast<double>(report_.sdc_events));
    span.num_args.emplace_back("backoff_engagements",
                               static_cast<double>(report_.backoff_engagements));
    span.num_args.emplace_back("final_boundary_celsius", report_.final_boundary);
    TraceDelta run_delta;
    run_delta.Add(std::move(span));
    run_delta.MergeFrom(std::move(trace_delta_));  // span first, then the transitions
    trace_->MergeDelta(std::move(run_delta));
  }
  last_workload_max_temperature_ = report_.max_temperature;
  workload_sdc_events_ += report_.sdc_events;
  return report_;
}

std::vector<TestPlanEntry> ProtectionSession::BuildRoundPlan(bool advance_cursor) {
  std::vector<TestPlanEntry> plan = farron_->BuildRegularPlan(options_.app_features);
  const size_t window = options_.max_cases_per_round;
  if (window == 0 || plan.size() <= window) {
    return plan;
  }
  // Opportunistic ripple testing: each round covers the next `window` entries of the
  // prioritized plan, wrapping around, so the whole suite is swept across rounds.
  std::vector<TestPlanEntry> cut;
  cut.reserve(window);
  for (size_t i = 0; i < window; ++i) {
    cut.push_back(plan[(ripple_cursor_ + i) % plan.size()]);
  }
  if (advance_cursor) {
    ripple_cursor_ = (ripple_cursor_ + window) % plan.size();
  }
  return cut;
}

double ProtectionSession::PendingRoundSeconds() const {
  if (!round_in_progress_) {
    return 0.0;
  }
  double pending = 0.0;
  for (size_t i = round_next_entry_; i < round_plan_.size(); ++i) {
    pending += round_plan_[i].duration_seconds;
  }
  return pending;
}

double ProtectionSession::NextRoundPlanSeconds() const {
  if (farron_->pool().processor_deprecated()) {
    return 0.0;
  }
  if (round_in_progress_) {
    return PendingRoundSeconds();
  }
  // Plan building is pure (no RNG, no machine state); pricing must not rotate the window.
  return PriorityTracker::PlanSeconds(
      const_cast<ProtectionSession*>(this)->BuildRoundPlan(/*advance_cursor=*/false));
}

void ProtectionSession::AccountDiagnosis(const FarronRoundSummary& summary) {
  // AbsorbFailures runs the targeted plan only on failing rounds; its plan is exactly the
  // post-absorb suspected set at targeted_per_case_seconds each.
  if (summary.report.any_error()) {
    diagnosis_seconds_ +=
        static_cast<double>(farron_->priorities().CountWithPriority(TestPriority::kSuspected)) *
        farron_->config().targeted_per_case_seconds;
  }
}

double ProtectionSession::RunTestRound(double budget_seconds) {
  if (farron_->pool().processor_deprecated()) {
    FarronRoundSummary summary;
    summary.processor_deprecated = true;
    last_round_summary_ = std::move(summary);
    round_in_progress_ = false;
    return 0.0;
  }
  if (!round_in_progress_) {
    round_plan_ = BuildRoundPlan(/*advance_cursor=*/true);
    round_plan_seconds_ = PriorityTracker::PlanSeconds(round_plan_);
    round_next_entry_ = 0;
    round_report_ = RunReport{};
    round_in_progress_ = true;
    farron_->Emit(EventKind::kRoundStarted, "regular", -1, round_plan_seconds_);
  }
  // Fund the longest prefix of remaining entries that fits the budget -- never overdraft,
  // so a scheduler dispensing grants can trust consumed <= granted. A budget that covers
  // the whole plan funds it as one chunk: one RunPlan, burn-in applied once, exactly
  // Farron::RunRegularRound's round.
  size_t end = round_next_entry_;
  double chunk_seconds = 0.0;
  while (end < round_plan_.size() &&
         chunk_seconds + round_plan_[end].duration_seconds <= budget_seconds + 1e-9) {
    chunk_seconds += round_plan_[end].duration_seconds;
    ++end;
  }
  if (end == round_next_entry_) {
    return 0.0;  // budget does not cover the next entry; the round stays open
  }
  const std::vector<TestPlanEntry> chunk(round_plan_.begin() + round_next_entry_,
                                         round_plan_.begin() + end);
  RunReport chunk_report = farron_->RunTestPlan(chunk);
  round_report_.results.insert(round_report_.results.end(),
                               std::make_move_iterator(chunk_report.results.begin()),
                               std::make_move_iterator(chunk_report.results.end()));
  round_report_.records.insert(round_report_.records.end(),
                               std::make_move_iterator(chunk_report.records.begin()),
                               std::make_move_iterator(chunk_report.records.end()));
  round_report_.total_wall_seconds += chunk_report.total_wall_seconds;
  round_next_entry_ = end;
  scheduled_seconds_ += chunk_seconds;
  if (round_next_entry_ == round_plan_.size()) {
    FinishRound();
  }
  return chunk_seconds;
}

void ProtectionSession::FinishRound() {
  round_in_progress_ = false;
  FarronRoundSummary summary;
  summary.report = std::move(round_report_);
  round_report_ = RunReport{};
  summary.plan_seconds = round_plan_seconds_;
  farron_->CloseRegularRound(summary);
  AccountDiagnosis(summary);
  ++completed_rounds_;
  next_round_due_months_ += farron_->config().regular_period_months;
  last_round_summary_ = std::move(summary);
}

}  // namespace sdc
