#include "src/farron/farron.h"

#include <algorithm>

#include "src/common/context.h"

namespace sdc {

Farron::Farron(const TestSuite* suite, FaultyMachine* machine, FarronConfig config,
               EngineContext& context)
    : suite_(suite),
      machine_(machine),
      config_(config),
      context_(context),
      framework_(suite),
      priorities_(suite),
      pool_(machine->cpu().spec().physical_cores),
      boundary_(config.initial_boundary_celsius, config.boundary_window),
      event_log_(context.event_log()) {
  boundary_.set_adaptive(config_.enable_adaptive_boundary);
}

RunReport Farron::RunTestPlan(const std::vector<TestPlanEntry>& plan) const {
  TestRunConfig run_config;
  run_config.time_scale = config_.time_scale;
  run_config.simultaneous_cores = config_.enable_hot_testing;
  run_config.burn_in_seconds = config_.enable_hot_testing ? config_.burn_in_seconds : 0.0;
  run_config.seed = config_.seed;
  run_config.pcores_under_test = pool_.UsableCores();
  return framework_.RunPlan(*machine_, plan, run_config, context_);
}

FarronRoundSummary Farron::RunPreProduction() {
  FarronRoundSummary summary;
  const std::vector<TestPlanEntry> plan =
      framework_.EqualPlan(config_.pre_production_per_case_seconds);
  summary.report = RunTestPlan(plan);
  summary.plan_seconds = PriorityTracker::PlanSeconds(plan);
  AbsorbFailures(summary.report, summary);
  return summary;
}

void Farron::SetActiveFromHistory(const std::vector<std::string>& testcase_ids) {
  priorities_.MarkActiveFromHistory(testcase_ids);
}

void Farron::MarkSuspectedTestcases(const std::vector<std::string>& testcase_ids) {
  for (const std::string& id : testcase_ids) {
    priorities_.MarkSuspected(id);
  }
}

double Farron::DurationScale() const {
  // Reference point: the paper's 59C boundary maps to scale 1.0. A colder boundary means
  // the backoff controller suppresses more of the tricky range, so testing can shrink; a
  // hotter boundary needs longer testing to cover the exposed temperatures.
  const double scale = 0.5 + 0.5 * (boundary_.boundary_celsius() - 45.0) / 14.0;
  return std::clamp(scale, 0.5, 1.5);
}

FarronRoundSummary Farron::RunRegularRound(const std::vector<Feature>& app_features) {
  FarronRoundSummary summary;
  if (pool_.processor_deprecated()) {
    summary.processor_deprecated = true;
    return summary;
  }
  const std::vector<TestPlanEntry> plan = BuildRegularPlan(app_features);
  summary.plan_seconds = PriorityTracker::PlanSeconds(plan);
  Emit(EventKind::kRoundStarted, "regular", -1, summary.plan_seconds);
  summary.report = RunTestPlan(plan);
  CloseRegularRound(summary);
  return summary;
}

std::vector<TestPlanEntry> Farron::BuildRegularPlan(
    const std::vector<Feature>& app_features) const {
  if (!config_.enable_priorities) {
    return framework_.EqualPlan(60.0);  // ablation: the baseline's equal allocation
  }
  PriorityPlanParams params = config_.plan_params;
  params.duration_scale = DurationScale();
  return priorities_.BuildRegularPlan(app_features, params);
}

void Farron::CloseRegularRound(FarronRoundSummary& summary) {
  last_plan_seconds_ = summary.plan_seconds;
  AbsorbFailures(summary.report, summary);
  Emit(EventKind::kRoundCompleted, "regular", -1,
       static_cast<double>(summary.report.total_errors()));
}

BoundaryDecision Farron::ObserveTemperature(double temperature_celsius) {
  if (!config_.enable_backoff) {
    return BoundaryDecision::kNormal;
  }
  return boundary_.Observe(temperature_celsius);
}

Farron::ControlAction Farron::ControlStep(double temperature_celsius) {
  ThermalModel& thermal = machine_->cpu().thermal();
  const BoundaryDecision decision = ObserveTemperature(temperature_celsius);
  switch (decision) {
    case BoundaryDecision::kNormal:
      // Comfortably below the boundary: spin the fans back down one step.
      if (temperature_celsius < boundary_.boundary_celsius() - 3.0 &&
          thermal.cooling_boost() > 1.0) {
        thermal.SetCoolingBoost(thermal.cooling_boost() - config_.cooling_boost_step);
      }
      return ControlAction::kNone;
    case BoundaryDecision::kRaised:
      Emit(EventKind::kBoundaryRaised, machine_->info().cpu_id, -1,
           boundary_.boundary_celsius());
      return ControlAction::kBoundaryRaised;
    case BoundaryDecision::kBackoff:
      if (config_.enable_cooling_control &&
          thermal.cooling_boost() + 1e-9 < config_.max_cooling_boost) {
        thermal.SetCoolingBoost(thermal.cooling_boost() + config_.cooling_boost_step);
        Emit(EventKind::kCoolingBoosted, machine_->info().cpu_id, -1,
             thermal.cooling_boost());
        return ControlAction::kCoolingBoosted;
      }
      return ControlAction::kWorkloadBackoff;
  }
  return ControlAction::kNone;
}

double Farron::TestOverhead() const {
  const double period_seconds = config_.regular_period_months * 30.44 * 24.0 * 3600.0;
  return last_plan_seconds_ / period_seconds;
}

void Farron::Emit(EventKind kind, const std::string& subject, int pcore, double value) {
  if (event_log_ != nullptr) {
    event_log_->Record(kind, machine_->cpu().now_seconds(), subject, pcore, value);
  }
}

void Farron::AbsorbFailures(const RunReport& report, FarronRoundSummary& summary) {
  if (!report.any_error()) {
    return;
  }
  if (event_log_ != nullptr) {
    for (const TestcaseResult& result : report.results) {
      if (result.failed()) {
        Emit(EventKind::kSdcDetected, result.testcase_id, -1,
             static_cast<double>(result.errors));
      }
    }
  }
  priorities_.AbsorbReport(report);
  RunTargetedAnalysis(summary);
}

void Farron::RunTargetedAnalysis(FarronRoundSummary& summary) {
  // Suspected state: rerun this processor's suspected testcases long and hot, so defective
  // sibling cores that fail the same testcases at lower rates also show up (Observation 4).
  const std::vector<size_t> suspected =
      priorities_.IndicesWithPriority(TestPriority::kSuspected);
  if (suspected.empty()) {
    return;
  }
  std::vector<TestPlanEntry> plan;
  plan.reserve(suspected.size());
  for (size_t index : suspected) {
    plan.push_back({index, config_.targeted_per_case_seconds});
  }
  const RunReport report = RunTestPlan(plan);
  // Health analysis: mask every physical core that produced errors.
  std::vector<bool> defective(static_cast<size_t>(pool_.total_cores()), false);
  for (const TestcaseResult& result : report.results) {
    for (size_t pcore = 0; pcore < result.errors_per_pcore.size(); ++pcore) {
      if (result.errors_per_pcore[pcore] > 0) {
        defective[pcore] = true;
      }
    }
  }
  for (size_t pcore = 0; pcore < defective.size(); ++pcore) {
    if (!defective[pcore] || pool_.IsMasked(static_cast<int>(pcore))) {
      continue;
    }
    if (config_.enable_fine_decommission) {
      pool_.MaskCore(static_cast<int>(pcore));
      summary.newly_masked_cores.push_back(static_cast<int>(pcore));
      Emit(EventKind::kCoreMasked, machine_->info().cpu_id, static_cast<int>(pcore));
    } else {
      // Ablation / baseline behaviour: one bad core deprecates the whole part.
      for (int core = 0; core < pool_.total_cores(); ++core) {
        pool_.MaskCore(core);
      }
      break;
    }
  }
  summary.processor_deprecated = pool_.processor_deprecated();
  if (summary.processor_deprecated) {
    Emit(EventKind::kProcessorDeprecated, machine_->info().cpu_id);
  }
}

}  // namespace sdc
