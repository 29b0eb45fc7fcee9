#include "src/farron/longitudinal.h"

#include <limits>

#include "src/farron/session.h"

namespace sdc {

LifecycleReport RunLifecycle(Farron& farron, FaultyMachine& machine, const TestSuite& suite,
                             const LifecycleConfig& config) {
  LifecycleReport report;
  DefectInjector* injector = machine.injector();

  // The lifecycle is a thin loop over one long-lived session: each interval runs the
  // workload in steps and then an unbudgeted test round (== Farron::RunRegularRound).
  SessionOptions session_options;
  session_options.protect = true;
  session_options.app_features = config.app_features;
  ProtectionSession session(&farron, &machine, &suite, config.workload,
                            Rng(config.workload.seed), session_options);

  // Month 0: pre-production testing (defects with onset 0 are live; wear-out defects are
  // still dormant).
  if (injector != nullptr) {
    injector->set_age_months(0.0);
  }
  const FarronRoundSummary pre_production = farron.RunPreProduction();
  {
    LifecyclePeriod period;
    period.month = 0.0;
    period.tested = true;
    period.detected = pre_production.report.any_error();
    period.masked_cores = farron.pool().masked_count();
    period.deprecated = pre_production.processor_deprecated;
    if (period.detected) {
      report.first_detection_month = 0.0;
    }
    report.periods.push_back(period);
  }

  const double interval = farron.config().regular_period_months;
  for (double month = interval; month <= config.horizon_months + 1e-9; month += interval) {
    LifecyclePeriod period;
    period.month = month;
    if (farron.pool().processor_deprecated()) {
      period.deprecated = true;
      period.masked_cores = farron.pool().masked_count();
      report.periods.push_back(period);
      continue;  // the part is out of service; nothing runs on it
    }
    // The interval's application workload, with defects at the interval's ending age --
    // a defect whose onset falls inside the interval corrupts the application *before*
    // the round at the interval boundary can catch it (Observation 2's exposure window).
    if (injector != nullptr) {
      injector->set_age_months(month);
    }
    session.BeginWorkload(config.app_hours_per_interval);
    while (!session.workload_done()) {
      session.Step(3600.0);
    }
    const ProtectionReport app = session.FinishWorkload();
    period.app_sdc_events = app.sdc_events;
    period.backoff_seconds = app.backoff_seconds;
    report.total_app_sdc_events += app.sdc_events;
    // The regular round at the end of the interval sees defects aged to `month`.
    if (injector != nullptr) {
      injector->set_age_months(month);
    }
    session.RunTestRound(std::numeric_limits<double>::infinity());
    const FarronRoundSummary round = *session.last_round_summary();
    period.tested = true;
    period.detected = round.report.any_error();
    period.masked_cores = farron.pool().masked_count();
    period.deprecated = round.processor_deprecated;
    if (period.detected && report.first_detection_month < 0.0) {
      report.first_detection_month = month;
    }
    report.periods.push_back(period);
  }
  report.deprecated = farron.pool().processor_deprecated();
  report.final_masked_cores = farron.pool().masked_count();
  return report;
}

void WearoutExposureObserver::BeginStream(const ScreeningConfig& /*screening*/,
                                          uint64_t shard_count) {
  partials_.assign(shard_count, {});
  exposures_.clear();
}

void WearoutExposureObserver::ObserveShard(const FleetShard& shard,
                                           const ScreeningStats& shard_stats) {
  std::vector<WearoutExposure>& partial = partials_[shard.shard];
  for (const ProcessorOutcome& outcome : shard_stats.detections) {
    if (outcome.stage != TestStage::kRegular) {
      continue;
    }
    // Last-in-storage-order active onset, exactly as the materialized cadence derivation
    // walks the part's defects -- equivalence is bitwise, so the tie-break must match.
    double onset = 0.0;
    if (const FaultyPart* part = shard.FindFaulty(outcome.serial); part != nullptr) {
      for (const Defect& defect : shard.Defects(*part)) {
        if (defect.onset_months > 0.0 && defect.onset_months <= outcome.month) {
          onset = defect.onset_months;
        }
      }
    }
    partial.push_back({outcome.serial, onset, outcome.month});
  }
}

void WearoutExposureObserver::EndStream() {
  size_t total = 0;
  for (const std::vector<WearoutExposure>& partial : partials_) {
    total += partial.size();
  }
  exposures_.reserve(total);
  for (const std::vector<WearoutExposure>& partial : partials_) {
    exposures_.insert(exposures_.end(), partial.begin(), partial.end());
  }
  partials_.clear();
  partials_.shrink_to_fit();
}

double WearoutExposureObserver::MeanExposureMonths() const {
  if (exposures_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const WearoutExposure& exposure : exposures_) {
    sum += exposure.exposure_months();
  }
  return sum / static_cast<double>(exposures_.size());
}

}  // namespace sdc
