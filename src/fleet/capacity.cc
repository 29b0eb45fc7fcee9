#include "src/fleet/capacity.h"

#include <set>
#include <utility>

namespace sdc {
namespace {

// Sizes the cumulative timeline: one point per regular period plus the month-0 origin.
void InitTimeline(CapacityReport& report, const ScreeningConfig& config) {
  const int periods =
      static_cast<int>(config.horizon_months / config.regular_period_months);
  report.timeline.resize(static_cast<size_t>(periods) + 1);
  for (int period = 0; period <= periods; ++period) {
    report.timeline[static_cast<size_t>(period)].month =
        static_cast<double>(period) * config.regular_period_months;
  }
}

// Applies one in-production detection to both decommission policies; report.timeline
// must already be sized by InitTimeline.
void ApplyProductionDetection(const FleetProcessorView& processor,
                              const ProcessorOutcome& outcome,
                              const ScreeningConfig& config, CapacityReport& report) {
  const int total_cores = MakeArchSpec(processor.arch_index).physical_cores;
  const int defective = DefectiveCoreCount(processor);
  ++report.production_detections;
  const uint64_t baseline_loss = static_cast<uint64_t>(total_cores);
  uint64_t fine_loss = static_cast<uint64_t>(defective);
  if (defective > 2) {
    fine_loss = static_cast<uint64_t>(total_cores);  // deprecation rule
    ++report.parts_deprecated_fine;
  }
  report.baseline_cores_lost += baseline_loss;
  report.fine_grained_cores_lost += fine_loss;
  const int period = static_cast<int>(outcome.month / config.regular_period_months);
  for (size_t p = static_cast<size_t>(period); p < report.timeline.size(); ++p) {
    report.timeline[p].baseline_cores_lost += baseline_loss;
    report.timeline[p].fine_grained_cores_lost += fine_loss;
  }
}

}  // namespace

int DefectiveCoreCount(const FleetProcessorView& processor) {
  const int total = MakeArchSpec(processor.arch_index).physical_cores;
  std::set<int> cores;
  for (const Defect& defect : processor.defects) {
    if (defect.affected_pcores.empty()) {
      return total;
    }
    cores.insert(defect.affected_pcores.begin(), defect.affected_pcores.end());
  }
  return static_cast<int>(cores.size());
}

void CapacityAccumulator::BeginStream(const PopulationConfig& /*population*/,
                                      const ScreeningConfig& screening,
                                      uint64_t shard_count) {
  config_ = screening;
  partials_.assign(shard_count, CapacityReport{});
  report_ = CapacityReport{};
}

void CapacityAccumulator::ObserveShard(const FleetShard& shard,
                                       const ScreeningStats& shard_stats) {
  CapacityReport& partial = partials_[shard.shard];
  InitTimeline(partial, config_);
  // The shard's per-arch tally contributes its slice of the deployed-core total.
  for (int arch = 0; arch < kArchCount; ++arch) {
    partial.fleet_cores += shard.tally->by_arch[static_cast<size_t>(arch)] *
                           static_cast<uint64_t>(MakeArchSpec(arch).physical_cores);
  }
  for (const ProcessorOutcome& outcome : shard_stats.detections) {
    if (outcome.stage != TestStage::kRegular) {
      continue;  // pre-production: the part never carried production load
    }
    if (!shard.faulty(outcome.serial)) {
      continue;
    }
    ApplyProductionDetection(shard.processor(outcome.serial), outcome, config_, partial);
  }
}

void CapacityAccumulator::EndStream() {
  InitTimeline(report_, config_);
  for (const CapacityReport& partial : partials_) {
    report_.fleet_cores += partial.fleet_cores;
    report_.production_detections += partial.production_detections;
    report_.baseline_cores_lost += partial.baseline_cores_lost;
    report_.fine_grained_cores_lost += partial.fine_grained_cores_lost;
    report_.parts_deprecated_fine += partial.parts_deprecated_fine;
    for (size_t p = 0; p < report_.timeline.size(); ++p) {
      report_.timeline[p].baseline_cores_lost += partial.timeline[p].baseline_cores_lost;
      report_.timeline[p].fine_grained_cores_lost +=
          partial.timeline[p].fine_grained_cores_lost;
    }
  }
  partials_.clear();
  partials_.shrink_to_fit();
}

}  // namespace sdc
