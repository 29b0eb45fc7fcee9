// Longitudinal lifecycle simulation: one processor, months of production, regular test
// rounds at the configured cadence, and application workload in between -- the full
// Figure 10 state machine over time. Supports defects that develop mid-life
// (onset_months > 0): the part passes pre-production, serves cleanly, starts corrupting
// after onset, and is caught at the next regular round (or protected by temperature
// control until then).

#ifndef SDC_SRC_FARRON_LONGITUDINAL_H_
#define SDC_SRC_FARRON_LONGITUDINAL_H_

#include <cstdint>
#include <vector>

#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/stream.h"

namespace sdc {

struct LifecycleConfig {
  double horizon_months = 32.0;
  // Simulated application hours per inter-round interval (a sample of the interval, not
  // wall-clock months -- the defect model is time-invariant between rounds except for
  // onset gating).
  double app_hours_per_interval = 2.0;
  WorkloadSpec workload;
  std::vector<Feature> app_features;
};

struct LifecyclePeriod {
  double month = 0.0;
  bool tested = false;              // a regular round ran at the start of this period
  bool detected = false;            // ...and it found errors
  uint64_t app_sdc_events = 0;      // corruptions reaching the application this period
  double backoff_seconds = 0.0;
  int masked_cores = 0;             // cumulative
  bool deprecated = false;
};

struct LifecycleReport {
  std::vector<LifecyclePeriod> periods;
  uint64_t total_app_sdc_events = 0;
  double first_detection_month = -1.0;  // negative: never detected
  bool deprecated = false;
  int final_masked_cores = 0;

  // Months between the first defect's onset and its detection (the exposure window the
  // cadence trade-off bench studies); negative when never detected or nothing to detect.
  double DetectionLatencyMonths(double onset_months) const {
    return first_detection_month < 0.0 ? -1.0 : first_detection_month - onset_months;
  }
};

// Runs the lifecycle: at every regular-period boundary a prioritized round executes (after
// pre-production at month 0), and between rounds the workload runs under Farron's
// triggering-condition control. The machine's injector age advances with simulated months
// so onset-gated defects activate mid-life.
LifecycleReport RunLifecycle(Farron& farron, FaultyMachine& machine, const TestSuite& suite,
                             const LifecycleConfig& config);

// ---------------------------------------------------------------------------------------
// Fleet-scan consumer for the cadence study (bench/cadence_tradeoff): for every
// regular-round detection, the exposure window between the wear-out onset that armed the
// defect and the month the round caught it.

struct WearoutExposure {
  uint64_t serial = 0;
  // Onset month of the defect that armed the part: the last defect in storage order with
  // 0 < onset_months <= detection_month; 0 when the part failed from manufacturing
  // defects alone (exposed since deployment).
  double onset_months = 0.0;
  double detection_month = 0.0;

  double exposure_months() const { return detection_month - onset_months; }
};

// Streaming derivation of the exposure windows. A shard's defects are gone once the
// stream moves past it, so this observer looks up each regular-round detection in its
// shard (FleetShard::FindFaulty) while the defect spans are alive. Per-shard lists are
// concatenated in shard order, so exposures() equals a serial-order derivation over a
// materialized fleet exactly (tests/stream_test.cc).
class WearoutExposureObserver : public ShardOutcomeObserver {
 public:
  void BeginStream(const ScreeningConfig& screening, uint64_t shard_count) override;
  void ObserveShard(const FleetShard& shard, const ScreeningStats& shard_stats) override;
  void EndStream() override;

  // One record per regular-round detection, ascending by serial; valid after EndStream.
  const std::vector<WearoutExposure>& exposures() const { return exposures_; }
  double MeanExposureMonths() const;

 private:
  std::vector<std::vector<WearoutExposure>> partials_;
  std::vector<WearoutExposure> exposures_;
};

}  // namespace sdc

#endif  // SDC_SRC_FARRON_LONGITUDINAL_H_
