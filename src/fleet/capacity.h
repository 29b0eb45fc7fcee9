// Fleet capacity retention under the two decommission policies (Observation 4 /
// Section 7.1, and the fail-in-place direction the paper cites via Hyrax [56]).
//
// When a regular test flags a faulty processor in production, the baseline deprecates the
// entire part; Farron's fine-grained decommission masks only the defective cores and keeps
// the rest serving (unless more than two cores are defective, in which case the part is
// deprecated too). Over a fleet and a multi-year horizon the difference is real capacity.
// Pre-production detections are excluded: those parts are returned to the vendor before
// they carry load.

#ifndef SDC_SRC_FLEET_CAPACITY_H_
#define SDC_SRC_FLEET_CAPACITY_H_

#include <cstdint>
#include <vector>

#include "src/fleet/pipeline.h"

namespace sdc {

struct CapacityPoint {
  double month = 0.0;
  uint64_t baseline_cores_lost = 0;      // cumulative
  uint64_t fine_grained_cores_lost = 0;  // cumulative
};

struct CapacityReport {
  uint64_t fleet_cores = 0;              // total physical cores deployed
  uint64_t production_detections = 0;    // faulty parts flagged during production
  uint64_t baseline_cores_lost = 0;
  uint64_t fine_grained_cores_lost = 0;
  uint64_t parts_deprecated_fine = 0;    // parts the >2-defective-cores rule still removed
  std::vector<CapacityPoint> timeline;   // one cumulative point per regular period

  // Cores the fine-grained policy keeps serving that the baseline throws away.
  uint64_t cores_saved() const { return baseline_cores_lost - fine_grained_cores_lost; }
  double RetentionFactor() const {
    return fine_grained_cores_lost == 0
               ? 0.0
               : static_cast<double>(baseline_cores_lost) /
                     static_cast<double>(fine_grained_cores_lost);
  }
};

// Number of defective physical cores of a fleet part (union over its defects; a defect with
// no core list affects every core).
int DefectiveCoreCount(const FleetProcessorView& processor);

// Replays the screening outcome's production detections against both policies. Attach
// to a StreamingScreen and the capacity replay fuses into the generate+screen pass,
// consuming each shard's detections while the defect spans are alive. Every quantity is
// an integer counter accumulated per shard and merged in shard order, so TakeReport() is
// the same at any thread count (tests/stream_test.cc).
class CapacityAccumulator : public ShardOutcomeObserver {
 public:
  void BeginStream(const PopulationConfig& population, const ScreeningConfig& screening,
                   uint64_t shard_count) override;
  void ObserveShard(const FleetShard& shard, const ScreeningStats& shard_stats) override;
  void EndStream() override;

  // The merged report; valid once after EndStream.
  CapacityReport TakeReport() { return std::move(report_); }

 private:
  ScreeningConfig config_;
  std::vector<CapacityReport> partials_;
  CapacityReport report_;
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_CAPACITY_H_
