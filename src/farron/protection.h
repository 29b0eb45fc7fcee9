// Closed-loop protection simulation (Section 7.2): an application workload replayed against
// a (possibly defective) machine while Farron's triggering-condition controller watches core
// temperatures and applies workload backoff. Used to evaluate how Farron suppresses "tricky"
// SDCs that regular testing cannot cover in one round, and to measure the temperature-control
// overhead (Table 4's Control column, the paper's 0.864 s/hour backoff headline).

#ifndef SDC_SRC_FARRON_PROTECTION_H_
#define SDC_SRC_FARRON_PROTECTION_H_

#include <cstdint>

#include "src/farron/farron.h"
#include "src/fault/machine.h"
#include "src/toolchain/registry.h"

namespace sdc {

struct WorkloadSpec {
  // Toolchain testcase used as the impacted-workload simulator (Section 2.3's second role).
  size_t kernel_case_index = 0;
  // Steady utilization the application imposes on every usable core.
  double base_utilization = 0.45;
  // Diurnal modulation: utilization swings +/- amplitude around the base over one period
  // (production services breathe with the day; 0 disables).
  double diurnal_amplitude = 0.0;
  double diurnal_period_seconds = 86400.0;
  // Occasional sustained load bursts (batch-probability, duration, utilization) that push
  // temperatures over the boundary -- the excursions backoff must clip.
  double burst_probability = 0.002;
  double burst_seconds = 90.0;
  double burst_utilization = 1.0;
  // Physical core the application prefers to run on; -1 = first usable core. If the
  // preferred core was decommissioned, the pool's first usable core is used instead.
  int preferred_pcore = -1;
  uint64_t seed = 5;
};

struct ProtectionReport {
  double simulated_hours = 0.0;
  uint64_t sdc_events = 0;           // corruptions that reached the application
  double backoff_seconds = 0.0;      // total time spent throttled
  uint64_t backoff_engagements = 0;  // distinct throttle interventions
  uint64_t cooling_boosts = 0;       // performance-neutral fan/pump interventions
  double max_temperature = 0.0;      // hottest core temperature observed
  double final_boundary = 0.0;       // adaptive boundary at the end of the run
  double final_cooling_boost = 1.0;  // cooling boost at the end of the run

  double BackoffSecondsPerHour() const {
    return simulated_hours > 0.0 ? backoff_seconds / simulated_hours : 0.0;
  }
};

// Replays `hours` of the workload on the machine. With `protect` true, Farron's boundary
// controller throttles the workload on temperature excursions; with false, the workload
// runs unchecked (the no-mitigation comparison). Implemented as a thin loop over
// ProtectionSession; tests/session_test.cc checks it byte for byte against the original
// monolithic loop, kept as a test oracle (tests/oracles/oracles.h).
ProtectionReport SimulateProtectedWorkload(Farron& farron, FaultyMachine& machine,
                                           const TestSuite& suite, const WorkloadSpec& spec,
                                           double hours, bool protect);

}  // namespace sdc

#endif  // SDC_SRC_FARRON_PROTECTION_H_
