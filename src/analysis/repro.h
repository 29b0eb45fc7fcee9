// Reproducibility analysis (Section 5): occurrence-frequency measurement, pinned-temperature
// sweeps with log-linear fits (Figure 8), minimum-trigger-temperature search, and the
// trigger-temperature/frequency relation (Figure 9).

#ifndef SDC_SRC_ANALYSIS_REPRO_H_
#define SDC_SRC_ANALYSIS_REPRO_H_

#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/fault/machine.h"
#include "src/toolchain/framework.h"

namespace sdc {

// Measures the occurrence frequency (errors/minute) of one testcase on one physical core at
// the given pinned temperature, over `duration_seconds` of simulated testing. `time_scale`
// trades fidelity for speed: per-op corruption probabilities must stay below saturation
// (rate x time_scale << 1) for the frequency to be unbiased, so use larger scales only for
// low-frequency settings. Measurements run on `context` (lanes and sinks).
double MeasureOccurrenceFrequency(FaultyMachine& machine, const TestFramework& framework,
                                  EngineContext& context, size_t testcase_index, int pcore,
                                  double pinned_temperature_celsius, double duration_seconds,
                                  uint64_t seed, double time_scale = 1e5);

struct TemperaturePoint {
  double temperature_celsius = 0.0;
  double frequency_per_minute = 0.0;
};

// Sweeps the pinned temperature and measures frequency at each step (Figure 8's raw data).
std::vector<TemperaturePoint> TemperatureSweep(FaultyMachine& machine,
                                               const TestFramework& framework,
                                               EngineContext& context,
                                               size_t testcase_index, int pcore,
                                               const std::vector<double>& temperatures,
                                               double duration_seconds, uint64_t seed);

// Least-squares fit of log10(frequency) against temperature over the sweep's non-zero
// points; fit.r is the Pearson coefficient the paper reports (> 0.75 for thermal settings).
LinearFit FitLogFrequencyVsTemperature(const std::vector<TemperaturePoint>& points);

// Finds the lowest pinned temperature (within [lo, hi], at `step` granularity) at which the
// setting reproduces at least one error; returns a negative value when it never does.
double FindMinTriggerTemperature(FaultyMachine& machine, const TestFramework& framework,
                                 EngineContext& context, size_t testcase_index, int pcore,
                                 double lo, double hi, double step, double duration_seconds,
                                 uint64_t seed);

// One point of Figure 9, evaluated from the defect model directly: the defect's minimum
// trigger temperature and its occurrence frequency there under nominal test intensity.
struct TriggerPoint {
  std::string cpu_id;
  std::string defect_id;
  double min_trigger_celsius = 0.0;
  double frequency_per_minute = 0.0;
};

// Enumerates (trigger, frequency) points across a catalog of faulty processors.
std::vector<TriggerPoint> CollectTriggerPoints(
    const std::vector<FaultyProcessorInfo>& catalog);

// --- Suspect-instruction narrowing (the Pin-based study of Section 4.1). ---

struct SuspectScore {
  OpKind op = OpKind::kIntAdd;
  double score = 0.0;          // higher = more suspicious
  double failed_usage = 0.0;   // fraction of failed testcases that execute this op
  double passed_usage = 0.0;   // fraction of passing testcases that execute this op
};

// Ranks op kinds by how exclusively failing testcases execute them.
std::vector<SuspectScore> RankSuspectOps(const RunReport& report);

}  // namespace sdc

#endif  // SDC_SRC_ANALYSIS_REPRO_H_
