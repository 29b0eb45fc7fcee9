#include "src/analysis/repro.h"

#include <algorithm>
#include <cmath>

namespace sdc {
namespace {

// Nominal op execution rate used to evaluate model-level occurrence frequencies; matches the
// catalog's calibration rates.
double NominalOpsPerSecond(const Defect& defect) { return defect.intensity_ref; }

}  // namespace

double MeasureOccurrenceFrequency(FaultyMachine& machine, const TestFramework& framework,
                                  EngineContext& context, size_t testcase_index, int pcore,
                                  double pinned_temperature_celsius, double duration_seconds,
                                  uint64_t seed, double time_scale) {
  TestRunConfig config;
  config.time_scale = time_scale;
  config.pin_temperature_celsius = pinned_temperature_celsius;
  config.pcores_under_test = {pcore};
  config.seed = seed;
  const RunReport report =
      framework.RunPlan(machine, {{testcase_index, duration_seconds}}, config, context);
  return report.results.front().OccurrenceFrequencyPerMinute();
}

std::vector<TemperaturePoint> TemperatureSweep(FaultyMachine& machine,
                                               const TestFramework& framework,
                                               EngineContext& context,
                                               size_t testcase_index, int pcore,
                                               const std::vector<double>& temperatures,
                                               double duration_seconds, uint64_t seed) {
  std::vector<TemperaturePoint> points;
  points.reserve(temperatures.size());
  for (size_t i = 0; i < temperatures.size(); ++i) {
    TemperaturePoint point;
    point.temperature_celsius = temperatures[i];
    point.frequency_per_minute = MeasureOccurrenceFrequency(
        machine, framework, context, testcase_index, pcore, temperatures[i],
        duration_seconds, seed + i);
    points.push_back(point);
  }
  return points;
}

LinearFit FitLogFrequencyVsTemperature(const std::vector<TemperaturePoint>& points) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const TemperaturePoint& point : points) {
    if (point.frequency_per_minute > 0.0) {
      xs.push_back(point.temperature_celsius);
      ys.push_back(std::log10(point.frequency_per_minute));
    }
  }
  return FitLeastSquares(xs, ys);
}

double FindMinTriggerTemperature(FaultyMachine& machine, const TestFramework& framework,
                                 EngineContext& context, size_t testcase_index, int pcore,
                                 double lo, double hi, double step, double duration_seconds,
                                 uint64_t seed) {
  for (double temperature = lo; temperature <= hi + 1e-9; temperature += step) {
    const double frequency = MeasureOccurrenceFrequency(
        machine, framework, context, testcase_index, pcore, temperature, duration_seconds,
        seed);
    if (frequency > 0.0) {
      return temperature;
    }
  }
  return -1.0;
}

std::vector<TriggerPoint> CollectTriggerPoints(
    const std::vector<FaultyProcessorInfo>& catalog) {
  std::vector<TriggerPoint> points;
  for (const FaultyProcessorInfo& info : catalog) {
    for (const Defect& defect : info.defects) {
      TriggerPoint point;
      point.cpu_id = info.cpu_id;
      point.defect_id = defect.id;
      point.min_trigger_celsius = defect.min_trigger_celsius;
      // Evaluate just above the trigger on the defect's fastest-failing core.
      int best_pcore = defect.affected_pcores.empty() ? 0 : defect.affected_pcores.front();
      double best_scale = 0.0;
      for (int pcore = 0; pcore < info.spec.physical_cores; ++pcore) {
        const double scale = defect.PcoreScale(pcore);
        if (scale > best_scale) {
          best_scale = scale;
          best_pcore = pcore;
        }
      }
      point.frequency_per_minute = defect.OccurrenceFrequencyPerMinute(
          defect.min_trigger_celsius + 0.01, NominalOpsPerSecond(defect), best_pcore);
      points.push_back(point);
    }
  }
  return points;
}

std::vector<SuspectScore> RankSuspectOps(const RunReport& report) {
  uint64_t failed_cases = 0;
  uint64_t passed_cases = 0;
  std::array<uint64_t, kOpKindCount> used_in_failed{};
  std::array<uint64_t, kOpKindCount> used_in_passed{};
  for (const TestcaseResult& result : report.results) {
    const bool failed = result.failed();
    (failed ? failed_cases : passed_cases) += 1;
    for (int kind = 0; kind < kOpKindCount; ++kind) {
      if (result.op_histogram[kind] > 0) {
        (failed ? used_in_failed : used_in_passed)[kind] += 1;
      }
    }
  }
  std::vector<SuspectScore> scores;
  if (failed_cases == 0) {
    return scores;
  }
  for (int kind = 0; kind < kOpKindCount; ++kind) {
    SuspectScore score;
    score.op = static_cast<OpKind>(kind);
    score.failed_usage =
        static_cast<double>(used_in_failed[kind]) / static_cast<double>(failed_cases);
    score.passed_usage =
        passed_cases == 0 ? 0.0
                          : static_cast<double>(used_in_passed[kind]) /
                                static_cast<double>(passed_cases);
    // High when every failing case uses the op and passing cases mostly do not.
    score.score = score.failed_usage * (1.0 - score.passed_usage);
    if (score.failed_usage > 0.0) {
      scores.push_back(score);
    }
  }
  std::sort(scores.begin(), scores.end(),
            [](const SuspectScore& a, const SuspectScore& b) { return a.score > b.score; });
  return scores;
}

}  // namespace sdc
