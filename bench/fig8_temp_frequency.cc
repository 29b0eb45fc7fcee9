// Figure 8: SDC occurrence frequency (log scale) versus core temperature for three
// settings, with least-squares fits of log10(frequency) on temperature.
// Paper: (a) MIX1/pcore0/testcase C, 66-76C, r = 0.7903; (b) MIX2/pcore1/testcase C,
// 56-68C, r = 0.9243; (c) FPU2/pcore8/testcase L, 48-56C, r = 0.8855.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/repro.h"
#include "src/common/table.h"
#include "src/fault/catalog.h"

namespace {

using namespace sdc;

void Sweep(const TestSuite& suite, const char* cpu_id, const char* testcase_id, int pcore,
           double lo, double hi, double duration_seconds, double time_scale,
           double paper_r) {
  FaultyMachine machine(FindInCatalog(cpu_id), 61);
  TestFramework framework(&suite);
  EngineContext context(SessionEngine());
  const int index = suite.IndexOf(testcase_id);
  if (index < 0) {
    std::cout << "missing testcase " << testcase_id << "\n";
    return;
  }
  std::cout << "\n--- " << cpu_id << ", pcore" << pcore << ", " << testcase_id << " ("
            << lo << ".." << hi << " C) ---\n";
  std::vector<TemperaturePoint> points;
  TextTable table({"temperature (C)", "frequency (errors/min)"});
  for (double temperature = lo; temperature <= hi + 1e-9; temperature += (hi - lo) / 5.0) {
    TestRunConfig config;
    config.time_scale = time_scale;
    config.pin_temperature_celsius = temperature;
    config.pcores_under_test = {pcore};
    config.seed = 1000 + static_cast<uint64_t>(temperature * 10);
    const RunReport report = framework.RunPlan(
        machine, {{static_cast<size_t>(index), duration_seconds}}, config, context);
    TemperaturePoint point;
    point.temperature_celsius = temperature;
    point.frequency_per_minute = report.results.front().OccurrenceFrequencyPerMinute();
    points.push_back(point);
    table.AddRow({FormatDouble(temperature, 1), FormatDouble(point.frequency_per_minute, 5)});
  }
  table.Print(std::cout);
  const LinearFit fit = FitLogFrequencyVsTemperature(points);
  std::cout << "fit: log10(freq) = " << FormatDouble(fit.slope, 4) << " * T + "
            << FormatDouble(fit.intercept, 2) << ", Pearson r = " << FormatDouble(fit.r, 4)
            << " (paper: r = " << FormatDouble(paper_r, 4) << ")\n";
}

}  // namespace

int main() {
  using namespace sdc;
  PrintExperimentHeader("Figure 8", "occurrence frequency vs temperature (log-linear)");
  const TestSuite suite = TestSuite::BuildFull();

  // "Testcase C" on MIX1: the vector-CRC checksum kernel gated at 59C; very low frequency,
  // so each point simulates a long test (cheap in simulated time).
  Sweep(suite, "MIX1", "lib.crc32.vector.b4096", 0, 66.0, 76.0, 100000.0, 1e7, 0.7903);
  // "Testcase C" on MIX2: vector FMA f64 kernel on one of the *weakly failing* defective
  // cores (Observation 4: same testcase, rates orders of magnitude apart across cores).
  {
    const FaultyProcessorInfo mix2 = FindInCatalog("MIX2");
    const Defect* vec_defect = &mix2.defects.front();
    int weak_pcore = 1;
    double best_distance = 1e9;
    for (int pcore = 0; pcore < mix2.spec.physical_cores; ++pcore) {
      const double scale = vec_defect->PcoreScale(pcore);
      if (scale <= 0.0) {
        continue;
      }
      const double distance = std::abs(std::log10(scale) + 2.0);  // aim near 1e-2
      if (distance < best_distance) {
        best_distance = distance;
        weak_pcore = pcore;
      }
    }
    Sweep(suite, "MIX2", "vec.vec_fma_f64.f64.l8.n128", weak_pcore, 56.0, 68.0, 2000.0, 1e6,
          0.9243);
  }
  // "Testcase L" on FPU2: the arctangent library kernel in its 48-56C band.
  Sweep(suite, "FPU2", "lib.math.fp_arctan.f64.n256", 0, 48.0, 56.0, 3600.0, 1e6, 0.8855);
  return 0;
}
