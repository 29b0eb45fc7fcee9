// Table 2: SDC failure rate per micro-architecture (M1..M9).
// Paper: 4.619 / 0.352 / 2.649 / 0.082 / 0.759 / 3.251 / 1.599 / 9.29 / 4.646 permyriad,
// average 3.61. Observation 3: every micro-architecture is affected; rates do not fall
// with newer parts.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/context.h"
#include "src/common/table.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/stream.h"
#include "src/telemetry/metrics.h"

int main() {
  using namespace sdc;
  PrintExperimentHeader("Table 2", "failure rate of different micro-architectures");

  MetricsRegistry metrics;
  EngineContext context(EngineOptions{.metrics = &metrics});
  const auto start = std::chrono::steady_clock::now();
  PopulationConfig population_config;
  population_config.processor_count = 1'000'000;
  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  StreamingScreen screen(&pipeline, ScreeningConfig());
  FleetShardStream(population_config).Drive({&screen}, context);
  const ScreeningStats stats = screen.TakeStats();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  TextTable table({"arch", "tested", "measured (permyriad)", "paper (permyriad)"});
  int arches_with_detections = 0;
  for (int arch = 0; arch < kArchCount; ++arch) {
    table.AddRow({ArchName(arch), std::to_string(stats.tested_by_arch[arch]),
                  FormatDouble(stats.ArchRate(arch) * 1e4, 3),
                  FormatDouble(population_config.detected_rate[arch] * 1e4, 3)});
    arches_with_detections += stats.detected_by_arch[arch] > 0 ? 1 : 0;
  }
  table.AddRow({"avg", std::to_string(stats.tested), FormatDouble(stats.TotalRate() * 1e4, 3),
                "3.610"});
  table.Print(std::cout);
  std::cout << "\nObservation 3 check: " << arches_with_detections << " of " << kArchCount
            << " micro-architectures have detected faulty processors\n";
  std::cout << "wall time: " << FormatDouble(elapsed.count(), 2) << " s (generate + screen, "
            << context.threads() << " threads; set SDC_THREADS to vary)\n";
  std::cout << "\nmetrics snapshot (counters/gauges/histograms are thread-count"
               " invariant):\n";
  metrics.Snapshot().DumpText(std::cout);
  return 0;
}
