// Table 1: SDC failure rate by test timing over a one-million-CPU fleet.
// Paper: factory 0.776, datacenter 0.18, re-install 2.306, regular 0.348, total 3.61
// (all in permyriad = 1e-4).

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
  PrintExperimentHeader("Table 1", "failure rate of different test timings");

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

  const double paper[] = {0.776, 0.180, 2.306, 0.348};
  TextTable table({"timing", "measured (permyriad)", "paper (permyriad)"});
  for (int stage = 0; stage < kStageCount; ++stage) {
    table.AddRow({StageName(static_cast<TestStage>(stage)),
                  FormatDouble(stats.StageRate(static_cast<TestStage>(stage)) * 1e4, 3),
                  FormatDouble(paper[stage], 3)});
  }
  table.AddRow({"total", FormatDouble(stats.TotalRate() * 1e4, 3), "3.610"});
  table.Print(std::cout);

  std::cout << "\nfleet: " << stats.tested << " processors, "
            << stats.faulty << " with latent defects; "
            << stats.total_detected() << " detected\n";
  std::cout << "pre-production share of detections: "
            << FormatPercent(stats.PreProductionRate() / stats.TotalRate(), 2)
            << " (paper: 90.36%)\n";
  std::cout << "wall time: " << FormatDouble(elapsed.count(), 2) << " s (generate + screen, "
            << context.threads() << " threads; set SDC_THREADS to vary)\n";
  std::cout << "\nmetrics snapshot (counters/gauges/histograms are thread-count"
               " invariant):\n";
  metrics.Snapshot().DumpText(std::cout);
  return 0;
}
