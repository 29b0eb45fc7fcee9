// Wall-clock scaling of the ThreadPool-based hot paths: fleet generation, fleet
// screening, and parallel plan execution, each at 1/2/4/<hardware> threads. Emits one
// JSON line per run so speedup curves can be scraped from a run log:
//   {"bench": "fleet_generate", "threads": 2, "wall_seconds": 0.41, "speedup": 1.9}
// Determinism is asserted as a side effect: every thread count must reproduce the
// single-thread checksum of its workload.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/common/context.h"
#include "src/common/parallel.h"
#include "src/fault/catalog.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/toolchain/framework.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2, 4};
  const int hw = HardwareThreads();
  bool seen = false;
  for (int count : counts) {
    seen = seen || count == hw;
  }
  if (!seen) {
    counts.push_back(hw);
  }
  return counts;
}

void EmitJson(const std::string& bench, int threads, double wall_seconds,
              double serial_seconds) {
  std::printf("{\"bench\": \"%s\", \"threads\": %d, \"wall_seconds\": %.6f, "
              "\"speedup\": %.2f}\n",
              bench.c_str(), threads, wall_seconds,
              wall_seconds > 0.0 ? serial_seconds / wall_seconds : 0.0);
  std::fflush(stdout);
}

int Main() {
  std::printf("# micro_parallel: ThreadPool scaling on %d hardware thread(s)\n",
              HardwareThreads());

  // --- Fleet generation ---
  {
    PopulationConfig config;
    config.processor_count = 1'000'000;
    config.seed = 20230901;
    double serial_seconds = 0.0;
    uint64_t serial_faulty = 0;
    for (int threads : ThreadCounts()) {
      EngineContext context(EngineOptions{.threads = threads});
      uint64_t faulty = 0;
      const double wall = WallSeconds([&] {
        const FleetPopulation fleet = FleetPopulation::Generate(config, context);
        faulty = fleet.faulty_count();
      });
      if (threads == 1) {
        serial_seconds = wall;
        serial_faulty = faulty;
      } else if (faulty != serial_faulty) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: generate faulty_count %llu != %llu\n",
                     static_cast<unsigned long long>(faulty),
                     static_cast<unsigned long long>(serial_faulty));
        return 1;
      }
      EmitJson("fleet_generate", threads, wall, serial_seconds);
    }
  }

  // --- Fleet screening ---
  {
    PopulationConfig population_config;
    population_config.processor_count = 2'000'000;
    population_config.seed = 20230901;
    EngineContext generate_context;
    const FleetPopulation fleet =
        FleetPopulation::Generate(population_config, generate_context);
    const TestSuite suite = TestSuite::BuildFull();
    ScreeningPipeline pipeline(&suite);
    double serial_seconds = 0.0;
    uint64_t serial_detected = 0;
    for (int threads : ThreadCounts()) {
      EngineContext context(EngineOptions{.threads = threads});
      uint64_t detected = 0;
      const double wall = WallSeconds([&] {
        const ScreeningStats stats = pipeline.Run(fleet, ScreeningConfig(), context);
        detected = stats.total_detected();
      });
      if (threads == 1) {
        serial_seconds = wall;
        serial_detected = detected;
      } else if (detected != serial_detected) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: screening detected %llu != %llu\n",
                     static_cast<unsigned long long>(detected),
                     static_cast<unsigned long long>(serial_detected));
        return 1;
      }
      EmitJson("fleet_screening", threads, wall, serial_seconds);
    }
  }

  // --- Parallel plan execution ---
  {
    const TestSuite suite = TestSuite::BuildSampled(3);
    TestFramework framework(&suite);
    FaultyMachine machine(FindInCatalog("MIX2"), 77);
    const std::vector<TestPlanEntry> plan = framework.EqualPlan(5.0);
    TestRunConfig config;
    config.time_scale = 2e7;
    config.simultaneous_cores = true;
    config.seed = 11;
    config.parallel_plan_entries = true;
    double serial_seconds = 0.0;
    uint64_t serial_errors = 0;
    for (int threads : ThreadCounts()) {
      EngineContext context(EngineOptions{.threads = threads});
      uint64_t errors = 0;
      const double wall = WallSeconds([&] {
        const RunReport report = framework.RunPlan(machine, plan, config, context);
        errors = report.total_errors();
      });
      if (threads == 1) {
        serial_seconds = wall;
        serial_errors = errors;
      } else if (errors != serial_errors) {
        std::fprintf(stderr, "DETERMINISM VIOLATION: plan errors %llu != %llu\n",
                     static_cast<unsigned long long>(errors),
                     static_cast<unsigned long long>(serial_errors));
        return 1;
      }
      EmitJson("run_plan", threads, wall, serial_seconds);
    }
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main() { return sdc::Main(); }
