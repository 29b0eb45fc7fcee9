// micro_scrub: the fleet-wide budgeted scrubber (docs/scrubbing.md) as a
// budget-sweep benchmark plus a determinism matrix.
//
// Emits one JSON object per line so runs can be diffed and checked mechanically
// (tools/check_scrub_json.py validates related invariants against sdcctl). Grid:
//   phase "budget"      -- budget fractions {1e-6, 1e-5, 1e-4} at one thread: what the
//                          cycles buy (detections, coverage, mean time-to-detect) and
//                          what they cost (utilization, wall seconds). The binary
//                          asserts spend never exceeds budget. Coverage is reported as
//                          data, not asserted monotone: with full plans, the funding
//                          order shifts which month a session's rounds land in, so
//                          individual sample paths can cross even though the expected
//                          curve rises with budget.
//   phase "determinism" -- one budget at 1/2/8 worker threads x streaming/materialized
//                          discovery. The binary asserts every cell's report JSON is
//                          byte-identical to the one-thread streaming run and exits
//                          non-zero on divergence (the scrub determinism contract).
// The closing "summary" line reports coverage at the top budget and the determinism
// verdict. Each cell is timed as the single run that produced its report (a scrub run
// is seconds, not microseconds; best-of repetition would double a cost that is already
// dominated by deterministic simulation, not scheduler noise).
//
// Usage: micro_scrub [processor_count]
// Defaults: 50,000 processors. CI smoke runs use a small count.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "src/common/context.h"
#include "src/report/exporters.h"
#include "src/scrub/scrubber.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

// The determinism fingerprint is the exported document itself: if any counter, any
// provenance field, or any hexfloat-exact double differs, the JSON differs.
std::string ReportJson(const ScrubReport& report) {
  std::ostringstream out;
  WriteScrubReportJson(out, report);
  return out.str();
}

ScrubConfig BaseConfig(uint64_t processors) {
  ScrubConfig config;
  config.population.processor_count = processors;
  config.population.seed = 2024;
  config.horizon_months = 6.0;
  // Full prioritized plans at a coarse sim scale: rounds that can actually reach the
  // exposing testcase within the horizon, cheap enough on the host to sweep budgets.
  config.max_cases_per_round = 0;
  config.farron.time_scale = 1e9;
  config.workload_sample_hours = 0.02;
  return config;
}

int Main(int argc, char** argv) {
  const uint64_t processors =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000ull;
  std::printf("# micro_scrub: %llu processors\n",
              static_cast<unsigned long long>(processors));

  const TestSuite suite = TestSuite::BuildFull();
  const FleetScrubber scrubber(&suite);
  bool ok = true;

  // Budget sweep: the tradeoff curve the scrubber exists to measure.
  double top_coverage = 0.0;
  EngineContext serial(EngineOptions{.threads = 1});
  for (const double budget : {1e-6, 1e-5, 1e-4}) {
    ScrubConfig config = BaseConfig(processors);
    config.budget_fraction = budget;
    const auto start = std::chrono::steady_clock::now();
    const ScrubReport report = scrubber.Run(config, serial);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double wall = elapsed.count();
    std::printf(
        "{\"bench\": \"scrub_budget\", \"budget_fraction\": %.1e, \"threads\": 1, "
        "\"processors\": %llu, \"wall_seconds\": %.6f, \"sessions\": %llu, "
        "\"detections\": %zu, \"coverage\": %.4f, \"utilization\": %.4f, "
        "\"mean_ttd_months\": %.3f, \"spent_seconds\": %.1f, "
        "\"budget_seconds\": %.1f}\n",
        budget, static_cast<unsigned long long>(processors), wall,
        static_cast<unsigned long long>(report.sessions), report.detections.size(),
        report.coverage(), report.utilization(), report.MeanTimeToDetectMonths(),
        report.total_spent_seconds(), report.total_budget_seconds);
    std::fflush(stdout);
    if (report.total_spent_seconds() > report.total_budget_seconds * 1.0000001) {
      std::fprintf(stderr, "FAIL: spend exceeds budget at fraction %.1e\n", budget);
      ok = false;
    }
    top_coverage = report.coverage();
  }

  // Determinism matrix: the report must not depend on the thread count or on how the
  // escapes were discovered.
  std::string golden;
  for (const bool stream : {true, false}) {
    for (const int threads : {1, 2, 8}) {
      ScrubConfig config = BaseConfig(processors);
      config.budget_fraction = 1e-5;
      config.stream_discovery = stream;
      EngineContext context(EngineOptions{.threads = threads});
      const auto start = std::chrono::steady_clock::now();
      const ScrubReport report = scrubber.Run(config, context);
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      const double wall = elapsed.count();
      const std::string json = ReportJson(report);
      if (golden.empty()) {
        golden = json;
      } else if (json != golden) {
        std::fprintf(stderr, "FAIL: report diverged at threads=%d stream=%d\n", threads,
                     stream ? 1 : 0);
        ok = false;
      }
      std::printf(
          "{\"bench\": \"scrub_determinism\", \"mode\": \"%s\", \"threads\": %d, "
          "\"processors\": %llu, \"wall_seconds\": %.6f, \"report_bytes\": %zu}\n",
          stream ? "streaming" : "materialized", threads,
          static_cast<unsigned long long>(processors), wall, json.size());
      std::fflush(stdout);
    }
  }

  std::printf("{\"bench\": \"summary\", \"deterministic\": %s, "
              "\"coverage_at_max_budget\": %.4f}\n",
              ok ? "true" : "false", top_coverage);
  if (!ok) {
    std::fprintf(stderr, "FAIL: scrub invariants violated (see docs/scrubbing.md)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
