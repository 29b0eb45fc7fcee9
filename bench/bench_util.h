// Shared helpers for the experiment harnesses in bench/. Each binary regenerates one of the
// paper's tables or figures and prints the paper's reported values next to the measured
// ones, so the reproduction can be eyeballed row by row.

#ifndef SDC_BENCH_BENCH_UTIL_H_
#define SDC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <set>
#include <string>

#include "src/common/context.h"
#include "src/fault/machine.h"
#include "src/toolchain/framework.h"

namespace sdc {

// The context the session harnesses run their plans and Farron rounds on: one lane (their
// plans share one machine, entry after entry) and no sinks. SDC_THREADS / SDC_SIMD are not
// consulted.
inline EngineOptions SessionEngine() { return {.threads = 1, .env_overrides = false}; }

// Full-suite "adequate" sweep: hot (burn-in, all cores simultaneously), long slices --
// the ground-truth run that enumerates a faulty part's known failing testcases.
inline RunReport AdequateSweep(const TestSuite& suite, FaultyMachine& machine,
                               double per_case_seconds = 60.0, uint64_t seed = 3) {
  TestFramework framework(&suite);
  TestRunConfig config;
  config.time_scale = 2e7;
  config.simultaneous_cores = true;
  config.burn_in_seconds = 300.0;
  config.seed = seed;
  config.max_records = 100000;
  EngineContext context(SessionEngine());
  return framework.RunPlan(machine, framework.EqualPlan(per_case_seconds), config, context);
}

// Runs one (testcase, pcore) setting at a pinned temperature and returns the SDC records.
// The moderate time scale keeps per-op corruption probabilities well below saturation so
// occurrence statistics stay faithful.
inline std::vector<SdcRecord> CollectRecords(const TestSuite& suite, FaultyMachine& machine,
                                             const std::string& testcase_id, int pcore,
                                             double temperature_celsius,
                                             double duration_seconds, uint64_t seed = 9) {
  const int index = suite.IndexOf(testcase_id);
  if (index < 0) {
    return {};
  }
  TestFramework framework(&suite);
  TestRunConfig config;
  config.time_scale = 1e5;
  config.pin_temperature_celsius = temperature_celsius;
  config.pcores_under_test = {pcore};
  config.seed = seed;
  EngineContext context(SessionEngine());
  const RunReport report = framework.RunPlan(
      machine, {{static_cast<size_t>(index), duration_seconds}}, config, context);
  return report.records;
}

// Kernel family of a testcase id: "loop.int_mul.i32.n96" -> "loop.int_mul"; used to compare
// failed-testcase counts against Table 3's #err despite this suite's parametric redundancy.
inline std::string KernelFamily(const std::string& testcase_id) {
  size_t first = testcase_id.find('.');
  size_t second = first == std::string::npos ? first : testcase_id.find('.', first + 1);
  return second == std::string::npos ? testcase_id : testcase_id.substr(0, second);
}

inline std::set<std::string> FailedFamilies(const RunReport& report) {
  std::set<std::string> families;
  for (const std::string& id : report.failed_testcase_ids()) {
    families.insert(KernelFamily(id));
  }
  return families;
}

inline void PrintExperimentHeader(const std::string& id, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", id.c_str(), description.c_str());
  std::printf("(paper: \"Understanding Silent Data Corruptions in a Large\n");
  std::printf(" Production CPU Population\", SOSP 2023)\n");
  std::printf("==============================================================\n");
}

}  // namespace sdc

#endif  // SDC_BENCH_BENCH_UTIL_H_
