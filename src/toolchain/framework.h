// The toolchain framework (Section 2.3): drives testcases against a machine, controlling
// selection, execution order, per-testcase duration, core placement, and the thermal
// environment, and collecting SDC records plus per-testcase op histograms (the Pin-style
// instrumentation of Section 4.1).
//
// Core placement modes:
//  * sequential (default): the plan's duration is split evenly across the cores under test;
//    only the currently tested core is busy, so the package stays relatively cool -- this is
//    the Alibaba baseline behaviour.
//  * simultaneous: every core under test runs the testcase for the full duration at once, so
//    the package heats to its loaded temperature -- Farron's burn-in testing environment
//    (Section 7.1).

#ifndef SDC_SRC_TOOLCHAIN_FRAMEWORK_H_
#define SDC_SRC_TOOLCHAIN_FRAMEWORK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/fault/machine.h"
#include "src/toolchain/registry.h"
#include "src/toolchain/testcase.h"

namespace sdc {

class EngineContext;
class MetricsRegistry;
class ThreadPool;
class TraceRecorder;

struct TestPlanEntry {
  size_t testcase_index = 0;
  double duration_seconds = 60.0;
};

struct TestRunConfig {
  // Represented iterations per simulated batch (Processor::time_scale).
  double time_scale = 1e5;
  // Utilization imposed on cores not under test (stress tools / colocated load).
  double background_utilization = 0.0;
  // Test every core simultaneously (Farron) instead of one at a time (baseline).
  bool simultaneous_cores = false;
  // Run all cores at full utilization for this long before the first testcase.
  double burn_in_seconds = 0.0;
  // Pin all core temperatures to this value (Celsius) for the whole run; <= 0 disables.
  // Used by the reproducibility experiments that preheat to a target temperature.
  double pin_temperature_celsius = -1.0;
  // Batches are grouped until at least this much raw busy time accumulates before the clock
  // advances; normalizes host-side overhead across kernels of very different sizes.
  double min_batch_busy_seconds = 4e-6;
  // Stop storing (not counting) records past this bound.
  size_t max_records = 200000;
  // Physical cores to test; empty = all.
  std::vector<int> pcores_under_test;
  // Seed for workload-input randomness.
  uint64_t seed = 1;
  // Fan plan entries out across the context's lanes. Each entry then runs on a fresh
  // clone of the machine (settled, burn-in applied per entry) with its own forked RNG
  // stream, and results/records merge in plan order -- so the report is bit-identical at
  // any lane count, and the caller's machine is left untouched, whatever the plan's size.
  // false = legacy sequential semantics, where entry N's thermal state carries into entry
  // N+1 on the shared machine.
  bool parallel_plan_entries = false;
};

struct TestcaseResult {
  std::string testcase_id;
  double duration_seconds = 0.0;
  uint64_t errors = 0;                       // mismatched values observed (uncapped)
  std::vector<uint64_t> errors_per_pcore;    // attribution by tested physical core
  std::array<uint64_t, kOpKindCount> op_histogram{};  // ops executed during this testcase

  bool failed() const { return errors > 0; }
  // Occurrence frequency in errors/minute over the tested duration.
  double OccurrenceFrequencyPerMinute() const {
    return duration_seconds > 0.0 ? static_cast<double>(errors) / duration_seconds * 60.0
                                  : 0.0;
  }
};

struct RunReport {
  std::vector<TestcaseResult> results;
  std::vector<SdcRecord> records;
  double total_wall_seconds = 0.0;

  bool any_error() const;
  uint64_t total_errors() const;
  std::vector<std::string> failed_testcase_ids() const;
};

class TestFramework {
 public:
  // `suite` must outlive the framework.
  explicit TestFramework(const TestSuite* suite) : suite_(suite) {}

  // Executes the plan's testcases on `machine`: in order on the shared machine by
  // default, or across the context's lanes (one fresh machine clone per entry) when
  // config.parallel_plan_entries is set. The context's metrics and trace sinks
  // ("toolchain.*" counters derived from the merged report in plan order, one
  // "toolchain.entry" sim span per entry, host spans for the plan and for per-entry
  // clones) are read once, at plan start (src/common/context.h, docs/observability.md).
  RunReport RunPlan(FaultyMachine& machine, const std::vector<TestPlanEntry>& plan,
                    const TestRunConfig& config, EngineContext& context) const;

  // Equal-resource plan over the whole suite (the baseline's strategy, Section 7).
  std::vector<TestPlanEntry> EqualPlan(double per_case_seconds) const;

  const TestSuite& suite() const { return *suite_; }

 private:
  void RunEntry(FaultyMachine& machine, const TestPlanEntry& entry,
                const TestRunConfig& config, RunReport& report) const;
  // The two schedules of RunPlan, writing to the context's sinks.
  RunReport RunPlanSerial(FaultyMachine& machine, const std::vector<TestPlanEntry>& plan,
                          const TestRunConfig& config, MetricsRegistry* metrics,
                          TraceRecorder* trace) const;
  RunReport RunPlanParallel(const FaultyMachine& machine,
                            const std::vector<TestPlanEntry>& plan,
                            const TestRunConfig& config, ThreadPool& pool,
                            MetricsRegistry* metrics, TraceRecorder* trace) const;

  const TestSuite* suite_;
};

}  // namespace sdc

#endif  // SDC_SRC_TOOLCHAIN_FRAMEWORK_H_
