#include "src/toolchain/framework.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/context.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace sdc {
namespace {

// Brings a machine into the run's starting state: time scale, settled background
// thermals, optional burn-in, optional pinned temperature.
void PrepareMachine(FaultyMachine& machine, const TestRunConfig& config) {
  Processor& cpu = machine.cpu();
  cpu.SetTimeScale(config.time_scale);
  machine.SetAllCoreUtilization(config.background_utilization);
  std::vector<double> utilization(static_cast<size_t>(cpu.spec().physical_cores),
                                  config.background_utilization);
  cpu.thermal().SettleToSteadyState(utilization);
  if (config.burn_in_seconds > 0.0) {
    machine.SetAllCoreUtilization(1.0);
    cpu.AdvanceSeconds(config.burn_in_seconds);
    machine.SetAllCoreUtilization(config.background_utilization);
  }
  if (config.pin_temperature_celsius > 0.0) {
    cpu.thermal().ForceUniform(config.pin_temperature_celsius);
  }
}

// Plan-level metrics from the merged report, walked in plan order so the values (and the
// gauge merge order) match at any thread count. Per-testcase error counters are only
// emitted for failing entries to keep the snapshot's cardinality proportional to the
// corruption actually observed, not to the 633-case suite.
void AccumulatePlanMetrics(const RunReport& report, MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  MetricsDelta delta;
  for (const TestcaseResult& result : report.results) {
    delta.Add("toolchain.invocations");
    delta.Add("toolchain.errors", result.errors);
    delta.Observe("toolchain.entry_errors", static_cast<double>(result.errors), 0.0, 50.0,
                  10);
    if (result.failed()) {
      delta.Add("toolchain.testcases_failed");
      delta.Add("toolchain.errors." + result.testcase_id, result.errors);
    }
  }
  delta.Add("toolchain.records", report.records.size());
  delta.Set("toolchain.plan_wall_seconds", report.total_wall_seconds);  // simulated clock
  metrics->MergeDelta(delta);
}

// Plan-level sim trace from the merged report, walked in plan order: one span per entry
// on the simulated-microseconds clock, back to back from time 0 -- the same
// report-derived walk as the metrics above, so the toolchain timeline is thread-count
// invariant by the same argument.
void AccumulatePlanTrace(const RunReport& report, TraceRecorder* trace) {
  if (trace == nullptr) {
    return;
  }
  TraceDelta delta;
  double cursor_us = 0.0;
  for (const TestcaseResult& result : report.results) {
    TraceEvent span = MakeTraceSpan("toolchain.entry", "toolchain", kTraceTrackToolchain,
                                    cursor_us, result.duration_seconds * 1e6);
    span.str_args.emplace_back("testcase", result.testcase_id);
    span.num_args.emplace_back("errors", static_cast<double>(result.errors));
    delta.Add(std::move(span));
    cursor_us += result.duration_seconds * 1e6;
  }
  trace->MergeDelta(std::move(delta));
}

// The per-batch op profile of a clean plan entry (TestFramework::RunEntry), measured
// around the entry's one real batch, and the closed form of the batch-group loop for a
// group that starts from zero busy time.
struct CleanProfile {
  std::array<uint64_t, kOpKindCount> counts{};  // ops of each kind one batch executes
  double batch_busy = 0.0;     // what the group loop adds per batch: max(busy, 1e-9)
  uint64_t group_batches = 0;  // batches in a group that starts at zero busy time
  double group_busy = 0.0;     // that group's busy seconds, summed as the loop sums them

  // Runs one real batch of `testcase` on the context's single lcore and takes its op
  // counts there as the profile of every batch.
  static CleanProfile Measure(Testcase& testcase, TestContext& context,
                              double min_batch_busy_seconds) {
    Processor& cpu = context.cpu();
    const int pcore = cpu.pcore_of(context.lcores.front());
    CleanProfile profile;
    for (int kind = 0; kind < kOpKindCount; ++kind) {
      profile.counts[kind] = cpu.op_count(pcore, static_cast<OpKind>(kind));
    }
    testcase.RunBatch(context);
    uint64_t cycles = 0;
    for (int kind = 0; kind < kOpKindCount; ++kind) {
      const auto op = static_cast<OpKind>(kind);
      profile.counts[kind] = cpu.op_count(pcore, op) - profile.counts[kind];
      cycles += profile.counts[kind] * static_cast<uint64_t>(LatencyCycles(op));
    }
    profile.batch_busy = std::max(cpu.BusySeconds(cycles), 1e-9);
    do {
      profile.group_busy += profile.batch_busy;
      ++profile.group_batches;
    } while (profile.group_busy < min_batch_busy_seconds);
    return profile;
  }

  // Records `batches` batches' ops on `lcore` without running the kernel.
  void Count(Processor& cpu, int lcore, uint64_t batches) const {
    for (int kind = 0; kind < kOpKindCount; ++kind) {
      if (counts[kind] != 0) {
        cpu.CountCleanOps(lcore, static_cast<OpKind>(kind), batches * counts[kind]);
      }
    }
  }
};

}  // namespace

bool RunReport::any_error() const {
  for (const auto& result : results) {
    if (result.failed()) {
      return true;
    }
  }
  return false;
}

uint64_t RunReport::total_errors() const {
  uint64_t total = 0;
  for (const auto& result : results) {
    total += result.errors;
  }
  return total;
}

std::vector<std::string> RunReport::failed_testcase_ids() const {
  std::vector<std::string> ids;
  for (const auto& result : results) {
    if (result.failed()) {
      ids.push_back(result.testcase_id);
    }
  }
  return ids;
}

std::vector<TestPlanEntry> TestFramework::EqualPlan(double per_case_seconds) const {
  std::vector<TestPlanEntry> plan;
  plan.reserve(suite_->size());
  for (size_t i = 0; i < suite_->size(); ++i) {
    plan.push_back({i, per_case_seconds});
  }
  return plan;
}

RunReport TestFramework::RunPlan(FaultyMachine& machine,
                                 const std::vector<TestPlanEntry>& plan,
                                 const TestRunConfig& config,
                                 EngineContext& context) const {
  MetricsRegistry* metrics = context.metrics();
  TraceRecorder* trace = context.trace();
  TraceRecorder::ScopedHostSpan plan_span(trace, "toolchain.plan", "toolchain",
                                          kTraceTrackToolchain);
  if (config.parallel_plan_entries) {
    return RunPlanParallel(machine, plan, config, context.pool(), metrics, trace);
  }
  return RunPlanSerial(machine, plan, config, metrics, trace);
}

RunReport TestFramework::RunPlanSerial(FaultyMachine& machine,
                                       const std::vector<TestPlanEntry>& plan,
                                       const TestRunConfig& config,
                                       MetricsRegistry* metrics,
                                       TraceRecorder* trace) const {
  RunReport report;
  Processor& cpu = machine.cpu();
  const double start_seconds = cpu.now_seconds();
  PrepareMachine(machine, config);

  for (const TestPlanEntry& entry : plan) {
    RunEntry(machine, entry, config, report);
  }
  machine.SetAllCoreUtilization(config.background_utilization);
  report.total_wall_seconds = cpu.now_seconds() - start_seconds;
  AccumulatePlanMetrics(report, metrics);
  AccumulatePlanTrace(report, trace);
  return report;
}

RunReport TestFramework::RunPlanParallel(const FaultyMachine& machine,
                                         const std::vector<TestPlanEntry>& plan,
                                         const TestRunConfig& config,
                                         ThreadPool& pool, MetricsRegistry* metrics,
                                         TraceRecorder* trace) const {
  // One fresh clone per entry makes entries fully independent: each starts from the same
  // settled (and, if configured, burnt-in) state with its own injector RNG, so the merged
  // report depends only on (machine, plan, config), never on the worker count. Grain 1:
  // entries are coarse units of work.
  std::vector<RunReport> entry_reports = pool.ParallelMap<RunReport>(
      0, plan.size(), 1, [&](uint64_t entry_index, uint64_t, uint64_t) {
        const auto clone_start = std::chrono::steady_clock::now();
        const double clone_span_start = trace != nullptr ? trace->HostNowSeconds() : 0.0;
        FaultyMachine clone = machine.CloneFresh();
        PrepareMachine(clone, config);
        if (trace != nullptr) {
          trace->RecordHostSpan("toolchain.clone", "toolchain", kTraceTrackToolchain,
                                clone_span_start, trace->HostNowSeconds() - clone_span_start);
        }
        if (metrics != nullptr) {
          // Clone + settle/burn-in cost of entry isolation: host wall clock, recorded from
          // worker threads, outside the deterministic sections by contract.
          const std::chrono::duration<double> elapsed =
              std::chrono::steady_clock::now() - clone_start;
          metrics->Add("toolchain.clones");
          metrics->RecordTimerSeconds("toolchain.clone.wall", elapsed.count());
        }
        RunReport entry_report;
        const double start_seconds = clone.cpu().now_seconds();
        RunEntry(clone, plan[entry_index], config, entry_report);
        entry_report.total_wall_seconds = clone.cpu().now_seconds() - start_seconds;
        return entry_report;
      });

  // Merge in plan order; the record cap applies to the merged stream, as in a serial run.
  RunReport report;
  for (RunReport& entry_report : entry_reports) {
    report.total_wall_seconds += entry_report.total_wall_seconds;
    for (TestcaseResult& result : entry_report.results) {
      report.results.push_back(std::move(result));
    }
    for (SdcRecord& record : entry_report.records) {
      if (report.records.size() >= config.max_records) {
        break;
      }
      report.records.push_back(std::move(record));
    }
  }
  AccumulatePlanMetrics(report, metrics);
  AccumulatePlanTrace(report, trace);
  return report;
}

void TestFramework::RunEntry(FaultyMachine& machine, const TestPlanEntry& entry,
                             const TestRunConfig& config, RunReport& report) const {
  Testcase& testcase = suite_->at(entry.testcase_index);
  const TestcaseInfo& info = testcase.info();
  Processor& cpu = machine.cpu();
  const int smt = cpu.spec().threads_per_core;

  std::vector<int> pcores = config.pcores_under_test;
  if (pcores.empty()) {
    for (int p = 0; p < cpu.spec().physical_cores; ++p) {
      pcores.push_back(p);
    }
  }

  TestcaseResult result;
  result.testcase_id = info.id;
  result.duration_seconds = entry.duration_seconds;
  result.errors_per_pcore.assign(static_cast<size_t>(cpu.spec().physical_cores), 0);
  std::array<uint64_t, kOpKindCount> ops_before{};
  for (int kind = 0; kind < kOpKindCount; ++kind) {
    ops_before[kind] = cpu.total_op_count(static_cast<OpKind>(kind));
  }

  Rng entry_rng = Rng(config.seed).Fork(Mix64(entry.testcase_index * 0x9e37u) ^
                                        Mix64(info.id.size()));
  TestContext context;
  context.machine = &machine;
  context.rng = &entry_rng;
  context.records = &report.records;
  context.max_records = config.max_records;
  context.cpu_id = machine.info().cpu_id;

  // A clean entry: single-threaded, no op kind it runs can be corrupted on this machine,
  // and its per-batch op counts do not follow its inputs. Its results are golden, so only
  // its op counts, busy time and clock steps are observable, and entry_rng dies with the
  // entry: after one real batch the rest are replayed from that batch's profile.
  const bool clean = !info.multithreaded && !info.ops_depend_on_inputs &&
                     std::none_of(info.ops.begin(), info.ops.end(),
                                  [&cpu](OpKind op) { return cpu.MayCorrupt(op); });
  CleanProfile profile;  // measured by the entry's first batch; group_batches 0 until then

  if (config.simultaneous_cores) {
    machine.SetAllCoreUtilization(1.0);
  }
  // Each core under test executes the testcase for its share of the entry duration:
  // the full duration when cores run simultaneously, an equal split when sequential.
  const double per_core_seconds =
      config.simultaneous_cores
          ? entry.duration_seconds
          : entry.duration_seconds / static_cast<double>(pcores.size());
  const double wall_scale = config.simultaneous_cores
                                ? 1.0 / static_cast<double>(pcores.size())
                                : 1.0;

  for (size_t core_slot = 0; core_slot < pcores.size(); ++core_slot) {
    const int pcore = pcores[core_slot];
    const int partner = pcores[(core_slot + 1) % pcores.size()];
    context.lcores.clear();
    context.lcores.push_back(pcore * smt);
    if (info.multithreaded) {
      // Consistency tests need a second thread on a different physical core.
      const int partner_pcore =
          partner != pcore ? partner : (pcore + 1) % cpu.spec().physical_cores;
      context.lcores.push_back(partner_pcore * smt);
    }
    if (!config.simultaneous_cores) {
      cpu.SetCoreUtilization(pcore, 1.0);
      if (info.multithreaded) {
        cpu.SetCoreUtilization(cpu.pcore_of(context.lcores[1]), 0.5);
      }
    }
    const uint64_t errors_at_start = context.errors_found;
    double tested_seconds = 0.0;
    bool first_group = true;
    while (tested_seconds < per_core_seconds) {
      double busy = 0.0;
      if (!clean) {
        // Group kernel runs until enough busy time accumulates; small kernels would
        // otherwise pay one clock/thermal step per handful of operations.
        do {
          testcase.RunBatch(context);
          double batch_busy = 0.0;
          for (int lcore : context.lcores) {
            batch_busy = std::max(batch_busy, cpu.ConsumeBusySeconds(cpu.pcore_of(lcore)));
          }
          busy += std::max(batch_busy, 1e-9);
        } while (busy < config.min_batch_busy_seconds);
      } else if (first_group) {
        // A core slot's first batch also consumes whatever busy time the core carried in,
        // so its group is finished by the loop's own additions.
        const int lcore = context.lcores.front();
        if (profile.group_batches == 0) {
          profile = CleanProfile::Measure(testcase, context, config.min_batch_busy_seconds);
        } else {
          profile.Count(cpu, lcore, 1);
        }
        busy = std::max(cpu.ConsumeBusySeconds(pcore), 1e-9);
        uint64_t batches = 0;
        for (; busy < config.min_batch_busy_seconds; ++batches) {
          busy += profile.batch_busy;
        }
        profile.Count(cpu, lcore, batches);
        cpu.ConsumeBusySeconds(pcore);
        first_group = false;
      } else {
        // Every later group starts from zero busy time: its closed form.
        profile.Count(cpu, context.lcores.front(), profile.group_batches);
        cpu.ConsumeBusySeconds(pcore);
        busy = profile.group_busy;
      }
      const double represented = busy * cpu.time_scale();
      tested_seconds += represented;
      cpu.AdvanceSeconds(represented * wall_scale);
      if (config.pin_temperature_celsius > 0.0) {
        cpu.thermal().ForceUniform(config.pin_temperature_celsius);
      }
    }
    result.errors_per_pcore[pcore] += context.errors_found - errors_at_start;
    if (!config.simultaneous_cores) {
      cpu.SetCoreUtilization(pcore, config.background_utilization);
      if (info.multithreaded) {
        cpu.SetCoreUtilization(cpu.pcore_of(context.lcores[1]),
                               config.background_utilization);
      }
    }
  }
  if (config.simultaneous_cores) {
    machine.SetAllCoreUtilization(config.background_utilization);
  }

  result.errors = context.errors_found;
  for (int kind = 0; kind < kOpKindCount; ++kind) {
    result.op_histogram[kind] =
        cpu.total_op_count(static_cast<OpKind>(kind)) - ops_before[kind];
  }
  report.results.push_back(std::move(result));
}

}  // namespace sdc
