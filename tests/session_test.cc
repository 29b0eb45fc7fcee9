// Tests for src/farron/session.h: the reentrant ProtectionSession against the original
// monolithic loop, kept as a test oracle (tests/oracles/oracles.h) -- byte-identity of
// report, event log, metrics -- plus step-quantum invariance, ablation configs under the
// session API, and budgeted round execution.

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/farron/session.h"
#include "src/fault/catalog.h"
#include "src/report/exporters.h"
#include "src/telemetry/event_log.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "tests/oracles/oracles.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }
  static TestSuite* suite_;
  EngineContext context_{PinnedEngine(1)};
};

TestSuite* SessionTest::suite_ = nullptr;

WorkloadSpec BusySpec() {
  WorkloadSpec spec;
  spec.base_utilization = 0.55;
  spec.diurnal_amplitude = 0.2;
  spec.diurnal_period_seconds = 3600.0;
  spec.burst_probability = 0.01;
  spec.burst_seconds = 120.0;
  spec.burst_utilization = 1.0;
  spec.seed = 17;
  return spec;
}

void ExpectReportsIdentical(const ProtectionReport& a, const ProtectionReport& b) {
  EXPECT_EQ(a.simulated_hours, b.simulated_hours);
  EXPECT_EQ(a.sdc_events, b.sdc_events);
  EXPECT_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(a.backoff_engagements, b.backoff_engagements);
  EXPECT_EQ(a.cooling_boosts, b.cooling_boosts);
  EXPECT_EQ(a.max_temperature, b.max_temperature);
  EXPECT_EQ(a.final_boundary, b.final_boundary);
  EXPECT_EQ(a.final_cooling_boost, b.final_cooling_boost);
}

// The session-backed SimulateProtectedWorkload must reproduce the reference loop to the
// bit -- report, event log, and metrics alike.
TEST_F(SessionTest, WorkloadByteIdenticalToReference) {
  WorkloadSpec spec = BusySpec();

  FaultyMachine session_machine(FindInCatalog("MIX1"), 41);
  MetricsRegistry session_metrics;
  EventLog session_log;
  EngineContext session_context(EngineOptions{.threads = 1,
                                              .env_overrides = false,
                                              .metrics = &session_metrics,
                                              .event_log = &session_log});
  Farron session_farron(suite_, &session_machine, FarronConfig(), session_context);
  const ProtectionReport via_session =
      SimulateProtectedWorkload(session_farron, session_machine, *suite_, spec, 3.0, true);

  FaultyMachine reference_machine(FindInCatalog("MIX1"), 41);
  MetricsRegistry reference_metrics;
  EventLog reference_log;
  EngineContext reference_context(EngineOptions{.threads = 1,
                                                .env_overrides = false,
                                                .metrics = &reference_metrics,
                                                .event_log = &reference_log});
  Farron reference(suite_, &reference_machine, FarronConfig(), reference_context);
  const ProtectionReport via_reference = SimulateProtectedWorkloadReference(
      reference, reference_machine, *suite_, spec, 3.0, true);

  ExpectReportsIdentical(via_session, via_reference);

  std::ostringstream session_events;
  std::ostringstream reference_events;
  session_log.Dump(session_events);
  reference_log.Dump(reference_events);
  EXPECT_EQ(session_events.str(), reference_events.str());

  std::ostringstream session_text;
  std::ostringstream reference_text;
  session_metrics.Snapshot().DumpText(session_text);
  reference_metrics.Snapshot().DumpText(reference_text);
  EXPECT_EQ(session_text.str(), reference_text.str());
}

// A protected workload whose kernel is a loop no defect of the part can corrupt. The loop
// takes the clean path and skips its input draws on the session's rng, which also draws
// the workload bursts; report, event log and metrics must equal a run where FullPathHook
// sends every op through the injector.
TEST_F(SessionTest, CleanLoopKernelMatchesFullPath) {
  const FaultyProcessorInfo& info = FindInCatalog("MIX1");
  WorkloadSpec spec = BusySpec();
  {
    FaultyMachine probe(info, 41);
    bool found = false;
    for (size_t i = 0; i < suite_->size() && !found; ++i) {
      const TestcaseInfo& testcase = suite_->info(i);
      if (testcase.id.starts_with("loop.") && !probe.cpu().MayCorrupt(testcase.ops.front())) {
        spec.kernel_case_index = i;
        found = true;
      }
    }
    ASSERT_TRUE(found);
  }
  struct Outcome {
    ProtectionReport report;
    std::string events;
    std::string metrics;
  };
  const auto run = [&](bool full_path) {
    FaultyMachine machine(info, 41);
    FullPathHook hook(machine.injector());
    if (full_path) {
      machine.cpu().SetCorruptionHook(&hook);
    }
    MetricsRegistry metrics;
    EventLog log;
    EngineContext context(EngineOptions{
        .threads = 1, .env_overrides = false, .metrics = &metrics, .event_log = &log});
    Farron farron(suite_, &machine, FarronConfig(), context);
    Outcome outcome;
    outcome.report = SimulateProtectedWorkload(farron, machine, *suite_, spec, 1.0, true);
    std::ostringstream events;
    std::ostringstream text;
    log.Dump(events);
    metrics.Snapshot().DumpText(text);
    outcome.events = events.str();
    outcome.metrics = text.str();
    return outcome;
  };
  const Outcome clean = run(false);
  const Outcome full = run(true);
  ExpectReportsIdentical(clean.report, full.report);
  EXPECT_EQ(clean.events, full.events);
  EXPECT_EQ(clean.metrics, full.metrics);
  EXPECT_GT(clean.report.backoff_engagements, 0u);
}

// The unprotected path (protect = false) must match too: no boundary control, only
// observation.
TEST_F(SessionTest, UnprotectedWorkloadMatchesReference) {
  WorkloadSpec spec = BusySpec();
  FaultyMachine session_machine(FindInCatalog("FPU1"), 31);
  FarronConfig config;
  Farron session_farron(suite_, &session_machine, config, context_);
  const ProtectionReport via_session = SimulateProtectedWorkload(
      session_farron, session_machine, *suite_, spec, 2.0, false);

  FaultyMachine reference_machine(FindInCatalog("FPU1"), 31);
  Farron reference_farron(suite_, &reference_machine, config, context_);
  const ProtectionReport via_reference = SimulateProtectedWorkloadReference(
      reference_farron, reference_machine, *suite_, spec, 2.0, false);

  ExpectReportsIdentical(via_session, via_reference);
}

// Iterations are indivisible, so the quantum only decides how often control returns to
// the caller: 1s steps, 60s steps, and one giant step must replay the same iteration
// sequence bit for bit.
TEST_F(SessionTest, StepQuantumInvariance) {
  WorkloadSpec spec = BusySpec();
  const double hours = 1.0;
  std::vector<ProtectionReport> reports;
  for (const double quantum : {1.0, 60.0, std::numeric_limits<double>::infinity()}) {
    FaultyMachine machine(FindInCatalog("MIX1"), 41);
    FarronConfig config;
    Farron farron(suite_, &machine, config, context_);
    SessionOptions options;
    options.protect = true;
    ProtectionSession session(&farron, &machine, suite_, spec, Rng(spec.seed), options);
    session.BeginWorkload(hours);
    while (!session.workload_done()) {
      session.Step(quantum);
    }
    reports.push_back(session.FinishWorkload());
  }
  ExpectReportsIdentical(reports[0], reports[1]);
  ExpectReportsIdentical(reports[0], reports[2]);
}

// Ablation switches must keep working through the session decomposition.
TEST_F(SessionTest, AblationConfigsMatchReference) {
  for (const bool priorities : {true, false}) {
    for (const bool adaptive : {true, false}) {
      WorkloadSpec spec = BusySpec();
      FarronConfig config;
      config.enable_priorities = priorities;
      config.enable_adaptive_boundary = adaptive;

      FaultyMachine session_machine(FindInCatalog("SIMD1"), 33);
      Farron session_farron(suite_, &session_machine, config, context_);
      const ProtectionReport via_session = SimulateProtectedWorkload(
          session_farron, session_machine, *suite_, spec, 1.5, true);

      FaultyMachine reference_machine(FindInCatalog("SIMD1"), 33);
      Farron reference_farron(suite_, &reference_machine, config, context_);
      const ProtectionReport via_reference = SimulateProtectedWorkloadReference(
          reference_farron, reference_machine, *suite_, spec, 1.5, true);

      ExpectReportsIdentical(via_session, via_reference);
    }
  }
}

// Every field of an SDC record, lcore included (the JSON rendering omits it).
auto RecordFields(const SdcRecord& r) {
  return std::tie(r.testcase_id, r.cpu_id, r.pcore, r.lcore, r.sdc_type, r.type, r.expected,
                  r.actual, r.temperature, r.time_seconds);
}

// An unbudgeted RunTestRound funds the whole plan as one chunk: its summary, event
// sequence, metrics and sim trace equal a direct Farron::RunRegularRound on a twin.
TEST_F(SessionTest, FullRoundMatchesRunRegularRound) {
  struct Twin {
    FaultyMachine machine{FindInCatalog("MIX1"), 35};
    EventLog events;
    MetricsRegistry metrics;
    TraceRecorder trace;
    EngineContext context{EngineOptions{.threads = 1,
                                        .env_overrides = false,
                                        .metrics = &metrics,
                                        .trace = &trace,
                                        .event_log = &events}};
    Farron farron;
    explicit Twin(const TestSuite* suite)
        : farron(suite, &machine, FarronConfig(), context) {}

    // Records are compared field by field instead: the round holds ~200k of them, and
    // rendering them as JSON would double the test's run time.
    std::string Render(const FarronRoundSummary& summary) const {
      std::ostringstream out;
      out.precision(17);
      WriteRunReportJson(out, summary.report, /*max_records=*/0);
      out << "\nplan_seconds " << summary.plan_seconds << " deprecated "
          << summary.processor_deprecated << " masked";
      for (const int core : summary.newly_masked_cores) {
        out << ' ' << core;
      }
      out << "\nevents\n";
      events.Dump(out);
      out << "metrics\n";
      WriteMetricsJson(out, metrics.Snapshot(), /*include_timers=*/false);
      out << "\ntrace\n";
      WriteTraceJson(out, trace.Snapshot(), /*include_host=*/false);
      return out.str();
    }
  };

  Twin session_twin(suite_);
  ProtectionSession session(&session_twin.farron, &session_twin.machine, suite_,
                            WorkloadSpec{}, Rng(5), SessionOptions{});
  const double consumed = session.RunTestRound(std::numeric_limits<double>::infinity());
  ASSERT_TRUE(session.last_round_summary().has_value());
  const FarronRoundSummary& via_session = *session.last_round_summary();

  Twin reference_twin(suite_);
  const FarronRoundSummary via_reference = reference_twin.farron.RunRegularRound({});

  EXPECT_EQ(consumed, via_reference.plan_seconds);
  EXPECT_EQ(session.completed_rounds(), 1u);
  EXPECT_GT(via_reference.report.total_errors(), 0u);
  EXPECT_EQ(session_twin.Render(via_session), reference_twin.Render(via_reference));
  const std::vector<SdcRecord>& session_records = via_session.report.records;
  const std::vector<SdcRecord>& reference_records = via_reference.report.records;
  ASSERT_EQ(session_records.size(), reference_records.size());
  for (size_t i = 0; i < session_records.size(); ++i) {
    ASSERT_TRUE(RecordFields(session_records[i]) == RecordFields(reference_records[i]))
        << "record " << i;
  }
}

// Budgeted execution: consumption never overdraws the grant, progress accumulates across
// calls, and the round completes once the whole plan has been funded.
TEST_F(SessionTest, BudgetedRoundsRespectBudgetAndComplete) {
  FaultyMachine machine(FindInCatalog("FPU1"), 31);
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  SessionOptions options;
  options.max_cases_per_round = 4;  // force the chunked path
  ProtectionSession session(&farron, &machine, suite_, WorkloadSpec{}, Rng(5), options);

  const double plan_seconds = session.NextRoundPlanSeconds();
  ASSERT_GT(plan_seconds, 0.0);

  double total_consumed = 0.0;
  const double budget = plan_seconds / 3.0 + 1.0;
  int calls = 0;
  while (session.completed_rounds() == 0 && calls < 64) {
    const double consumed = session.RunTestRound(budget);
    EXPECT_LE(consumed, budget + 1e-9);
    total_consumed += consumed;
    ++calls;
  }
  EXPECT_EQ(session.completed_rounds(), 1u);
  EXPECT_NEAR(total_consumed, plan_seconds, 1e-6);
  ASSERT_TRUE(session.last_round_summary().has_value());
}

// A zero budget funds nothing: no plan entry fits, nothing is consumed, no round
// completes.
TEST_F(SessionTest, ZeroBudgetConsumesNothing) {
  FaultyMachine machine(FindInCatalog("FPU1"), 31);
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  SessionOptions options;
  options.max_cases_per_round = 4;
  ProtectionSession session(&farron, &machine, suite_, WorkloadSpec{}, Rng(5), options);
  EXPECT_EQ(session.RunTestRound(0.0), 0.0);
  EXPECT_EQ(session.completed_rounds(), 0u);
  EXPECT_EQ(session.scheduled_seconds(), 0.0);
}

// Once the pool deprecates the processor, further rounds are refused.
TEST_F(SessionTest, DeprecatedProcessorRefusesRounds) {
  FaultyMachine machine(FindInCatalog("MIX1"), 35);  // all 16 cores defective
  FarronConfig config;
  Farron farron(suite_, &machine, config, context_);
  SessionOptions options;
  ProtectionSession session(&farron, &machine, suite_, WorkloadSpec{}, Rng(5), options);
  for (int round = 0; round < 8 && !farron.pool().processor_deprecated(); ++round) {
    session.RunTestRound(std::numeric_limits<double>::infinity());
  }
  ASSERT_TRUE(farron.pool().processor_deprecated());
  EXPECT_EQ(session.RunTestRound(std::numeric_limits<double>::infinity()), 0.0);
  ASSERT_TRUE(session.last_round_summary().has_value());
  EXPECT_TRUE(session.last_round_summary()->processor_deprecated);
  EXPECT_EQ(session.NextRoundPlanSeconds(), 0.0);
}

}  // namespace
}  // namespace sdc
