// sdcd daemon unit tests (src/daemon/): campaign spec parsing keeps the CLI's strict
// operand discipline on the socket (empty and truncated specs are errors, never default
// campaigns); the line protocol answers malformed requests with err codes rather than
// crashes or defaults; and campaigns multiplexed through one CampaignManager produce
// byte-identical deterministic output (stats JSON, metrics JSON without timers, sim trace
// JSON) to serial one-shot streaming runs. Runs under TSAN in CI: the manager's worker
// threads, the scheduler, and cancellation all execute here.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/context.h"
#include "src/daemon/campaign.h"
#include "src/daemon/protocol.h"
#include "src/daemon/spec.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/scrub/scrubber.h"
#include "src/toolchain/registry.h"

namespace sdc {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing

TEST(CampaignSpecTest, ParsesFullSpec) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=nightly processors=250000 seed=42 lanes=4 scenario.seed=9 "
      "scenario.period_months=3",
      spec, error))
      << error;
  EXPECT_EQ(spec.name, "nightly");
  EXPECT_EQ(spec.processors, 250000u);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.lanes, 4);
  ASSERT_EQ(spec.scenarios.size(), 1u);
  EXPECT_EQ(spec.scenarios[0].config.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.scenarios[0].config.regular_period_months, 3.0);
}

TEST(CampaignSpecTest, SweepExpandsScenarios) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec("sweep=seeds:3", spec, error)) << error;
  ASSERT_EQ(spec.scenarios.size(), 3u);
  EXPECT_EQ(spec.scenarios[1].config.seed, spec.scenarios[0].config.seed + 1);
}

TEST(CampaignSpecTest, RejectsMalformedSpecs) {
  CampaignSpec spec;
  std::string error;
  // The truncated-submit cases: empty and whitespace-only specs.
  EXPECT_FALSE(ParseCampaignSpec("", spec, error));
  EXPECT_EQ(error, "empty campaign spec");
  EXPECT_FALSE(ParseCampaignSpec("   ", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("processors", spec, error));       // no '='
  EXPECT_FALSE(ParseCampaignSpec("processors=", spec, error));      // empty value
  EXPECT_FALSE(ParseCampaignSpec("processors=0", spec, error));     // out of range
  EXPECT_FALSE(ParseCampaignSpec("processors=10x", spec, error));   // trailing garbage
  EXPECT_FALSE(ParseCampaignSpec("lanes=0", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("lanes=-2", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("bogus=1", spec, error));          // unknown key
  EXPECT_FALSE(ParseCampaignSpec("name=", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("scenario.bogus=1", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("sweep=seeds:0", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("sweep=seeds:2 scenario.seed=3", spec, error));
  EXPECT_EQ(error, "sweep= and scenario.* keys are mutually exclusive");
}

TEST(CampaignSpecTest, ParsesScrubSpec) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=bg kind=scrub processors=20000 seed=7 scrub.budget=2e-5 "
      "scrub.horizon_months=3 scrub.epoch_months=0.5 scrub.max_cases=8 "
      "scrub.sample_hours=0.02 scenario.seed=9",
      spec, error))
      << error;
  EXPECT_EQ(spec.kind, "scrub");
  EXPECT_DOUBLE_EQ(spec.scrub_budget_fraction, 2e-5);
  EXPECT_DOUBLE_EQ(spec.scrub_horizon_months, 3.0);
  EXPECT_DOUBLE_EQ(spec.scrub_epoch_months, 0.5);
  EXPECT_EQ(spec.scrub_max_cases, 8u);
  EXPECT_DOUBLE_EQ(spec.scrub_sample_hours, 0.02);
  ASSERT_EQ(spec.scenarios.size(), 1u);  // the discovery scenario
  EXPECT_EQ(spec.scenarios[0].config.seed, 9u);
}

TEST(CampaignSpecTest, RejectsMalformedScrubSpecs) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec("kind=paint", spec, error));  // unknown kind
  EXPECT_FALSE(ParseCampaignSpec("scrub.budget=1e-5", spec, error));
  EXPECT_EQ(error, "scrub.* keys require kind=scrub");
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub sweep=seeds:2", spec, error));
  EXPECT_EQ(error, "kind=scrub runs one discovery scenario; sweep= is not allowed");
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub scrub.budget=-1", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub scrub.horizon_months=0", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub scrub.epoch_months=0", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub scrub.max_cases=8x", spec, error));
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub scrub.sample_hours=-0.1", spec, error));
}

TEST(CampaignSpecTest, RejectsCadencesPastTheStepLimits) {
  CampaignSpec spec;
  std::string error;
  // A period that never reaches the horizon would spin the regular loop to int overflow.
  EXPECT_FALSE(ParseCampaignSpec("scenario.period_months=1e-300", spec, error));
  EXPECT_NE(error.find("period_months"), std::string::npos) << error;
  // Checked once every key is in: the horizon may arrive after the period.
  EXPECT_FALSE(ParseCampaignSpec(
      "scenario.period_months=0.01 scenario.horizon_months=1000", spec, error));
  EXPECT_TRUE(ParseCampaignSpec(
      "scenario.period_months=0.01 scenario.horizon_months=100", spec, error))
      << error;
  EXPECT_FALSE(ParseCampaignSpec("kind=scrub scrub.epoch_months=1e-300", spec, error));
  EXPECT_NE(error.find("scrub.epoch_months"), std::string::npos) << error;
  EXPECT_FALSE(ParseCampaignSpec(
      "kind=scrub scrub.epoch_months=0.01 scrub.horizon_months=100", spec, error));
  EXPECT_TRUE(ParseCampaignSpec(
      "kind=scrub scrub.epoch_months=0.5 scrub.horizon_months=1200", spec, error))
      << error;
}

TEST(CampaignSpecTest, SweepFileLinesObeyTheRoundLimit) {
  const std::string path = ::testing::TempDir() + "sdc_sweep_cadence.txt";
  {
    std::ofstream file(path);
    file << "name=ok period_months=1\n"
         << "name=tiny period_months=1e-300\n";
  }
  std::vector<SweepScenario> scenarios;
  std::string error;
  EXPECT_FALSE(ParseSweepSpec(path, scenarios, error));
  EXPECT_NE(error.find(":2: period_months"), std::string::npos) << error;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, MalformedRequestsGetProtoErrors) {
  CampaignManager manager(1);
  EXPECT_EQ(HandleRequestLine(manager, "").line, "err proto empty request");
  EXPECT_EQ(HandleRequestLine(manager, "frobnicate").line,
            "err proto unknown verb 'frobnicate'");
  // Id-less status is the daemon health line, not an error; every other id verb still
  // requires one.
  EXPECT_EQ(HandleRequestLine(manager, "stats").line,
            "err proto stats needs a campaign id");
  EXPECT_EQ(HandleRequestLine(manager, "wait").line,
            "err proto wait needs a campaign id");
  EXPECT_EQ(HandleRequestLine(manager, "status 1x").line,
            "err proto invalid campaign id '1x'");
  EXPECT_EQ(HandleRequestLine(manager, "status -1").line,
            "err proto invalid campaign id '-1'");
  // Truncated submit: the spec parser's strictness surfaces as err spec.
  EXPECT_EQ(HandleRequestLine(manager, "submit").line,
            "err spec empty campaign spec");
  EXPECT_EQ(HandleRequestLine(manager, "submit processors=").line,
            "err spec invalid processors ''");
}

TEST(ProtocolTest, UnknownIdAndNotDoneAreRuntimeErrors) {
  CampaignManager manager(1);
  EXPECT_EQ(HandleRequestLine(manager, "status 7").line, "err unknown-id no campaign 7");
  EXPECT_EQ(HandleRequestLine(manager, "stats 7").line, "err unknown-id no campaign 7");
  EXPECT_EQ(HandleRequestLine(manager, "cancel 7").line, "err unknown-id no campaign 7");
  EXPECT_EQ(HandleRequestLine(manager, "result 7").line, "err unknown-id no campaign 7");
  EXPECT_EQ(HandleRequestLine(manager, "ping").line, "ok pong");
  const ProtocolReply list = HandleRequestLine(manager, "list");
  EXPECT_EQ(list.line, "ok count=0 bytes=0");
  EXPECT_TRUE(list.payload.empty());
}

TEST(ProtocolTest, IdLessStatusReportsDaemonHealth) {
  CampaignManager manager(3);
  EXPECT_EQ(HandleRequestLine(manager, "status").line,
            "ok lanes=0/3 queued=0 campaigns=0 events=0 dropped=0");
  HandleRequestLine(manager, "submit name=h processors=20000 lanes=1");
  HandleRequestLine(manager, "wait 1");
  const std::string health = HandleRequestLine(manager, "status").line;
  // One campaign through the full lifecycle: submitted + started + finished = 3 events.
  EXPECT_EQ(health, "ok lanes=0/3 queued=0 campaigns=1 events=3 dropped=0") << health;
}

TEST(ProtocolTest, StatusLineCarriesProgressDetectionsAndTimestamps) {
  CampaignManager manager(1);
  HandleRequestLine(manager, "submit name=t processors=20000 seed=5");
  HandleRequestLine(manager, "wait 1");
  const std::string line = HandleRequestLine(manager, "status 1").line;
  EXPECT_NE(line.find(" progress=1.0000"), std::string::npos) << line;
  EXPECT_NE(line.find(" detections="), std::string::npos) << line;
  // All three host timestamps are set once the campaign is done, and they order.
  CampaignStatus status;
  {
    const auto statuses = manager.List();
    ASSERT_EQ(statuses.size(), 1u);
    status = statuses[0];
  }
  EXPECT_GT(status.submit_unix, 0.0);
  EXPECT_GE(status.start_unix, status.submit_unix);
  EXPECT_GE(status.finish_unix, status.start_unix);
  EXPECT_DOUBLE_EQ(status.progress(), 1.0);
  manager.Shutdown();
}

TEST(ProtocolTest, StatsVerbReturnsLiveSeriesInAnyState) {
  CampaignManager manager(2);
  HandleRequestLine(manager, "submit name=s processors=50000 lanes=2");
  // Valid immediately -- queued or running -- not just after completion.
  const ProtocolReply early = HandleRequestLine(manager, "stats 1");
  EXPECT_TRUE(early.line.rfind("ok id=1 name=s", 0) == 0) << early.line;
  EXPECT_FALSE(early.payload.empty());
  EXPECT_EQ(early.payload.front(), '{');
  HandleRequestLine(manager, "wait 1");
  const ProtocolReply done = HandleRequestLine(manager, "stats 1");
  EXPECT_NE(done.line.find("state=done"), std::string::npos) << done.line;
  // A finished screen campaign's series has the full screening trajectory.
  EXPECT_NE(done.payload.find("screening.tested"), std::string::npos);
  EXPECT_NE(done.payload.find("fleet.generate.faulty"), std::string::npos);
  manager.Shutdown();
}

TEST(ProtocolTest, PromVerbEmitsDaemonWideExposition) {
  CampaignManager manager(2);
  HandleRequestLine(manager, "submit name=pa processors=20000 lanes=1");
  HandleRequestLine(manager, "submit name=pb processors=20000 lanes=1");
  HandleRequestLine(manager, "wait 1");
  HandleRequestLine(manager, "wait 2");
  const ProtocolReply prom = HandleRequestLine(manager, "prom");
  EXPECT_EQ(prom.line, "ok bytes=" + std::to_string(prom.payload.size()));
  // Aggregated engine counters, daemon health, and one labelled sample per campaign.
  EXPECT_NE(prom.payload.find("# TYPE sdc_daemon_lanes gauge"), std::string::npos);
  EXPECT_NE(prom.payload.find("sdc_daemon_campaigns_total 2"), std::string::npos);
  EXPECT_NE(prom.payload.find("sdc_campaign_progress{id=\"1\",name=\"pa\"} 1"),
            std::string::npos)
      << prom.payload;
  EXPECT_NE(prom.payload.find("sdc_campaign_progress{id=\"2\",name=\"pb\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.payload.find("sdc_screening_tested_total"), std::string::npos);
  manager.Shutdown();
}

TEST(CampaignManagerTest, TinyEventCapacityDropsOldestAndCounts) {
  // Three campaigns x three lifecycle transitions = 9 events against a 2-slot ring: the
  // log must retain the newest 2 and surface dropped=7 in DaemonStats (and from there
  // the health line and sdc_daemon_events_dropped_total).
  CampaignManager manager(1, /*event_capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    HandleRequestLine(manager,
                      "submit name=d" + std::to_string(i) + " processors=20000");
    HandleRequestLine(manager, "wait " + std::to_string(i + 1));
  }
  const DaemonStats stats = manager.GetDaemonStats();
  EXPECT_EQ(stats.events_recorded, 9u);
  EXPECT_EQ(stats.events_dropped, 7u);
  const std::string health = HandleRequestLine(manager, "status").line;
  EXPECT_NE(health.find("events=9 dropped=7"), std::string::npos) << health;
  const ProtocolReply prom = HandleRequestLine(manager, "prom");
  EXPECT_NE(prom.payload.find("sdc_daemon_events_dropped_total 7"), std::string::npos);
  manager.Shutdown();
}

TEST(CampaignManagerTest, DaemonStatsTracksHostSeries) {
  CampaignManager manager(2);
  HandleRequestLine(manager, "submit name=hs processors=20000 lanes=1");
  HandleRequestLine(manager, "wait 1");
  const DaemonStats stats = manager.GetDaemonStats();
  // Lifecycle transitions append host-clock occupancy samples; they live in the host
  // section by contract (nondeterministic, excluded from byte-compares).
  ASSERT_EQ(stats.host_series.host.count("daemon.lanes_in_use"), 1u);
  ASSERT_EQ(stats.host_series.host.count("daemon.queue_depth"), 1u);
  EXPECT_TRUE(stats.host_series.sim.empty());
  EXPECT_EQ(stats.host_series.host.at("daemon.lanes_in_use").points.size(), 3u);
  manager.Shutdown();
}

TEST(ProtocolTest, SubmitWaitResultRoundTrip) {
  CampaignManager manager(2);
  const ProtocolReply submitted =
      HandleRequestLine(manager, "submit name=t processors=20000 seed=5 lanes=2");
  ASSERT_EQ(submitted.line, "ok id=1");
  EXPECT_EQ(HandleRequestLine(manager, "wait 1").line, "ok state=done");
  const ProtocolReply status = HandleRequestLine(manager, "status 1");
  EXPECT_TRUE(status.line.rfind("ok id=1 name=t state=done lanes=2", 0) == 0)
      << status.line;
  const ProtocolReply result = HandleRequestLine(manager, "result 1");
  EXPECT_EQ(result.line, "ok bytes=" + std::to_string(result.payload.size()));
  EXPECT_FALSE(result.payload.empty());
  EXPECT_EQ(result.payload.front(), '{');
  // Scenario index out of range is a proto error; a second fetch still works (results
  // are stable for the manager's lifetime).
  EXPECT_TRUE(HandleRequestLine(manager, "result 1 3").line.rfind("err proto", 0) == 0);
  EXPECT_EQ(HandleRequestLine(manager, "result 1 0").payload, result.payload);
  const ProtocolReply shutdown = HandleRequestLine(manager, "shutdown");
  EXPECT_EQ(shutdown.line, "ok bye");
  EXPECT_TRUE(shutdown.shutdown);
  manager.Shutdown();
  EXPECT_EQ(HandleRequestLine(manager, "submit processors=1000").line,
            "err shutdown daemon is shutting down");
}

// ---------------------------------------------------------------------------
// Campaign equivalence and cancellation

// The one-shot baseline a daemon campaign must match byte for byte: a fused streaming
// pass of the same spec on a fresh context.
CampaignResult RunOneShot(const CampaignSpec& spec) {
  MetricsRegistry registry;
  TraceRecorder recorder;
  EngineContext context(EngineOptions{.threads = spec.lanes,
                                      .env_overrides = false,
                                      .metrics = &registry,
                                      .trace = &recorder});
  PopulationConfig population;
  population.processor_count = spec.processors;
  population.seed = spec.seed;
  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  ScenarioBatch batch;
  for (const SweepScenario& scenario : spec.scenarios) {
    batch.scenarios.push_back(scenario.config);
  }
  FleetShardStream stream(population);
  StreamingScreen screen(&pipeline, batch);
  stream.Drive({&screen}, context);
  CampaignResult result;
  result.stats = screen.TakeBatchStats();
  result.metrics = registry.Snapshot();
  result.trace = recorder.Snapshot();
  return result;
}

std::string StatsJson(const ScreeningStats& stats) {
  std::ostringstream out;
  WriteScreeningStatsJson(out, stats);
  return out.str();
}

std::string MetricsJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  WriteMetricsJson(out, snapshot, /*include_timers=*/false);
  return out.str();
}

std::string TraceJson(const TraceSnapshot& snapshot) {
  std::ostringstream out;
  WriteTraceJson(out, snapshot, /*include_host=*/false);
  return out.str();
}

void ExpectSameResult(const CampaignResult& daemon, const CampaignResult& one_shot) {
  ASSERT_EQ(daemon.stats.size(), one_shot.stats.size());
  for (size_t k = 0; k < daemon.stats.size(); ++k) {
    EXPECT_EQ(StatsJson(daemon.stats[k]), StatsJson(one_shot.stats[k])) << "scenario " << k;
  }
  EXPECT_EQ(MetricsJson(daemon.metrics), MetricsJson(one_shot.metrics));
  EXPECT_EQ(TraceJson(daemon.trace), TraceJson(one_shot.trace));
}

TEST(CampaignManagerTest, InterleavedCampaignsMatchOneShotRuns) {
  CampaignSpec spec_a;
  std::string error;
  ASSERT_TRUE(
      ParseCampaignSpec("name=a processors=60000 seed=11 lanes=2", spec_a, error));
  CampaignSpec spec_b;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=b processors=90000 seed=22 lanes=2 sweep=seeds:2", spec_b, error));

  const CampaignResult baseline_a = RunOneShot(spec_a);
  const CampaignResult baseline_b = RunOneShot(spec_b);

  // Both campaigns fit the budget together, so they genuinely overlap.
  CampaignManager manager(4);
  const uint64_t id_a = manager.Submit(spec_a);
  const uint64_t id_b = manager.Submit(spec_b);
  ASSERT_EQ(id_a, 1u);
  ASSERT_EQ(id_b, 2u);
  EXPECT_EQ(manager.Wait(id_a), CampaignState::kDone);
  EXPECT_EQ(manager.Wait(id_b), CampaignState::kDone);
  ASSERT_NE(manager.Result(id_a), nullptr);
  ASSERT_NE(manager.Result(id_b), nullptr);
  ExpectSameResult(*manager.Result(id_a), baseline_a);
  ExpectSameResult(*manager.Result(id_b), baseline_b);

  const auto status_a = manager.GetStatus(id_a);
  ASSERT_TRUE(status_a.has_value());
  EXPECT_EQ(status_a->state, CampaignState::kDone);
  EXPECT_EQ(status_a->shards_done, status_a->shards_total);
}

TEST(CampaignManagerTest, AdmissionIsFifoWithinLaneBudget) {
  // One lane total: the second campaign must queue behind the first, and both still
  // complete with correct results.
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec("processors=30000 seed=3", spec, error));
  const CampaignResult baseline = RunOneShot(spec);
  CampaignManager manager(1);
  const uint64_t first = manager.Submit(spec);
  const uint64_t second = manager.Submit(spec);
  EXPECT_EQ(manager.Wait(first), CampaignState::kDone);
  EXPECT_EQ(manager.Wait(second), CampaignState::kDone);
  ExpectSameResult(*manager.Result(first), baseline);
  ExpectSameResult(*manager.Result(second), baseline);
}

TEST(CampaignManagerTest, CancelStopsACampaign) {
  CampaignManager manager(1);
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec("processors=200000 seed=9", spec, error));
  // Saturate the single lane, then cancel a queued campaign: it must never run.
  const uint64_t running = manager.Submit(spec);
  const uint64_t queued = manager.Submit(spec);
  EXPECT_TRUE(manager.Cancel(queued));
  EXPECT_EQ(manager.Wait(queued), CampaignState::kCancelled);
  EXPECT_EQ(manager.Result(queued), nullptr);
  // Cancelling the running campaign stops it at a shard boundary (or it finished first;
  // both are terminal, neither hangs).
  EXPECT_TRUE(manager.Cancel(running));
  const auto state = manager.Wait(running);
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(*state == CampaignState::kCancelled || *state == CampaignState::kDone);
  EXPECT_FALSE(manager.Cancel(999));  // unknown id
}

// ---------------------------------------------------------------------------
// Scrub campaigns

// The spec a scrub campaign is tested with: small fleet, short horizon, narrow test
// windows -- cheap enough for TSAN while still funding real sessions.
constexpr char kScrubSpec[] =
    "name=bg kind=scrub processors=20000 seed=20210101 lanes=2 scrub.budget=2e-5 "
    "scrub.horizon_months=3 scrub.max_cases=8 scrub.sample_hours=0.02";

std::string ScrubJson(const ScrubReport& report) {
  std::ostringstream out;
  WriteScrubReportJson(out, report);
  return out.str();
}

TEST(CampaignManagerTest, ScrubCampaignMatchesDirectRun) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(kScrubSpec, spec, error)) << error;

  // The direct baseline: the same ScrubConfig the campaign branch builds, run without
  // the daemon. The report must match byte for byte (it is thread-count independent, so
  // the lane grant cannot show through).
  ScrubConfig config;
  config.population.processor_count = spec.processors;
  config.population.seed = spec.seed;
  config.screening = spec.scenarios.front().config;
  config.budget_fraction = spec.scrub_budget_fraction;
  config.horizon_months = spec.scrub_horizon_months;
  config.max_cases_per_round = spec.scrub_max_cases;
  config.workload_sample_hours = spec.scrub_sample_hours;
  const TestSuite suite = TestSuite::BuildFull();
  EngineContext serial(EngineOptions{.threads = 1, .env_overrides = false});
  const ScrubReport baseline = FleetScrubber(&suite).Run(config, serial);

  CampaignManager manager(2);
  const uint64_t id = manager.Submit(spec);
  EXPECT_EQ(manager.Wait(id), CampaignState::kDone);
  const CampaignResult* result = manager.Result(id);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->scrub.has_value());
  EXPECT_TRUE(result->stats.empty());  // scrub campaigns publish the report, not stats
  EXPECT_EQ(ScrubJson(*result->scrub), ScrubJson(baseline));

  // The progress ledger counted epochs, not stream shards.
  const auto status = manager.GetStatus(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->shards_total, baseline.timeline.size());
  EXPECT_EQ(status->shards_done, status->shards_total);

  // The protocol's result verb renders the scrub report and rejects scenario indices.
  const ProtocolReply reply = HandleRequestLine(manager, "result " + std::to_string(id));
  EXPECT_EQ(reply.payload, ScrubJson(baseline));
  EXPECT_EQ(HandleRequestLine(manager, "result " + std::to_string(id) + " 0").line,
            "err proto scrub campaigns have no scenario index");
}

TEST(CampaignManagerTest, CancelStopsAScrubCampaignAtAnEpochBoundary) {
  CampaignManager manager(1);
  CampaignSpec spec;
  std::string error;
  // A long horizon so the epoch loop, not discovery, dominates: the cancel request is
  // observed by the next epoch_tick and the run abandons its remaining epochs.
  ASSERT_TRUE(ParseCampaignSpec(
      "kind=scrub processors=150000 scrub.horizon_months=1200 scrub.budget=2e-5 "
      "scrub.max_cases=8 scrub.sample_hours=0.02",
      spec, error))
      << error;
  const uint64_t id = manager.Submit(spec);
  EXPECT_TRUE(manager.Cancel(id));
  const auto state = manager.Wait(id);
  ASSERT_TRUE(state.has_value());
  // Cancelled at the boundary, or it won the race and finished; neither hangs.
  EXPECT_TRUE(*state == CampaignState::kCancelled || *state == CampaignState::kDone);
  if (*state == CampaignState::kCancelled) {
    EXPECT_EQ(manager.Result(id), nullptr);  // a cancelled run publishes no report
  }
}

TEST(CampaignManagerTest, ShutdownCancelsOutstandingCampaigns) {
  CampaignManager manager(1);
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec("processors=200000 seed=9", spec, error));
  const uint64_t a = manager.Submit(spec);
  const uint64_t b = manager.Submit(spec);
  manager.Shutdown();  // joins both workers; nothing may hang
  for (const uint64_t id : {a, b}) {
    const auto status = manager.GetStatus(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->state == CampaignState::kCancelled ||
                status->state == CampaignState::kDone);
  }
  EXPECT_EQ(manager.Submit(spec), 0u);  // post-shutdown submits are refused
}

}  // namespace
}  // namespace sdc
