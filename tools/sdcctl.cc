// sdcctl: command-line front end for the SDC study and mitigation library.
//
//   sdcctl catalog                                    list the 27 studied faulty processors
//   sdcctl suite [substring]                          list toolchain testcases
//   sdcctl sweep <cpu_id> [seconds_per_case]          adequate full-suite sweep of one part
//   sdcctl screen <processor_count>                   fleet screening summary (Tables 1-2)
//   sdcctl frequency <cpu_id> <testcase_id> <pcore> <tempC> [duration_s]
//                                                     occurrence frequency of one setting
//   sdcctl protect <cpu_id> [hours]                   Farron lifecycle on one part
//   sdcctl metrics [processor_count]                  generate+screen, metrics JSON only
//   sdcctl trace [processor_count]                    generate+screen, trace summary
//                                                     (per-stage span counts, sim-time
//                                                     attribution, slowest host spans)
//   sdcctl scrub [--budget F] [--hours H] [--fleet N] fleet-wide budgeted scrub: discovery
//                                                     screen plus the prioritized
//                                                     in-production epoch loop; scrub
//                                                     report JSON to stdout
//                                                     (docs/scrubbing.md)
//
// Global flags (accepted anywhere on the command line):
//   --threads N        worker count for the parallel hot paths: fleet generation,
//                      screening, and the per-entry isolated plan execution of `sweep` /
//                      `export sweep:CPU`. N=0 means hardware concurrency; SDC_THREADS
//                      overrides N. Results are bit-identical at every thread count,
//                      whether or not the flag is given.
//   --metrics-out FILE attach a MetricsRegistry to the command's hot paths and write the
//                      snapshot JSON (docs/observability.md) to FILE after the command
//                      finishes. FILE may be `-` for stdout; the command's human-readable
//                      output then moves to stderr so stdout is exactly the JSON document.
//   --trace-out FILE   attach a TraceRecorder to the command's hot paths and write the
//                      Chrome/Perfetto trace-event JSON (docs/observability.md) to FILE
//                      after the command finishes. FILE may be `-` for stdout, with the
//                      same stdout/stderr discipline as --metrics-out.
//   --prom-out FILE    write the same metrics snapshot as Prometheus text exposition
//                      (docs/observability.md) instead of JSON; composes with
//                      --metrics-out (one run, both renderings) and follows the same
//                      `-`/file discipline.
//   --series-out FILE  attach a SeriesRecorder to the command's hot paths and write the
//                      time-series snapshot JSON (docs/observability.md) to FILE after
//                      the command finishes; same `-`/file discipline. Sim series are
//                      byte-identical at any --threads.
//   --stream           accepted and ignored: the fleet commands (screen, metrics, trace,
//                      export screening) always run one fused generate->screen shard pass
//                      (docs/streaming.md) with O(threads x shard) peak memory.
//   --processors N     fleet-size override for the fleet commands; wins over positional
//                      counts and defaults, so 10^8-processor streaming runs are a flag.
//   --seed S           fleet generation seed override for the same commands.
//   --sweep SPEC       batched multi-scenario screening (docs/performance.md): `screen`
//                      evaluates K scenarios against ONE fleet in ONE pass and prints a
//                      per-scenario table. SPEC is `seeds:K` (K scenarios differing only
//                      in screening seed) or a scenario file: one scenario per line of
//                      whitespace-separated key=value pairs drawn from name, seed,
//                      period_months, horizon_months, regular_groups, and
//                      stage.<factory|datacenter|reinstall|regular>.<seconds|temp|catch>.
//                      Every row is byte-identical to a separate single-scenario run.
//   --socket PATH      client mode: forward the command as a protocol verb to the sdcd
//                      daemon listening at PATH (docs/daemon.md) -- submit, status,
//                      stats, list, wait, cancel, result, metrics, trace, prom, ping,
//                      shutdown. Campaign results fetched this way are byte-identical to
//                      the one-shot streaming run of the same spec. The `top` command
//                      (client mode only) polls status+list and renders a refreshing
//                      per-campaign table: state, progress, detections, shards/s, ETA.
//
// Numeric operands are parsed strictly (src/common/parse.h): empty input, trailing
// garbage, overflow, and negative values where an unsigned count is expected are usage
// errors (exit 2), not silent zeroes.
//
// Everything is deterministic; see README.md for the library behind each command.

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/repro.h"
#include "src/common/context.h"
#include "src/common/parse.h"
#include "src/common/table.h"
#include "src/daemon/client.h"
#include "src/daemon/spec.h"
#include "src/farron/baseline.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"
#include "src/scrub/scrubber.h"
#include "src/telemetry/event_log.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/series.h"
#include "src/telemetry/trace.h"

namespace sdc {
namespace {

struct GlobalOptions {
  int threads = 0;        // worker count for parallel paths (0 = hardware concurrency)
  std::string metrics_out;   // --metrics-out target; empty = no metrics export
  MetricsRegistry* metrics = nullptr;  // non-null when a snapshot will be written
  std::string trace_out;     // --trace-out target; empty = no trace export
  TraceRecorder* trace = nullptr;  // non-null when a trace will be written or summarized
  std::string prom_out;      // --prom-out target; empty = no Prometheus export
  std::string series_out;    // --series-out target; empty = no series export
  SeriesRecorder* series = nullptr;  // non-null when a series snapshot will be written
  uint64_t processors = 0;   // --processors override for the fleet commands
  bool processors_set = false;
  uint64_t seed = 0;         // --seed override for fleet generation
  bool seed_set = false;
  std::string sweep_spec;    // --sweep operand; empty = single-scenario commands
  std::string socket_path;   // --socket operand; non-empty = sdcd client mode
};

// Applies the global fleet overrides to a population config. The --processors / --seed
// flags win over positional operands and built-in defaults, so large streaming runs never
// require recompiling config structs.
void ApplyFleetOverrides(PopulationConfig& config, const GlobalOptions& options) {
  if (options.processors_set) {
    config.processor_count = options.processors;
  }
  if (options.seed_set) {
    config.seed = options.seed;
  }
}

// The engine the fleet, scrub, sweep and protect commands run on: --threads lanes plus
// every sink the command exports. SDC_THREADS / SDC_SIMD still override, read once when it
// is built.
EngineOptions FleetEngineOptions(const GlobalOptions& options) {
  return EngineOptions{.threads = options.threads,
                       .metrics = options.metrics,
                       .trace = options.trace,
                       .series = options.series};
}

// Batched generate+screen of `processor_count` parts (after the global overrides): one
// fused shard pass with O(threads * shard) peak memory (docs/streaming.md). Returns one
// ScreeningStats per scenario of `batch`.
std::vector<ScreeningStats> ScreenFleet(uint64_t processor_count, const ScenarioBatch& batch,
                                        const GlobalOptions& options) {
  PopulationConfig population_config;
  population_config.processor_count = processor_count;
  ApplyFleetOverrides(population_config, options);
  const TestSuite suite = TestSuite::BuildFull();
  const ScreeningPipeline pipeline(&suite);
  EngineContext context(FleetEngineOptions(options));
  StreamingScreen screen(&pipeline, batch);
  FleetShardStream(population_config).Drive({&screen}, context);
  return screen.TakeBatchStats();
}

// Single-scenario form: the default screening config, a batch of one.
ScreeningStats ScreenFleet(uint64_t processor_count, const GlobalOptions& options) {
  return std::move(
      ScreenFleet(processor_count, ScenarioBatch{.scenarios = {ScreeningConfig()}}, options)
          .front());
}

// Usage error helper: strict-parsing failures report what was wrong and exit 2, the same
// status Usage() returns, so scripts can distinguish bad invocations from run failures.
int InvalidOperand(const char* what, const char* text) {
  std::cerr << "sdcctl: invalid " << what << ": '" << text << "'\n";
  return 2;
}

int CmdCatalog() {
  TextTable table({"cpu", "arch", "age(Y)", "cores", "defective", "type", "defects"});
  for (const FaultyProcessorInfo& info : StudyCatalog()) {
    std::string defect_ids;
    for (const Defect& defect : info.defects) {
      defect_ids += defect.id + " ";
    }
    table.AddRow({info.cpu_id, info.arch, FormatDouble(info.age_years, 2),
                  std::to_string(info.spec.physical_cores),
                  std::to_string(info.defective_pcore_count()),
                  SdcTypeName(info.sdc_type()), defect_ids});
  }
  table.Print(std::cout);
  return 0;
}

int CmdSuite(const std::string& filter) {
  const TestSuite suite = TestSuite::BuildFull();
  TextTable table({"id", "feature", "style", "mt"});
  size_t shown = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    const TestcaseInfo& info = suite.info(i);
    if (!filter.empty() && info.id.find(filter) == std::string::npos) {
      continue;
    }
    ++shown;
    table.AddRow({info.id, FeatureName(info.target), TestcaseStyleName(info.style),
                  info.multithreaded ? "yes" : ""});
  }
  table.Print(std::cout);
  std::cout << shown << " / " << suite.size() << " testcases\n";
  return 0;
}

// The hot-environment run of `sweep` and `export sweep:CPU`. Entries always run isolated,
// so the output is the same at every lane count, with or without --threads.
TestRunConfig SweepRunConfig() {
  TestRunConfig config;
  config.time_scale = 2e7;
  config.simultaneous_cores = true;
  config.burn_in_seconds = 300.0;
  config.seed = 3;
  config.parallel_plan_entries = true;
  return config;
}

int CmdSweep(const std::string& cpu_id, double seconds_per_case,
             const GlobalOptions& options) {
  if (!TryFindInCatalog(cpu_id).has_value()) {
    std::cerr << "unknown cpu id: " << cpu_id << " (see: sdcctl catalog)\n";
    return 1;
  }
  const TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine(FindInCatalog(cpu_id), 1);
  std::cout << "sweeping " << cpu_id << " with " << suite.size() << " testcases at "
            << seconds_per_case << " s/case (hot environment)...\n";
  EngineContext context(FleetEngineOptions(options));
  const RunReport report =
      framework.RunPlan(machine, framework.EqualPlan(seconds_per_case), SweepRunConfig(),
                        context);
  TextTable table({"failing testcase", "errors", "freq (/min)"});
  for (const TestcaseResult& result : report.results) {
    if (result.failed()) {
      table.AddRow({result.testcase_id, std::to_string(result.errors),
                    FormatDouble(result.OccurrenceFrequencyPerMinute(), 3)});
    }
  }
  table.Print(std::cout);
  std::cout << report.failed_testcase_ids().size() << " failing testcases, "
            << report.total_errors() << " total errors\n";
  return 0;
}

// Batched `screen --sweep`: K scenarios against one fleet in one pass (batched
// StreamingScreen). The table rows are
// byte-identical to K separate `screen` runs; any attached metrics/trace sink receives
// every scenario's deltas.
int CmdScreenSweep(uint64_t processor_count, const std::vector<SweepScenario>& scenarios,
                   const GlobalOptions& options) {
  ScenarioBatch batch;
  batch.scenarios.reserve(scenarios.size());
  for (const SweepScenario& scenario : scenarios) {
    batch.scenarios.push_back(scenario.config);
  }
  const std::vector<ScreeningStats> stats = ScreenFleet(processor_count, batch, options);
  TextTable table({"scenario", "seed", "period(m)", "factory", "datacenter", "re-install",
                   "regular", "total", "rate"});
  for (size_t k = 0; k < stats.size(); ++k) {
    const ScreeningConfig& config = batch.scenarios[k];
    table.AddRow({scenarios[k].name, std::to_string(config.seed),
                  FormatDouble(config.regular_period_months, 1),
                  std::to_string(stats[k].detected_by_stage[0]),
                  std::to_string(stats[k].detected_by_stage[1]),
                  std::to_string(stats[k].detected_by_stage[2]),
                  std::to_string(stats[k].detected_by_stage[3]),
                  std::to_string(stats[k].total_detected()),
                  FormatPermyriad(stats[k].TotalRate())});
  }
  table.Print(std::cout);
  return 0;
}

int CmdScreen(uint64_t processor_count, const GlobalOptions& options) {
  const ScreeningStats stats = ScreenFleet(processor_count, options);
  TextTable table({"stage", "detections", "rate"});
  for (int stage = 0; stage < kStageCount; ++stage) {
    table.AddRow({StageName(static_cast<TestStage>(stage)),
                  std::to_string(stats.detected_by_stage[stage]),
                  FormatPermyriad(stats.StageRate(static_cast<TestStage>(stage)))});
  }
  table.AddRow({"total", std::to_string(stats.total_detected()),
                FormatPermyriad(stats.TotalRate())});
  table.Print(std::cout);
  return 0;
}

// Quiet generate+screen whose only product is the metric stream: the snapshot covers
// fleet.generate.* and screening.* for a standard run. Main routes the snapshot JSON to
// stdout (or wherever --metrics-out points).
int CmdMetrics(uint64_t processor_count, const GlobalOptions& options) {
  (void)ScreenFleet(processor_count, options);
  return 0;
}

// Generate+screen whose human-readable product is the trace summary: per-category span
// counts, sim-time attribution, and the slowest host spans. Combine with --trace-out to
// also export the full Perfetto JSON.
int CmdTrace(uint64_t processor_count, const GlobalOptions& options) {
  const ScreeningStats stats = ScreenFleet(processor_count, options);
  SummarizeTrace(options.trace->Snapshot()).DumpText(std::cout);
  std::cout << stats.provenance.size() << " detections, each with a provenance record\n";
  return 0;
}

int CmdFrequency(const std::string& cpu_id, const std::string& testcase_id, int pcore,
                 double temperature, double duration) {
  if (!TryFindInCatalog(cpu_id).has_value()) {
    std::cerr << "unknown cpu id: " << cpu_id << " (see: sdcctl catalog)\n";
    return 1;
  }
  const TestSuite suite = TestSuite::BuildFull();
  const int index = suite.IndexOf(testcase_id);
  if (index < 0) {
    std::cerr << "unknown testcase id: " << testcase_id << "\n";
    return 1;
  }
  TestFramework framework(&suite);
  FaultyMachine machine(FindInCatalog(cpu_id), 1);
  EngineContext context(EngineOptions{.threads = 1, .env_overrides = false});
  const double frequency =
      MeasureOccurrenceFrequency(machine, framework, context, static_cast<size_t>(index),
                                 pcore, temperature, duration, 17);
  std::cout << cpu_id << " / " << testcase_id << " / pcore" << pcore << " @ "
            << temperature << " C: " << FormatDouble(frequency, 5) << " errors/min over "
            << duration << " simulated seconds\n";
  return 0;
}

int CmdProtect(const std::string& cpu_id, double hours, const GlobalOptions& options) {
  const auto maybe_info = TryFindInCatalog(cpu_id);
  if (!maybe_info.has_value()) {
    std::cerr << "unknown cpu id: " << cpu_id << " (see: sdcctl catalog)\n";
    return 1;
  }
  const TestSuite suite = TestSuite::BuildFull();
  const FaultyProcessorInfo info = *maybe_info;
  FaultyMachine machine(info, 7);
  // Farron's lifecycle events land in the log; with a registry attached the log bridges
  // each kind into an "events.*" counter alongside the protection loop's own metrics.
  EventLog event_log;
  event_log.AttachMetrics(options.metrics);
  EngineContext context(FleetEngineOptions(options));
  context.AttachEventLog(&event_log);
  Farron farron(&suite, &machine, FarronConfig(), context);
  std::cout << "[pre-production] testing " << cpu_id << "...\n";
  const FarronRoundSummary pre = farron.RunPreProduction();
  std::cout << "  failing cases: " << pre.report.failed_testcase_ids().size()
            << ", masked cores: " << pre.newly_masked_cores.size() << ", deprecated: "
            << (pre.processor_deprecated ? "yes" : "no") << "\n";
  if (pre.processor_deprecated) {
    return 0;
  }
  WorkloadSpec spec;
  spec.kernel_case_index =
      static_cast<size_t>(suite.IndexOf("lib.math.fp_arctan.f64.n256"));
  std::cout << "[online] protected workload for " << hours << " h...\n";
  const ProtectionReport report =
      SimulateProtectedWorkload(farron, machine, suite, spec, hours, true);
  std::cout << "  SDC events: " << report.sdc_events << ", backoff "
            << FormatDouble(report.BackoffSecondsPerHour(), 2) << " s/h, max temp "
            << FormatDouble(report.max_temperature, 1) << " C\n";
  const FarronRoundSummary round = farron.RunRegularRound({});
  std::cout << "[online] regular round: " << FormatDouble(round.plan_seconds / 3600.0, 2)
            << " h (baseline "
            << FormatDouble(
                   BaselinePolicy(&suite, BaselineConfig()).RoundDurationSeconds() / 3600.0,
                   2)
            << " h)\n";
  return 0;
}

// Fleet-wide budgeted scrub (docs/scrubbing.md): discovery screen, then the prioritized
// in-production epoch loop; the scrub report JSON lands on stdout. The report is a pure
// function of the flags -- byte-identical at any --threads -- which
// tools/check_scrub_json.py relies on. --hours is the production horizon in
// simulated hours (730.56 h per 30.44-day month); --fleet and the global --processors /
// --seed compose, with the global overrides winning as everywhere else.
int CmdScrub(int argc, char** argv, const GlobalOptions& options) {
  ScrubConfig config;
  config.population.processor_count = 100000;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--budget") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --budget requires an operand (fraction of fleet cycles)\n";
        return 2;
      }
      const auto parsed = ParseDouble(argv[++i]);
      if (!parsed.has_value() || *parsed < 0.0) {
        return InvalidOperand("--budget operand", argv[i]);
      }
      config.budget_fraction = *parsed;
      continue;
    }
    if (std::strcmp(argv[i], "--hours") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --hours requires an operand (simulated horizon hours)\n";
        return 2;
      }
      const auto parsed = ParseDouble(argv[++i]);
      if (!parsed.has_value() || *parsed <= 0.0) {
        return InvalidOperand("--hours operand", argv[i]);
      }
      config.horizon_months = *parsed / (30.44 * 24.0);
      continue;
    }
    if (std::strcmp(argv[i], "--fleet") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --fleet requires an operand (processor count)\n";
        return 2;
      }
      const auto parsed = ParseUint64(argv[++i]);
      if (!parsed.has_value() || *parsed < 1) {
        return InvalidOperand("--fleet operand", argv[i]);
      }
      config.population.processor_count = *parsed;
      continue;
    }
    return InvalidOperand("scrub operand", argv[i]);
  }
  if (std::string error;
      !CheckStepCount(config.horizon_months, config.epoch_months, kMaxScrubEpochs,
                      "epoch_months", error)) {
    std::cerr << "sdcctl: --hours: " << error << "\n";
    return 2;
  }
  ApplyFleetOverrides(config.population, options);
  const TestSuite suite = TestSuite::BuildFull();
  EngineContext context(FleetEngineOptions(options));
  WriteScrubReportJson(std::cout, FleetScrubber(&suite).Run(config, context));
  std::cout << "\n";
  return 0;
}

int CmdExport(const std::string& what, const GlobalOptions& options) {
  if (what == "catalog") {
    WriteCatalogJson(std::cout, StudyCatalog());
    return 0;
  }
  if (what == "screening") {
    WriteScreeningStatsJson(std::cout, ScreenFleet(250000, options));
    return 0;
  }
  if (what.rfind("sweep:", 0) == 0) {
    const std::string cpu_id = what.substr(6);
    if (!TryFindInCatalog(cpu_id).has_value()) {
      std::cerr << "unknown cpu id: " << cpu_id << "\n";
      return 1;
    }
    const TestSuite suite = TestSuite::BuildFull();
    TestFramework framework(&suite);
    FaultyMachine machine(FindInCatalog(cpu_id), 1);
    EngineContext context(FleetEngineOptions(options));
    WriteRunReportJson(std::cout, framework.RunPlan(machine, framework.EqualPlan(30.0),
                                                    SweepRunConfig(), context));
    return 0;
  }
  std::cerr << "export targets: catalog | screening | sweep:<cpu_id>\n";
  return 2;
}

// One row of the `top` table, parsed from a protocol status line (the key=value form
// FormatCampaignStatus renders). Unknown keys are skipped, so the client tolerates
// daemons that add fields.
struct TopRow {
  uint64_t id = 0;
  std::string name;
  std::string state;
  int lanes = 0;
  uint64_t shards_done = 0;
  uint64_t shards_total = 0;
  uint64_t detections = 0;
  double progress = 0.0;
};

bool ParseTopRow(const std::string& line, TopRow& row) {
  std::istringstream tokens(line);
  std::string token;
  bool saw_id = false;
  while (tokens >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      continue;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "id") {
      const auto parsed = ParseUint64(value.c_str());
      if (!parsed.has_value()) {
        return false;
      }
      row.id = *parsed;
      saw_id = true;
    } else if (key == "name") {
      row.name = value;
    } else if (key == "state") {
      row.state = value;
    } else if (key == "lanes") {
      const auto parsed = ParseInt(value.c_str());
      row.lanes = parsed.has_value() ? *parsed : 0;
    } else if (key == "shards") {
      const size_t slash = value.find('/');
      if (slash == std::string::npos) {
        return false;
      }
      const auto done = ParseUint64(value.substr(0, slash).c_str());
      const auto total = ParseUint64(value.substr(slash + 1).c_str());
      if (!done.has_value() || !total.has_value()) {
        return false;
      }
      row.shards_done = *done;
      row.shards_total = *total;
    } else if (key == "detections") {
      const auto parsed = ParseUint64(value.c_str());
      row.detections = parsed.has_value() ? *parsed : 0;
    } else if (key == "progress") {
      const auto parsed = ParseDouble(value.c_str());
      row.progress = parsed.has_value() ? *parsed : 0.0;
    }
  }
  return saw_id;
}

// `sdcctl --socket PATH top`: live campaign table over a running sdcd. Each poll fetches
// the daemon-wide status line plus `list` and renders one screen: state, progress,
// detections, client-side shards/s (ledger delta across successive polls), and the ETA
// that rate implies. --iterations 0 polls until interrupted or the daemon goes away;
// tests pass a finite count. ANSI clear codes are emitted only on a tty, so redirected
// output is a plain append-only log of refreshes.
int CmdTop(int argc, char** argv, const std::string& socket_path) {
  uint64_t iterations = 0;
  uint64_t interval_ms = 1000;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iterations") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --iterations requires an operand\n";
        return 2;
      }
      const auto parsed = ParseUint64(argv[++i]);
      if (!parsed.has_value()) {
        return InvalidOperand("--iterations operand", argv[i]);
      }
      iterations = *parsed;
      continue;
    }
    if (std::strcmp(argv[i], "--interval-ms") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --interval-ms requires an operand\n";
        return 2;
      }
      const auto parsed = ParseUint64(argv[++i]);
      if (!parsed.has_value() || *parsed == 0) {
        return InvalidOperand("--interval-ms operand", argv[i]);
      }
      interval_ms = *parsed;
      continue;
    }
    return InvalidOperand("top operand", argv[i]);
  }

  DaemonClient client(socket_path);
  std::string error;
  if (!client.Connect(error)) {
    std::cerr << "sdcctl: " << error << "\n";
    return 1;
  }
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::map<uint64_t, uint64_t> last_done;  // campaign id -> shards_done last poll
  for (uint64_t poll = 0; iterations == 0 || poll < iterations; ++poll) {
    if (poll > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::string health_line;
    std::string health_payload;
    if (!client.Request("status", health_line, health_payload, error)) {
      std::cerr << "sdcctl: " << error << "\n";
      return 1;
    }
    std::string list_line;
    std::string list_payload;
    if (!client.Request("list", list_line, list_payload, error)) {
      std::cerr << "sdcctl: " << error << "\n";
      return 1;
    }
    if (health_line.rfind("err ", 0) == 0 || list_line.rfind("err ", 0) == 0) {
      const std::string& err_line =
          health_line.rfind("err ", 0) == 0 ? health_line : list_line;
      std::cerr << "sdcctl: daemon: " << err_line.substr(4) << "\n";
      return 1;
    }
    if (tty) {
      std::cout << "\x1b[H\x1b[2J";  // cursor home + clear: one refreshing screen
    }
    std::cout << "sdcd " << socket_path << " -- "
              << (health_line.rfind("ok ", 0) == 0 ? health_line.substr(3) : health_line)
              << "\n";
    TextTable table(
        {"id", "name", "state", "lanes", "shards", "prog", "det", "shards/s", "eta(s)"});
    std::istringstream lines(list_payload);
    std::string status_line;
    while (std::getline(lines, status_line)) {
      TopRow row;
      if (!ParseTopRow(status_line, row)) {
        continue;
      }
      // Client-side rate from the ledger delta across polls; a campaign's first
      // appearance (and non-running states) show "-".
      std::string rate_text = "-";
      std::string eta_text = "-";
      const auto previous = last_done.find(row.id);
      if (previous != last_done.end() && row.state == "running") {
        const double rate = static_cast<double>(row.shards_done - previous->second) *
                            1000.0 / static_cast<double>(interval_ms);
        rate_text = FormatDouble(rate, 1);
        if (rate > 0.0) {
          eta_text = FormatDouble(
              static_cast<double>(row.shards_total - row.shards_done) / rate, 1);
        }
      }
      last_done[row.id] = row.shards_done;
      table.AddRow({std::to_string(row.id), row.name, row.state,
                    std::to_string(row.lanes),
                    std::to_string(row.shards_done) + "/" +
                        std::to_string(row.shards_total),
                    FormatDouble(row.progress * 100.0, 1) + "%",
                    std::to_string(row.detections), rate_text, eta_text});
    }
    table.Print(std::cout);
    std::cout.flush();
  }
  return 0;
}

// Client mode (--socket): forwards one protocol verb verbatim to a running sdcd
// (docs/daemon.md) and maps the reply onto the CLI's exit-status discipline -- usage
// errors the daemon flags as `err proto` / `err spec` exit 2 like any other malformed
// operand; runtime conditions (unknown id, campaign not done, daemon shutting down, no
// daemon at the socket) exit 1. Payload-bearing replies (result / metrics / trace / list)
// put exactly the payload on stdout so client output can be diffed against one-shot runs.
int RunClient(int argc, char** argv, const std::string& socket_path) {
  std::string request = argv[1];
  for (int i = 2; i < argc; ++i) {
    request += ' ';
    request += argv[i];
  }
  DaemonClient client(socket_path);
  std::string error;
  if (!client.Connect(error)) {
    std::cerr << "sdcctl: " << error << "\n";
    return 1;
  }
  std::string reply_line;
  std::string payload;
  if (!client.Request(request, reply_line, payload, error)) {
    std::cerr << "sdcctl: " << error << "\n";
    return 1;
  }
  if (reply_line.rfind("err ", 0) == 0) {
    std::cerr << "sdcctl: daemon: " << reply_line.substr(4) << "\n";
    const size_t code_end = reply_line.find(' ', 4);
    const std::string code = reply_line.substr(4, code_end == std::string::npos
                                                      ? std::string::npos
                                                      : code_end - 4);
    return code == "proto" || code == "spec" ? 2 : 1;
  }
  if (!payload.empty()) {
    std::cout << payload;
    if (payload.back() != '\n') {
      std::cout << "\n";
    }
  } else {
    std::cout << reply_line << "\n";
  }
  return 0;
}

int Usage() {
  std::cerr << "usage: sdcctl [--threads N] [--metrics-out FILE] [--trace-out FILE] "
               "[--stream] [--processors N] [--seed S]\n"
               "              <catalog|suite|sweep|screen|scrub|frequency|protect|export"
               "|metrics|trace> [args]\n"
               "  catalog\n"
               "  suite [substring]\n"
               "  sweep <cpu_id> [seconds_per_case=30]\n"
               "  screen <processor_count>\n"
               "  scrub [--budget F] [--hours H] [--fleet N]\n"
               "                     fleet-wide budgeted scrub (docs/scrubbing.md): screen\n"
               "                     the fleet, then run the prioritized in-production\n"
               "                     scrubber; report JSON to stdout. --budget = fraction\n"
               "                     of fleet cycles spent testing (default 1e-5),\n"
               "                     --hours = simulated horizon (default 8766 ~ 12\n"
               "                     months), --fleet = processor count (default 100000;\n"
               "                     --processors/--seed/--threads compose)\n"
               "  frequency <cpu_id> <testcase_id> <pcore> <tempC> [duration_s=3600]\n"
               "  protect <cpu_id> [hours=4]\n"
               "  export <catalog|screening|sweep:CPU>   (JSON to stdout)\n"
               "  metrics [processor_count=100000]       (metrics JSON to stdout)\n"
               "  trace [processor_count=100000]         (trace summary to stdout)\n"
               "  --threads N        workers for generation/screening/sweeps; 0 = hardware\n"
               "                     concurrency; results are identical at any thread count\n"
               "  --metrics-out FILE write the run's metrics snapshot JSON to FILE\n"
               "                     (`-` = stdout; tables then move to stderr)\n"
               "  --trace-out FILE   write the run's Chrome/Perfetto trace-event JSON to\n"
               "                     FILE (`-` = stdout, same discipline); load it in\n"
               "                     ui.perfetto.dev or chrome://tracing\n"
               "  --prom-out FILE    write the run's metrics as Prometheus text exposition\n"
               "                     to FILE (`-` = stdout, same discipline); composes\n"
               "                     with --metrics-out (one run, both renderings)\n"
               "  --series-out FILE  write the run's time-series snapshot JSON to FILE\n"
               "                     (`-` = stdout, same discipline); sim series are\n"
               "                     byte-identical at any --threads\n"
               "  --stream           accepted and ignored: the fleet commands always run\n"
               "                     one fused generate->screen pass with O(threads x\n"
               "                     shard) peak memory\n"
               "  --processors N     fleet-size override for the fleet commands (wins over\n"
               "                     positional counts and built-in defaults)\n"
               "  --seed S           fleet generation seed override for the same commands\n"
               "  --sweep SPEC       batch K screening scenarios against one fleet in one\n"
               "                     pass (screen only). SPEC is\n"
               "                     seeds:K or a scenario file: one scenario per line of\n"
               "                     key=value pairs (name, seed, period_months,\n"
               "                     horizon_months, regular_groups,\n"
               "                     stage.<factory|datacenter|reinstall|regular>\n"
               "                     .<seconds|temp|catch>). Each row is byte-identical\n"
               "                     to a separate single-scenario run\n"
               "  --socket PATH      talk to a running sdcd at PATH instead of running\n"
               "                     locally. Commands become protocol verbs\n"
               "                     (docs/daemon.md):\n"
               "                       submit <key=value ...>   enqueue a campaign\n"
               "                       status [id] | stats <id> | list | wait <id>\n"
               "                       cancel <id> | result <id> [k] | metrics <id>\n"
               "                       trace <id> | prom | ping | shutdown\n"
               "                       top [--iterations N] [--interval-ms M]\n"
               "                         refreshing per-campaign table (state, progress,\n"
               "                         detections, shards/s, ETA); N=0 polls forever\n";
  return 2;
}

int Dispatch(int argc, char** argv, const GlobalOptions& options) {
  const std::string command = argv[1];
  if (command == "catalog") {
    return CmdCatalog();
  }
  if (command == "suite") {
    return CmdSuite(argc > 2 ? argv[2] : "");
  }
  if (command == "sweep" && argc >= 3) {
    double seconds_per_case = 30.0;
    if (argc > 3) {
      const auto parsed = ParseDouble(argv[3]);
      if (!parsed.has_value() || *parsed <= 0.0) {
        return InvalidOperand("seconds_per_case", argv[3]);
      }
      seconds_per_case = *parsed;
    }
    return CmdSweep(argv[2], seconds_per_case, options);
  }
  if (command == "screen" && argc >= 3) {
    const auto count = ParseUint64(argv[2]);
    if (!count.has_value()) {
      return InvalidOperand("processor_count", argv[2]);
    }
    if (!options.sweep_spec.empty()) {
      std::vector<SweepScenario> scenarios;
      std::string error;
      if (!ParseSweepSpec(options.sweep_spec, scenarios, error)) {
        std::cerr << "sdcctl: invalid --sweep spec: " << error << "\n";
        return 2;
      }
      return CmdScreenSweep(*count, scenarios, options);
    }
    return CmdScreen(*count, options);
  }
  if (command == "metrics") {
    uint64_t count = 100000;
    if (argc > 2) {
      const auto parsed = ParseUint64(argv[2]);
      if (!parsed.has_value()) {
        return InvalidOperand("processor_count", argv[2]);
      }
      count = *parsed;
    }
    return CmdMetrics(count, options);
  }
  if (command == "trace") {
    uint64_t count = 100000;
    if (argc > 2) {
      const auto parsed = ParseUint64(argv[2]);
      if (!parsed.has_value()) {
        return InvalidOperand("processor_count", argv[2]);
      }
      count = *parsed;
    }
    return CmdTrace(count, options);
  }
  if (command == "frequency" && argc >= 6) {
    const auto pcore = ParseInt(argv[4]);
    if (!pcore.has_value() || *pcore < 0) {
      return InvalidOperand("pcore", argv[4]);
    }
    const auto temperature = ParseDouble(argv[5]);
    if (!temperature.has_value()) {
      return InvalidOperand("temperature", argv[5]);
    }
    double duration = 3600.0;
    if (argc > 6) {
      const auto parsed = ParseDouble(argv[6]);
      if (!parsed.has_value() || *parsed <= 0.0) {
        return InvalidOperand("duration", argv[6]);
      }
      duration = *parsed;
    }
    return CmdFrequency(argv[2], argv[3], *pcore, *temperature, duration);
  }
  if (command == "scrub") {
    return CmdScrub(argc, argv, options);
  }
  if (command == "export" && argc >= 3) {
    return CmdExport(argv[2], options);
  }
  if (command == "protect" && argc >= 3) {
    double hours = 4.0;
    if (argc > 3) {
      const auto parsed = ParseDouble(argv[3]);
      if (!parsed.has_value() || *parsed <= 0.0) {
        return InvalidOperand("hours", argv[3]);
      }
      hours = *parsed;
    }
    return CmdProtect(argv[2], hours, options);
  }
  return Usage();
}

int Main(int argc, char** argv) {
  // Strip the global flags (accepted anywhere) before positional dispatch. A flag whose
  // operand is missing or unparseable is a usage error, never a silent default.
  GlobalOptions options;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --threads requires an operand\n";
        return 2;
      }
      const auto threads = ParseInt(argv[++i]);
      if (!threads.has_value() || *threads < 0) {
        return InvalidOperand("--threads operand", argv[i]);
      }
      options.threads = *threads;
      continue;
    }
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --metrics-out requires an operand\n";
        return 2;
      }
      options.metrics_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --trace-out requires an operand\n";
        return 2;
      }
      options.trace_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--prom-out") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --prom-out requires an operand\n";
        return 2;
      }
      options.prom_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--series-out") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --series-out requires an operand\n";
        return 2;
      }
      options.series_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--stream") == 0) {
      continue;  // the fleet commands always stream; kept for scripts that spell it
    }
    if (std::strcmp(argv[i], "--processors") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --processors requires an operand\n";
        return 2;
      }
      const auto processors = ParseUint64(argv[++i]);
      if (!processors.has_value()) {
        return InvalidOperand("--processors operand", argv[i]);
      }
      options.processors = *processors;
      options.processors_set = true;
      continue;
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --seed requires an operand\n";
        return 2;
      }
      const auto seed = ParseUint64(argv[++i]);
      if (!seed.has_value()) {
        return InvalidOperand("--seed operand", argv[i]);
      }
      options.seed = *seed;
      options.seed_set = true;
      continue;
    }
    if (std::strcmp(argv[i], "--sweep") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --sweep requires an operand (seeds:K or a scenario file)\n";
        return 2;
      }
      options.sweep_spec = argv[++i];
      if (options.sweep_spec.empty()) {
        std::cerr << "sdcctl: --sweep operand must not be empty\n";
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[i], "--socket") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "sdcctl: --socket requires an operand (the sdcd socket path)\n";
        return 2;
      }
      options.socket_path = argv[++i];
      if (options.socket_path.empty()) {
        std::cerr << "sdcctl: --socket operand must not be empty\n";
        return 2;
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) {
    return Usage();
  }
  // Client mode bypasses local dispatch entirely: the daemon owns execution; this process
  // only frames the request and maps the reply to an exit status. `top` is the one
  // client-side command: it polls status+list itself rather than forwarding a verb.
  if (!options.socket_path.empty()) {
    if (std::strcmp(argv[1], "top") == 0) {
      return CmdTop(argc, argv, options.socket_path);
    }
    return RunClient(argc, argv, options.socket_path);
  }
  if (std::strcmp(argv[1], "top") == 0) {
    std::cerr << "sdcctl: top requires --socket (a running sdcd to watch)\n";
    return 2;
  }
  // --sweep only batches the `screen` command; rejecting it elsewhere beats silently
  // running a single-scenario pass the user thought was a sweep.
  if (!options.sweep_spec.empty() && std::strcmp(argv[1], "screen") != 0) {
    std::cerr << "sdcctl: --sweep applies only to the screen command\n";
    return 2;
  }
  // `metrics` with no explicit target defaults to stdout.
  if (std::strcmp(argv[1], "metrics") == 0 && options.metrics_out.empty()) {
    options.metrics_out = "-";
  }

  MetricsRegistry registry;
  if (!options.metrics_out.empty() || !options.prom_out.empty()) {
    options.metrics = &registry;
  }
  // The `trace` summary command needs a recorder even without an export target.
  TraceRecorder trace_recorder;
  if (!options.trace_out.empty() || std::strcmp(argv[1], "trace") == 0) {
    options.trace = &trace_recorder;
  }
  SeriesRecorder series_recorder;
  if (!options.series_out.empty()) {
    options.series = &series_recorder;
  }
  // With a snapshot bound for stdout, human-readable output moves to stderr so stdout
  // carries exactly the JSON document(s).
  std::streambuf* saved_cout = nullptr;
  if (options.metrics_out == "-" || options.trace_out == "-" ||
      options.prom_out == "-" || options.series_out == "-") {
    saved_cout = std::cout.rdbuf(std::cerr.rdbuf());
  }
  const int status = Dispatch(argc, argv, options);
  if (saved_cout != nullptr) {
    std::cout.rdbuf(saved_cout);
  }
  if (!options.metrics_out.empty() && status == 0) {
    if (options.metrics_out == "-") {
      WriteMetricsJson(std::cout, registry.Snapshot());
      std::cout << "\n";
    } else {
      std::ofstream out(options.metrics_out);
      if (!out) {
        std::cerr << "sdcctl: cannot open metrics output file: " << options.metrics_out
                  << "\n";
        return 1;
      }
      WriteMetricsJson(out, registry.Snapshot());
      out << "\n";
    }
  }
  if (!options.trace_out.empty() && status == 0) {
    if (options.trace_out == "-") {
      WriteTraceJson(std::cout, trace_recorder.Snapshot());
      std::cout << "\n";
    } else {
      std::ofstream out(options.trace_out);
      if (!out) {
        std::cerr << "sdcctl: cannot open trace output file: " << options.trace_out
                  << "\n";
        return 1;
      }
      WriteTraceJson(out, trace_recorder.Snapshot());
      out << "\n";
    }
  }
  if (!options.prom_out.empty() && status == 0) {
    if (options.prom_out == "-") {
      WriteMetricsProm(std::cout, registry.Snapshot());
    } else {
      std::ofstream out(options.prom_out);
      if (!out) {
        std::cerr << "sdcctl: cannot open prom output file: " << options.prom_out << "\n";
        return 1;
      }
      WriteMetricsProm(out, registry.Snapshot());
    }
  }
  if (!options.series_out.empty() && status == 0) {
    if (options.series_out == "-") {
      WriteSeriesJson(std::cout, series_recorder.Snapshot());
      std::cout << "\n";
    } else {
      std::ofstream out(options.series_out);
      if (!out) {
        std::cerr << "sdcctl: cannot open series output file: " << options.series_out
                  << "\n";
        return 1;
      }
      WriteSeriesJson(out, series_recorder.Snapshot());
      out << "\n";
    }
  }
  return status;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
