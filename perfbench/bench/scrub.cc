// scrub_100k: one FleetScrubber::Run with the `sdcctl scrub` defaults. Session test
// rounds dominate; the fleet layers (discovery) are a sliver of the run.

#include <memory>
#include <sstream>

#include "perfbench/bench/fleet.h"
#include "src/report/exporters.h"
#include "src/scrub/scrubber.h"

namespace perfbench {
namespace {

struct ScrubEngine {
  explicit ScrubEngine(int lanes)
      : suite(sdc::TestSuite::BuildFull()),
        pipeline(&suite),
        scrubber(&suite),
        context(ContextOptions(lanes)) {}

  sdc::TestSuite suite;
  sdc::ScreeningPipeline pipeline;  // for the traced discovery pass
  sdc::FleetScrubber scrubber;
  sdc::EngineContext context;
};

// Runs per measurement, each on its own session seed: one run's wall moves by ~10% with
// its seed (how many escapes get caught, and so diagnosed), so a run of the benchmark
// averages several.
constexpr size_t kMinRuns = 3;

// The `sdcctl scrub` defaults (12-month horizon, budget 1e-5, 48-case ripple window) on
// a fixed fleet. --seed picks the session randomness namespaces, not the fleet: a new
// fleet would change how many escapes there are to scrub, and with it the run's size.
sdc::ScrubConfig MakeConfig(const Options& options, size_t run) {
  sdc::ScrubConfig config;
  config.population.processor_count = options.tiny ? 20'000 : 100'000;
  if (options.tiny) {
    config.horizon_months = 3.0;
  }
  config.seed = 4242 + 1000 * options.seed + run;
  return config;
}

std::string Render(const sdc::ScrubReport& report) {
  std::ostringstream out;
  sdc::WriteScrubReportJson(out, report);
  return out.str();
}

// Strict no-overdraft: neither the run nor any epoch spends more than it was given.
std::string CheckBudget(const sdc::ScrubReport& report) {
  constexpr double kSlack = 1 + 1e-9;
  if (report.total_spent_seconds() > report.total_budget_seconds * kSlack) {
    return "spent " + std::to_string(report.total_spent_seconds()) + " s of a " +
           std::to_string(report.total_budget_seconds) + " s budget";
  }
  for (const sdc::ScrubEpochPoint& point : report.timeline) {
    if (point.spent_seconds() > point.budget_seconds * kSlack) {
      return "epoch " + std::to_string(point.epoch) + " overspent";
    }
  }
  return "";
}

}  // namespace

void RunScrubWorkload(const Options& options, Record& record) {
  double setup_s = 0.0;
  const std::unique_ptr<ScrubEngine> engine = BuildEngineTimed<ScrubEngine>(record, setup_s);
  // The memory figure is the process peak after the first run: what a one-shot
  // `sdcctl scrub` holds. Later runs would add the allocator's fragmentation from the
  // earlier ones, which varies from run to run.
  double peak_rss_mb = 0.0;
  const auto timed_run = [&](const sdc::ScrubConfig& config, std::vector<double>& walls) {
    const double start = Now();
    sdc::ScrubReport report = engine->scrubber.Run(config, engine->context);
    walls.push_back(Now() - start);
    if (walls.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
    return report;
  };

  // Untraced runs over session seeds 0, 1, 2, ..., then seed 0 again: the repeat must
  // render the first run's report byte for byte.
  const size_t min_runs = options.trace ? 1 : kMinRuns;
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> walls;
  std::vector<std::string> budget_errors;
  uint64_t first_digest = 0;
  const double loop_start = Now();
  while (walls.size() < min_runs || Now() - loop_start < budget) {
    const sdc::ScrubReport report = timed_run(MakeConfig(options, walls.size()), walls);
    budget_errors.push_back(CheckBudget(report));
    if (walls.size() == 1) {
      first_digest = Digest(Render(report));
    }
  }
  if (options.corrupt_digest) {
    first_digest ^= 1;
  }
  const sdc::ScrubConfig config = MakeConfig(options, 0);
  const sdc::ScrubReport repeat = timed_run(config, walls);
  budget_errors.push_back(CheckBudget(repeat));
  record.Sample("runs", walls.size());
  record.Series("run_wall_s", walls);
  for (size_t i = 0; i < budget_errors.size(); ++i) {
    record.Attempt(budget_errors[i].empty(), "run " + std::to_string(i) + ": " + budget_errors[i]);
  }
  const std::string repeat_bytes = Render(repeat);
  record.Attempt(Digest(repeat_bytes) == first_digest,
                 "a repeated run rendered different report bytes");

  if (!options.trace) {
    // Runs differ in input, so their mean (not median) is the run's wall.
    const double wall = Mean(walls);
    record.Add("wall_s", wall, "s");
    record.Add("proc_per_s", static_cast<double>(config.population.processor_count) / wall,
               "1/s");
    record.Add("campaigns_per_s", 1.0 / wall, "1/s");
    record.Add("latency_p50_ms", Median(walls) * 1e3, "ms");
    record.Add("latency_p95_ms", Percentile(walls, 0.95) * 1e3, "ms");
    record.Add("peak_rss_mb", peak_rss_mb, "MB");
    record.Add("setup_s", setup_s, "s");
    return;
  }

  // Traced run: the public epoch hook stamps the end of deployment (tick 0: discovery,
  // session build, workload sample) and of every epoch.
  sdc::ScrubConfig traced_config = config;
  std::vector<double> ticks;
  traced_config.epoch_tick = [&ticks](uint64_t, uint64_t) {
    ticks.push_back(Now());
    return true;
  };
  const double start = Now();
  const sdc::ScrubReport report = engine->scrubber.Run(traced_config, engine->context);
  const double end = Now();
  record.Attempt(Render(report) == repeat_bytes && CheckBudget(report).empty() && !ticks.empty(),
                 "traced run: differs from the untraced run of its seed, or " +
                     CheckBudget(report));

  SpanLog spans;
  const uint64_t group = spans.NewGroup();
  const uint64_t run = spans.Add("scrub.run", 0, group, 0, start, end);
  std::vector<double> epochs;
  if (!ticks.empty()) {
    spans.Add("scrub.deploy", run, group, 0, start, ticks.front());
    for (size_t k = 1; k < ticks.size(); ++k) {
      epochs.push_back(ticks[k] - ticks[k - 1]);
      spans.Add("scrub.epoch", run, group, 0, ticks[k - 1], ticks[k]);
    }
    spans.Add("scrub.finalize", run, group, 0, ticks.back(), end);
  }
  uint64_t rounds = 0;
  for (const sdc::ScrubEpochPoint& point : report.timeline) {
    rounds += point.sessions_funded;
  }
  const double epoch_sum = Sum(epochs);
  record.Add("scrub.deploy_s", ticks.empty() ? 0.0 : ticks.front() - start, "s");
  record.Add("scrub.epoch_sum_s", epoch_sum, "s");
  record.Add("scrub.epoch_p50_s", Median(epochs), "s");
  record.Add("scrub.epoch_max_s", Percentile(epochs, 1.0), "s");
  record.Add("scrub.s_per_round", rounds > 0 ? epoch_sum / static_cast<double>(rounds) : 0.0,
             "s");
  record.Add("scrub.sessions", static_cast<double>(report.sessions), "count");
  record.Add("scrub.rounds_funded", static_cast<double>(rounds), "count");
  record.Add("scrub.detections", static_cast<double>(report.detections.size()), "count");
  record.Add("trace.overhead", (end - start) / walls.back(), "ratio");

  // The fleet layers of this workload: the discovery pass the scrubber runs first, on
  // the same fleet and screening config, driven through the wrapping consumer.
  FleetSpec discovery;
  discovery.processors = config.population.processor_count;
  discovery.fleet_seed = config.population.seed;
  discovery.scenarios = {config.screening};
  MeasureFleetLayers(engine->pipeline, engine->context, discovery, spans, record);

  WriteTrace(options, spans, record);
}

}  // namespace perfbench
