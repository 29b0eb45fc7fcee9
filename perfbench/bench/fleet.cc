#include "perfbench/bench/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "src/daemon/spec.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/report/exporters.h"

namespace perfbench {
namespace {

// Wraps the screening consumer of one pass and times the calls into it: every
// ConsumeShard (with the lane thread that made it) and the ordered fold in EndStream.
// The gaps between one lane's ConsumeShard calls are that lane's generation time, since
// the stream generates a shard on the lane right before handing it to the consumers.
class TimedConsumer final : public sdc::ShardConsumer {
 public:
  struct Call {
    std::thread::id thread;
    double start = 0.0;
    double end = 0.0;
  };

  explicit TimedConsumer(sdc::ShardConsumer* inner) : inner_(inner) {}

  void BeginStreamWithContext(sdc::EngineContext* context, const sdc::PopulationConfig& config,
                              uint64_t shard_count) override {
    calls_.assign(shard_count, Call{});
    inner_->BeginStreamWithContext(context, config, shard_count);
    begin_ = Now();
  }
  void ConsumeShard(const sdc::FleetShard& shard) override {
    const double start = Now();
    inner_->ConsumeShard(shard);
    calls_[shard.shard] = {std::this_thread::get_id(), start, Now()};
  }
  void EndStream() override {
    merge_begin_ = Now();
    inner_->EndStream();
    merge_end_ = Now();
  }

  const std::vector<Call>& calls() const { return calls_; }
  double begin() const { return begin_; }
  double merge_begin() const { return merge_begin_; }
  double merge_end() const { return merge_end_; }

 private:
  sdc::ShardConsumer* inner_;
  std::vector<Call> calls_;  // indexed by shard; shards own disjoint slots
  double begin_ = 0.0;
  double merge_begin_ = 0.0;
  double merge_end_ = 0.0;
};

// A consumer that takes every shard and does nothing: a pass through it is generation
// alone, the independent measure the traced generation gaps are checked against.
class DiscardConsumer final : public sdc::ShardConsumer {
 public:
  void ConsumeShard(const sdc::FleetShard&) override {}
};

// Layer split of one traced pass. Per lane, [begin, merge_begin) is tiled exactly by
// generation gaps, ConsumeShard calls, and the idle tail, so
//   (generate + screen + idle) / lanes + merge
// reconstructs the pass wall up to the consumer's BeginStream and Drive's entry/exit by
// construction. What that cannot catch, time put in the wrong layer, the generation-only
// cross-check in MeasureFleetLayers does.
struct LaneSplit {
  double wall = 0.0;
  double generate = 0.0;
  double screen = 0.0;
  double idle = 0.0;
  double merge = 0.0;
  std::vector<double> shard_ms;
};

LaneSplit SplitLanes(const TimedConsumer& timed, int lanes, double drive_start,
                     double drive_end, const std::string& pass_name, SpanLog& spans) {
  LaneSplit split;
  split.wall = drive_end - drive_start;
  split.merge = timed.merge_end() - timed.merge_begin();

  std::map<std::thread::id, std::vector<TimedConsumer::Call>> by_thread;
  for (const TimedConsumer::Call& call : timed.calls()) {
    by_thread[call.thread].push_back(call);
    split.shard_ms.push_back((call.end - call.start) * 1e3);
  }
  std::vector<std::vector<TimedConsumer::Call>> lane_calls;
  for (auto& [thread, calls] : by_thread) {
    std::sort(calls.begin(), calls.end(),
              [](const auto& a, const auto& b) { return a.start < b.start; });
    lane_calls.push_back(std::move(calls));
  }
  std::sort(lane_calls.begin(), lane_calls.end(),
            [](const auto& a, const auto& b) { return a.front().start < b.front().start; });

  const uint64_t group = spans.NewGroup();
  const uint64_t pass = spans.Add(pass_name, 0, group, 0, drive_start, drive_end);
  spans.Add("fleet.begin", pass, group, 0, drive_start, timed.begin());
  for (size_t lane = 0; lane < lane_calls.size(); ++lane) {
    const int track = static_cast<int>(lane);
    double cursor = timed.begin();
    for (const TimedConsumer::Call& call : lane_calls[lane]) {
      split.generate += call.start - cursor;
      split.screen += call.end - call.start;
      spans.Add("fleet.generate", pass, group, track, cursor, call.start);
      spans.Add("fleet.screen", pass, group, track, call.start, call.end);
      cursor = call.end;
    }
    split.idle += timed.merge_begin() - cursor;
    spans.Add("fleet.lane_idle", pass, group, track, cursor, timed.merge_begin());
  }
  // Lanes that never claimed a shard idled through the whole parallel phase.
  const int silent = lanes - static_cast<int>(lane_calls.size());
  for (int lane = 0; lane < silent; ++lane) {
    split.idle += timed.merge_begin() - timed.begin();
    spans.Add("fleet.lane_idle", pass, group, static_cast<int>(lane_calls.size()) + lane,
              timed.begin(), timed.merge_begin());
  }
  spans.Add("fleet.merge", pass, group, 0, timed.merge_begin(), timed.merge_end());
  return split;
}

// Canonical bytes of a pass: every scenario's screening-stats JSON, as sdcd's `result`
// verb renders it.
std::string RenderStats(const std::vector<sdc::ScreeningStats>& stats) {
  std::ostringstream out;
  for (const sdc::ScreeningStats& scenario : stats) {
    sdc::WriteScreeningStatsJson(out, scenario);
    out << "\n";
  }
  return out.str();
}

// "" when `stats` holds the report invariants for a fleet of `processors`, else the
// first violation.
std::string CheckInvariants(const sdc::ScreeningStats& stats, uint64_t processors) {
  if (stats.tested != processors) {
    return "tested " + std::to_string(stats.tested) + " != fleet " +
           std::to_string(processors);
  }
  uint64_t tested_by_arch = 0;
  uint64_t detected_by_arch = 0;
  for (size_t arch = 0; arch < stats.tested_by_arch.size(); ++arch) {
    tested_by_arch += stats.tested_by_arch[arch];
    detected_by_arch += stats.detected_by_arch[arch];
  }
  const uint64_t total = stats.total_detected();
  if (tested_by_arch != stats.tested) {
    return "per-arch tested sums to " + std::to_string(tested_by_arch);
  }
  if (detected_by_arch != total || stats.detections.size() != total) {
    return "per-stage total " + std::to_string(total) + " != per-arch " +
           std::to_string(detected_by_arch) + " / records " +
           std::to_string(stats.detections.size());
  }
  if (total > stats.faulty) {
    return "detections exceed faulty parts";
  }
  if (stats.provenance.size() != stats.detections.size()) {
    return "provenance not parallel to detections";
  }
  for (size_t i = 0; i < stats.detections.size(); ++i) {
    const sdc::ProcessorOutcome& outcome = stats.detections[i];
    const sdc::DetectionProvenance& provenance = stats.provenance[i];
    if (!outcome.detected || provenance.serial != outcome.serial ||
        provenance.stage != outcome.stage) {
      return "provenance record " + std::to_string(i) + " does not match its detection";
    }
    if (i > 0 && stats.detections[i - 1].serial >= outcome.serial) {
      return "detections not ascending by serial";
    }
  }
  return "";
}

sdc::PopulationConfig PopulationOf(const FleetSpec& spec) {
  sdc::PopulationConfig population;
  population.processor_count = spec.processors;
  population.seed = spec.fleet_seed;
  return population;
}

sdc::ScenarioBatch BatchOf(const FleetSpec& spec) {
  sdc::ScenarioBatch batch;
  batch.scenarios = spec.scenarios;
  return batch;
}

// How far the traced generation per lane may stray from the generation-only pass: the
// two passes run the same shards, but the traced one interleaves screening on each lane.
constexpr double kGenerateTolerance = 0.3;

struct TracedPass {
  PassResult result;
  LaneSplit split;
};

TracedPass RunTracedPass(const sdc::ScreeningPipeline& pipeline, sdc::EngineContext& context,
                         const FleetSpec& spec, const std::string& pass_name, SpanLog& spans) {
  const sdc::FleetShardStream stream(PopulationOf(spec));
  sdc::StreamingScreen screen(&pipeline, BatchOf(spec));
  TimedConsumer timed(&screen);
  TracedPass traced;
  const double start = Now();
  traced.result.shards = stream.Drive({&timed}, context).shards;
  const double end = Now();
  traced.result.wall_s = end - start;
  traced.result.stats = screen.TakeBatchStats();
  traced.split = SplitLanes(timed, context.threads(), start, end, pass_name, spans);
  return traced;
}

uint64_t Detections(const std::vector<sdc::ScreeningStats>& stats) {
  uint64_t total = 0;
  for (const sdc::ScreeningStats& scenario : stats) {
    total += scenario.total_detected();
  }
  return total;
}

// The two workloads' inputs, all derived from --seed: fleet generation seed and one
// screening seed per scenario (the sweep's `seeds:8` shape, shifted per run seed).
FleetSpec MakeSpec(const Options& options) {
  FleetSpec spec;
  spec.fleet_seed = 20210101 + options.seed;
  std::vector<sdc::SweepScenario> scenarios;
  std::string error;
  if (options.workload == "screen_100m") {
    spec.processors = options.tiny ? 300'000 : 100'000'000;
    scenarios.resize(1);
  } else {
    spec.processors = options.tiny ? 200'000 : 10'000'000;
    sdc::ParseSweepSpec("seeds:8", scenarios, error);
  }
  for (size_t k = 0; k < scenarios.size(); ++k) {
    scenarios[k].config.seed = 77 + 1000 * options.seed + k;
    spec.scenarios.push_back(scenarios[k].config);
  }
  return spec;
}

// Independent path for the digest gate: the materialized generate + RunBatch for the
// sweep (the batched engine's byte-identity with the stream), a 1-lane stream pass for
// the 100M screen (a materialized 100M fleet would not fit the run's memory).
std::string ReferenceBytes(FleetEngine& engine, const FleetSpec& spec, bool materialized) {
  if (materialized) {
    const sdc::FleetPopulation fleet =
        sdc::FleetPopulation::Generate(PopulationOf(spec), engine.context);
    return RenderStats(engine.pipeline.RunBatch(fleet, BatchOf(spec), engine.context));
  }
  sdc::EngineContext serial(ContextOptions(1));
  return RenderStats(RunStreamPass(engine.pipeline, serial, spec).stats);
}

// Digest and invariant verdict of one pass, kept instead of its bytes so the measured
// loop holds no result copies.
struct PassCheck {
  uint64_t digest = 0;
  std::string invariant_error;
};

PassCheck CheckOf(const PassResult& pass, const FleetSpec& spec, bool corrupt) {
  PassCheck check;
  std::string bytes = RenderStats(pass.stats);
  if (corrupt) {
    bytes += " ";  // self-test hook: a deliberately wrong digest
  }
  check.digest = Digest(bytes);
  for (size_t k = 0; k < pass.stats.size() && check.invariant_error.empty(); ++k) {
    const std::string why = CheckInvariants(pass.stats[k], spec.processors);
    if (!why.empty()) {
      check.invariant_error = "scenario " + std::to_string(k) + ": " + why;
    }
  }
  return check;
}

void AttemptAgainst(const std::vector<PassCheck>& checks, uint64_t reference, Record& record) {
  for (size_t i = 0; i < checks.size(); ++i) {
    std::string why = checks[i].invariant_error;
    if (why.empty() && checks[i].digest != reference) {
      why = "digest differs from the independent path";
    }
    record.Attempt(why.empty(), "pass " + std::to_string(i) + ": " + why);
  }
}

}  // namespace

sdc::EngineOptions ContextOptions(int lanes) {
  return sdc::EngineOptions{.threads = lanes,
                            .simd = sdc::ResolveSimdLevel(sdc::SimdLevel::kAuto),
                            .env_overrides = false};
}

FleetEngine::FleetEngine(int lanes)
    : suite(sdc::TestSuite::BuildFull()), pipeline(&suite), context(ContextOptions(lanes)) {}

PassResult RunStreamPass(const sdc::ScreeningPipeline& pipeline, sdc::EngineContext& context,
                         const FleetSpec& spec) {
  const sdc::FleetShardStream stream(PopulationOf(spec));
  sdc::StreamingScreen screen(&pipeline, BatchOf(spec));
  PassResult result;
  const double start = Now();
  result.shards = stream.Drive({&screen}, context).shards;
  result.wall_s = Now() - start;
  result.stats = screen.TakeBatchStats();
  return result;
}

PassResult MeasureFleetLayers(const sdc::ScreeningPipeline& pipeline,
                              sdc::EngineContext& wide_context, const FleetSpec& spec,
                              SpanLog& spans, Record& record) {
  const int lanes = wide_context.threads();
  sdc::EngineContext serial_context(ContextOptions(1));
  TracedPass wide = RunTracedPass(pipeline, wide_context, spec, "fleet.pass", spans);
  const TracedPass serial =
      RunTracedPass(pipeline, serial_context, spec, "fleet.pass_1lane", spans);
  DiscardConsumer discard;
  const double generate_start = Now();
  sdc::FleetShardStream(PopulationOf(spec)).Drive({&discard}, wide_context);
  const double generate_only = Now() - generate_start;
  spans.Add("fleet.pass_generate_only", 0, spans.NewGroup(), 0, generate_start,
            generate_start + generate_only);

  const LaneSplit& split = wide.split;
  record.Add("fleet.merge_s", split.merge, "s");
  record.Add("fleet.generate_busy_s", split.generate, "s");
  record.Add("fleet.screen_busy_s", split.screen, "s");
  record.Add("fleet.screen_shard_p99_ms", Percentile(split.shard_ms, 0.99), "ms");
  record.Add("fleet.lane_idle_s", split.idle, "s");
  record.Add("fleet.lane_util", (split.generate + split.screen) / (lanes * split.wall),
             "ratio");
  record.Add("fleet.speedup_4v1", serial.split.wall / split.wall, "x");
  record.Add("fleet.shards", static_cast<double>(wide.result.shards), "count");
  record.Add("fleet.faulty_parts", static_cast<double>(wide.result.stats.front().faulty),
             "count");
  record.Add("fleet.detections", static_cast<double>(Detections(wide.result.stats)), "count");
  record.Sample("fleet.shard_calls", split.shard_ms.size());

  // The layers must account for the pass: what falls outside them (the consumer's
  // BeginStream, Drive's own entry and exit) stays within 5% of the wall, plus 1 ms of
  // clock slack for tiny self-test passes.
  const double reconstructed = (split.generate + split.screen + split.idle) / lanes + split.merge;
  const double residual = split.wall - reconstructed;
  record.Note("fleet.unattributed_s", std::to_string(residual));
  // The generation the gaps attribute, per lane, must match a pass that only generates:
  // screening time leaking into the gaps (or the reverse) shows up here.
  const double generate_per_lane = split.generate / lanes;
  record.Note("fleet.generate_only_s", std::to_string(generate_only));
  record.Note("fleet.generate_per_lane_s", std::to_string(generate_per_lane));
  std::string why;
  if (std::abs(residual) > 0.05 * split.wall + 1e-3) {
    why = "layers reconstruct " + std::to_string(reconstructed) + " s of a " +
          std::to_string(split.wall) + " s pass";
  } else if (std::abs(generate_per_lane - generate_only) >
             kGenerateTolerance * generate_only + 2e-3) {
    why = "generation gaps give " + std::to_string(generate_per_lane) +
          " s per lane, a generation-only pass " + std::to_string(generate_only) + " s";
  } else if (RenderStats(wide.result.stats) != RenderStats(serial.result.stats)) {
    why = "traced " + std::to_string(lanes) + "-lane and 1-lane passes differ";
  }
  record.Attempt(why.empty(), "traced fleet passes: " + why);
  return std::move(wide.result);
}

void RunScreenWorkload(const Options& options, Record& record) {
  const FleetSpec spec = MakeSpec(options);
  const bool sweep = spec.scenarios.size() > 1;
  double setup_s = 0.0;
  const std::unique_ptr<FleetEngine> engine = BuildEngineTimed<FleetEngine>(record, setup_s);

  // Warm-up pass (checked, untimed): first-touch page faults and allocator growth are
  // paid here, not by the first measured pass.
  std::vector<PassCheck> checks;
  checks.push_back(CheckOf(RunStreamPass(engine->pipeline, engine->context, spec), spec,
                           options.corrupt_digest));

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> walls;
  const double loop_start = Now();
  while (walls.size() < 2 || Now() - loop_start < budget) {
    const PassResult pass = RunStreamPass(engine->pipeline, engine->context, spec);
    walls.push_back(pass.wall_s);
    checks.push_back(CheckOf(pass, spec, false));
  }
  const double peak_rss_mb = PeakRssMb();
  record.Sample("passes", walls.size());
  record.Series("pass_wall_s", walls);

  if (!options.trace) {
    AttemptAgainst(checks, Digest(ReferenceBytes(*engine, spec, sweep)), record);
    // Mean, not median: on a shared host pass times come in multi-second phases, and a
    // mean follows the share of slow passes where a median flips between the phases.
    const double wall = Mean(walls);
    const double processor_scenarios =
        static_cast<double>(spec.processors) * static_cast<double>(spec.scenarios.size());
    record.Add("wall_s", wall, "s");
    record.Add("proc_per_s", processor_scenarios / wall, "1/s");
    record.Add("campaigns_per_s", 1.0 / wall, "1/s");
    record.Add("latency_p50_ms", Median(walls) * 1e3, "ms");
    record.Add("latency_p95_ms", Percentile(walls, 0.95) * 1e3, "ms");
    record.Add("peak_rss_mb", peak_rss_mb, "MB");
    record.Add("setup_s", setup_s, "s");
    return;
  }

  SpanLog spans;
  const PassResult traced =
      MeasureFleetLayers(engine->pipeline, engine->context, spec, spans, record);
  record.Add("trace.overhead", traced.wall_s / Median(walls), "ratio");
  record.Note("fleet.pass_wall_s", std::to_string(traced.wall_s));
  // The traced pass already matched its 1-lane twin; the sweep is also held to the
  // materialized RunBatch path.
  const std::string traced_bytes = RenderStats(traced.stats);
  if (sweep) {
    record.Attempt(traced_bytes == ReferenceBytes(*engine, spec, true),
                   "traced sweep differs from materialized RunBatch");
  }
  AttemptAgainst(checks, Digest(traced_bytes), record);
  WriteTrace(options, spans, record);
}

}  // namespace perfbench
