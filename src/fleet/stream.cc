#include "src/fleet/stream.h"

#include <algorithm>
#include <utility>

#include "src/common/context.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/series.h"
#include "src/telemetry/trace.h"

namespace sdc {
namespace {

// Same "fleet.generate.*" keys and values the materialized path has always recorded --
// built once per shard from the integer tallies, merged in shard order by Drive.
MetricsDelta DeltaFromTally(const FleetShardTally& tally, uint64_t processors) {
  MetricsDelta delta;
  delta.Add("fleet.generate.processors", processors);
  delta.Add("fleet.generate.faulty", tally.faulty);
  delta.Add("fleet.generate.defects", tally.defects);
  delta.Add("fleet.generate.undetectable", tally.undetectable);
  for (int arch = 0; arch < kArchCount; ++arch) {
    const auto index = static_cast<size_t>(arch);
    if (tally.by_arch[index] > 0) {
      delta.Add("fleet.generate.arch." + ArchName(arch) + ".processors",
                tally.by_arch[index]);
    }
    if (tally.defects_by_arch[index] > 0) {
      delta.Add("fleet.generate.arch." + ArchName(arch) + ".defects",
                tally.defects_by_arch[index]);
    }
  }
  return delta;
}

}  // namespace

ShardConsumer::~ShardConsumer() = default;

void ShardConsumer::BeginStreamWithContext(EngineContext* /*context*/,
                                           const PopulationConfig& /*config*/,
                                           uint64_t /*shard_count*/) {}

void ShardConsumer::EndStream() {}

uint64_t FleetShardStream::shard_count() const {
  return ThreadPool::ShardCountFor(0, config_.processor_count, kFleetShardGrain);
}

StreamReport FleetShardStream::Drive(std::span<ShardConsumer* const> consumers,
                                     EngineContext& context) const {
  // Sinks are pinned here, once, for the whole pass: a detach between shards cannot drop
  // or double-merge a delta -- the in-flight pass completes against what was pinned.
  MetricsRegistry* metrics = context.metrics();
  TraceRecorder* trace = context.trace();
  SeriesRecorder* series = context.series();
  MetricsRegistry::ScopedTimer drive_timer(metrics, "fleet.stream.wall");
  TraceRecorder::ScopedHostSpan drive_span(trace, "fleet.stream.drive", "generate",
                                           kTraceTrackGenerate);
  const uint64_t shards = shard_count();
  ThreadPool& pool = context.pool();

  StreamReport report;
  report.shards = shards;
  report.lanes = pool.thread_count();

  for (ShardConsumer* consumer : consumers) {
    consumer->BeginStreamWithContext(&context, config_, shards);
  }

  const Rng base(config_.seed);
  // One plan for the whole pass: the per-shard CDF/threshold/pcore precompute happens
  // here, once, and every lane shares it read-only.
  const GenerationPlan plan = GenerationPlan::Build(config_, context);
  struct LaneState {
    FleetShardBuffer buffer;
    uint64_t peak_bytes = 0;
  };
  std::vector<LaneState> lanes(static_cast<size_t>(pool.thread_count()));
  std::vector<MetricsDelta> deltas(metrics != nullptr ? shards : 0);
  std::vector<TraceDelta> traces(trace != nullptr ? shards : 0);
  // Per-shard sample for the time-series sink: filled concurrently (shards own disjoint
  // slots), folded into cumulative points in shard order below -- the same discipline
  // that keeps the metrics deltas deterministic.
  struct ShardSample {
    uint64_t processors = 0;
    uint64_t faulty = 0;
  };
  std::vector<ShardSample> samples(series != nullptr ? shards : 0);

  pool.ParallelStream(
      0, config_.processor_count, kFleetShardGrain,
      [&](int lane, uint64_t shard, uint64_t begin, uint64_t end) {
        LaneState& state = lanes[static_cast<size_t>(lane)];
        GenerateFleetShard(config_, plan, base, shard, begin, end, state.buffer);

        const FleetShard view = state.buffer.View();
        for (ShardConsumer* consumer : consumers) {
          consumer->ConsumeShard(view);
        }
        if (metrics != nullptr) {
          deltas[shard] = DeltaFromTally(state.buffer.tally, end - begin);
        }
        if (series != nullptr) {
          samples[shard] = {end - begin, state.buffer.tally.faulty};
        }
        if (trace != nullptr) {
          // Sim clock: processor serial space. ts = first serial, dur = shard width, so
          // the generation timeline reads as coverage of the fleet's serial axis.
          TraceEvent span = MakeTraceSpan("generate.shard", "generate",
                                          kTraceTrackGenerate,
                                          static_cast<double>(begin),
                                          static_cast<double>(end - begin));
          span.num_args.reserve(3);
          span.num_args.emplace_back("shard", static_cast<double>(shard));
          span.num_args.emplace_back("faulty",
                                     static_cast<double>(state.buffer.tally.faulty));
          span.num_args.emplace_back("defects",
                                     static_cast<double>(state.buffer.tally.defects));
          traces[shard].Add(std::move(span));
        }
        state.peak_bytes = std::max(state.peak_bytes, state.buffer.CapacityBytes());
      });

  for (const LaneState& state : lanes) {
    report.peak_scratch_bytes += state.peak_bytes;
  }
  if (metrics != nullptr) {
    for (const MetricsDelta& delta : deltas) {
      metrics->MergeDelta(delta);
    }
  }
  if (trace != nullptr) {
    for (TraceDelta& delta : traces) {
      trace->MergeDelta(std::move(delta));
    }
  }
  if (series != nullptr) {
    // Cumulative trajectory over the fleet's serial axis, one point per shard, appended
    // in shard order on the driving thread: byte-identical at any thread count.
    uint64_t processors = 0;
    uint64_t faulty = 0;
    uint64_t end_serial = 0;
    for (const ShardSample& sample : samples) {
      processors += sample.processors;
      faulty += sample.faulty;
      end_serial += sample.processors;
      const auto x = static_cast<double>(end_serial);
      series->Append("fleet.generate.processors", SeriesClock::kSim, x,
                     static_cast<double>(processors));
      series->Append("fleet.generate.faulty", SeriesClock::kSim, x,
                     static_cast<double>(faulty));
    }
  }
  for (ShardConsumer* consumer : consumers) {
    consumer->EndStream();
  }
  return report;
}

StreamReport FleetShardStream::Drive(std::initializer_list<ShardConsumer*> consumers,
                                     EngineContext& context) const {
  return Drive(std::span<ShardConsumer* const>(consumers.begin(), consumers.size()),
               context);
}

}  // namespace sdc
