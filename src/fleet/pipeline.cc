#include "src/fleet/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <ranges>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/common/context.h"
#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/series.h"

namespace sdc {

std::string StageName(TestStage stage) {
  switch (stage) {
    case TestStage::kFactory:
      return "factory";
    case TestStage::kDatacenter:
      return "datacenter";
    case TestStage::kReinstall:
      return "re-install";
    case TestStage::kRegular:
      return "regular";
  }
  return "?";
}

uint64_t ScreeningStats::total_detected() const {
  uint64_t total = 0;
  for (uint64_t count : detected_by_stage) {
    total += count;
  }
  return total;
}

double ScreeningStats::StageRate(TestStage stage) const {
  if (tested == 0) {
    return 0.0;
  }
  return static_cast<double>(detected_by_stage[static_cast<int>(stage)]) /
         static_cast<double>(tested);
}

double ScreeningStats::TotalRate() const {
  if (tested == 0) {
    return 0.0;
  }
  return static_cast<double>(total_detected()) / static_cast<double>(tested);
}

double ScreeningStats::ArchRate(int arch_index) const {
  if (tested_by_arch[arch_index] == 0) {
    return 0.0;
  }
  return static_cast<double>(detected_by_arch[arch_index]) /
         static_cast<double>(tested_by_arch[arch_index]);
}

double ScreeningStats::PreProductionRate() const {
  return StageRate(TestStage::kFactory) + StageRate(TestStage::kDatacenter) +
         StageRate(TestStage::kReinstall);
}

void ScreeningStats::MergeFrom(ScreeningStats&& other) {
  tested += other.tested;
  faulty += other.faulty;
  for (int stage = 0; stage < kStageCount; ++stage) {
    detected_by_stage[static_cast<size_t>(stage)] +=
        other.detected_by_stage[static_cast<size_t>(stage)];
  }
  for (int arch = 0; arch < kArchCount; ++arch) {
    tested_by_arch[static_cast<size_t>(arch)] +=
        other.tested_by_arch[static_cast<size_t>(arch)];
    detected_by_arch[static_cast<size_t>(arch)] +=
        other.detected_by_arch[static_cast<size_t>(arch)];
  }
  // No exact-size reserve here: repeated merges must keep vector growth geometric, or a
  // chain of N shard merges degrades to O(N * detections) element moves. The other
  // side's buffer is taken over only while this side owns none, so a fold presized from
  // the shard totals (StreamingScreen::EndStream) keeps its one allocation.
  if (detections.capacity() == 0) {
    detections = std::move(other.detections);
  } else {
    detections.insert(detections.end(), std::make_move_iterator(other.detections.begin()),
                      std::make_move_iterator(other.detections.end()));
  }
  if (provenance.capacity() == 0) {
    provenance = std::move(other.provenance);
  } else {
    provenance.insert(provenance.end(),
                      std::make_move_iterator(other.provenance.begin()),
                      std::make_move_iterator(other.provenance.end()));
  }
}

int RegularGroupOf(uint64_t serial, const ScreeningConfig& config) {
  const int groups = config.regular_groups < 1 ? 1 : config.regular_groups;
  return static_cast<int>(Mix64(serial) % static_cast<uint64_t>(groups));
}

double RegularRoundMonth(uint64_t serial, int cycle, const ScreeningConfig& config) {
  const int groups = config.regular_groups < 1 ? 1 : config.regular_groups;
  const double offset = config.regular_period_months *
                        static_cast<double>(RegularGroupOf(serial, config)) /
                        static_cast<double>(groups);
  return static_cast<double>(cycle) * config.regular_period_months + offset;
}

ScreeningPipeline::ScreeningPipeline(const TestSuite* suite) : suite_(suite) {}

int ScreeningPipeline::MatchingTestcases(const Defect& defect) const {
  int matches = 0;
  for (size_t i = 0; i < suite_->size(); ++i) {
    const TestcaseInfo& info = suite_->info(i);
    bool op_match = false;
    for (OpKind op : info.ops) {
      if (defect.AffectsOp(op)) {
        op_match = true;
        break;
      }
    }
    if (!op_match) {
      continue;
    }
    if (defect.type() == SdcType::kComputation) {
      bool type_match = false;
      for (DataType type : info.types) {
        if (defect.AffectsType(type)) {
          type_match = true;
          break;
        }
      }
      if (!type_match) {
        continue;
      }
    }
    ++matches;
  }
  return matches;
}

namespace {

// The streaming mode relies on stream shards tiling exactly into screening shards; see
// the kScreeningShardGrain comment in pipeline.h.
static_assert(kFleetShardGrain % kScreeningShardGrain == 0,
              "stream shards must tile exactly into screening shards");

// Shared by the public ExpectedErrors and the memo builder so both evaluate the exact
// same floating-point expression: byte-identical stats between the memoized kernel and
// the test oracle, which calls ExpectedErrors at every probe, depend on the terms being
// bitwise equal.
double ExpectedErrorsWithMatching(const Defect& defect, const StageParams& stage,
                                  int pcores, int matching) {
  if (matching == 0) {
    return 0.0;
  }
  // Sequential per-core testing: each core gets an equal share of each testcase's duration.
  const double minutes_per_core =
      stage.per_case_seconds * static_cast<double>(matching) /
      static_cast<double>(pcores) / 60.0;
  double expected = 0.0;
  for (int pcore = 0; pcore < pcores; ++pcore) {
    expected += defect.OccurrenceFrequencyPerMinute(stage.temperature_celsius,
                                                    defect.intensity_ref, pcore) *
                minutes_per_core;
  }
  return expected;
}

// The per-(defect, stage) survive factors 1 - catch_factor * (1 - exp(-E)). They are a
// function of the defect, the stage parameters, and the core count only -- never of the
// scenario's seed, cadence, horizon, or grouping -- so the batched kernel computes one
// table per group of scenarios with bit-identical stage parameters. The expressions
// mirror the ReferenceScreen oracle (tests/oracles/oracles.cc) exactly -- same helper,
// same term shape -- which keeps the cached doubles bitwise equal to what it computes.
void ComputeSurviveTerms(std::span<const Defect> defects, std::span<const int> matching,
                         const std::array<StageParams, kStageCount>& stages, int pcores,
                         std::span<std::array<double, kStageCount>> terms) {
  for (size_t d = 0; d < defects.size(); ++d) {
    for (int stage = 0; stage < kStageCount; ++stage) {
      const StageParams& params = stages[static_cast<size_t>(stage)];
      const double expected =
          ExpectedErrorsWithMatching(defects[d], params, pcores, matching[d]);
      terms[d][static_cast<size_t>(stage)] =
          1.0 - params.catch_factor * (1.0 - std::exp(-expected));
    }
  }
}

// Per-stage pass/fail/SDC counters for one shard, derived from the shard's private stats
// so the hot per-processor loop never touches a metric map.
MetricsDelta DeltaFromShardStats(const ScreeningStats& stats) {
  MetricsDelta delta;
  delta.Add("screening.tested", stats.tested);
  delta.Add("screening.faulty", stats.faulty);
  delta.Add("screening.detected", stats.total_detected());
  delta.Add("screening.escaped", stats.faulty - stats.total_detected());
  // Mirror of the provenance invariant: this counter must equal screening.detected
  // (tools/check_trace_json.py cross-checks it against the trace).
  delta.Add("screening.provenance.records", stats.provenance.size());
  for (int stage = 0; stage < kStageCount; ++stage) {
    delta.Add("screening.stage." + StageName(static_cast<TestStage>(stage)) + ".detected",
              stats.detected_by_stage[static_cast<size_t>(stage)]);
  }
  for (int arch = 0; arch < kArchCount; ++arch) {
    const auto index = static_cast<size_t>(arch);
    if (stats.tested_by_arch[index] > 0) {
      delta.Add("screening.arch." + ArchName(arch) + ".tested",
                stats.tested_by_arch[index]);
    }
    if (stats.detected_by_arch[index] > 0) {
      delta.Add("screening.arch." + ArchName(arch) + ".detected",
                stats.detected_by_arch[index]);
    }
  }
  return delta;
}

// Provenance of one detection: the defect context reduced to first id, min onset and min
// trigger -- the reduction the ReferenceScreen oracle (tests/oracles/oracles.cc) repeats
// independently and the equivalence suite compares field by field. sub_shard /
// rng_stream are stamped later by FinishShardRange, the one frame that knows the shard
// index.
DetectionProvenance ProvenanceOf(uint64_t serial, int arch_index,
                                 std::span<const Defect> defects,
                                 const ScreeningConfig& config, TestStage stage,
                                 double month) {
  DetectionProvenance record;
  record.serial = serial;
  record.arch_index = arch_index;
  record.stage = stage;
  record.month = month;
  record.stage_temperature_celsius =
      config.stages[static_cast<size_t>(stage)].temperature_celsius;
  record.defect_count = static_cast<uint32_t>(defects.size());
  if (!defects.empty()) {
    record.defect_id = defects.front().id;
    record.onset_months = defects.front().onset_months;
    record.min_trigger_celsius = defects.front().min_trigger_celsius;
    for (const Defect& defect : defects.subspan(1)) {
      record.onset_months = std::min(record.onset_months, defect.onset_months);
      record.min_trigger_celsius =
          std::min(record.min_trigger_celsius, defect.min_trigger_celsius);
    }
  }
  return record;
}

// The scenario-dependent half of the memoized faulty-part model: the probe schedule and
// its RNG draws. survive_terms / sorted_onsets are precomputed by the caller, so the
// batched kernel pays for them once per scenario *group* (ComputeSurviveTerms) and once
// per part (the onsets), not once per scenario.
void ReplayFaultyProbes(uint64_t serial, int arch_index, std::span<const Defect> defects,
                        std::span<const std::array<double, kStageCount>> survive_terms,
                        std::span<const double> sorted_onsets,
                        const ScreeningConfig& config, Rng& rng, ScreeningStats& stats) {
  const size_t defect_count = defects.size();
  // Survive product over the defects active at the probe age, folded in storage order
  // (the same order the oracle multiplies in, so the product rounds identically).
  auto probability_at = [&](int stage, double age_months) {
    double survive = 1.0;
    for (size_t d = 0; d < defect_count; ++d) {
      if (defects[d].onset_months > age_months) {
        continue;  // not yet developed
      }
      survive *= survive_terms[d][static_cast<size_t>(stage)];
    }
    return 1.0 - survive;
  };

  bool detected = false;
  TestStage detected_stage = TestStage::kFactory;
  double detected_month = 0.0;
  const TestStage pre_production[] = {TestStage::kFactory, TestStage::kDatacenter,
                                      TestStage::kReinstall};
  for (TestStage stage : pre_production) {
    if (rng.NextBernoulli(probability_at(static_cast<int>(stage), 0.0))) {
      detected = true;
      detected_stage = stage;
      break;
    }
  }
  if (!detected) {
    // Onset-gated regular rounds: defect onsets sorted ascending gate when the cached
    // probability must be re-derived; cycles between onset crossings reuse it untouched.
    const int groups = config.regular_groups < 1 ? 1 : config.regular_groups;
    const double offset = config.regular_period_months *
                          static_cast<double>(RegularGroupOf(serial, config)) /
                          static_cast<double>(groups);
    size_t active = 0;
    double probability = 0.0;
    bool stale = true;
    // At most kMaxRegularRounds cycles: StreamingScreen checked the cadence.
    for (int cycle = 1;; ++cycle) {
      const double month =
          static_cast<double>(cycle) * config.regular_period_months + offset;
      if (month > config.horizon_months) {
        break;
      }
      while (active < defect_count && sorted_onsets[active] <= month) {
        ++active;
        stale = true;
      }
      if (stale) {
        probability = probability_at(static_cast<int>(TestStage::kRegular), month);
        stale = false;
      }
      if (rng.NextBernoulli(probability)) {
        detected = true;
        detected_stage = TestStage::kRegular;
        detected_month = month;
        break;
      }
    }
  }
  if (detected) {
    ++stats.detected_by_stage[static_cast<int>(detected_stage)];
    ++stats.detected_by_arch[arch_index];
    stats.detections.push_back({serial, arch_index, true, detected_stage, detected_month});
    stats.provenance.push_back(ProvenanceOf(serial, arch_index, defects, config,
                                            detected_stage, detected_month));
  }
}

// Epilogue of the screening kernel, once per scenario: stamps the shard identity onto
// the provenance records appended during the call and, when tracing, emits the
// shard's "screen.subshard" span plus one "detection" instant per new detection. The
// screening shard index and its RNG stream coincide by construction (Rng::Fork(sub_shard)).
void FinishShardRange(uint64_t begin, uint64_t end, uint64_t sub_shard,
                      size_t first_detection, uint64_t faulty_before,
                      ScreeningStats& stats, TraceDelta* trace) {
  for (size_t i = first_detection; i < stats.provenance.size(); ++i) {
    stats.provenance[i].sub_shard = sub_shard;
    stats.provenance[i].rng_stream = sub_shard;
  }
  if (trace == nullptr) {
    return;
  }
  TraceEvent span = MakeTraceSpan("screen.subshard", "screen", kTraceTrackScreen,
                                  static_cast<double>(begin),
                                  static_cast<double>(end - begin));
  span.num_args.reserve(3);
  span.num_args.emplace_back("sub_shard", static_cast<double>(sub_shard));
  span.num_args.emplace_back("faulty",
                             static_cast<double>(stats.faulty - faulty_before));
  span.num_args.emplace_back(
      "detections", static_cast<double>(stats.detections.size() - first_detection));
  trace->Add(std::move(span));
  for (size_t i = first_detection; i < stats.detections.size(); ++i) {
    const DetectionProvenance& record = stats.provenance[i];
    TraceEvent instant = MakeTraceInstant("detection", "screen", kTraceTrackDetection,
                                          static_cast<double>(record.serial));
    instant.str_args.reserve(2);
    instant.num_args.reserve(4);
    instant.str_args.emplace_back("stage", StageName(record.stage));
    instant.str_args.emplace_back("defect", record.defect_id);
    instant.num_args.emplace_back("sub_shard", static_cast<double>(record.sub_shard));
    instant.num_args.emplace_back("rng_stream",
                                  static_cast<double>(record.rng_stream));
    instant.num_args.emplace_back("defect_count",
                                  static_cast<double>(record.defect_count));
    instant.num_args.emplace_back("month", record.month);
    trace->Add(std::move(instant));
  }
}

}  // namespace

double ScreeningPipeline::ExpectedErrors(const Defect& defect, const StageParams& stage,
                                         int pcores) const {
  return ExpectedErrorsWithMatching(defect, stage, pcores, MatchingTestcases(defect));
}

void ScreeningPipeline::ScreenShardRangeBatch(
    const FleetShard& shard, uint64_t begin, uint64_t end,
    std::span<const ScreeningConfig> scenarios,
    const std::array<ProcessorSpec, kArchCount>& arch_specs, std::span<Rng> rngs,
    std::span<ScreeningStats> stats, std::span<TraceDelta* const> traces) const {
  const size_t k_count = scenarios.size();
  // Scenario-invariant work, paid once for the whole batch: the sub-shard's slice of the
  // faulty list. Clean parts cost nothing here: ConsumeShard counts them from the
  // generator's tally.
  const auto first = std::ranges::lower_bound(shard.faulty, begin, {}, &FaultyPart::serial);
  const auto last =
      std::ranges::lower_bound(first, shard.faulty.end(), end, {}, &FaultyPart::serial);

  std::vector<size_t> first_detection(k_count);
  std::vector<uint64_t> faulty_before(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    first_detection[k] = stats[k].detections.size();
    faulty_before[k] = stats[k].faulty;
  }

  // Scenarios whose stage parameters are bit-identical share one survive-term table per
  // faulty part (the terms are a function of defect/stages/cores only -- see
  // ComputeSurviveTerms). Compared bitwise, not with ==: only bit-identical parameters
  // guarantee bit-identical terms, and byte-identity with the independent runs is the
  // contract. Seed/cadence/horizon sweeps all land in one group.
  std::vector<size_t> group_of(k_count, 0);
  std::vector<size_t> group_rep;
  for (size_t k = 0; k < k_count; ++k) {
    size_t g = 0;
    while (g < group_rep.size() &&
           std::memcmp(&scenarios[group_rep[g]].stages, &scenarios[k].stages,
                       sizeof(scenarios[k].stages)) != 0) {
      ++g;
    }
    if (g == group_rep.size()) {
      group_rep.push_back(k);
    }
    group_of[k] = g;
  }

  // Faulty-major loop: the suite-matching memo, the sorted onsets, and each group's
  // survive-term table are computed once per part and replayed under every scenario --
  // only the probe schedule itself is per-scenario work. Scenario k consumes only
  // rngs[k], in ascending serial order -- exactly the draw sequence its independent run
  // makes, which is what keeps every batched slot byte-identical.
  std::vector<int> matching;
  std::vector<double> sorted_onsets;
  std::vector<std::vector<std::array<double, kStageCount>>> group_terms(group_rep.size());
  for (const FaultyPart& part : std::ranges::subrange(first, last)) {
    const int arch_index = shard.arch_index(part.serial);
    const std::span<const Defect> defects = shard.Defects(part);
    if (part.detectable) {
      matching.resize(defects.size());
      for (size_t d = 0; d < defects.size(); ++d) {
        matching[d] = MatchingTestcases(defects[d]);
      }
      sorted_onsets.resize(defects.size());
      for (size_t d = 0; d < defects.size(); ++d) {
        sorted_onsets[d] = defects[d].onset_months;
      }
      std::sort(sorted_onsets.begin(), sorted_onsets.end());
      const int pcores = arch_specs[static_cast<size_t>(arch_index)].physical_cores;
      for (size_t g = 0; g < group_rep.size(); ++g) {
        group_terms[g].resize(defects.size());
        ComputeSurviveTerms(defects, matching, scenarios[group_rep[g]].stages, pcores,
                            group_terms[g]);
      }
    }
    for (size_t k = 0; k < k_count; ++k) {
      ++stats[k].faulty;
      if (!part.detectable) {
        continue;  // escapes every stage (Section 2.3's false negatives)
      }
      ReplayFaultyProbes(part.serial, arch_index, defects, group_terms[group_of[k]],
                         sorted_onsets, scenarios[k], rngs[k], stats[k]);
    }
  }
  // Stream shards start at multiples of kFleetShardGrain, so this is the *global*
  // screening shard index, the same whichever pass the serials belong to.
  const uint64_t sub_shard = begin / kScreeningShardGrain;
  for (size_t k = 0; k < k_count; ++k) {
    FinishShardRange(begin, end, sub_shard, first_detection[k], faulty_before[k], stats[k],
                     traces[k]);
  }
}

namespace {

// One cumulative sample of the screening trajectory, taken at a stream-shard boundary of
// the serial axis (every kFleetShardGrain serials, plus the fleet's end).
void AppendScreeningSeriesPoint(SeriesRecorder* series, uint64_t end_serial,
                                const ScreeningStats& cumulative) {
  const auto x = static_cast<double>(end_serial);
  const auto detected = static_cast<double>(cumulative.total_detected());
  series->Append("screening.tested", SeriesClock::kSim, x,
                 static_cast<double>(cumulative.tested));
  series->Append("screening.detected", SeriesClock::kSim, x, detected);
  series->Append("screening.escapes", SeriesClock::kSim, x,
                 static_cast<double>(cumulative.faulty) - detected);
}

}  // namespace

std::vector<ScreeningStats> ScreeningPipeline::RunBatch(const FleetPopulation& fleet,
                                                        const ScenarioBatch& batch,
                                                        EngineContext& context) const {
  if (batch.scenarios.empty()) {
    return {};
  }
  const auto run_start = std::chrono::steady_clock::now();
  // The whole pass as one host-clock span.
  TraceRecorder::ScopedHostSpan run_span(context.trace(), "screening.run", "screen",
                                         kTraceTrackScreen);
  // The materialized fleet replayed as stream shards: the same views, per-shard slots,
  // kernel calls and ordered fold as a fused streaming pass over the same serials.
  StreamingScreen screen(this, batch);
  screen.BeginStreamWithContext(&context, fleet.config(), fleet.shard_count());
  context.pool().ParallelFor(0, fleet.shard_count(), 1,
                             [&](uint64_t shard, uint64_t /*begin*/, uint64_t /*end*/) {
                               screen.ConsumeShard(fleet.shard(shard));
                             });
  screen.EndStream();
  const std::chrono::duration<double> run_elapsed =
      std::chrono::steady_clock::now() - run_start;
  if (MetricsRegistry* metrics = context.metrics(); metrics != nullptr) {
    metrics->RecordTimerSeconds("screening.run.wall", run_elapsed.count());
  }
  return screen.TakeBatchStats();
}

ShardOutcomeObserver::~ShardOutcomeObserver() = default;

void ShardOutcomeObserver::BeginStream(const ScreeningConfig& /*screening*/,
                                       uint64_t /*shard_count*/) {}

void ShardOutcomeObserver::EndStream() {}

bool CheckStepCount(double horizon_months, double step_months, double limit,
                    const std::string& what, std::string& error) {
  // Negated so a NaN count fails too. A step that is not positive never ends a loop, and
  // a negative count would wrap the scrubber's unsigned epoch count.
  const double steps = horizon_months / step_months;
  if (!(step_months > 0.0 && steps >= 0.0 && steps <= limit)) {
    std::ostringstream message;
    message << what << " " << step_months << " over a " << horizon_months
            << "-month horizon is not 0 to " << limit << " steps";
    error = message.str();
    return false;
  }
  return true;
}

StreamingScreen::StreamingScreen(const ScreeningPipeline* pipeline,
                                 const ScreeningConfig& config)
    : StreamingScreen(pipeline, ScenarioBatch{.scenarios = {config}}) {}

StreamingScreen::StreamingScreen(const ScreeningPipeline* pipeline, ScenarioBatch batch)
    : pipeline_(pipeline), scenarios_(std::move(batch.scenarios)) {
  bases_.reserve(scenarios_.size());
  for (const ScreeningConfig& scenario : scenarios_) {
    // Bounds the regular-round loop of ReplayFaultyProbes before any lane enters it.
    if (std::string error; !CheckStepCount(scenario.horizon_months,
                                           scenario.regular_period_months,
                                           kMaxRegularRounds, "regular_period_months", error)) {
      throw std::invalid_argument(error);
    }
    bases_.emplace_back(scenario.seed);
  }
  for (int arch = 0; arch < kArchCount; ++arch) {
    arch_specs_[static_cast<size_t>(arch)] = MakeArchSpec(arch);
  }
}

void StreamingScreen::AddObserver(ShardOutcomeObserver* observer, size_t scenario) {
  observers_.push_back({observer, scenario});
}

void StreamingScreen::BeginStreamWithContext(EngineContext* context,
                                             const PopulationConfig& config,
                                             uint64_t shard_count) {
  const size_t k_count = scenarios_.size();
  metrics_ = context->metrics();
  trace_ = context->trace();
  series_ = context->series();
  processors_total_ = config.processor_count;
  shard_stats_.assign(shard_count, std::vector<ScreeningStats>(k_count));
  shard_deltas_.assign(shard_count, std::vector<MetricsDelta>(k_count));
  shard_traces_.assign(shard_count, std::vector<TraceDelta>(k_count));
  stats_.assign(k_count, ScreeningStats{});
  for (const ObserverEntry& entry : observers_) {
    entry.observer->BeginStream(scenarios_[entry.scenario], shard_count);
  }
}

void StreamingScreen::ConsumeShard(const FleetShard& shard) {
  const auto shard_start = std::chrono::steady_clock::now();
  const size_t k_count = scenarios_.size();
  std::vector<ScreeningStats>& stats = shard_stats_[shard.shard];
  // Every part of the shard is tested under every scenario; the per-arch counts are the
  // generator's, so no scenario rescans the arch column.
  for (ScreeningStats& slot : stats) {
    slot.tested += shard.size();
    for (size_t arch = 0; arch < slot.tested_by_arch.size(); ++arch) {
      slot.tested_by_arch[arch] += shard.tally->by_arch[arch];
    }
  }
  std::vector<TraceDelta*> traces(k_count, nullptr);
  if (trace_ != nullptr) {
    for (size_t k = 0; k < k_count; ++k) {
      traces[k] = &shard_traces_[shard.shard][k];
    }
  }

  // Each embedded screening shard draws from the RNG stream of its global index, which
  // its serials fix: stream shards start at multiples of kFleetShardGrain.
  std::vector<Rng> rngs;
  rngs.reserve(k_count);
  for (uint64_t b = shard.begin; b < shard.end; b += kScreeningShardGrain) {
    rngs.clear();
    for (size_t k = 0; k < k_count; ++k) {
      rngs.push_back(bases_[k].Fork(b / kScreeningShardGrain));
    }
    pipeline_->ScreenShardRangeBatch(shard, b, std::min(b + kScreeningShardGrain, shard.end),
                                     scenarios_, arch_specs_, rngs, stats, traces);
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - shard_start;
  if (metrics_ != nullptr) {
    for (size_t k = 0; k < k_count; ++k) {
      shard_deltas_[shard.shard][k] = DeltaFromShardStats(stats[k]);
    }
    metrics_->RecordTimerSeconds("screening.shard.wall", elapsed.count());
  }
  for (const ObserverEntry& entry : observers_) {
    entry.observer->ObserveShard(shard, stats[entry.scenario]);
  }
}

void StreamingScreen::EndStream() {
  const size_t k_count = scenarios_.size();
  // The ordered fold is wall-clock work without a deterministic timeline, so its span
  // lives in the host domain, which keeps the sim traces of every pass over the same
  // fleet identical.
  TraceRecorder::ScopedHostSpan merge_span(trace_, "screening.aggregate", "aggregate",
                                           kTraceTrackAggregate);
  std::vector<MetricsDelta> total_deltas(k_count);
  // Each scenario's accumulator is sized once from the shard totals, so every MergeFrom
  // into it appends in place.
  for (size_t k = 0; k < k_count; ++k) {
    size_t detections = 0;
    for (const std::vector<ScreeningStats>& shard : shard_stats_) {
      detections += shard[k].detections.size();
    }
    stats_[k].detections.reserve(detections);
    stats_[k].provenance.reserve(detections);
  }
  for (size_t shard = 0; shard < shard_stats_.size(); ++shard) {
    for (size_t k = 0; k < k_count; ++k) {
      stats_[k].MergeFrom(std::move(shard_stats_[shard][k]));
      if (metrics_ != nullptr) {
        total_deltas[k].MergeFrom(shard_deltas_[shard][k]);
      }
      if (trace_ != nullptr) {
        trace_->MergeDelta(std::move(shard_traces_[shard][k]));
      }
    }
    if (series_ != nullptr) {
      // One point per stream shard from scenario 0's cumulative stats; a materialized
      // RunBatch replays the same shards, so it appends the same points.
      const uint64_t end_serial =
          std::min<uint64_t>((shard + 1) * kFleetShardGrain, processors_total_);
      AppendScreeningSeriesPoint(series_, end_serial, stats_[0]);
    }
  }
  if (metrics_ != nullptr) {
    for (const MetricsDelta& delta : total_deltas) {
      metrics_->MergeDelta(delta);
    }
  }
  shard_stats_.clear();
  shard_stats_.shrink_to_fit();
  shard_deltas_.clear();
  shard_deltas_.shrink_to_fit();
  shard_traces_.clear();
  shard_traces_.shrink_to_fit();
  for (const ObserverEntry& entry : observers_) {
    entry.observer->EndStream();
  }
}

}  // namespace sdc
