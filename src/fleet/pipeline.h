// Four-stage screening pipeline (Figure 1): factory delivery, datacenter delivery, system
// re-installation, and regular in-production tests every three months over the study
// horizon. Detection per stage uses the closed-form expected-error count the defect model
// implies -- the same activation law the op-level simulation evaluates -- so fleet-scale
// statistics stay consistent with the deep-dive experiments without simulating 10^6
// processors at operation granularity.
//
// Per stage, the expected number of errors for a defect is
//   E = sum_cores frequency(T_stage, nominal intensity, core) * matching-testcase minutes
// and the detection probability is catch_factor * (1 - exp(-E)). The catch factor models
// how much of the stage's test program overlaps the toolchain's SDC sensitivity (factory
// HVM tests are weak SDC detectors; the re-install full-suite run is the strong one --
// which is exactly why Table 1's re-install column dominates).
//
// Cost model (docs/performance.md): there is one screening kernel, a batch of K
// scenarios over one pass of the fleet; single-scenario screening (a one-config
// StreamingScreen) is a batch of one. The per-defect expected-error terms depend only on
// (defect, stage params, core count), so the kernel evaluates them exactly once per
// faulty processor and memoizes the per-stage survive factors. Pre-production probes are
// then table lookups, and the regular-cycle loop re-derives its detection probability
// only when a wear-out defect's onset month is crossed -- every other cycle is a cached
// lookup. The clean-processor fast path touches neither the model nor the columns: a
// shard's tested counts are the generator's per-arch tally, and the kernel jumps between
// faulty parts by walking the shard's ascending faulty list. The pre-memoization
// implementation lives outside the engine as a test oracle (ReferenceScreen,
// tests/oracles/oracles.h), and the equivalence suite asserts byte-identical stats
// between the two at several thread counts.
//
// Every entry point runs on an EngineContext (src/common/context.h), the one place that
// decides lanes and telemetry sinks; configs describe only the experiment.

#ifndef SDC_SRC_FLEET_PIPELINE_H_
#define SDC_SRC_FLEET_PIPELINE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/toolchain/registry.h"

namespace sdc {

class SeriesRecorder;

// Fixed shard width for screening. Like the generation grain, part of the determinism
// format: screening shard s draws from Rng::Fork(s). kFleetShardGrain is an exact
// multiple, and every pass screens stream shards of kFleetShardGrain serials as their
// embedded screening shards, so each serial draws from the same stream whichever pass
// it belongs to (docs/streaming.md).
inline constexpr uint64_t kScreeningShardGrain = 4096;

enum class TestStage {
  kFactory = 0,
  kDatacenter = 1,
  kReinstall = 2,
  kRegular = 3,
};

constexpr int kStageCount = 4;

std::string StageName(TestStage stage);

struct StageParams {
  double per_case_seconds = 60.0;     // equal allocation across the suite's testcases
  double temperature_celsius = 58.0;  // effective core temperature while testing
  double catch_factor = 1.0;          // SDC sensitivity of this stage's test program
};

struct ScreeningConfig {
  std::array<StageParams, kStageCount> stages = {{
      {30.0, 57.0, 0.24},    // factory: manufacturer tests, partial SDC overlap
      {15.0, 50.0, 0.11},   // datacenter delivery: quick acceptance checks
      {90.0, 66.0, 0.97},    // re-install: first full-suite burn-in run
      {60.0, 58.0, 0.48},    // each regular round: full suite, production thermals
  }};
  double horizon_months = 32.0;
  double regular_period_months = 3.0;
  // Regular tests run in groups (Section 2.4: "testing for each group lasts about 2 weeks,
  // and testing for the whole fleet needs months"): the fleet is partitioned into this many
  // groups and each group's round is offset by an equal share of the period. 1 = every
  // machine tests at the same month boundaries.
  int regular_groups = 6;
  uint64_t seed = 77;
};

// Step limit of the regular-round loop: it visits every round up to the horizon for each
// faulty part that escapes pre-production, so a tiny cadence (regular_period_months =
// 1e-300) would spin a lane until its round counter overflows. StreamingScreen rejects a
// scenario whose horizon_months / regular_period_months exceeds it; the spec parsers
// reject it as a usage error first (docs/daemon.md). A constant, not an option: every
// config in the tree is far inside it.
inline constexpr double kMaxRegularRounds = 10000;

// Returns false and fills `error` unless step_months is positive and horizon_months /
// step_months lies in [0, limit]. `what` names the step in the message (e.g.
// "period_months").
bool CheckStepCount(double horizon_months, double step_months, double limit,
                    const std::string& what, std::string& error);

// K screening scenarios evaluated against ONE fleet in ONE pass (docs/performance.md).
// The paper-style sweeps (seed, cadence, stage-temperature scans) re-screen the same
// fleet K times; batching them shares everything scenario-invariant per shard -- the
// generated shard with its per-arch tally, the faulty-list slice, and the per-defect
// MatchingTestcases suite scan -- so one pass costs ~one generate plus K cheap probe
// replays. Scenario k draws from Rng(scenarios[k].seed).Fork(shard), exactly the
// streams its independent run would use, so every batched ScreeningStats is
// byte-identical to a batch of scenarios[k] alone (tests/screening_model_test.cc).
struct ScenarioBatch {
  // Scenario configs; seeds, stage parameters, cadence and horizon may all differ per
  // scenario. The batch runs on one context, and every scenario's deltas merge into the
  // context's sinks.
  std::vector<ScreeningConfig> scenarios;
};

// Group a processor's regular tests belong to, and the absolute month of its round in a
// given cycle. Deterministic in the serial number.
int RegularGroupOf(uint64_t serial, const ScreeningConfig& config);
double RegularRoundMonth(uint64_t serial, int cycle, const ScreeningConfig& config);

struct ProcessorOutcome {
  uint64_t serial = 0;
  int arch_index = 0;
  bool detected = false;
  TestStage stage = TestStage::kFactory;
  double month = 0.0;  // detection time (0 for pre-production stages)
};

// Compact provenance record attached to every screening detection: enough context to
// answer "which defect, drawn from which RNG stream, was caught where and why" without
// re-running the fleet (docs/observability.md). Built inside the screening kernel;
// ScreeningStats keeps it parallel to `detections` (same length, same order).
struct DetectionProvenance {
  uint64_t serial = 0;
  std::string defect_id;       // id of the processor's first defect
  uint32_t defect_count = 0;   // how many defects the processor carried
  int arch_index = 0;
  TestStage stage = TestStage::kFactory;
  uint64_t sub_shard = 0;      // global screening shard: serial / kScreeningShardGrain
  uint64_t rng_stream = 0;     // Rng::Fork index the detection randomness came from
  double onset_months = 0.0;   // earliest defect onset (0 = from manufacturing)
  double min_trigger_celsius = 0.0;        // lowest trigger temperature across defects
  double stage_temperature_celsius = 0.0;  // test temperature of the detecting stage
  double month = 0.0;          // detection month (0 for pre-production stages)
};

struct ScreeningStats {
  uint64_t tested = 0;
  uint64_t faulty = 0;
  std::array<uint64_t, kStageCount> detected_by_stage{};
  std::array<uint64_t, kArchCount> tested_by_arch{};
  std::array<uint64_t, kArchCount> detected_by_arch{};
  std::vector<ProcessorOutcome> detections;  // one entry per detected faulty part
  // Parallel to `detections`: provenance[i] describes detections[i]. The invariant
  // provenance.size() == detections.size() is pinned by tests/trace_test.cc and surfaced
  // as the "screening.provenance.records" counter.
  std::vector<DetectionProvenance> provenance;

  uint64_t total_detected() const;
  double StageRate(TestStage stage) const;   // detections at stage / tested
  double TotalRate() const;                  // all detections / tested
  double ArchRate(int arch_index) const;     // detections / tested within one arch
  double PreProductionRate() const;          // factory + datacenter + re-install

  // Adds `other`'s counters and move-appends its detections. It never reserves: an
  // exact-size reserve on every call would reallocate the whole accumulated array once
  // per shard. Callers folding many shards presize the accumulator once from the shard
  // totals, which this keeps. Shard results merged in shard order reproduce the serial
  // stats exactly, detections in serial order included.
  void MergeFrom(ScreeningStats&& other);
};

class ScreeningPipeline {
 public:
  // `suite` provides testcase metadata for matching-minutes computation; it must outlive
  // the pipeline.
  explicit ScreeningPipeline(const TestSuite* suite);

  // Screens a materialized fleet under every scenario of `batch` in one pass over its
  // shards. Production screens the stream (StreamingScreen); this overload stays only
  // for perfbench's digest gate and the tests that compare the two. Result k is
  // byte-identical to the batch of scenarios[k] alone -- counters, detections, detection
  // months bitwise -- at any thread count; the faulty-list slice and the per-defect
  // suite matching are paid once per shard instead of once per scenario. Returns one
  // ScreeningStats per scenario, in batch order. The pass is a StreamingScreen fed the
  // fleet's kept shard views (FleetPopulation::shard) through ConsumeShard on the
  // context's lanes, then the stream's ordered fold -- so stats, metrics, trace and series are
  // byte-identical to a fused streaming pass over the same fleet. It runs on `context`:
  // its pool supplies the lanes, and its sinks (src/common/context.h) receive the
  // pass's telemetry. Every scenario's per-shard "screening.*" metric deltas and
  // "screen.subshard"/"detection" sim trace events merge into those sinks shard-major,
  // scenario after scenario within each shard; the series sink samples scenario 0's
  // cumulative "screening.tested" / "screening.detected" / "screening.escapes" once per
  // kFleetShardGrain of serials. Each pass also leaves one "screening.run" host span and
  // one "screening.run.wall" timer sample, whatever K is.
  std::vector<ScreeningStats> RunBatch(const FleetPopulation& fleet,
                                       const ScenarioBatch& batch,
                                       EngineContext& context) const;

  // Expected error count for `defect` under one full-suite pass at the stage's settings on
  // a processor with `pcores` physical cores. Exposed for tests and calibration.
  double ExpectedErrors(const Defect& defect, const StageParams& stage, int pcores) const;

  // Number of suite testcases whose op kinds and datatypes can expose `defect`.
  int MatchingTestcases(const Defect& defect) const;

 private:
  friend class StreamingScreen;

  // The screening kernel: one pass over the sub-shard [begin, end) of `shard` that
  // accumulates into stats[k] for every scenario k (counters add, so one stats object
  // may accumulate several consecutive sub-shards), drawing scenario k's randomness only
  // from rngs[k] in serial order -- the reason each slot is byte-identical to a batch of
  // that scenario alone. StreamingScreen::ConsumeShard calls it once per screening shard
  // (kScreeningShardGrain) with that shard's forked RNG streams; the global sub-shard
  // index begin / kScreeningShardGrain is stamped into every new provenance record and,
  // when traces[k] is non-null, emitted as the "screen.subshard" span plus one
  // "detection" instant per new detection. It screens only the faulty parts: the caller
  // adds the tested counts from the shard's tally. Scenarios share the faulty-list
  // slice and the per-defect MatchingTestcases memo. All spans must have
  // scenarios.size() entries.
  void ScreenShardRangeBatch(const FleetShard& shard, uint64_t begin, uint64_t end,
                             std::span<const ScreeningConfig> scenarios,
                             const std::array<ProcessorSpec, kArchCount>& arch_specs,
                             std::span<Rng> rngs, std::span<ScreeningStats> stats,
                             std::span<TraceDelta* const> traces) const;

  const TestSuite* suite_;
};

// Observer of per-shard screening outcomes during a fused streaming pass. ObserveShard
// runs while the shard's defect spans are still alive, so downstream aggregations
// (capacity replay, wear-out exposure, testcase effectiveness over outcomes) can consume
// detection records together with the defect data that produced them, without a
// random-access fleet. Concurrency contract
// matches ShardConsumer: ObserveShard is called concurrently on distinct shards, so
// observers keep per-shard partials and fold them in shard order in EndStream.
class ShardOutcomeObserver {
 public:
  virtual ~ShardOutcomeObserver();

  virtual void BeginStream(const ScreeningConfig& screening, uint64_t shard_count);
  // `shard_stats` holds exactly the shard's outcomes: detections ascending by serial,
  // all within [shard.begin, shard.end).
  virtual void ObserveShard(const FleetShard& shard, const ScreeningStats& shard_stats) = 0;
  virtual void EndStream();
};

// Fused streaming screener: a ShardConsumer that screens every generated shard in place,
// so generate -> screen -> aggregate happens in one pass without materializing the fleet.
// Each stream shard is screened as its embedded kScreeningShardGrain sub-shards, each
// drawing from the Rng::Fork stream of its global sub-shard index, and per-shard stats,
// metric deltas and sim trace events are merged in shard order in EndStream (shard-major,
// scenario after scenario within each shard). This is the engine's one screening fold:
// the materialized RunBatch replays a generated fleet's shards through ConsumeShard, so
// TakeStats() is byte-identical to RunBatch on the materialized fleet at any thread
// count (tests/stream_test.cc).
//
// Batched form: constructed from a ScenarioBatch, the consumer screens every generated
// shard once per batched kernel call, producing one ScreeningStats per scenario from the
// single generation pass -- the scenario-sweep configuration the engine is built for
// (K scenarios cost one generate plus K cheap probe replays instead of K full passes).
// TakeBatchStats()[k] is byte-identical to an independent run of scenarios[k].
class StreamingScreen : public ShardConsumer {
 public:
  // `pipeline` must outlive the stream pass. The single-config form is a batch of one.
  StreamingScreen(const ScreeningPipeline* pipeline, const ScreeningConfig& config);
  StreamingScreen(const ScreeningPipeline* pipeline, ScenarioBatch batch);

  // Registers an outcome observer for one scenario of the batch (0, the only valid index
  // for the single-config form, by default); call before the pass starts. Observers are
  // invoked in registration order after each shard is screened, receiving that
  // scenario's shard stats.
  void AddObserver(ShardOutcomeObserver* observer, size_t scenario = 0);

  // Takes the driving context's sinks for the pass -- no environment read.
  void BeginStreamWithContext(EngineContext* context, const PopulationConfig& config,
                              uint64_t shard_count) override;
  // Adds the shard's tally to the tested counts of its per-shard slots, screens the
  // faulty parts of its embedded screening shards into them, records the shard's metric
  // deltas and "screening.shard.wall" sample, then hands every observer its scenario's
  // shard stats. Thread-safe against itself on distinct shards.
  void ConsumeShard(const FleetShard& shard) override;
  void EndStream() override;

  size_t scenario_count() const { return scenarios_.size(); }

  // Moves out scenario 0's merged fleet-wide stats; valid once after EndStream.
  ScreeningStats TakeStats() { return std::move(stats_.front()); }
  // Moves out the merged stats of every scenario, in batch order; valid once after
  // EndStream.
  std::vector<ScreeningStats> TakeBatchStats() { return std::move(stats_); }

 private:
  struct ObserverEntry {
    ShardOutcomeObserver* observer = nullptr;
    size_t scenario = 0;
  };

  const ScreeningPipeline* pipeline_;
  std::vector<ScreeningConfig> scenarios_;
  std::vector<Rng> bases_;  // one base RNG per scenario, forked per screening shard
  std::array<ProcessorSpec, kArchCount> arch_specs_;
  std::vector<ObserverEntry> observers_;
  // The context's sinks, taken at pass start; every scenario merges into them. The
  // series samples scenario 0 only (the RunBatch contract): EndStream appends one
  // cumulative point per stream shard during its ordered fold.
  MetricsRegistry* metrics_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  SeriesRecorder* series_ = nullptr;
  uint64_t processors_total_ = 0;  // for the final (partial-shard) sample boundary
  // Per-stream-shard, per-scenario partials, merged in shard order by EndStream.
  std::vector<std::vector<ScreeningStats>> shard_stats_;
  std::vector<std::vector<MetricsDelta>> shard_deltas_;
  std::vector<std::vector<TraceDelta>> shard_traces_;
  std::vector<ScreeningStats> stats_;  // one per scenario after EndStream
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_PIPELINE_H_
