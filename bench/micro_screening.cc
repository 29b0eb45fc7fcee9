// micro_screening: throughput of fleet generation and fleet screening under the
// defect-arena layout and the memoized detection model (docs/performance.md).
//
// Emits one JSON object per line so runs can be diffed and checked mechanically
// (tools/check_screening_json.py). Phases: "generate" (arena fleet build),
// "screen" and "generate_screen", each at 1/2/8 worker threads; "screen" and
// "generate_screen" run under both models:
//   cached    -- the production path: per-defect survive terms memoized once per
//                faulty processor, clean parts streamed via the packed byte columns.
//   reference -- the pre-memoization ReferenceScreen test oracle
//                (tests/oracles/oracles.h), recomputing MatchingTestcases/ExpectedErrors
//                at every probe.
// The binary asserts that both models, at every thread count, produce identical
// ScreeningStats (counters and the detections vector, months compared bitwise) and
// exits non-zero on any divergence; the closing "summary" line reports the
// cached-vs-reference screening speedup at one thread.
//
// "generate" likewise runs under both models: cached is the blocked SIMD generator
// (GenerationPlan + bulk uniform fill + branchless classify, docs/performance.md),
// reference the original per-processor loop, run by the GenerateFleetReference test
// oracle. The binary asserts the two fleets are byte-identical -- columns, faulty index,
// defect arena (doubles compared bitwise), per-arch tallies -- at every thread count,
// and the summary reports the blocked generator's speedup at one thread.
//
// The oracles run on one lane whatever the row's thread count, so every "reference" row
// times the one-lane oracle; the 2- and 8-thread reference rows repeat the 1-thread
// measurement next to that row's multi-lane cached half.
//
// Further row families cover the batched engine and the SIMD kernel
// (docs/performance.md):
//   "generate_scalar" -- the blocked generator on a context pinned to the scalar
//                        fallback; its fleet too must match the golden fleet bitwise.
//   "screen_series"   -- the cached screen with a SeriesRecorder attached; the ratio to
//                        the plain "screen" row is the live-telemetry overhead, bounded
//                        by tools/check_screening_json.py (docs/observability.md).
//   "screen_batch"    -- ScreeningPipeline::RunBatch over K in {1,2,4,8} scenarios
//                        (seeds 77+k, periods cycling {3,1,2,6} months) at 1/2/8
//                        threads; the figure of merit is ns_per_processor_scenario =
//                        wall * 1e9 / (processors * K). The binary asserts every
//                        batched slot is bitwise identical to that scenario's
//                        independent run.
// Every row runs on an EngineContext pinned to the row's thread count (SDC_THREADS never
// relabels a row) and vector level: the "env" line's resolved level (SDC_SIMD honored,
// read once) or scalar. The leading "env" line records that level, whether the build
// compiled the vector kernels out (-DSDC_FORCE_SCALAR), and the host's hardware thread
// count, so checked-in results are interpretable.
//
// The two ratios tools/check_screening_json.py gates on -- blocked vs reference generate
// and series-attached vs plain screen, both at one thread -- are measured as interleaved
// pairs, and the summary reports the best per-pair ratio: both halves of a pair see the
// same host, so a slow spell on a shared machine cannot land on one side of the ratio
// only.
//
// Usage: micro_screening [processor_count] [repeats]
// Defaults: 1,000,000 processors, best-of-5. CI smoke runs use a small count.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/context.h"
#include "src/common/simd.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/telemetry/series.h"
#include "src/toolchain/registry.h"
#include "tests/oracles/oracles.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

double BestWallSeconds(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    best = std::min(best, WallSeconds(fn));
  }
  return best;
}

// `first` and `second` timed as `repeats` interleaved pairs: the best wall of each side,
// and the smallest and largest per-pair ratio second / first.
struct PairedWalls {
  double first = 1e300;
  double second = 1e300;
  double min_ratio = 1e300;
  double max_ratio = 0.0;
};

PairedWalls BestPairedWalls(int repeats, const std::function<void()>& first,
                            const std::function<void()>& second) {
  PairedWalls walls;
  for (int i = 0; i < repeats; ++i) {
    const double a = WallSeconds(first);
    const double b = WallSeconds(second);
    walls.first = std::min(walls.first, a);
    walls.second = std::min(walls.second, b);
    if (a > 0.0) {
      walls.min_ratio = std::min(walls.min_ratio, b / a);
      walls.max_ratio = std::max(walls.max_ratio, b / a);
    }
  }
  return walls;
}

// A bench row's engine: exactly `threads` lanes at vector level `simd`, environment
// ignored.
EngineOptions BenchEngine(int threads, SimdLevel simd) {
  return EngineOptions{.threads = threads, .simd = simd, .env_overrides = false};
}

void EmitJson(const char* phase, const char* model, int threads, double wall_seconds,
              uint64_t processors) {
  const double ns_per_processor = wall_seconds * 1e9 / static_cast<double>(processors);
  const double fleets_per_second = wall_seconds > 0.0 ? 1.0 / wall_seconds : 0.0;
  std::printf("{\"bench\": \"%s\", \"model\": \"%s\", \"threads\": %d, "
              "\"processors\": %llu, \"wall_seconds\": %.6f, \"ns_per_processor\": %.2f, "
              "\"fleets_per_second\": %.2f}\n",
              phase, model, threads, static_cast<unsigned long long>(processors),
              wall_seconds, ns_per_processor, fleets_per_second);
  std::fflush(stdout);
}

void EmitBatchJson(int threads, int k_count, double wall_seconds, uint64_t processors) {
  const double ns_per_processor_scenario =
      wall_seconds * 1e9 /
      (static_cast<double>(processors) * static_cast<double>(k_count));
  std::printf("{\"bench\": \"screen_batch\", \"model\": \"cached\", \"threads\": %d, "
              "\"k\": %d, \"processors\": %llu, \"wall_seconds\": %.6f, "
              "\"ns_per_processor_scenario\": %.2f}\n",
              threads, k_count, static_cast<unsigned long long>(processors), wall_seconds,
              ns_per_processor_scenario);
  std::fflush(stdout);
}

// Scenario k of the bench batch: distinct seed and cadence so the batched pass cannot
// cheat by sharing per-scenario state (the same spread the equivalence tests use).
ScreeningConfig BatchScenario(int k) {
  static constexpr double kPeriods[] = {3.0, 1.0, 2.0, 6.0};
  ScreeningConfig config;
  config.seed = 77 + static_cast<uint64_t>(k);
  config.regular_period_months = kPeriods[k % 4];
  return config;
}

// Bitwise equality of two screening results: every counter and every detection,
// including the exact bit pattern of the detection-month doubles.
bool IdenticalStats(const ScreeningStats& a, const ScreeningStats& b) {
  if (a.tested != b.tested || a.faulty != b.faulty ||
      a.detected_by_stage != b.detected_by_stage || a.tested_by_arch != b.tested_by_arch ||
      a.detected_by_arch != b.detected_by_arch ||
      a.detections.size() != b.detections.size()) {
    return false;
  }
  for (size_t i = 0; i < a.detections.size(); ++i) {
    const ProcessorOutcome& x = a.detections[i];
    const ProcessorOutcome& y = b.detections[i];
    if (x.serial != y.serial || x.arch_index != y.arch_index || x.detected != y.detected ||
        x.stage != y.stage ||
        std::memcmp(&x.month, &y.month, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool IdenticalDefects(const Defect& a, const Defect& b) {
  if (a.id != b.id || a.feature != b.feature || a.affected_ops != b.affected_ops ||
      a.affected_types != b.affected_types || a.affected_pcores != b.affected_pcores ||
      a.semantics != b.semantics ||
      a.pcore_rate_scale.size() != b.pcore_rate_scale.size() ||
      a.pattern_sets.size() != b.pattern_sets.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pcore_rate_scale.size(); ++i) {
    if (!SameBits(a.pcore_rate_scale[i], b.pcore_rate_scale[i])) {
      return false;
    }
  }
  if (!SameBits(a.min_trigger_celsius, b.min_trigger_celsius) ||
      !SameBits(a.base_log10_rate, b.base_log10_rate) ||
      !SameBits(a.temp_slope, b.temp_slope) ||
      !SameBits(a.intensity_ref, b.intensity_ref) ||
      !SameBits(a.intensity_exponent, b.intensity_exponent) ||
      !SameBits(a.pattern_probability, b.pattern_probability) ||
      !SameBits(a.multi_flip_probability, b.multi_flip_probability) ||
      !SameBits(a.extra_flip_probability, b.extra_flip_probability) ||
      !SameBits(a.onset_months, b.onset_months)) {
    return false;
  }
  for (size_t s = 0; s < a.pattern_sets.size(); ++s) {
    const PatternSet& x = a.pattern_sets[s];
    const PatternSet& y = b.pattern_sets[s];
    if (x.type != y.type || x.patterns.size() != y.patterns.size()) {
      return false;
    }
    for (size_t p = 0; p < x.patterns.size(); ++p) {
      if (x.patterns[p].mask.lo != y.patterns[p].mask.lo ||
          x.patterns[p].mask.hi != y.patterns[p].mask.hi ||
          !SameBits(x.patterns[p].weight, y.patterns[p].weight)) {
        return false;
      }
    }
  }
  return true;
}

// Byte-identity of two fleets, shard by shard: packed columns, sparse faulty index, arena
// ranges, every defect field (doubles bitwise), and the per-arch tallies -- the contract
// the blocked generator makes against the reference loop (docs/performance.md).
bool IdenticalFleets(const FleetPopulation& a, const FleetPopulation& b) {
  if (a.size() != b.size() || a.shard_count() != b.shard_count()) {
    return false;
  }
  for (uint64_t s = 0; s < a.shard_count(); ++s) {
    const FleetShard x = a.shard(s);
    const FleetShard y = b.shard(s);
    if (!std::ranges::equal(x.arch_bytes, y.arch_bytes) ||
        !std::ranges::equal(x.flag_bytes, y.flag_bytes) ||
        !std::ranges::equal(x.faulty_serials, y.faulty_serials) ||
        x.faulty_ranges.size() != y.faulty_ranges.size() ||
        x.defects.size() != y.defects.size() || x.tally->by_arch != y.tally->by_arch) {
      return false;
    }
    for (size_t i = 0; i < x.faulty_ranges.size(); ++i) {
      if (x.faulty_ranges[i].offset != y.faulty_ranges[i].offset ||
          x.faulty_ranges[i].count != y.faulty_ranges[i].count) {
        return false;
      }
    }
    for (size_t i = 0; i < x.defects.size(); ++i) {
      if (!IdenticalDefects(x.defects[i], y.defects[i])) {
        return false;
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  const uint64_t processors =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1'000'000ull;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 5;
  std::printf("# micro_screening: %llu processors, best of %d\n",
              static_cast<unsigned long long>(processors), repeats);

  const SimdLevel auto_level = ResolveSimdLevel(SimdLevel::kAuto);
  std::printf("{\"bench\": \"env\", \"simd\": \"%s\", \"forced_scalar\": %s, "
              "\"hardware_threads\": %u}\n",
              SimdLevelName(auto_level).c_str(),
#if defined(SDC_FORCE_SCALAR)
              "true",
#else
              "false",
#endif
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  const TestSuite suite = TestSuite::BuildFull();
  ScreeningPipeline pipeline(&suite);
  bool deterministic = true;
  double cached_screen_t1 = 0.0;
  double reference_screen_t1 = 0.0;
  double batch_k1_t1 = 0.0;
  double batch_k8_t1 = 0.0;
  double generate_speedup = 0.0;
  double series_overhead = 0.0;

  PopulationConfig population_config;
  population_config.processor_count = processors;

  // Ground truth for the determinism assertions: the blocked generator and the cached
  // screening model at one thread. Every other (generator, dispatch, threads) variant
  // must reproduce this fleet and these stats bitwise.
  EngineContext serial(BenchEngine(1, auto_level));
  const FleetPopulation golden_fleet = FleetPopulation::Generate(population_config, serial);
  const ScreeningStats golden = RunBatchOfOne(pipeline, golden_fleet, ScreeningConfig(), serial);

  for (int threads : {1, 2, 8}) {
    EngineContext context(BenchEngine(threads, auto_level));
    EngineContext scalar_context(BenchEngine(threads, SimdLevel::kScalar));

    // The blocked kernel against the pre-blocking per-processor loop, timed as
    // interleaved pairs, and the blocked kernel on scalar dispatch: three generators,
    // one fleet, asserted byte-identical below.
    deterministic &= IdenticalFleets(golden_fleet, GenerateFleetReference(population_config));
    const PairedWalls generate_walls = BestPairedWalls(
        repeats, [&] { (void)FleetPopulation::Generate(population_config, context); },
        [&] { (void)GenerateFleetReference(population_config); });
    EmitJson("generate", "cached", threads, generate_walls.first, processors);
    EmitJson("generate", "reference", threads, generate_walls.second, processors);

    deterministic &= IdenticalFleets(
        golden_fleet, FleetPopulation::Generate(population_config, scalar_context));
    const double generate_scalar_wall = BestWallSeconds(repeats, [&] {
      (void)FleetPopulation::Generate(population_config, scalar_context);
    });
    EmitJson("generate_scalar", "cached", threads, generate_scalar_wall, processors);

    if (threads == 1) {
      generate_speedup = generate_walls.max_ratio;
    }

    const FleetPopulation fleet = FleetPopulation::Generate(population_config, context);
    deterministic &= IdenticalFleets(golden_fleet, fleet);

    // The cached screen plain and with a live SeriesRecorder attached, timed as
    // interleaved pairs: sampling happens only at shard boundaries in the serial fold, so
    // the per-pair ratio is the whole observability tax. Output (and the recorded sim
    // series) must not move a bit. The plain half is the cached "screen" row.
    SeriesRecorder check_recorder;
    context.AttachSeries(&check_recorder);
    deterministic &=
        IdenticalStats(golden, RunBatchOfOne(pipeline, fleet, ScreeningConfig(), context));
    context.AttachSeries(nullptr);
    const PairedWalls series_walls = BestPairedWalls(
        repeats, [&] { (void)RunBatchOfOne(pipeline, fleet, ScreeningConfig(), context); },
        [&] {
          SeriesRecorder recorder;
          context.AttachSeries(&recorder);
          (void)RunBatchOfOne(pipeline, fleet, ScreeningConfig(), context);
          context.AttachSeries(nullptr);
        });
    if (threads == 1) {
      series_overhead = series_walls.min_ratio;
    }

    // The cached model (its "screen" row is the plain half of the series pairs above),
    // then the oracles on the same fleet.
    deterministic &=
        IdenticalStats(golden, RunBatchOfOne(pipeline, fleet, ScreeningConfig(), context));
    EmitJson("screen", "cached", threads, series_walls.first, processors);
    const double cached_both_wall = BestWallSeconds(repeats, [&] {
      const FleetPopulation f = FleetPopulation::Generate(population_config, context);
      (void)RunBatchOfOne(pipeline, f, ScreeningConfig(), context);
    });
    EmitJson("generate_screen", "cached", threads, cached_both_wall, processors);

    deterministic &= IdenticalStats(golden, ReferenceScreen(pipeline, fleet, ScreeningConfig()));
    const double reference_wall = BestWallSeconds(
        repeats, [&] { (void)ReferenceScreen(pipeline, fleet, ScreeningConfig()); });
    EmitJson("screen", "reference", threads, reference_wall, processors);
    const double reference_both_wall = BestWallSeconds(repeats, [&] {
      const FleetPopulation f = GenerateFleetReference(population_config);
      (void)ReferenceScreen(pipeline, f, ScreeningConfig());
    });
    EmitJson("generate_screen", "reference", threads, reference_both_wall, processors);
    if (threads == 1) {
      cached_screen_t1 = series_walls.first;
      reference_screen_t1 = reference_wall;
    }

    EmitJson("screen_series", "cached", threads, series_walls.second, processors);

    // Batched engine: one pass over the fleet for K scenarios. Every slot must be
    // bitwise identical to that scenario's independent run before timing means anything.
    for (const int k_count : {1, 2, 4, 8}) {
      ScenarioBatch batch;
      for (int k = 0; k < k_count; ++k) {
        batch.scenarios.push_back(BatchScenario(k));
      }
      const std::vector<ScreeningStats> batched = pipeline.RunBatch(fleet, batch, context);
      for (int k = 0; k < k_count; ++k) {
        const size_t slot = static_cast<size_t>(k);
        deterministic &= IdenticalStats(
            batched[slot], RunBatchOfOne(pipeline, fleet, batch.scenarios[slot], context));
      }
      const double batch_wall = BestWallSeconds(repeats, [&] {
        (void)pipeline.RunBatch(fleet, batch, context);
      });
      EmitBatchJson(threads, k_count, batch_wall, processors);
      if (threads == 1 && k_count == 1) {
        batch_k1_t1 = batch_wall;
      }
      if (threads == 1 && k_count == 8) {
        batch_k8_t1 = batch_wall;
      }
    }
  }

  const double speedup =
      cached_screen_t1 > 0.0 ? reference_screen_t1 / cached_screen_t1 : 0.0;
  // How much one batched pass beats K independent passes: K * wall(K=1) / wall(K=8),
  // both at one thread.
  const double batch_amortization =
      batch_k8_t1 > 0.0 ? 8.0 * batch_k1_t1 / batch_k8_t1 : 0.0;
  // generate_speedup (reference over blocked generate wall, the best pair at one thread)
  // and series_overhead (series-attached over plain screen wall, the best pair at one
  // thread) are the ratios tools/check_screening_json.py bounds: relative, so flaky hosts
  // cannot fail them on absolute wall time alone.
  std::printf("{\"bench\": \"summary\", \"screen_speedup_cached_vs_reference\": %.2f, "
              "\"batch_amortization_k8\": %.2f, "
              "\"generate_speedup_blocked_vs_reference\": %.2f, "
              "\"series_overhead\": %.4f, "
              "\"deterministic\": %s}\n",
              speedup, batch_amortization, generate_speedup,
              series_overhead, deterministic ? "true" : "false");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: generator/model/scalar/batch paths diverged from the golden run "
                 "(see docs/performance.md)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sdc

int main(int argc, char** argv) { return sdc::Main(argc, argv); }
