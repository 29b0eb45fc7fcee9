// Engine contexts for tests. Lanes, vector level and telemetry sinks live only on the
// EngineContext (src/common/context.h); tests that pin a lane count or a vector level
// build their context with env_overrides = false, so SDC_THREADS / SDC_SIMD in the test
// environment can never beat the value the test pins.

#ifndef SDC_TESTS_TEST_ENGINE_H_
#define SDC_TESTS_TEST_ENGINE_H_

#include "src/common/context.h"
#include "src/common/simd.h"
#include "src/fleet/population.h"

namespace sdc {

class MetricsRegistry;
class SeriesRecorder;
class TraceRecorder;

// Exactly `threads` lanes at vector level `simd`; the environment is not consulted.
inline EngineOptions PinnedEngine(int threads, SimdLevel simd = SimdLevel::kAuto) {
  return EngineOptions{.threads = threads, .simd = simd, .env_overrides = false};
}

// Exactly `threads` lanes, environment ignored, with the given sinks (null = none).
inline EngineOptions PinnedEngine(int threads, MetricsRegistry* metrics,
                                  TraceRecorder* trace = nullptr,
                                  SeriesRecorder* series = nullptr) {
  return EngineOptions{.threads = threads,
                       .env_overrides = false,
                       .metrics = metrics,
                       .trace = trace,
                       .series = series};
}

// Generates `config` on a fresh sink-free context of `threads` lanes.
inline FleetPopulation GenerateFleet(const PopulationConfig& config, int threads = 2) {
  EngineContext context(PinnedEngine(threads));
  return FleetPopulation::Generate(config, context);
}

}  // namespace sdc

#endif  // SDC_TESTS_TEST_ENGINE_H_
