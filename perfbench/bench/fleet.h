// Fleet-pass helpers shared by every workload: the fused streaming pass the CLI and
// sdcd run, its canonical result bytes and invariants, and the traced layer split
// (generate / screen / ordered merge / lane idle) measured through a wrapping
// ShardConsumer around StreamingScreen.

#ifndef PERFBENCH_BENCH_FLEET_H_
#define PERFBENCH_BENCH_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench/perfbench.h"
#include "src/common/context.h"
#include "src/fleet/pipeline.h"
#include "src/toolchain/registry.h"

namespace perfbench {

// One fleet and the scenarios screened against it in a single pass.
struct FleetSpec {
  uint64_t processors = 0;
  uint64_t fleet_seed = 0;
  std::vector<sdc::ScreeningConfig> scenarios;
};

// Contexts ignore SDC_THREADS (the lane count is part of the workload) but take the
// host's resolved vector level, the one the record's fingerprint names.
sdc::EngineOptions ContextOptions(int lanes);

// Suite, pipeline and lanes: what a fleet pass needs, built once per run and timed as
// the run's set-up.
struct FleetEngine {
  explicit FleetEngine(int lanes);

  sdc::TestSuite suite;
  sdc::ScreeningPipeline pipeline;
  sdc::EngineContext context;
};

struct PassResult {
  double wall_s = 0.0;
  uint64_t shards = 0;
  std::vector<sdc::ScreeningStats> stats;
};

// One fused generate -> screen pass over `spec` on `context`'s lanes: what
// `sdcctl --stream [--sweep ...] screen` and an sdcd screen campaign run.
PassResult RunStreamPass(const sdc::ScreeningPipeline& pipeline, sdc::EngineContext& context,
                         const FleetSpec& spec);

// Traced passes over `spec` on `wide_context`'s lanes and on one lane: adds every fleet.*
// per-layer metric, records their spans, and makes one Attempt that the layers
// reconstruct the pass wall time and both passes agree byte for byte. Returns the traced
// wide pass.
PassResult MeasureFleetLayers(const sdc::ScreeningPipeline& pipeline,
                              sdc::EngineContext& wide_context, const FleetSpec& spec,
                              SpanLog& spans, Record& record);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_FLEET_H_
