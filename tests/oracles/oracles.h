// Test oracles: the pre-optimisation implementations of fleet generation, fleet
// screening and the protected workload, kept outside the production code as the
// references the equivalence suites check the engine against (docs/performance.md).
//
// Each oracle is deliberately simple and runs on one lane: no shared memo, no blocked
// kernel, no session decomposition. Production and oracle share only public API, so a
// change that moves a draw or a rounding in either shows up as a divergence, never as a
// change both sides agree on. Tests and bench/micro_screening link this library; nothing
// under src/ does.

#ifndef SDC_TESTS_ORACLES_ORACLES_H_
#define SDC_TESTS_ORACLES_ORACLES_H_

#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fault/machine.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/toolchain/registry.h"

namespace sdc {

// The original per-processor generator: GenerationPlan::Build with the blocked kernel
// switched off, so GenerateFleetShard takes its scalar loop for every shard, run shard by
// shard on one lane and stitched by a FleetMaterializer. Byte-identical to
// FleetPopulation::Generate -- columns, faulty index, defect arena, tallies -- at any lane
// count and vector level.
FleetPopulation GenerateFleetReference(const PopulationConfig& config);

// The pre-memoization screening model: every processor (clean parts included) screened
// in serial order, recomputing MatchingTestcases / ExpectedErrors at every probe.
// Screening shard s (kScreeningShardGrain serials) draws from Rng(config.seed).Fork(s)
// and stamps sub_shard = rng_stream = s on its provenance records, so the result --
// counters, detections, provenance, doubles bitwise -- equals ScreeningPipeline::Run
// of `config` at any lane count. Emits no metrics or trace.
ScreeningStats ReferenceScreen(const ScreeningPipeline& pipeline, const FleetPopulation& fleet,
                               const ScreeningConfig& config);

// The pre-session monolithic protection loop. Byte-identical to SimulateProtectedWorkload
// -- report, event log, metrics, trace -- which drives the same workload through a
// ProtectionSession (src/farron/session.h).
ProtectionReport SimulateProtectedWorkloadReference(Farron& farron, FaultyMachine& machine,
                                                    const TestSuite& suite,
                                                    const WorkloadSpec& spec, double hours,
                                                    bool protect);

}  // namespace sdc

#endif  // SDC_TESTS_ORACLES_ORACLES_H_
