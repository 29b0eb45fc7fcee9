// Test oracles: the pre-optimisation implementations of fleet generation, fleet
// screening, the protected workload, the x87 bit images and Adler-32, kept outside the
// production code as the references the equivalence suites check the engine against
// (docs/performance.md).
//
// Each oracle is deliberately simple and runs on one lane: no shared memo, no blocked
// kernel, no session decomposition. Production and oracle share only public API, so a
// change that moves a draw or a rounding in either shows up as a divergence, never as a
// change both sides agree on. Tests and bench/micro_screening link this library; nothing
// under src/ does.

#ifndef SDC_TESTS_ORACLES_ORACLES_H_
#define SDC_TESTS_ORACLES_ORACLES_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bits.h"
#include "src/farron/farron.h"
#include "src/farron/protection.h"
#include "src/fault/machine.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/sim/processor.h"
#include "src/toolchain/registry.h"

namespace sdc {

// The original per-processor generator: GenerationPlan::Build with the blocked kernel
// switched off, so GenerateFleetShard takes its scalar loop for every shard, run shard by
// shard on one lane straight into the fleet's shard buffers. Byte-identical to
// FleetPopulation::Generate -- columns, faulty index, defect arenas, tallies -- at any
// lane count and vector level.
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

// The x87 encoders as the portable frexp/ldexp code computes them for every value, with no
// in-memory copy: what BitsOfFloat80 / Float80FromBits (src/common/bits.h) must return.
Word128 BitsOfFloat80Reference(long double value);
long double Float80FromBitsReference(const Word128& bits);

// Adler-32 with both sums reduced after every byte, as RFC 1950 writes it: what Adler32 /
// Adler32OnProcessor (src/integrity/adler32.h) must return. The routed form hands the
// packed pair to the processor once per 16-byte block as a kIntAdd on kUInt32.
uint32_t Adler32Reference(std::span<const uint8_t> data);
uint32_t Adler32OnProcessorReference(Processor& cpu, int lcore, std::span<const uint8_t> data);

// The op-intensity EMA as the processor kept it before idle cells decayed lazily: every
// (pcore, kind) cell blended on every advance, (1 - 0.5) x + 0.5 fresh. Driven with the
// same counts and advances as a Processor, intensity() must equal the op_intensity of the
// processor's MakeContext bitwise.
class EagerIntensityReference {
 public:
  explicit EagerIntensityReference(int physical_cores) : cells_(physical_cores) {}

  void Count(int pcore, OpKind op, uint64_t count) {
    cells_[pcore][static_cast<int>(op)].ops_since_advance += count;
  }
  // Processor::AdvanceSeconds(dt_seconds) at `time_scale`.
  void Advance(double dt_seconds, double time_scale);
  double intensity(int pcore, OpKind op) const {
    return cells_[pcore][static_cast<int>(op)].intensity;
  }

 private:
  struct Cell {
    uint64_t ops_since_advance = 0;
    double intensity = 0.0;
  };
  std::vector<std::array<Cell, kOpKindCount>> cells_;
};

// Forwards every call to `inner` but keeps CorruptionHook's default CorruptibleOps (every
// kind), so a processor carrying it never takes its clean-op path: every op is computed,
// handed to the hook and compared. Installing it over an injector gives the same results,
// draws and counts as the injector alone, only slower.
class FullPathHook : public CorruptionHook {
 public:
  explicit FullPathHook(CorruptionHook* inner) : inner_(inner) {}

  void OnExecuteBatch(const OpContext& context, std::span<Word128> values) override {
    inner_->OnExecuteBatch(context, values);
  }
  bool OnCoherenceFault(const OpContext& context) override {
    return inner_->OnCoherenceFault(context);
  }
  bool OnTxFault(const OpContext& context) override { return inner_->OnTxFault(context); }

 private:
  CorruptionHook* inner_;
};

}  // namespace sdc

#endif  // SDC_TESTS_ORACLES_ORACLES_H_
