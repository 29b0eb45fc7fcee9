// Silicon defect model.
//
// A Defect describes one fault inside a processor: which feature it lives in, which operation
// kinds and datatypes it can corrupt, which physical cores it affects, when it activates, and
// what bit-level damage it does. The model encodes the paper's empirical structure:
//
//  * Activation (Observation 10): zero below a minimum triggering temperature; above it the
//    per-operation corruption rate grows exponentially with core temperature
//    (log10-linear, Figure 8) and polynomially with instruction usage stress (Section 5).
//  * Damage (Observations 7/8): a mixture of fixed XOR masks ("bitflip patterns", Figure 6)
//    and positional noise whose distribution concentrates mid-word -- for floats this puts
//    flips in the fraction part, for integers away from the most significant bits
//    (Figure 4); non-numerical payloads flip uniformly (Figure 5). Most corruptions flip one
//    bit, some flip two or more (Figure 7). A defect may have stuck-at semantics, which
//    produces the directional bias seen in corner cases (Section 4.2).
//  * Onset: some defects exist from manufacturing, others develop after months in the fleet
//    (which is why processors pass pre-production tests and later fail regular tests,
//    Observation 2).

#ifndef SDC_SRC_FAULT_DEFECT_H_
#define SDC_SRC_FAULT_DEFECT_H_

#include <string>
#include <vector>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/sim/isa.h"
#include "src/sim/processor.h"

namespace sdc {

// The paper's two SDC classes (Section 4.1).
enum class SdcType {
  kComputation,  // ALU / VecUnit / FPU result corruption
  kConsistency,  // cache coherence / transactional memory violations
};

std::string SdcTypeName(SdcType type);

// A fixed XOR mask the defect tends to imprint (Observation 8).
struct BitflipPattern {
  Word128 mask;
  double weight = 1.0;  // relative share among this defect's patterns
};

// Patterns are per result datatype: the imprinted bit positions depend on where the damaged
// structure's bits land in each representation.
struct PatternSet {
  DataType type = DataType::kFloat64;
  std::vector<BitflipPattern> patterns;
  // Sealed cumulative form of the pattern weights (Defect::SealPatternCdfs), consulted by
  // Corrupt so the per-corruption weighted pick stops re-summing the weights on every
  // draw. Empty (default) means unsealed: Corrupt falls back to Rng::NextWeighted over
  // the live weights. Both picks are draw-for-draw identical (see WeightedCdf).
  WeightedCdf weight_cdf;
};

// How flips combine with the data (XOR = true flip; stuck-at produces direction bias).
enum class FlipSemantics {
  kXor,
  kStuckOne,   // OR of the mask: only 0 -> 1 transitions
  kStuckZero,  // AND-NOT of the mask: only 1 -> 0 transitions
};

struct Defect {
  std::string id;
  Feature feature = Feature::kAlu;

  // What the defect can touch.
  std::vector<OpKind> affected_ops;
  std::vector<DataType> affected_types;  // computation defects only
  std::vector<int> affected_pcores;      // empty = every physical core
  // Rate multiplier per entry of affected_pcores (or per pcore index when empty). The paper
  // observes multi-core defects whose cores fail at rates differing by orders of magnitude.
  std::vector<double> pcore_rate_scale;

  // Activation model.
  double min_trigger_celsius = 0.0;   // no activations below this core temperature
  double base_log10_rate = -9.0;      // log10(corruptions per affected op) at the trigger
  double temp_slope = 0.15;           // d log10(rate) / dC above the trigger
  double intensity_ref = 1e8;         // ops/s of the affected kind at which stress factor = 1
  double intensity_exponent = 0.5;    // stress factor = (intensity / ref)^exponent, clamped

  // Damage model.
  std::vector<PatternSet> pattern_sets;
  double pattern_probability = 0.8;   // share of corruptions that use a fixed pattern
  FlipSemantics semantics = FlipSemantics::kXor;
  double multi_flip_probability = 0.1;   // noise corruption flips a second bit
  double extra_flip_probability = 0.02;  // ...and possibly more

  // Months after deployment at which the defect becomes active (0 = from manufacturing).
  double onset_months = 0.0;

  SdcType type() const {
    return (feature == Feature::kCache || feature == Feature::kTxMem) ? SdcType::kConsistency
                                                                      : SdcType::kComputation;
  }

  bool AffectsOp(OpKind op) const;
  bool AffectsType(DataType type) const;
  // Rate multiplier for `pcore`; 0 when the core is not affected.
  double PcoreScale(int pcore) const;

  // Per-operation corruption probability for the given conditions (before the represented-
  // iteration weight is applied). Zero below the trigger temperature.
  double RatePerOp(double temperature, double op_intensity, int pcore) const;

  // Occurrence frequency in corruptions/minute for a workload executing the affected op at
  // `ops_per_second` on `pcore` at `temperature` -- the unit Section 5 measures.
  double OccurrenceFrequencyPerMinute(double temperature, double ops_per_second,
                                      int pcore) const;

  // Applies the damage model to `golden`, returning corrupted bits (always != golden: if the
  // drawn mask changes nothing, one more SampleFlipPosition draw picks a bit to flip).
  Word128 Corrupt(const Word128& golden, DataType type, Rng& rng) const;

  // Precomputes each pattern set's weight CDF so Corrupt's weighted pick is O(patterns)
  // once instead of per corruption. Call after pattern_sets/weights stop changing (the
  // catalog builders do); safe to re-call. Draw sequences are unchanged either way.
  void SealPatternCdfs();
};

// Samples a bit position for noise flips: mid-word concentrated for numeric types (fraction
// part for floats), uniform for non-numerical types.
int SampleFlipPosition(DataType type, Rng& rng);

// Builds a random fixed pattern mask for `type` with `flip_count` bits, using the same
// positional distribution as noise flips.
Word128 MakePatternMask(DataType type, int flip_count, Rng& rng);

}  // namespace sdc

#endif  // SDC_SRC_FAULT_DEFECT_H_
