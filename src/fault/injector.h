// DefectInjector binds a set of Defects to a simulated processor by implementing the
// processor's CorruptionHook. It is the bridge between the fault model and the execution
// engine: for every batch of operations it evaluates each defect's activation model once
// against the shared operation context (core, temperature, utilization, usage intensity,
// represented-iteration weight), then draws per operation and, when a defect fires, applies
// its damage model.

#ifndef SDC_SRC_FAULT_INJECTOR_H_
#define SDC_SRC_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/fault/defect.h"
#include "src/sim/processor.h"

namespace sdc {

class DefectInjector : public CorruptionHook {
 public:
  DefectInjector(std::vector<Defect> defects, uint64_t seed);

  // Fleet age of the processor; defects whose onset lies in the future stay dormant.
  void set_age_months(double age_months) { age_months_ = age_months; }
  double age_months() const { return age_months_; }

  // CorruptionHook:
  // The op kinds of every defect, computation and consistency (a consistency defect
  // targets kStore or kTxCommit); fixed at construction. The hooks return before any draw
  // for every other kind. The mask keeps dormant defects (onset after age_months()): a
  // dormant coherence defect must keep the bus caching, because once it wakes, which cores
  // hold cached copies decides what a dropped invalidation leaves stale. A mask that
  // followed dormancy would let the bus drop copies a later defect could observe.
  uint64_t CorruptibleOps() const override {
    return computation_op_union_ | consistency_op_union_;
  }
  void OnExecuteBatch(const OpContext& context, std::span<Word128> values) override;
  bool OnCoherenceFault(const OpContext& context) override;
  bool OnTxFault(const OpContext& context) override;

  const std::vector<Defect>& defects() const { return defects_; }

  // Ground-truth activation counters (total and per defect), for tests and diagnostics.
  uint64_t total_activations() const { return total_activations_; }
  uint64_t activations(size_t defect_index) const { return activations_[defect_index]; }
  void ResetCounters();

 private:
  // A defect that can fire under a resolved context, with its per-op firing probability.
  struct Candidate {
    size_t index;
    double probability;
  };

  // Activation, step one (once per context): fills candidates_ with the defects of
  // `want_type` whose op/type masks match, whose onset has passed and whose RatePerOp is
  // positive, in defect order. Draws nothing.
  void ResolveCandidates(const OpContext& context, SdcType want_type);
  // Activation, step two (once per op): draws one Bernoulli per candidate, in order, and
  // stops at the first that fires. Returns that defect's index, counting the activation, or
  // -1 when none fires.
  int DrawActivation();
  // Both steps for one consistency op.
  bool ConsistencyFires(const OpContext& context);

  std::vector<Defect> defects_;
  // Precomputed per-defect bitmasks over OpKind / DataType for O(1) matching on the hot
  // path, plus union masks for early rejection of ops no defect touches.
  std::vector<uint64_t> op_masks_;
  std::vector<uint32_t> type_masks_;
  uint64_t computation_op_union_ = 0;
  uint64_t consistency_op_union_ = 0;
  std::vector<uint64_t> activations_;
  std::vector<Candidate> candidates_;  // scratch table of the last resolved context
  Rng rng_;
  double age_months_ = 1e9;  // by default all defects are live
  uint64_t total_activations_ = 0;
};

static_assert(kOpKindCount <= 64, "op-kind bitmask relies on <= 64 kinds");

}  // namespace sdc

#endif  // SDC_SRC_FAULT_INJECTOR_H_
