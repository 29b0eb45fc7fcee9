// The simulated processor: SMT topology, simulated clock, per-core activity bookkeeping, and
// the single execution choke point through which silicon defects corrupt results.
//
// Testcases compute golden results natively and call Execute*() with the operation kind and
// datatype; the processor consults an optional CorruptionHook (implemented by the fault
// library) that may corrupt results, drop a coherence invalidation, or break transactional
// isolation. The hook receives an OpContext carrying everything the paper identifies as a
// triggering condition: the physical core, its current temperature, its utilization, and the
// recent usage intensity of the operation kind ("instruction usage stress", Section 5).

#ifndef SDC_SRC_SIM_PROCESSOR_H_
#define SDC_SRC_SIM_PROCESSOR_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/bits.h"
#include "src/sim/isa.h"
#include "src/sim/thermal.h"

namespace sdc {

// Static description of a processor model.
struct ProcessorSpec {
  std::string arch = "M1";       // micro-architecture id (M1..M9 in Table 2)
  int physical_cores = 16;
  int threads_per_core = 2;      // SMT width; logical core l maps to pcore l / threads_per_core
  double frequency_ghz = 2.5;
  ThermalParams thermal;

  int logical_cores() const { return physical_cores * threads_per_core; }
};

// Context handed to the corruption hook for every simulated operation (once per batch: the
// ops of one ExecuteBatch call share it).
struct OpContext {
  int pcore = 0;
  int lcore = 0;
  OpKind op = OpKind::kIntAdd;
  DataType type = DataType::kInt32;
  double temperature = 0.0;   // physical core temperature, Celsius
  double utilization = 0.0;   // physical core utilization in [0, 1]
  double op_intensity = 0.0;  // recent executions/second of this op kind on this pcore
  double weight = 1.0;        // how many real executions this simulated op stands for
};

// Implemented by the fault library; a processor without a hook is defect-free.
class CorruptionHook {
 public:
  virtual ~CorruptionHook() = default;

  // Bitmask over OpKind: bit k is set unless OnExecuteBatch is guaranteed to leave every
  // batch of kind k untouched and to draw nothing for it, and OnCoherenceFault and
  // OnTxFault are guaranteed to return false and draw nothing for an op of kind k. The
  // processor reads it once, when the hook is installed, so it must not change while the
  // hook is installed. An op outside the mask is clean: the processor counts it and
  // returns its golden result without calling the hook. Without kStore the coherent bus
  // keeps no cached copies (src/sim/coherence.h), and without kTxCommit a conflicting
  // transaction aborts without asking OnTxFault.
  virtual uint64_t CorruptibleOps() const { return ~uint64_t{0}; }

  // May corrupt, in place, the result bits of a batch of computational operations that all
  // run under `context`. On entry `values` holds the correct results' bit images, in
  // execution order; an element left untouched keeps its golden result.
  virtual void OnExecuteBatch(const OpContext& context, std::span<Word128> values) = 0;

  // Returns true when a cache-coherence invalidation for this operation must be silently
  // dropped (the reader will observe stale data).
  virtual bool OnCoherenceFault(const OpContext& context) = 0;

  // Returns true when a transactional-memory conflict check must be silently skipped (a
  // transaction that should abort will commit).
  virtual bool OnTxFault(const OpContext& context) = 0;
};

class Processor {
 public:
  explicit Processor(ProcessorSpec spec);

  const ProcessorSpec& spec() const { return spec_; }

  // Installs the defect hook and caches its CorruptibleOps() mask. The hook must outlive
  // the processor. Pass nullptr to clear.
  void SetCorruptionHook(CorruptionHook* hook) {
    hook_ = hook;
    corruptible_ops_ = hook != nullptr ? hook->CorruptibleOps() : 0;
  }
  CorruptionHook* corruption_hook() const { return hook_; }

  // False when no installed defect can corrupt an op of kind `op`: such an op's result is
  // its golden result, and it consumes no draw, so callers may skip computing it.
  bool MayCorrupt(OpKind op) const {
    return ((corruptible_ops_ >> static_cast<int>(op)) & 1) != 0;
  }

  // --- Execution (called by testcases / workloads). ---

  // Core entry point: records `values.size()` operations of one kind and datatype on
  // `lcore`, advances its busy-cycle account by their latency, and hands them to the hook in
  // one call under one context; the hook corrupts results in place. A batch of N is exactly
  // N single ops issued back to back: nothing between them could have changed the context
  // (clock, thermal state, utilization, op intensity, time scale). A clean batch
  // (!MayCorrupt(op)) is only counted; the hook is not called.
  void ExecuteBatch(int lcore, OpKind op, DataType type, std::span<Word128> values);

  // Records `count` ops of `op` on `lcore` without building their context: op counters,
  // intensity tally and busy cycles, exactly as ExecuteBatch and MakeContext would. In
  // place of ExecuteBatch, only valid for an op with !MayCorrupt(op), whose results
  // ExecuteBatch would have left golden; in place of MakeContext, whenever nobody reads
  // the context.
  void CountCleanOps(int lcore, OpKind op, uint64_t count) {
    const int pcore = pcore_of(lcore);
    CoreState& core = cores_[pcore];
    const int kind = static_cast<int>(op);
    core.op_counts[kind] += count;
    if (core.ops_since_advance[kind] == 0 && count != 0) {
      touched_.push_back(pcore * kOpKindCount + kind);
    }
    core.ops_since_advance[kind] += count;
    core.busy_cycles_unconsumed += count * static_cast<uint64_t>(LatencyCycles(op));
  }

  // A batch of one: returns the (possibly corrupted) result bits. A clean op
  // (!MayCorrupt(op)) is counted and returns its golden bits without a hook call.
  Word128 Execute(int lcore, OpKind op, DataType type, const Word128& golden_bits) {
    Word128 value = golden_bits;
    if (!MayCorrupt(op)) {
      CountCleanOps(lcore, op, 1);
    } else {
      ExecuteBatch(lcore, op, type, std::span<Word128>(&value, 1));
    }
    return value;
  }

  // Typed conveniences.
  int32_t ExecuteI32(int lcore, OpKind op, int32_t golden) {
    return Int32FromBits(Execute(lcore, op, DataType::kInt32, BitsOfInt32(golden)));
  }
  uint32_t ExecuteU32(int lcore, OpKind op, uint32_t golden) {
    return UInt32FromBits(Execute(lcore, op, DataType::kUInt32, BitsOfUInt32(golden)));
  }
  float ExecuteF32(int lcore, OpKind op, float golden) {
    return FloatFromBits(Execute(lcore, op, DataType::kFloat32, BitsOfFloat(golden)));
  }
  double ExecuteF64(int lcore, OpKind op, double golden) {
    return DoubleFromBits(Execute(lcore, op, DataType::kFloat64, BitsOfDouble(golden)));
  }
  // The result always takes the x87 image round trip, clean or not: it canonicalises NaN
  // payloads and flushes denormals to zero, as a routed result always has.
  long double ExecuteF80(int lcore, OpKind op, long double golden) {
    return Float80FromBits(Execute(lcore, op, DataType::kFloat80, BitsOfFloat80(golden)));
  }
  // Non-numerical payloads (bit/byte/bin16/bin32/bin64 depending on width); the result is
  // `golden` masked to the type's width.
  uint64_t ExecuteRaw(int lcore, OpKind op, uint64_t golden, DataType type) {
    return RawFromBits(Execute(lcore, op, type, BitsOfRaw(golden, BitWidth(type))));
  }

  // Builds the context for a memory-system operation without producing a result value; used
  // by the coherence bus and the transactional memory model.
  OpContext MakeContext(int lcore, OpKind op, DataType type = DataType::kBin64);

  // --- Time and activity. ---

  // Sets the externally imposed utilization of a physical core (tested cores run at 1.0;
  // background stress tools set intermediate values). Utilization feeds the thermal model.
  void SetCoreUtilization(int pcore, double utilization);
  double core_utilization(int pcore) const { return utilization_[pcore]; }

  // Sets how many real executions each simulated operation represents. Testcase loops run
  // their kernel once per batch at op granularity and declare the batch to stand for
  // `scale` identical iterations; corruption probabilities and op intensities are scaled
  // accordingly, and callers advance the clock by (busy seconds x scale).
  void SetTimeScale(double scale) { time_scale_ = scale < 1.0 ? 1.0 : scale; }
  double time_scale() const { return time_scale_; }

  // Advances the simulated clock and the thermal model, and refreshes per-core op-intensity
  // estimates from the operations executed since the previous call. Every (pcore, kind)
  // estimate is an EMA over advances, but only the cells that ran ops since the previous
  // call are blended here; an idle cell catches up on the advances it skipped (each a
  // blend with zero fresh ops, i.e. a halving) when it is next blended or read, bit for bit
  // as an eager blend of every cell would have left it.
  void AdvanceSeconds(double dt_seconds);

  // Busy seconds accumulated on `pcore` since this was last called (latency-weighted).
  double ConsumeBusySeconds(int pcore);
  // The busy seconds `cycles` latency-weighted cycles stand for, as ConsumeBusySeconds
  // converts them.
  double BusySeconds(uint64_t cycles) const {
    return static_cast<double>(cycles) / (spec_.frequency_ghz * 1e9);
  }

  double now_seconds() const { return now_seconds_; }
  double core_temperature(int pcore) const { return thermal_.core_temperature(pcore); }
  ThermalModel& thermal() { return thermal_; }
  const ThermalModel& thermal() const { return thermal_; }

  int pcore_of(int lcore) const { return lcore / spec_.threads_per_core; }

  // --- Instrumentation (the Pin-like counter reads these). ---

  uint64_t op_count(int pcore, OpKind op) const;
  uint64_t total_op_count(OpKind op) const;

 private:
  struct CoreState {
    std::array<uint64_t, kOpKindCount> op_counts{};
    std::array<uint64_t, kOpKindCount> ops_since_advance{};
    std::array<double, kOpKindCount> op_intensity{};  // EMA, ops/second, as of the stamp
    std::array<uint64_t, kOpKindCount> intensity_stamp{};  // advances_ when last current
    uint64_t busy_cycles_unconsumed = 0;
  };

  // CountCleanOps, then returns the context the `count` ops run under.
  OpContext CountOps(int lcore, OpKind op, DataType type, uint64_t count);

  ProcessorSpec spec_;
  ThermalModel thermal_;
  std::vector<CoreState> cores_;
  // Cells (pcore * kOpKindCount + kind) whose ops_since_advance went 0 -> n since the
  // previous advance: the only cells AdvanceSeconds blends.
  std::vector<int> touched_;
  uint64_t advances_ = 0;  // AdvanceSeconds calls that moved the clock
  std::vector<double> utilization_;
  CorruptionHook* hook_ = nullptr;
  uint64_t corruptible_ops_ = 0;  // hook_->CorruptibleOps(), 0 without a hook
  double now_seconds_ = 0.0;
  double time_scale_ = 1.0;
};

}  // namespace sdc

#endif  // SDC_SRC_SIM_PROCESSOR_H_
