// Unit tests for src/sim: thermal model, processor execution engine, coherent bus, and
// transactional memory -- including the defect hooks via small fake CorruptionHooks.

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/coherence.h"
#include "src/sim/isa.h"
#include "src/sim/processor.h"
#include "src/sim/thermal.h"
#include "src/sim/txmem.h"
#include "tests/oracles/oracles.h"

namespace sdc {
namespace {

ProcessorSpec SmallSpec() {
  ProcessorSpec spec;
  spec.arch = "M2";
  spec.physical_cores = 4;
  spec.threads_per_core = 2;
  spec.frequency_ghz = 2.5;
  return spec;
}

// --- ISA metadata ---

TEST(IsaTest, EveryOpHasFeatureAndLatency) {
  for (int kind = 0; kind < kOpKindCount; ++kind) {
    const OpKind op = static_cast<OpKind>(kind);
    EXPECT_GE(static_cast<int>(FeatureOf(op)), 0);
    EXPECT_GT(LatencyCycles(op), 0);
    EXPECT_NE(OpKindName(op), "?");
  }
}

TEST(IsaTest, FeatureAssignments) {
  EXPECT_EQ(FeatureOf(OpKind::kIntAdd), Feature::kAlu);
  EXPECT_EQ(FeatureOf(OpKind::kFpArctan), Feature::kFpu);
  EXPECT_EQ(FeatureOf(OpKind::kVecFmaF32), Feature::kVecUnit);
  EXPECT_EQ(FeatureOf(OpKind::kStore), Feature::kCache);
  EXPECT_EQ(FeatureOf(OpKind::kTxCommit), Feature::kTxMem);
}

// --- Thermal model ---

TEST(ThermalTest, IdleSteadyStateNearPaperIdle) {
  // The paper's MIX1 idles around 45C (Section 5); a 16-core package should land there.
  ThermalModel model(16);
  EXPECT_NEAR(model.core_temperature(0), 45.4, 1.0);
  EXPECT_NEAR(model.IdleTemperature(), model.core_temperature(0), 0.5);
}

TEST(ThermalTest, IdleComparableAcrossPackageSizes) {
  ThermalModel small(8);
  ThermalModel large(32);
  EXPECT_NEAR(small.IdleTemperature(), large.IdleTemperature(), 1.0);
}

TEST(ThermalTest, FullLoadReachesPaperRange) {
  // Figure 8 observes testing temperatures up to ~76C.
  ThermalModel model(16);
  model.SettleToSteadyState(std::vector<double>(16, 1.0));
  EXPECT_GT(model.core_temperature(0), 65.0);
  EXPECT_LT(model.core_temperature(0), 85.0);
}

TEST(ThermalTest, BusyNeighboursHeatIdleCore) {
  // Observation 10: a defective core errors only when *other* cores are busy, because the
  // shared cooling raises its temperature.
  ThermalModel model(16);
  std::vector<double> utilization(16, 1.0);
  utilization[0] = 0.0;  // the idle (defective) core
  model.SettleToSteadyState(utilization);
  EXPECT_GT(model.core_temperature(0), model.IdleTemperature() + 10.0);
}

TEST(ThermalTest, MoreBusyNeighboursMeansHotter) {
  ThermalModel few(16);
  ThermalModel many(16);
  std::vector<double> few_busy(16, 0.0);
  std::vector<double> many_busy(16, 0.0);
  for (int i = 1; i <= 4; ++i) {
    few_busy[i] = 1.0;
  }
  for (int i = 1; i <= 12; ++i) {
    many_busy[i] = 1.0;
  }
  few.SettleToSteadyState(few_busy);
  many.SettleToSteadyState(many_busy);
  EXPECT_GT(many.core_temperature(0), few.core_temperature(0) + 3.0);
}

TEST(ThermalTest, AdvanceConvergesToSteadyState) {
  ThermalModel reference(8);
  std::vector<double> utilization(8, 1.0);
  reference.SettleToSteadyState(utilization);
  ThermalModel stepped(8);
  for (int i = 0; i < 600; ++i) {
    stepped.Advance(10.0, utilization);
  }
  EXPECT_NEAR(stepped.core_temperature(3), reference.core_temperature(3), 0.5);
}

TEST(ThermalTest, RemainingHeatDecaysSlowly) {
  // Observation 10's test-order effect: heat from a stressful testcase persists into the
  // next one because the sink cools over minutes, not microseconds.
  ThermalModel model(16);
  model.SettleToSteadyState(std::vector<double>(16, 1.0));
  const double hot = model.core_temperature(0);
  model.Advance(5.0, std::vector<double>(16, 0.0));
  EXPECT_GT(model.core_temperature(0), (hot + model.IdleTemperature()) / 2.0);
  model.Advance(3600.0, std::vector<double>(16, 0.0));
  EXPECT_NEAR(model.core_temperature(0), model.IdleTemperature(), 1.0);
}


TEST(ThermalTest, CoolingBoostLowersTemperatures) {
  ThermalModel model(16);
  std::vector<double> busy(16, 1.0);
  model.SettleToSteadyState(busy);
  const double baseline = model.core_temperature(0);
  model.SetCoolingBoost(2.0);
  model.SettleToSteadyState(busy);
  EXPECT_LT(model.core_temperature(0), baseline - 8.0);
  model.SetCoolingBoost(0.5);  // clamps to 1.0
  EXPECT_DOUBLE_EQ(model.cooling_boost(), 1.0);
}

TEST(ThermalTest, ForceUniformPins) {
  ThermalModel model(4);
  model.ForceUniform(63.5);
  for (int core = 0; core < 4; ++core) {
    EXPECT_DOUBLE_EQ(model.core_temperature(core), 63.5);
  }
  EXPECT_DOUBLE_EQ(model.sink_temperature(), 63.5);
}

// --- Processor ---

TEST(ProcessorTest, ExecuteReturnsGoldenWithoutHook) {
  Processor cpu(SmallSpec());
  EXPECT_EQ(cpu.ExecuteI32(0, OpKind::kIntAdd, 42), 42);
  EXPECT_EQ(cpu.ExecuteF64(1, OpKind::kFpMul, 2.5), 2.5);
  EXPECT_EQ(cpu.ExecuteRaw(2, OpKind::kLogicXor, 0xdeadbeefull, DataType::kBin32),
            0xdeadbeefull);
}

TEST(ProcessorTest, OpCountsAccumulatePerCore) {
  Processor cpu(SmallSpec());
  cpu.ExecuteI32(0, OpKind::kIntAdd, 1);   // pcore 0
  cpu.ExecuteI32(1, OpKind::kIntAdd, 1);   // pcore 0 (SMT sibling)
  cpu.ExecuteI32(2, OpKind::kIntAdd, 1);   // pcore 1
  EXPECT_EQ(cpu.op_count(0, OpKind::kIntAdd), 2u);
  EXPECT_EQ(cpu.op_count(1, OpKind::kIntAdd), 1u);
  EXPECT_EQ(cpu.total_op_count(OpKind::kIntAdd), 3u);
}

TEST(ProcessorTest, BusySecondsMatchLatency) {
  Processor cpu(SmallSpec());
  for (int i = 0; i < 2500; ++i) {
    cpu.ExecuteI32(0, OpKind::kIntAdd, i);  // 1 cycle each at 2.5 GHz
  }
  EXPECT_NEAR(cpu.ConsumeBusySeconds(0), 2500.0 / 2.5e9, 1e-12);
  EXPECT_EQ(cpu.ConsumeBusySeconds(0), 0.0);  // consumed
}

TEST(ProcessorTest, AdvanceUpdatesClockAndIntensity) {
  Processor cpu(SmallSpec());
  cpu.SetTimeScale(1000.0);
  for (int i = 0; i < 1000; ++i) {
    cpu.ExecuteF64(0, OpKind::kFpMul, 1.0);
  }
  cpu.AdvanceSeconds(2.0);
  EXPECT_DOUBLE_EQ(cpu.now_seconds(), 2.0);
  // 1000 ops x 1000 weight / 2 s = 5e5 ops/s, blended at 0.5 into a zero estimate.
  OpContext context = cpu.MakeContext(0, OpKind::kFpMul);
  EXPECT_NEAR(context.op_intensity, 2.5e5, 1e3);
}

// Idle cells decay lazily: a cell catches up on the advances it skipped when it is next
// blended or read. Bursts on several pcores are separated by idle gaps of 0 to 5000
// advances under varied dt and time scales; gaps of 1021-1030 take these magnitudes
// across the normal/subnormal boundary, where each halving rounds, and the longer gaps
// reach zero. Every read must equal the eager EMA bit for bit.
TEST(ProcessorTest, LazyIntensityDecayMatchesEagerReference) {
  const ProcessorSpec spec = SmallSpec();
  Processor cpu(spec);
  EagerIntensityReference reference(spec.physical_cores);
  const auto count = [&](int pcore, OpKind op, uint64_t ops) {
    cpu.CountCleanOps(pcore * spec.threads_per_core, op, ops);
    reference.Count(pcore, op, ops);
  };
  const auto advance = [&](double dt) {
    cpu.AdvanceSeconds(dt);
    reference.Advance(dt, cpu.time_scale());
  };
  int subnormal_reads = 0;
  int zero_reads = 0;
  const auto expect_read = [&](int pcore, OpKind op, const std::string& label) {
    const double got = cpu.MakeContext(pcore * spec.threads_per_core, op).op_intensity;
    reference.Count(pcore, op, 1);  // MakeContext counts the op it builds a context for
    const double want = reference.intensity(pcore, op);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << label << " pcore " << pcore << " " << OpKindName(op) << ": " << got << " vs "
        << want;
    subnormal_reads += std::fpclassify(want) == FP_SUBNORMAL ? 1 : 0;
    zero_reads += want == 0.0 ? 1 : 0;
  };

  std::vector<uint64_t> gaps = {0, 1, 2, 5, 1100, 5000};
  for (uint64_t gap = 1021; gap <= 1030; ++gap) {
    gaps.push_back(gap);
  }
  const double scales[] = {1.0, 1.7, 1e3};
  const double dts[] = {1.0, 0.3, 2.5e-3};
  int step = 0;
  for (const uint64_t gap : gaps) {
    for (const int pcore : {0, 1, 3}) {
      ++step;
      const std::string label = "gap " + std::to_string(gap);
      cpu.SetTimeScale(scales[step % 3]);
      count(pcore, OpKind::kFpMul, 1 + step % 5);
      count(pcore, OpKind::kIntAdd, 3 + step % 7);
      advance(dts[step % 3]);
      for (uint64_t i = 0; i < gap; ++i) {
        advance(i % 2 == 0 ? 1e-3 : 2.5e-3);  // no op on this pcore
      }
      // Read after the gap, and blend a second burst into a cell that idled through it.
      expect_read(pcore, OpKind::kFpMul, label + " read");
      count(pcore, OpKind::kIntAdd, 2);
      cpu.SetTimeScale(scales[(step + 1) % 3]);
      advance(dts[(step + 1) % 3]);
      expect_read(pcore, OpKind::kIntAdd, label + " blend");
      // Both cells again, one and two advances on: a read or blend that left its cell's
      // bookkeeping wrong shows before the next long gap erases it.
      for (int again = 0; again < 2; ++again) {
        expect_read(pcore, OpKind::kFpMul, label + " reread");
        advance(dts[again]);
        expect_read(pcore, OpKind::kIntAdd, label + " reread");
      }
    }
  }
  EXPECT_GT(subnormal_reads, 0);
  EXPECT_GT(zero_reads, 0);
}

TEST(ProcessorTest, ContextCarriesTemperatureAndWeight) {
  Processor cpu(SmallSpec());
  cpu.SetTimeScale(12345.0);
  cpu.SetCoreUtilization(1, 0.7);
  OpContext context = cpu.MakeContext(2, OpKind::kStore);  // lcore 2 -> pcore 1
  EXPECT_EQ(context.pcore, 1);
  EXPECT_DOUBLE_EQ(context.weight, 12345.0);
  EXPECT_DOUBLE_EQ(context.utilization, 0.7);
  EXPECT_NEAR(context.temperature, cpu.core_temperature(1), 1e-9);
}

// A hook that corrupts every computational op by flipping bit 0, and fires consistency
// faults on demand.
class FlipHook : public CorruptionHook {
 public:
  void OnExecuteBatch(const OpContext&, std::span<Word128> values) override {
    for (Word128& value : values) {
      value.FlipBit(0);
    }
  }
  bool OnCoherenceFault(const OpContext&) override { return coherence_fault; }
  bool OnTxFault(const OpContext&) override { return tx_fault; }

  bool coherence_fault = false;
  bool tx_fault = false;
};

TEST(ProcessorTest, HookCorruptsResults) {
  Processor cpu(SmallSpec());
  FlipHook hook;
  cpu.SetCorruptionHook(&hook);
  EXPECT_EQ(cpu.ExecuteI32(0, OpKind::kIntAdd, 4), 5);
  cpu.SetCorruptionHook(nullptr);
  EXPECT_EQ(cpu.ExecuteI32(0, OpKind::kIntAdd, 4), 4);
}

// A FlipHook that declares only `mask` corruptible and counts the batches it sees.
class MaskedFlipHook : public FlipHook {
 public:
  explicit MaskedFlipHook(uint64_t mask) : mask_(mask) {}
  uint64_t CorruptibleOps() const override { return mask_; }
  void OnExecuteBatch(const OpContext& context, std::span<Word128> values) override {
    ++batches;
    FlipHook::OnExecuteBatch(context, values);
  }

  int batches = 0;

 private:
  uint64_t mask_;
};

TEST(ProcessorTest, MayCorruptFollowsHookMask) {
  Processor cpu(SmallSpec());
  FlipHook every_op;
  MaskedFlipHook only_mul(uint64_t{1} << static_cast<int>(OpKind::kIntMul));
  for (int kind = 0; kind < kOpKindCount; ++kind) {
    const auto op = static_cast<OpKind>(kind);
    EXPECT_FALSE(cpu.MayCorrupt(op)) << OpKindName(op);  // no hook: defect-free
    cpu.SetCorruptionHook(&every_op);
    EXPECT_TRUE(cpu.MayCorrupt(op)) << OpKindName(op);   // the default mask
    cpu.SetCorruptionHook(&only_mul);
    EXPECT_EQ(cpu.MayCorrupt(op), op == OpKind::kIntMul) << OpKindName(op);
    cpu.SetCorruptionHook(nullptr);
  }
}

// A clean op returns its golden result without a hook call and leaves exactly the op
// count, busy cycles and intensity tally a routed op leaves.
TEST(ProcessorTest, CleanOpsReturnGoldenAndCountLikeRoutedOps) {
  MaskedFlipHook clean_hook(uint64_t{1} << static_cast<int>(OpKind::kIntMul));
  FlipHook routed_hook;
  Processor clean(SmallSpec());
  Processor routed(SmallSpec());
  clean.SetCorruptionHook(&clean_hook);
  routed.SetCorruptionHook(&routed_hook);
  const int lcore = 3;
  const int pcore = clean.pcore_of(lcore);
  const auto busy_seconds = [](uint64_t cycles) {
    return static_cast<double>(cycles) / (SmallSpec().frequency_ghz * 1e9);
  };
  const auto expect_one_op = [&](OpKind op) {
    EXPECT_EQ(clean.op_count(pcore, op), 1u) << OpKindName(op);
    EXPECT_EQ(routed.op_count(pcore, op), 1u) << OpKindName(op);
    const double busy = clean.ConsumeBusySeconds(pcore);
    EXPECT_EQ(busy, routed.ConsumeBusySeconds(pcore)) << OpKindName(op);
    EXPECT_EQ(busy, busy_seconds(LatencyCycles(op))) << OpKindName(op);
  };

  EXPECT_EQ(clean.ExecuteI32(lcore, OpKind::kIntAdd, -7), -7);
  EXPECT_EQ(routed.ExecuteI32(lcore, OpKind::kIntAdd, -7), -8);
  expect_one_op(OpKind::kIntAdd);
  EXPECT_EQ(clean.ExecuteU32(lcore, OpKind::kIntSub, 0xdeadbeefu), 0xdeadbeefu);
  routed.ExecuteU32(lcore, OpKind::kIntSub, 0xdeadbeefu);
  expect_one_op(OpKind::kIntSub);
  const float f32 = std::bit_cast<float>(0x7fc01234u);  // NaN with a payload
  EXPECT_EQ(std::bit_cast<uint32_t>(clean.ExecuteF32(lcore, OpKind::kFpAdd, f32)),
            0x7fc01234u);
  routed.ExecuteF32(lcore, OpKind::kFpAdd, f32);
  expect_one_op(OpKind::kFpAdd);
  const double f64 = clean.ExecuteF64(lcore, OpKind::kFpDiv, -0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(f64), std::bit_cast<uint64_t>(-0.0));
  routed.ExecuteF64(lcore, OpKind::kFpDiv, -0.0);
  expect_one_op(OpKind::kFpDiv);
  // Raw payloads are still masked to their width.
  EXPECT_EQ(clean.ExecuteRaw(lcore, OpKind::kLogicXor, 0x1a5, DataType::kByte), 0xa5u);
  routed.ExecuteRaw(lcore, OpKind::kLogicXor, 0x1a5, DataType::kByte);
  expect_one_op(OpKind::kLogicXor);
  const Word128 wide{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(clean.Execute(lcore, OpKind::kPopcount, DataType::kBin64, wide), wide);
  routed.Execute(lcore, OpKind::kPopcount, DataType::kBin64, wide);
  expect_one_op(OpKind::kPopcount);
  std::vector<Word128> batch(5, wide);
  clean.ExecuteBatch(lcore, OpKind::kCompare, DataType::kBin64, batch);
  EXPECT_EQ(batch, std::vector<Word128>(5, wide));
  EXPECT_EQ(clean.op_count(pcore, OpKind::kCompare), 5u);
  EXPECT_EQ(clean.ConsumeBusySeconds(pcore), busy_seconds(5 * LatencyCycles(OpKind::kCompare)));
  EXPECT_EQ(clean_hook.batches, 0);

  // The clean ops fed the same intensity estimates the routed ones did.
  clean.SetTimeScale(10.0);
  routed.SetTimeScale(10.0);
  clean.AdvanceSeconds(1e-3);
  routed.AdvanceSeconds(1e-3);
  for (OpKind op : {OpKind::kIntAdd, OpKind::kFpDiv, OpKind::kPopcount}) {
    const double intensity = clean.MakeContext(lcore, op).op_intensity;
    EXPECT_GT(intensity, 0.0) << OpKindName(op);
    EXPECT_EQ(intensity, routed.MakeContext(lcore, op).op_intensity) << OpKindName(op);
  }

  // The corruptible kind still reaches the hook.
  EXPECT_EQ(clean.ExecuteI32(lcore, OpKind::kIntMul, 4), 5);
  EXPECT_EQ(clean_hook.batches, 1);
}

// A clean f64x op still takes the image round trip: NaN payloads become the default NaN
// and denormals flush to signed zero, as a routed result's would.
TEST(ProcessorTest, CleanF80StillCanonicalises) {
  Processor cpu(SmallSpec());
  const size_t image_bytes = kX87LongDouble ? 10 : sizeof(long double);
  const long double payload_nan = std::nanl("48879");
  const long double default_nan = std::numeric_limits<long double>::quiet_NaN();
  ASSERT_NE(std::memcmp(&payload_nan, &default_nan, image_bytes), 0);
  const long double result = cpu.ExecuteF80(0, OpKind::kFpSqrt, payload_nan);
  EXPECT_EQ(std::memcmp(&result, &default_nan, image_bytes), 0);  // the payload is gone
  const long double denormal = -std::numeric_limits<long double>::denorm_min() * 5;
  ASSERT_NE(denormal, 0.0L);
  const long double flushed = cpu.ExecuteF80(0, OpKind::kFpSqrt, denormal);
  EXPECT_EQ(flushed, 0.0L);
  EXPECT_TRUE(std::signbit(flushed));
  EXPECT_EQ(cpu.op_count(0, OpKind::kFpSqrt), 2u);
}

// --- Coherent bus ---

TEST(CoherenceTest, WriteInvalidatesRemoteCopies) {
  Processor cpu(SmallSpec());
  CoherentBus bus(cpu, 64);
  bus.Write(0, 7, 111);          // pcore 0 writes
  EXPECT_EQ(bus.Read(2, 7), 111u);  // pcore 1 reads and caches
  bus.Write(0, 7, 222);
  EXPECT_EQ(bus.Read(2, 7), 222u);  // invalidation forces a refetch
}

TEST(CoherenceTest, DroppedInvalidationLeavesStaleData) {
  Processor cpu(SmallSpec());
  FlipHook hook;
  cpu.SetCorruptionHook(&hook);
  CoherentBus bus(cpu, 64);
  bus.Write(0, 3, 10);
  EXPECT_EQ(bus.Read(2, 3), 10u);  // consumer caches the value
  hook.coherence_fault = true;
  bus.Write(0, 3, 20);             // invalidation silently dropped
  EXPECT_EQ(bus.Read(2, 3), 10u);  // stale!
  EXPECT_EQ(bus.BackingValue(3), 20u);
  bus.Fence(2);
  EXPECT_EQ(bus.Read(2, 3), 20u);  // refetch recovers
}

TEST(CoherenceTest, WriterAlwaysSeesOwnWrite) {
  Processor cpu(SmallSpec());
  FlipHook hook;
  hook.coherence_fault = true;
  cpu.SetCorruptionHook(&hook);
  CoherentBus bus(cpu, 64);
  bus.Write(0, 5, 42);
  EXPECT_EQ(bus.Read(0, 5), 42u);
}

TEST(CoherenceTest, AtomicCasSemantica) {
  Processor cpu(SmallSpec());
  CoherentBus bus(cpu, 64);
  EXPECT_TRUE(bus.AtomicCas(0, 9, 0, 1));
  EXPECT_FALSE(bus.AtomicCas(2, 9, 0, 1));  // already 1
  EXPECT_TRUE(bus.AtomicCas(2, 9, 1, 0));
  EXPECT_EQ(bus.BackingValue(9), 0u);
}

TEST(CoherenceTest, AtomicCasInvalidatesStaleCopies) {
  Processor cpu(SmallSpec());
  FlipHook hook;
  cpu.SetCorruptionHook(&hook);
  CoherentBus bus(cpu, 64);
  bus.Write(0, 4, 1);
  EXPECT_EQ(bus.Read(2, 4), 1u);  // cached on pcore 1
  hook.coherence_fault = true;
  bus.Write(0, 4, 2);             // stale copy survives
  hook.coherence_fault = false;
  EXPECT_TRUE(bus.AtomicCas(0, 4, 2, 3));
  EXPECT_EQ(bus.Read(2, 4), 3u);  // atomics always invalidate
}

TEST(CoherenceTest, DirectWriteResetsEverywhere) {
  Processor cpu(SmallSpec());
  CoherentBus bus(cpu, 64);
  bus.Write(0, 2, 5);
  EXPECT_EQ(bus.Read(2, 2), 5u);
  bus.DirectWrite(2, 0);
  EXPECT_EQ(bus.Read(2, 2), 0u);
  EXPECT_EQ(bus.Read(0, 2), 0u);
}

// --- Transactional memory ---

TEST(TxMemTest, CommitAppliesWrites) {
  Processor cpu(SmallSpec());
  TxMemory tx(cpu, 64);
  const int handle = tx.Begin(0);
  tx.Write(handle, 1, 99);
  EXPECT_TRUE(tx.Commit(handle));
  EXPECT_EQ(tx.DirectRead(1), 99u);
}

TEST(TxMemTest, ReadOwnWrite) {
  Processor cpu(SmallSpec());
  TxMemory tx(cpu, 64);
  const int handle = tx.Begin(0);
  tx.Write(handle, 1, 7);
  EXPECT_EQ(tx.Read(handle, 1), 7u);
  tx.Abort(handle);
  EXPECT_EQ(tx.DirectRead(1), 0u);  // abort discards
}

TEST(TxMemTest, ConflictForcesAbort) {
  Processor cpu(SmallSpec());
  TxMemory tx(cpu, 64);
  const int t1 = tx.Begin(0);
  const uint64_t v1 = tx.Read(t1, 5);
  const int t2 = tx.Begin(2);
  tx.Write(t2, 5, 100);
  EXPECT_TRUE(tx.Commit(t2));
  tx.Write(t1, 5, v1 + 1);
  EXPECT_FALSE(tx.Commit(t1));  // t1 read cell 5 before t2's commit
  EXPECT_EQ(tx.DirectRead(5), 100u);
}

TEST(TxMemTest, NonConflictingTransactionsBothCommit) {
  Processor cpu(SmallSpec());
  TxMemory tx(cpu, 64);
  const int t1 = tx.Begin(0);
  const int t2 = tx.Begin(2);
  tx.Write(t1, 1, 11);
  tx.Write(t2, 2, 22);
  EXPECT_TRUE(tx.Commit(t1));
  EXPECT_TRUE(tx.Commit(t2));
  EXPECT_EQ(tx.DirectRead(1), 11u);
  EXPECT_EQ(tx.DirectRead(2), 22u);
}

TEST(TxMemTest, DefectSkipsValidationAndViolatesIsolation) {
  Processor cpu(SmallSpec());
  FlipHook hook;
  hook.tx_fault = true;
  cpu.SetCorruptionHook(&hook);
  TxMemory tx(cpu, 64);
  const int t1 = tx.Begin(0);
  const uint64_t stale = tx.Read(t1, 5);
  const int t2 = tx.Begin(2);
  tx.Write(t2, 5, 50);
  EXPECT_TRUE(tx.Commit(t2));
  tx.Write(t1, 5, stale + 1);
  EXPECT_TRUE(tx.Commit(t1));  // should abort, silently commits
  EXPECT_EQ(tx.isolation_violations(), 1u);
  EXPECT_EQ(tx.DirectRead(5), 1u);  // t2's update lost
}

TEST(TxMemTest, ResetClearsState) {
  Processor cpu(SmallSpec());
  TxMemory tx(cpu, 16);
  const int handle = tx.Begin(0);
  tx.Write(handle, 3, 9);
  EXPECT_TRUE(tx.Commit(handle));
  tx.Reset();
  EXPECT_EQ(tx.DirectRead(3), 0u);
  EXPECT_EQ(tx.isolation_violations(), 0u);
}

}  // namespace
}  // namespace sdc
