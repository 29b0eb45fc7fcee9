// Unit tests for src/sim: thermal model, processor execution engine, coherent bus, and
// transactional memory -- including the defect hooks via small fake CorruptionHooks.

#include <span>

#include <gtest/gtest.h>

#include "src/sim/coherence.h"
#include "src/sim/isa.h"
#include "src/sim/processor.h"
#include "src/sim/thermal.h"
#include "src/sim/txmem.h"

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
