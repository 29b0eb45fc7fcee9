// Unit tests for src/fault: defect activation model, damage model, injector, catalog.

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/stats.h"
#include "src/fault/catalog.h"
#include "src/fault/defect.h"
#include "src/fault/injector.h"
#include "src/fault/machine.h"

namespace sdc {
namespace {

Defect SimpleDefect() {
  Defect defect;
  defect.id = "test";
  defect.feature = Feature::kFpu;
  defect.affected_ops = {OpKind::kFpMul};
  defect.affected_types = {DataType::kFloat64};
  defect.min_trigger_celsius = 50.0;
  defect.base_log10_rate = -9.0;
  defect.temp_slope = 0.15;
  defect.intensity_ref = 1e8;
  defect.intensity_exponent = 0.5;
  defect.pattern_probability = 0.0;
  return defect;
}

TEST(DefectTest, NoActivationBelowTrigger) {
  const Defect defect = SimpleDefect();
  EXPECT_EQ(defect.RatePerOp(49.9, 1e8, 0), 0.0);
  EXPECT_GT(defect.RatePerOp(50.1, 1e8, 0), 0.0);
}

TEST(DefectTest, ExponentialTemperatureGrowth) {
  const Defect defect = SimpleDefect();
  const double rate_low = defect.RatePerOp(52.0, 1e8, 0);
  const double rate_high = defect.RatePerOp(62.0, 1e8, 0);
  // 10C x 0.15 decades/C = 1.5 decades.
  EXPECT_NEAR(rate_high / rate_low, std::pow(10.0, 1.5), std::pow(10.0, 1.5) * 0.01);
}

TEST(DefectTest, UsageStressIncreasesRate) {
  const Defect defect = SimpleDefect();
  const double nominal = defect.RatePerOp(55.0, 1e8, 0);
  const double stressed = defect.RatePerOp(55.0, 4e8, 0);
  const double lighter = defect.RatePerOp(55.0, 0.25e8, 0);
  EXPECT_NEAR(stressed / nominal, 2.0, 0.01);   // sqrt(4)
  EXPECT_NEAR(lighter / nominal, 0.5, 0.01);    // sqrt(1/4)
}

TEST(DefectTest, UnknownIntensityIsNeutral) {
  const Defect defect = SimpleDefect();
  EXPECT_DOUBLE_EQ(defect.RatePerOp(55.0, 0.0, 0), defect.RatePerOp(55.0, 1e8, 0));
}

TEST(DefectTest, FrequencyCapBoundsExtrapolation) {
  Defect defect = SimpleDefect();
  defect.base_log10_rate = -4.0;  // absurdly hot defect
  const double frequency = defect.OccurrenceFrequencyPerMinute(90.0, 1e8, 0);
  EXPECT_LE(frequency, 2000.0 * 1.001);
}

TEST(DefectTest, PcoreScaleSelectsCores) {
  Defect defect = SimpleDefect();
  defect.affected_pcores = {3};
  EXPECT_EQ(defect.RatePerOp(55.0, 1e8, 0), 0.0);
  EXPECT_GT(defect.RatePerOp(55.0, 1e8, 3), 0.0);
}

TEST(DefectTest, AllCoreScaleSpread) {
  Defect defect = SimpleDefect();
  defect.pcore_rate_scale = {1.0, 0.001};
  const double fast = defect.RatePerOp(55.0, 1e8, 0);
  const double slow = defect.RatePerOp(55.0, 1e8, 1);
  EXPECT_NEAR(fast / slow, 1000.0, 1.0);
}

TEST(DefectTest, OccurrenceFrequencyUnits) {
  const Defect defect = SimpleDefect();
  const double rate = defect.RatePerOp(55.0, 1e8, 0);
  EXPECT_NEAR(defect.OccurrenceFrequencyPerMinute(55.0, 1e8, 0), rate * 1e8 * 60.0, 1e-9);
}

TEST(DefectTest, CorruptAlwaysChangesValue) {
  Defect defect = SimpleDefect();
  defect.pattern_probability = 0.5;
  Rng pattern_rng(3);
  defect.pattern_sets = {
      {DataType::kFloat64, {{MakePatternMask(DataType::kFloat64, 1, pattern_rng), 1.0}}}};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const Word128 golden = BitsOfDouble(static_cast<double>(i) * 0.37 + 0.1);
    const Word128 corrupted = defect.Corrupt(golden, DataType::kFloat64, rng);
    EXPECT_NE(corrupted, golden);
  }
}

TEST(DefectTest, CorruptRespectsTypeWidth) {
  Defect defect = SimpleDefect();
  defect.pattern_probability = 0.0;
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const Word128 golden = BitsOfRaw(0xab, 8);
    const Word128 corrupted = defect.Corrupt(golden, DataType::kByte, rng);
    EXPECT_EQ(corrupted.lo >> 8, 0u);  // nothing above bit 7
    EXPECT_EQ(corrupted.hi, 0u);
  }
}

TEST(DefectTest, StuckOneOnlyRaisesBits) {
  Defect defect = SimpleDefect();
  defect.semantics = FlipSemantics::kStuckOne;
  defect.pattern_probability = 1.0;
  Word128 mask;
  mask.SetBit(5, true);
  defect.pattern_sets = {{DataType::kInt32, {{mask, 1.0}}}};
  Rng rng(13);
  const Word128 golden = BitsOfInt32(0);  // bit 5 clear
  const Word128 corrupted = defect.Corrupt(golden, DataType::kInt32, rng);
  EXPECT_TRUE(corrupted.GetBit(5));
}

TEST(DefectTest, FloatFlipPositionsConcentrateInFraction) {
  Rng rng(17);
  int in_fraction = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const int position = SampleFlipPosition(DataType::kFloat64, rng);
    ASSERT_GE(position, 0);
    ASSERT_LT(position, 64);
    in_fraction += position < FractionBits(DataType::kFloat64) ? 1 : 0;
  }
  // Observation 7: bitflips predominantly land in the fraction part.
  EXPECT_GT(static_cast<double>(in_fraction) / kSamples, 0.95);
}

TEST(DefectTest, NonNumericFlipPositionsUniform) {
  Rng rng(19);
  std::vector<int> counts(32, 0);
  constexpr int kSamples = 64000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[SampleFlipPosition(DataType::kBin32, rng)];
  }
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_NEAR(static_cast<double>(counts[bit]) / kSamples, 1.0 / 32.0, 0.01);
  }
}

TEST(DefectTest, PatternMaskHasRequestedFlipCount) {
  Rng rng(23);
  for (int flips = 1; flips <= 3; ++flips) {
    const Word128 mask = MakePatternMask(DataType::kFloat32, flips, rng);
    EXPECT_EQ(mask.Popcount(), flips);
  }
}

TEST(DefectTest, TypeClassification) {
  Defect computation = SimpleDefect();
  EXPECT_EQ(computation.type(), SdcType::kComputation);
  Defect consistency = SimpleDefect();
  consistency.feature = Feature::kCache;
  EXPECT_EQ(consistency.type(), SdcType::kConsistency);
  consistency.feature = Feature::kTxMem;
  EXPECT_EQ(consistency.type(), SdcType::kConsistency);
}

// --- Injector ---

TEST(InjectorTest, CorruptsOnlyMatchingOps) {
  Defect defect = SimpleDefect();
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = 0.0;  // certain activation
  DefectInjector injector({defect}, 5);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e8);  // lift the represented weight over the frequency cap
  cpu.thermal().ForceUniform(60.0);
  // Matching op/type corrupts.
  EXPECT_NE(cpu.ExecuteF64(0, OpKind::kFpMul, 1.5), 1.5);
  // Different op or datatype passes through.
  EXPECT_EQ(cpu.ExecuteF64(0, OpKind::kFpAdd, 1.5), 1.5);
  EXPECT_EQ(cpu.ExecuteF32(0, OpKind::kFpMul, 1.5f), 1.5f);
  EXPECT_GE(injector.total_activations(), 1u);
}

// The injector's clean-op mask is the op kinds of all its defects, computation and
// consistency alike; the onset gate never narrows it.
TEST(InjectorTest, CorruptibleOpsAreEveryDefectsOps) {
  Defect computation = SimpleDefect();
  computation.affected_ops = {OpKind::kFpMul, OpKind::kIntDiv};
  computation.onset_months = 1e6;  // dormant, but its ops stay in the mask
  Defect consistency = SimpleDefect();
  consistency.feature = Feature::kCache;
  consistency.affected_ops = {OpKind::kStore, OpKind::kTxCommit};
  consistency.onset_months = 1e6;
  ASSERT_EQ(consistency.type(), SdcType::kConsistency);
  DefectInjector injector({computation, consistency}, 5);
  injector.set_age_months(0.0);
  auto bit = [](OpKind op) { return uint64_t{1} << static_cast<int>(op); };
  EXPECT_EQ(injector.CorruptibleOps(), bit(OpKind::kFpMul) | bit(OpKind::kIntDiv) |
                                           bit(OpKind::kStore) | bit(OpKind::kTxCommit));
  EXPECT_EQ(DefectInjector({consistency}, 5).CorruptibleOps(),
            bit(OpKind::kStore) | bit(OpKind::kTxCommit));
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  EXPECT_TRUE(cpu.MayCorrupt(OpKind::kFpMul));
  EXPECT_TRUE(cpu.MayCorrupt(OpKind::kStore));
  EXPECT_TRUE(cpu.MayCorrupt(OpKind::kTxCommit));
  EXPECT_FALSE(cpu.MayCorrupt(OpKind::kFpAdd));
  EXPECT_FALSE(cpu.MayCorrupt(OpKind::kLoad));
  EXPECT_EQ(DefectInjector({}, 5).CorruptibleOps(), 0u);
}

TEST(InjectorTest, OnsetGatesActivation) {
  Defect defect = SimpleDefect();
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = 0.0;
  defect.onset_months = 12.0;
  DefectInjector injector({defect}, 5);
  injector.set_age_months(6.0);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e8);
  EXPECT_EQ(cpu.ExecuteF64(0, OpKind::kFpMul, 1.5), 1.5);  // dormant
  injector.set_age_months(18.0);
  EXPECT_NE(cpu.ExecuteF64(0, OpKind::kFpMul, 1.5), 1.5);  // developed
}

TEST(InjectorTest, ActivationRateFollowsWeight) {
  Defect defect = SimpleDefect();
  defect.base_log10_rate = -6.0;
  defect.intensity_ref = 1e6;  // keeps the frequency cap above the configured rate
  DefectInjector injector({defect}, 5);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e4);  // probability per op ~ 1e-6 * 1e4 = 1e-2
  cpu.thermal().ForceUniform(defect.min_trigger_celsius);  // zero temperature excess
  constexpr int kOps = 100000;
  for (int i = 0; i < kOps; ++i) {
    cpu.ExecuteF64(0, OpKind::kFpMul, 1.0);
  }
  const double observed =
      static_cast<double>(injector.total_activations()) / static_cast<double>(kOps);
  EXPECT_NEAR(observed, 1e-2, 2e-3);
}


TEST(InjectorTest, UsageStressSeparatedFromTemperature) {
  // The Section 5 separation experiment: temperature pinned identical, only the execution
  // rate of the defective op differs -- the higher-rate run must activate more often per
  // op (stress factor = sqrt(intensity / reference)).
  auto activations_at_intensity = [](double target_intensity) {
    Defect defect = SimpleDefect();
    defect.base_log10_rate = -7.5;  // below the frequency cap, so the stress term shows
    defect.temp_slope = 0.0;
    defect.intensity_ref = 1e8;
    defect.intensity_exponent = 0.5;
    DefectInjector injector({defect}, 99);
    Processor cpu(MakeArchSpec("M2"));
    cpu.SetCorruptionHook(&injector);
    cpu.SetTimeScale(1e4);
    cpu.thermal().ForceUniform(defect.min_trigger_celsius + 1.0);
    constexpr int kBatches = 500;
    constexpr int kOpsPerBatch = 1000;
    for (int batch = 0; batch < kBatches; ++batch) {
      for (int i = 0; i < kOpsPerBatch; ++i) {
        cpu.ExecuteF64(0, OpKind::kFpMul, 1.25);
      }
      // dt chosen so ops * weight / dt equals the target intensity.
      cpu.AdvanceSeconds(kOpsPerBatch * cpu.time_scale() / target_intensity);
      cpu.thermal().ForceUniform(defect.min_trigger_celsius + 1.0);  // hold temperature
    }
    return injector.total_activations();
  };
  const uint64_t slow = activations_at_intensity(0.5e8);
  const uint64_t fast = activations_at_intensity(2.0e8);
  ASSERT_GT(slow, 50u);
  const double ratio = static_cast<double>(fast) / static_cast<double>(slow);
  EXPECT_GT(ratio, 1.6);  // sqrt(4) = 2 expected
  EXPECT_LT(ratio, 2.5);
}

TEST(InjectorTest, ResetCountersClears) {
  Defect defect = SimpleDefect();
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = 0.0;
  DefectInjector injector({defect}, 5);
  Processor cpu(MakeArchSpec("M2"));
  cpu.SetCorruptionHook(&injector);
  cpu.SetTimeScale(1e8);
  cpu.ExecuteF64(0, OpKind::kFpMul, 1.0);
  EXPECT_GT(injector.total_activations(), 0u);
  injector.ResetCounters();
  EXPECT_EQ(injector.total_activations(), 0u);
  EXPECT_EQ(injector.activations(0), 0u);
}

// The per-op activation path the batched injector replaced, kept as an oracle: every op
// re-resolves each defect's rate and draws, in defect order, until the first one fires.
class PerOpInjector : public CorruptionHook {
 public:
  PerOpInjector(std::vector<Defect> defects, uint64_t seed)
      : defects_(std::move(defects)), activations_(defects_.size(), 0), rng_(seed) {}

  void OnExecuteBatch(const OpContext& context, std::span<Word128> values) override {
    for (Word128& value : values) {
      const int index = FindActivation(context, SdcType::kComputation);
      if (index >= 0) {
        value = defects_[index].Corrupt(value, context.type, rng_);
      }
    }
  }
  bool OnCoherenceFault(const OpContext& context) override {
    return FindActivation(context, SdcType::kConsistency) >= 0;
  }
  bool OnTxFault(const OpContext& context) override {
    return FindActivation(context, SdcType::kConsistency) >= 0;
  }

  uint64_t activations(size_t defect_index) const { return activations_[defect_index]; }

 private:
  static constexpr double kAgeMonths = 1e9;  // DefectInjector's default age

  int FindActivation(const OpContext& context, SdcType want_type) {
    for (size_t i = 0; i < defects_.size(); ++i) {
      const Defect& defect = defects_[i];
      if (!defect.AffectsOp(context.op) || !defect.AffectsType(context.type) ||
          defect.type() != want_type || defect.onset_months > kAgeMonths) {
        continue;
      }
      const double rate =
          defect.RatePerOp(context.temperature, context.op_intensity, context.pcore);
      if (rate > 0.0 && rng_.NextBernoulli(std::min(1.0, rate * context.weight))) {
        ++activations_[i];
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::vector<Defect> defects_;
  std::vector<uint64_t> activations_;
  Rng rng_;
};

// A part whose two live computation defects both fire often on fp_mul and int_add, for
// every datatype, so the second defect fires exactly on the ops where the first did not.
// Beside them sit a dormant defect, one that only touches another core, and a consistency
// defect that shares fp_mul but must never corrupt a result.
std::vector<Defect> FirstFiresDefects() {
  Defect first = SimpleDefect();
  first.id = "first";
  first.affected_ops = {OpKind::kFpMul, OpKind::kIntAdd};
  first.affected_types = {};
  first.min_trigger_celsius = 40.0;
  first.base_log10_rate = -4.0;
  first.temp_slope = 0.02;
  first.intensity_ref = 1e3;  // stress and the frequency cap both bind
  first.pattern_probability = 0.5;
  Rng pattern_rng(3);
  for (DataType type : {DataType::kFloat64, DataType::kFloat80, DataType::kBin64}) {
    PatternSet set;
    set.type = type;
    set.patterns = {{MakePatternMask(type, 2, pattern_rng), 2.0},
                    {MakePatternMask(type, 1, pattern_rng), 1.0}};
    first.pattern_sets.push_back(std::move(set));
  }
  first.SealPatternCdfs();
  Defect second = first;
  second.id = "second";
  second.semantics = FlipSemantics::kStuckOne;
  // Unsealed, and wider than the i32 it damages.
  second.pattern_sets.assign(1, PatternSet{});
  second.pattern_sets[0].type = DataType::kInt32;
  second.pattern_sets[0].patterns = {{Word128{0xff00ff00ff00ff00ull, 0xffull}, 1.0}};
  second.pattern_probability = 0.7;
  Defect dormant = first;
  dormant.id = "dormant";
  dormant.onset_months = 1e12;
  Defect other_core = first;
  other_core.id = "other_core";
  other_core.affected_pcores = {1};
  Defect coherence = first;
  coherence.id = "coherence";
  coherence.feature = Feature::kCache;
  coherence.affected_ops = {OpKind::kFpMul, OpKind::kStore};
  return {first, second, dormant, other_core, coherence};
}

// A random bit image of `type`'s width.
Word128 RandomImage(DataType type, Rng& rng) {
  const int width = BitWidth(type);
  const Word128 low = BitsOfRaw(rng.Next(), std::min(width, 64));
  return {low.lo, width > 64 ? BitsOfRaw(rng.Next(), width - 64).lo : 0};
}

TEST(InjectorTest, BatchMatchesPerOpOracle) {
  const std::vector<Defect> defects = FirstFiresDefects();
  DefectInjector injector(defects, 31);
  PerOpInjector oracle(defects, 31);
  Processor batched(MakeArchSpec("M2"));
  Processor single(MakeArchSpec("M2"));
  batched.SetCorruptionHook(&injector);
  single.SetCorruptionHook(&oracle);
  for (Processor* cpu : {&batched, &single}) {
    cpu->SetTimeScale(40.0);
    cpu->thermal().ForceUniform(70.0);
  }
  Rng inputs(5);
  for (int round = 0; round < 3; ++round) {
    for (int t = 0; t <= static_cast<int>(DataType::kBin64); ++t) {
      const auto type = static_cast<DataType>(t);
      // int_sub: no defect touches it, so neither path draws.
      for (OpKind op : {OpKind::kFpMul, OpKind::kIntAdd, OpKind::kIntSub}) {
        for (size_t size : {1, 7, 300}) {
          std::vector<Word128> golden(size);
          for (Word128& image : golden) {
            image = RandomImage(type, inputs);
          }
          std::vector<Word128> routed = golden;
          batched.ExecuteBatch(0, op, type, routed);
          for (size_t i = 0; i < size; ++i) {
            ASSERT_EQ(routed[i], single.Execute(0, op, type, golden[i]))
                << "round " << round << " " << DataTypeName(type) << " " << OpKindName(op)
                << " size " << size << " element " << i;
          }
        }
      }
    }
    // Consistency ops resolve the same two steps on one op.
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(injector.OnCoherenceFault(batched.MakeContext(0, OpKind::kStore)),
                oracle.OnCoherenceFault(single.MakeContext(0, OpKind::kStore)));
      ASSERT_EQ(injector.OnTxFault(batched.MakeContext(0, OpKind::kFpMul)),
                oracle.OnTxFault(single.MakeContext(0, OpKind::kFpMul)));
    }
    // Between batches the clock, the thermal state and the op intensities move.
    batched.AdvanceSeconds(2e-4);
    single.AdvanceSeconds(2e-4);
  }
  for (size_t d = 0; d < defects.size(); ++d) {
    EXPECT_EQ(injector.activations(d), oracle.activations(d)) << defects[d].id;
  }
  EXPECT_GT(injector.activations(0), 1000u);
  EXPECT_GT(injector.activations(1), 500u);  // fired only where `first` did not
  EXPECT_EQ(injector.activations(2), 0u);
  EXPECT_EQ(injector.activations(3), 0u);
  EXPECT_GT(injector.activations(4), 0u);
  for (OpKind op : {OpKind::kFpMul, OpKind::kIntAdd, OpKind::kIntSub, OpKind::kStore}) {
    EXPECT_EQ(batched.op_count(0, op), single.op_count(0, op)) << OpKindName(op);
  }
  EXPECT_EQ(batched.ConsumeBusySeconds(0), single.ConsumeBusySeconds(0));
  // The injector's stream stands where the oracle's does: the next draws agree.
  std::vector<Word128> next(256, BitsOfDouble(1.5));
  batched.ExecuteBatch(0, OpKind::kFpMul, DataType::kFloat64, next);
  for (const Word128& image : next) {
    ASSERT_EQ(image, single.Execute(0, OpKind::kFpMul, DataType::kFloat64, BitsOfDouble(1.5)));
  }
}

// --- Catalog ---

TEST(CatalogTest, HasTwentySevenProcessors) {
  EXPECT_EQ(StudyCatalog().size(), 27u);
}

TEST(CatalogTest, Table3NamesPresent) {
  const std::vector<std::string> names = {"MIX1", "MIX2", "SIMD1", "SIMD2", "FPU1",
                                          "FPU2", "FPU3", "FPU4", "CNST1", "CNST2"};
  for (const std::string& name : names) {
    const FaultyProcessorInfo info = FindInCatalog(name);
    EXPECT_EQ(info.cpu_id, name);
    EXPECT_FALSE(info.defects.empty());
  }
}

TEST(CatalogTest, OneSdcTypePerProcessor) {
  // Section 4.1: if a processor has multiple defective features, they share one type.
  for (const FaultyProcessorInfo& info : StudyCatalog()) {
    std::set<SdcType> types;
    for (const Defect& defect : info.defects) {
      types.insert(defect.type());
    }
    EXPECT_EQ(types.size(), 1u) << info.cpu_id;
  }
}

TEST(CatalogTest, ComputationConsistencySplitMatchesPaper) {
  int computation = 0;
  int consistency = 0;
  for (const FaultyProcessorInfo& info : StudyCatalog()) {
    (info.sdc_type() == SdcType::kComputation ? computation : consistency) += 1;
  }
  EXPECT_EQ(computation, 19);  // Section 4.1: 19 of 27
  EXPECT_EQ(consistency, 8);
}

TEST(CatalogTest, DefectivePcoreCounts) {
  EXPECT_EQ(FindInCatalog("MIX1").defective_pcore_count(), 16);
  EXPECT_EQ(FindInCatalog("SIMD1").defective_pcore_count(), 1);
  EXPECT_EQ(FindInCatalog("CNST2").defective_pcore_count(), 24);
}

TEST(CatalogTest, Mix1TrickyDefectMatchesSection5) {
  // Testcase C on MIX1 only reproduces above 59C.
  const FaultyProcessorInfo mix1 = FindInCatalog("MIX1");
  bool found = false;
  for (const Defect& defect : mix1.defects) {
    if (defect.id == "mix1-tricky-veccrc") {
      found = true;
      EXPECT_DOUBLE_EQ(defect.min_trigger_celsius, 59.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CatalogTest, DeterministicAcrossCalls) {
  const auto first = StudyCatalog();
  const auto second = StudyCatalog();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].cpu_id, second[i].cpu_id);
    ASSERT_EQ(first[i].defects.size(), second[i].defects.size());
    for (size_t d = 0; d < first[i].defects.size(); ++d) {
      EXPECT_EQ(first[i].defects[d].min_trigger_celsius,
                second[i].defects[d].min_trigger_celsius);
      EXPECT_EQ(first[i].defects[d].base_log10_rate, second[i].defects[d].base_log10_rate);
    }
  }
}

TEST(CatalogTest, ArchSpecsCoverM1ToM9) {
  for (int arch = 0; arch < kArchCount; ++arch) {
    const ProcessorSpec spec = MakeArchSpec(arch);
    EXPECT_EQ(spec.arch, ArchName(arch));
    EXPECT_GT(spec.physical_cores, 0);
    EXPECT_GT(spec.frequency_ghz, 1.0);
  }
  EXPECT_EQ(MakeArchSpec("M3").physical_cores, MakeArchSpec(2).physical_cores);
}

TEST(CatalogTest, TriggerRateSamplingFollowsFig9Slope) {
  Rng rng(31);
  std::vector<double> triggers;
  std::vector<double> log_frequencies;
  for (int i = 0; i < 400; ++i) {
    double trigger = 0.0;
    double base_rate = 0.0;
    SampleTriggerAndRate(rng, 1e8, &trigger, &base_rate);
    EXPECT_GE(trigger, 40.0);
    EXPECT_LE(trigger, 75.0);
    triggers.push_back(trigger);
    log_frequencies.push_back(base_rate + std::log10(60.0 * 1e8));
  }
  // Figure 9: strong negative correlation between trigger temperature and frequency.
  EXPECT_LT(PearsonCorrelation(triggers, log_frequencies), -0.7);
}

TEST(CatalogTest, RandomDefectsAreSane) {
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const int arch = static_cast<int>(rng.NextBelow(kArchCount));
    const int pcores = MakeArchSpec(arch).physical_cores;
    const std::vector<Defect> defects = GenerateRandomDefects(rng, arch, pcores);
    ASSERT_FALSE(defects.empty());
    std::set<SdcType> types;
    for (const Defect& defect : defects) {
      types.insert(defect.type());
      EXPECT_FALSE(defect.affected_ops.empty());
      for (int pcore : defect.affected_pcores) {
        EXPECT_GE(pcore, 0);
        EXPECT_LT(pcore, pcores);
      }
    }
    EXPECT_EQ(types.size(), 1u);
  }
}

// --- FaultyMachine ---

TEST(MachineTest, HealthyMachineHasNoHook) {
  FaultyMachine machine(MakeArchSpec("M5"));
  EXPECT_EQ(machine.injector(), nullptr);
  EXPECT_EQ(machine.cpu().corruption_hook(), nullptr);
  EXPECT_EQ(machine.info().cpu_id, "healthy");
}

TEST(MachineTest, FaultyMachineWiresInjector) {
  FaultyMachine machine(FindInCatalog("FPU1"), 7);
  ASSERT_NE(machine.injector(), nullptr);
  EXPECT_EQ(machine.cpu().corruption_hook(), machine.injector());
  EXPECT_NEAR(machine.injector()->age_months(), 0.58 * 12.0, 1e-9);
}

TEST(MachineTest, SetAllCoreUtilization) {
  FaultyMachine machine(MakeArchSpec("M2"));
  machine.SetAllCoreUtilization(0.8);
  for (int pcore = 0; pcore < machine.cpu().spec().physical_cores; ++pcore) {
    EXPECT_DOUBLE_EQ(machine.cpu().core_utilization(pcore), 0.8);
  }
}

}  // namespace
}  // namespace sdc
