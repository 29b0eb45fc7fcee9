// Tests for src/analysis: bitflip statistics, precision losses, pattern mining,
// reproducibility measurement, temperature regression, and suspect-instruction ranking.

#include <cmath>

#include <gtest/gtest.h>

#include "src/analysis/bitflip.h"
#include "src/analysis/patterns.h"
#include "src/analysis/repro.h"
#include "src/fault/catalog.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

SdcRecord MakeRecord(DataType type, const Word128& expected, const Word128& actual,
                     const std::string& testcase_id = "tc", int pcore = 0) {
  SdcRecord record;
  record.testcase_id = testcase_id;
  record.cpu_id = "X";
  record.pcore = pcore;
  record.sdc_type = SdcType::kComputation;
  record.type = type;
  record.expected = expected;
  record.actual = actual;
  return record;
}

TEST(BitflipTest, CountsPositionsAndDirections) {
  std::vector<SdcRecord> records;
  // 0 -> 1 at bit 3; 1 -> 0 at bit 5.
  Word128 expected = BitsOfInt32(0b100000);
  Word128 actual = BitsOfInt32(0b001000);
  records.push_back(MakeRecord(DataType::kInt32, expected, actual));
  const BitflipStats stats = AnalyzeBitflips(records, DataType::kInt32);
  EXPECT_EQ(stats.record_count, 1u);
  EXPECT_EQ(stats.total_flips, 2u);
  EXPECT_EQ(stats.zero_to_one[3], 1u);
  EXPECT_EQ(stats.one_to_zero[5], 1u);
  EXPECT_DOUBLE_EQ(stats.ZeroToOneFraction(), 0.5);
  EXPECT_DOUBLE_EQ(stats.FractionAt(3, true), 0.5);
}

TEST(BitflipTest, FiltersByType) {
  std::vector<SdcRecord> records;
  records.push_back(MakeRecord(DataType::kInt32, BitsOfInt32(0), BitsOfInt32(1)));
  records.push_back(MakeRecord(DataType::kFloat32, BitsOfFloat(1.0f),
                               BitsOfFloat(1.0000001f)));
  EXPECT_EQ(AnalyzeBitflips(records, DataType::kInt32).record_count, 1u);
  EXPECT_EQ(AnalyzeBitflips(records, DataType::kFloat32).record_count, 1u);
  EXPECT_EQ(AnalyzeBitflips(records, DataType::kFloat64).record_count, 0u);
}

TEST(BitflipTest, FractionPartShare) {
  std::vector<SdcRecord> records;
  Word128 expected = BitsOfDouble(1.5);
  Word128 fraction_flip = expected;
  fraction_flip.FlipBit(10);  // fraction
  Word128 exponent_flip = expected;
  exponent_flip.FlipBit(55);  // exponent
  records.push_back(MakeRecord(DataType::kFloat64, expected, fraction_flip));
  records.push_back(MakeRecord(DataType::kFloat64, expected, exponent_flip));
  const BitflipStats stats = AnalyzeBitflips(records, DataType::kFloat64);
  EXPECT_DOUBLE_EQ(stats.FractionPartShare(), 0.5);
}

TEST(BitflipTest, PrecisionLossesSkipInfinite) {
  std::vector<SdcRecord> records;
  records.push_back(MakeRecord(DataType::kInt32, BitsOfInt32(0), BitsOfInt32(8)));   // inf
  records.push_back(MakeRecord(DataType::kInt32, BitsOfInt32(100), BitsOfInt32(104)));
  const std::vector<double> losses = PrecisionLosses(records, DataType::kInt32);
  ASSERT_EQ(losses.size(), 1u);
  EXPECT_NEAR(losses[0], 0.04, 1e-12);
}

TEST(BitflipTest, FlipCountDistribution) {
  std::vector<SdcRecord> records;
  Word128 expected = BitsOfInt32(0);
  Word128 one = expected;
  one.FlipBit(1);
  Word128 two = expected;
  two.FlipBit(1);
  two.FlipBit(9);
  Word128 many = expected;
  many.FlipBit(1);
  many.FlipBit(9);
  many.FlipBit(17);
  records.push_back(MakeRecord(DataType::kInt32, expected, one));
  records.push_back(MakeRecord(DataType::kInt32, expected, one));
  records.push_back(MakeRecord(DataType::kInt32, expected, two));
  records.push_back(MakeRecord(DataType::kInt32, expected, many));
  const std::vector<double> distribution = FlipCountDistribution(records, DataType::kInt32);
  EXPECT_DOUBLE_EQ(distribution[0], 0.5);
  EXPECT_DOUBLE_EQ(distribution[1], 0.25);
  EXPECT_DOUBLE_EQ(distribution[2], 0.25);
}

TEST(PatternTest, MinesRepeatedMasks) {
  std::vector<SdcRecord> records;
  Word128 expected = BitsOfInt32(1000);
  Word128 pattern_mask;
  pattern_mask.SetBit(7, true);
  // 60 records with the fixed pattern, 40 with unique noise masks.
  for (int i = 0; i < 60; ++i) {
    records.push_back(MakeRecord(DataType::kInt32, expected, expected ^ pattern_mask));
  }
  for (int i = 0; i < 40; ++i) {
    Word128 noise;
    noise.SetBit(i % 30, true);
    noise.SetBit((i * 7 + 1) % 30, true);
    records.push_back(MakeRecord(DataType::kInt32, expected, expected ^ noise));
  }
  const PatternAnalysis analysis = MinePatterns(records, 0.05);
  EXPECT_EQ(analysis.record_count, 100u);
  ASSERT_FALSE(analysis.patterns.empty());
  EXPECT_EQ(analysis.patterns.front().mask, pattern_mask);
  EXPECT_NEAR(analysis.patterns.front().share, 0.6, 0.001);
  EXPECT_GE(analysis.patterned_record_fraction, 0.6);
}

TEST(PatternTest, ThresholdExcludesRareMasks) {
  std::vector<SdcRecord> records;
  Word128 expected = BitsOfInt32(0);
  for (int i = 0; i < 100; ++i) {
    Word128 mask;
    mask.SetBit(i % 25, true);  // each mask ~4% share
    records.push_back(MakeRecord(DataType::kInt32, expected, expected ^ mask));
  }
  const PatternAnalysis analysis = MinePatterns(records, 0.05);
  EXPECT_TRUE(analysis.patterns.empty());
  EXPECT_DOUBLE_EQ(analysis.patterned_record_fraction, 0.0);
}

TEST(PatternTest, FilterSettingSelectsTestcaseAndCore) {
  std::vector<SdcRecord> records;
  records.push_back(MakeRecord(DataType::kInt32, BitsOfInt32(0), BitsOfInt32(1), "a", 0));
  records.push_back(MakeRecord(DataType::kInt32, BitsOfInt32(0), BitsOfInt32(1), "a", 1));
  records.push_back(MakeRecord(DataType::kInt32, BitsOfInt32(0), BitsOfInt32(1), "b", 0));
  EXPECT_EQ(FilterSetting(records, "a").size(), 2u);
  EXPECT_EQ(FilterSetting(records, "a", 1).size(), 1u);
  EXPECT_EQ(FilterSetting(records, "c").size(), 0u);
}

TEST(ReproTest, FitLogFrequencyRecoversSlope) {
  std::vector<TemperaturePoint> points;
  for (double temperature = 50.0; temperature <= 70.0; temperature += 2.0) {
    TemperaturePoint point;
    point.temperature_celsius = temperature;
    point.frequency_per_minute = std::pow(10.0, 0.15 * (temperature - 50.0) - 2.0);
    points.push_back(point);
  }
  const LinearFit fit = FitLogFrequencyVsTemperature(points);
  EXPECT_NEAR(fit.slope, 0.15, 1e-9);
  EXPECT_NEAR(fit.r, 1.0, 1e-9);
}

TEST(ReproTest, FitIgnoresZeroFrequencies) {
  std::vector<TemperaturePoint> points = {{40.0, 0.0}, {50.0, 1.0}, {60.0, 10.0}};
  const LinearFit fit = FitLogFrequencyVsTemperature(points);
  EXPECT_NEAR(fit.slope, 0.1, 1e-9);
}

TEST(ReproTest, CollectTriggerPointsCoversCatalogDefects) {
  const auto catalog = StudyCatalog();
  const std::vector<TriggerPoint> points = CollectTriggerPoints(catalog);
  size_t defect_count = 0;
  for (const auto& info : catalog) {
    defect_count += info.defects.size();
  }
  EXPECT_EQ(points.size(), defect_count);
  for (const TriggerPoint& point : points) {
    EXPECT_GT(point.frequency_per_minute, 0.0) << point.defect_id;
    EXPECT_GE(point.min_trigger_celsius, 35.0);
    EXPECT_LE(point.min_trigger_celsius, 80.0);
  }
}

TEST(ReproTest, TriggerPointsReproduceFig9Correlation) {
  const std::vector<TriggerPoint> points = CollectTriggerPoints(StudyCatalog());
  std::vector<double> triggers;
  std::vector<double> log_frequencies;
  for (const TriggerPoint& point : points) {
    triggers.push_back(point.min_trigger_celsius);
    log_frequencies.push_back(std::log10(point.frequency_per_minute));
  }
  // The paper reports r = -0.8272.
  EXPECT_LT(PearsonCorrelation(triggers, log_frequencies), -0.55);
}

TEST(ReproTest, SuspectRankingIdentifiesDefectiveOp) {
  RunReport report;
  // Four testcases: two use arctan (both fail), two do not (both pass).
  for (int i = 0; i < 4; ++i) {
    TestcaseResult result;
    result.testcase_id = "case" + std::to_string(i);
    result.duration_seconds = 60.0;
    const bool uses_arctan = i < 2;
    result.errors = uses_arctan ? 10 : 0;
    result.op_histogram[static_cast<int>(OpKind::kFpArctan)] = uses_arctan ? 1000 : 0;
    result.op_histogram[static_cast<int>(OpKind::kFpAdd)] = 1000;  // everyone uses adds
    report.results.push_back(result);
  }
  const std::vector<SuspectScore> scores = RankSuspectOps(report);
  ASSERT_FALSE(scores.empty());
  EXPECT_EQ(scores.front().op, OpKind::kFpArctan);
  EXPECT_DOUBLE_EQ(scores.front().failed_usage, 1.0);
  EXPECT_DOUBLE_EQ(scores.front().passed_usage, 0.0);
}

TEST(ReproTest, MeasuredFrequencyGrowsWithTemperature) {
  // End-to-end: pin temperatures and measure a catalog setting's frequency; hotter must be
  // (much) more frequent, as in Figure 8.
  TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  FaultyMachine machine(FindInCatalog("FPU2"), 17);
  const int index = suite.IndexOf("lib.math.fp_arctan.f64.n256");
  ASSERT_GE(index, 0);
  const int pcore = FindInCatalog("FPU2").defects.front().affected_pcores.front();
  EngineContext context(PinnedEngine(1));
  const double cold = MeasureOccurrenceFrequency(machine, framework, context,
                                                 static_cast<size_t>(index), pcore, 47.0,
                                                 600.0, 4);
  const double hot = MeasureOccurrenceFrequency(machine, framework, context,
                                                static_cast<size_t>(index), pcore, 56.0,
                                                600.0, 4);
  EXPECT_EQ(cold, 0.0);  // below the 48C trigger
  EXPECT_GT(hot, 0.0);
}

}  // namespace
}  // namespace sdc
