// Unit tests for src/common: RNG, bit views, statistics, table rendering.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>

#include <gtest/gtest.h>

#include "src/common/bits.h"
#include "src/common/parse.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "tests/oracles/oracles.h"

namespace sdc {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= value == -3;
    saw_hi |= value == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(15);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(rng.NextGaussian());
  }
  EXPECT_NEAR(Mean(samples), 0.0, 0.02);
  EXPECT_NEAR(StdDev(samples), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) {
    samples.push_back(rng.NextExponential(2.0));
  }
  EXPECT_NEAR(Mean(samples), 0.5, 0.02);
}

TEST(RngTest, PoissonMean) {
  Rng rng(21);
  double sum = 0.0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(rng.NextPoisson(3.5));
  }
  EXPECT_NEAR(sum / kTrials, 3.5, 0.1);
}

TEST(RngTest, WeightedPickFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.NextWeighted(weights)];
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / (counts[0] + counts[1]), 0.75, 0.02);
}

TEST(RngTest, WeightedDegenerateInputsConsumeNoDraw) {
  // The blocked fleet generator's replay arithmetic depends on knowing exactly when
  // NextWeighted draws: never for an empty vector or a non-positive finite total, always
  // otherwise (including a NaN-polluted total, whose `<= 0` test is false).
  Rng rng(29);
  Rng pristine(29);
  EXPECT_EQ(rng.NextWeighted({}), 0u);
  EXPECT_EQ(rng.NextWeighted({0.0, 0.0}), 0u);
  EXPECT_EQ(rng.NextWeighted({-1.0, 0.5}), 0u);
  EXPECT_EQ(rng.Next(), pristine.Next());  // no draw was consumed above
  const double nan = std::numeric_limits<double>::quiet_NaN();
  (void)rng.NextWeighted({nan, 1.0});
  (void)pristine.Next();  // the NaN total escapes `total <= 0`, so one draw is consumed
  EXPECT_EQ(rng.Next(), pristine.Next());
}

TEST(RngTest, WeightedSingleElementNeverUnderflows) {
  // A single positive weight must return index 0 for every draw (the old clamp
  // `weights.size() - 1` is exercised when the subtraction chain never goes negative,
  // which rounding can produce).
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.NextWeighted({0.3}), 0u);
  }
}

TEST(RngTest, FillBlockMatchesNextSequence) {
  Rng bulk(37);
  Rng serial(37);
  uint64_t draws[257];
  bulk.FillBlock(std::span<uint64_t>(draws, 257));  // odd size: exercises no alignment
  for (uint64_t draw : draws) {
    EXPECT_EQ(draw, serial.Next());
  }
  // Split fills continue the same stream.
  bulk.FillBlock(std::span<uint64_t>(draws, 3));
  bulk.FillBlock(std::span<uint64_t>(draws + 3, 5));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(draws[i], serial.Next());
  }
  EXPECT_EQ(bulk.Next(), serial.Next());
}

TEST(RngTest, SkipMatchesDiscardedNexts) {
  Rng skipped(41);
  Rng drained(41);
  skipped.Skip(0);
  EXPECT_EQ(skipped.Next(), drained.Next());
  skipped.Skip(129);
  for (int i = 0; i < 129; ++i) {
    (void)drained.Next();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(skipped.Next(), drained.Next());
  }
}

TEST(RngTest, BernoulliThresholdU53MatchesNextBernoulli) {
  // The threshold must classify every raw draw exactly as NextBernoulli does:
  // faulty iff (raw >> 11) < threshold.
  const double kProbs[] = {1e-9, 6.242e-4, 0.25, 0.5, 0.3 + 1e-16, 1.0 - 1e-16};
  Rng draw_rng(43);
  for (double p : kProbs) {
    const uint64_t threshold = BernoulliThresholdU53(p);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t raw = draw_rng.Next();
      const bool via_threshold = (raw >> 11) < threshold;
      const bool via_double = static_cast<double>(raw >> 11) * 0x1.0p-53 < p;
      ASSERT_EQ(via_threshold, via_double) << "p=" << p << " raw=" << raw;
    }
    // The boundary itself must be exact, not just sampled: threshold - 1 passes,
    // threshold fails.
    if (threshold > 0 && threshold < kU53End) {
      EXPECT_LT(static_cast<double>(threshold - 1) * 0x1.0p-53, p);
      EXPECT_GE(static_cast<double>(threshold) * 0x1.0p-53, p);
    }
  }
  EXPECT_EQ(BernoulliThresholdU53(0.0), 0u);
  EXPECT_EQ(BernoulliThresholdU53(-1.0), 0u);
  EXPECT_EQ(BernoulliThresholdU53(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(BernoulliThresholdU53(1.0), kU53End);
  EXPECT_EQ(BernoulliThresholdU53(2.0), kU53End);
}

TEST(RngTest, WeightedCdfSampleMatchesNextWeighted) {
  // WeightedCdf::Sample must be a drop-in for NextWeighted: same index, same draw
  // consumption, for well-behaved and adversarial weight vectors alike.
  const std::vector<std::vector<double>> kWeightSets = {
      {0.10, 0.10, 0.12, 0.06, 0.08, 0.14, 0.10, 0.16, 0.14},  // the fleet arch shares
      {1.0},
      {1.0, 3.0, 0.0},
      {0.0, 0.0, 5.0},
      {1e-300, 1.0, 1e-300},
      {0.1 + 0.2, 0.3, 0.4},  // rounding-hostile partial sums
      {5.0, -1.0, 3.0},       // negative weight: the chain can skip an index
      {},
      {0.0, 0.0},
      {std::numeric_limits<double>::infinity(), 1.0},              // non-finite fallback
      {std::numeric_limits<double>::quiet_NaN(), 1.0},             // NaN total still draws
      {std::numeric_limits<double>::max(), std::numeric_limits<double>::max()},
  };
  uint64_t seed = 47;
  for (const std::vector<double>& weights : kWeightSets) {
    const WeightedCdf cdf{std::span<const double>(weights)};
    EXPECT_EQ(cdf.size(), weights.size());
    Rng via_cdf(seed);
    Rng via_chain(seed);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(cdf.Sample(via_cdf), via_chain.NextWeighted(weights))
          << "weights[0]=" << (weights.empty() ? -1.0 : weights[0]) << " i=" << i;
    }
    // Draw-consumption parity: both streams must sit at the same position.
    EXPECT_EQ(via_cdf.Next(), via_chain.Next());
    ++seed;
  }
}

TEST(RngTest, WeightedCdfBoundariesAreExact) {
  // IndexOf at bound - 1 / bound must flip the class -- the sampled test above would
  // almost never land on the exact boundary draws.
  const std::vector<double> weights = {0.10, 0.10, 0.12, 0.06, 0.08,
                                       0.14, 0.10, 0.16, 0.14};
  const WeightedCdf cdf{std::span<const double>(weights)};
  ASSERT_TRUE(cdf.exact());
  ASSERT_TRUE(cdf.draws());
  const std::span<const uint64_t> bounds = cdf.bounds_u53();
  ASSERT_EQ(bounds.size(), weights.size() - 1);
  double total = 0.0;
  for (double w : weights) {
    total += w;
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    ASSERT_GT(bounds[i], 0u);
    // Replay NextWeighted's own arithmetic at the boundary and one below it.
    const auto chain_at = [&](uint64_t u53) {
      double pick = static_cast<double>(u53) * 0x1.0p-53 * total;
      for (size_t j = 0; j < weights.size(); ++j) {
        pick -= weights[j];
        if (pick < 0.0) {
          return j;
        }
      }
      return weights.size() - 1;
    };
    EXPECT_EQ(chain_at(bounds[i] - 1), i);
    EXPECT_GT(chain_at(bounds[i]), i);
    EXPECT_EQ(cdf.IndexOf((bounds[i] - 1) << 11), i);
    EXPECT_EQ(cdf.IndexOf(bounds[i] << 11), i + 1);
  }
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng parent1(5);
  Rng parent2(5);
  Rng child1 = parent1.Fork(99);
  Rng child2 = parent2.Fork(99);
  EXPECT_EQ(child1.Next(), child2.Next());
  Rng other = parent1.Fork(100);
  EXPECT_NE(child1.Next(), other.Next());
}

TEST(RngTest, ForkStreamsShareNoPrefix) {
  // Different tags off the same parent must give unrelated streams, and no child may
  // replay its parent's stream -- shard RNGs in the parallel hot paths rely on this.
  Rng parent(2023);
  Rng child_a = parent.Fork(0);
  Rng child_b = parent.Fork(1);
  Rng parent_copy(2023);
  for (int i = 0; i < 64; ++i) {
    const uint64_t a = child_a.Next();
    const uint64_t b = child_b.Next();
    const uint64_t p = parent_copy.Next();
    EXPECT_NE(a, b);
    EXPECT_NE(a, p);
    EXPECT_NE(b, p);
  }
}

TEST(RngTest, ForkDoesNotPerturbParent) {
  // Forking is const: the parent's stream must be byte-for-byte what it would have been
  // had the forks never happened.
  Rng forked(7);
  Rng pristine(7);
  (void)forked.Fork(1);
  EXPECT_EQ(forked.Next(), pristine.Next());
  (void)forked.Fork(2);
  (void)forked.Fork(3);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(forked.Next(), pristine.Next());
  }
}

TEST(RngTest, ForkSameSeedSameTagReproduces) {
  // (seed, tag) fully determines the child stream across separate parent instances.
  Rng parent1(42);
  Rng parent2(42);
  (void)parent1.Next();  // parent position must not matter, only its seed
  Rng child1 = parent1.Fork(17);
  Rng child2 = parent2.Fork(17);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(child1.Next(), child2.Next());
  }
}

TEST(BitsTest, DataTypeWidths) {
  EXPECT_EQ(BitWidth(DataType::kInt16), 16);
  EXPECT_EQ(BitWidth(DataType::kInt32), 32);
  EXPECT_EQ(BitWidth(DataType::kUInt32), 32);
  EXPECT_EQ(BitWidth(DataType::kFloat32), 32);
  EXPECT_EQ(BitWidth(DataType::kFloat64), 64);
  EXPECT_EQ(BitWidth(DataType::kFloat80), 80);
  EXPECT_EQ(BitWidth(DataType::kBit), 1);
  EXPECT_EQ(BitWidth(DataType::kByte), 8);
  EXPECT_EQ(BitWidth(DataType::kBin64), 64);
}

TEST(BitsTest, NumericClassification) {
  EXPECT_TRUE(IsNumeric(DataType::kInt16));
  EXPECT_TRUE(IsNumeric(DataType::kFloat80));
  EXPECT_FALSE(IsNumeric(DataType::kBin32));
  EXPECT_FALSE(IsNumeric(DataType::kByte));
  EXPECT_TRUE(IsFloatingPoint(DataType::kFloat32));
  EXPECT_FALSE(IsFloatingPoint(DataType::kInt32));
}

TEST(BitsTest, Word128BitOperations) {
  Word128 word;
  EXPECT_TRUE(word.IsZero());
  word.SetBit(0, true);
  word.SetBit(63, true);
  word.SetBit(64, true);
  word.SetBit(127, true);
  EXPECT_EQ(word.Popcount(), 4);
  EXPECT_TRUE(word.GetBit(64));
  word.FlipBit(64);
  EXPECT_FALSE(word.GetBit(64));
  EXPECT_EQ(word.Popcount(), 3);
}

TEST(BitsTest, Int32RoundTrip) {
  for (int32_t value : {0, 1, -1, 123456789, -123456789, INT32_MIN, INT32_MAX}) {
    EXPECT_EQ(Int32FromBits(BitsOfInt32(value)), value);
  }
}

TEST(BitsTest, Int16RoundTrip) {
  for (int16_t value : {int16_t{0}, int16_t{-1}, int16_t{32767}, int16_t{-32768}}) {
    EXPECT_EQ(Int16FromBits(BitsOfInt16(value)), value);
  }
}

TEST(BitsTest, FloatRoundTrip) {
  for (float value : {0.0f, 1.0f, -1.5f, 3.1415926f, 1e-30f, 1e30f}) {
    EXPECT_EQ(FloatFromBits(BitsOfFloat(value)), value);
  }
}

TEST(BitsTest, DoubleRoundTrip) {
  for (double value : {0.0, 1.0, -2.75, 6.02214076e23, 1e-300}) {
    EXPECT_EQ(DoubleFromBits(BitsOfDouble(value)), value);
  }
}

TEST(BitsTest, Float80RoundTripExactForNormals) {
  for (long double value :
       {1.0L, -1.0L, 3.14159265358979323846L, 1e100L, -2.5e-100L, 0.0L, 123456789.5L}) {
    EXPECT_EQ(Float80FromBits(BitsOfFloat80(value)), value);
  }
}

TEST(BitsTest, Float80EncodingStructure) {
  // 1.0 encodes as exponent 16383 with the explicit integer bit set and zero fraction.
  const Word128 bits = BitsOfFloat80(1.0L);
  EXPECT_EQ(bits.hi & 0x7fffu, 16383u);
  EXPECT_EQ(bits.lo, 0x8000000000000000ull);
  // Sign bit for negatives.
  const Word128 negative = BitsOfFloat80(-1.0L);
  EXPECT_TRUE(negative.GetBit(79));
}

// The 10 bytes an x87 long double occupies (all of it elsewhere, up to 16 bytes), as an
// image: distinguishes NaN payloads, signed zeros and encodings == cannot.
Word128 StoredBytes(long double value) {
  unsigned char bytes[16] = {};
  std::memcpy(bytes, &value, kX87LongDouble ? 10 : std::min(sizeof(value), sizeof(bytes)));
  Word128 image;
  std::memcpy(&image.lo, bytes, 8);
  std::memcpy(&image.hi, bytes + 8, 8);
  return image;
}

long double FromStoredBytes(const Word128& image) {
  unsigned char bytes[16] = {};
  std::memcpy(bytes, &image.lo, 8);
  std::memcpy(bytes + 8, &image.hi, 8);
  long double value = 0.0L;
  std::memcpy(&value, bytes, kX87LongDouble ? 10 : std::min(sizeof(value), sizeof(bytes)));
  return value;
}

// One x87 image of every edge class: signed zeros, denormals and pseudo-denormals,
// smallest and largest normals, unnormals (integer bit clear), infinities and
// pseudo-infinities, quiet and signalling NaNs with payloads, and pseudo-NaNs.
std::vector<Word128> Float80EdgeImages() {
  std::vector<Word128> images;
  const uint64_t top = 0x8000000000000000ull;
  for (uint64_t sign : {uint64_t{0}, uint64_t{0x8000}}) {
    for (const auto& [exponent, mantissa] : std::initializer_list<std::pair<uint64_t, uint64_t>>{
             {0, 0},                             // zero
             {0, 1},                             // smallest denormal
             {0, top - 1},                       // largest denormal
             {0, top},                           // pseudo-denormal
             {0, top | 12345},                   // pseudo-denormal with fraction
             {1, top},                           // smallest normal
             {1, 0},                             // unnormal, zero mantissa
             {16383, top},                       // 1.0
             {16383, 0x4000000000000000ull},     // unnormal 0.5 * 2^0
             {16384, top | 0x4000000000000000ull},  // 3.0
             {0x7ffe, ~uint64_t{0}},             // largest normal
             {0x7ffe, 0x7fffffffffffffffull},    // unnormal at the top exponent
             {0x7fff, top},                      // infinity
             {0x7fff, 0},                        // pseudo-infinity
             {0x7fff, top | 1},                  // signalling NaN
             {0x7fff, 0xc000000000000000ull},    // default quiet NaN
             {0x7fff, 0xc000000000000000ull | 0xbeef},  // quiet NaN with payload
             {0x7fff, 0x4000000000000000ull},    // pseudo-NaN
         }) {
      images.push_back({mantissa, sign | exponent});
    }
  }
  return images;
}

TEST(BitsTest, Float80ConversionsMatchPortableReference) {
  std::vector<Word128> images = Float80EdgeImages();
  Rng rng(80);
  for (int i = 0; i < 1000000; ++i) {
    images.push_back({rng.Next(), rng.Next()});  // bits above the low 80 must be ignored
  }
  for (long double value : {1e-4950L, -3.6e-4951L, std::numeric_limits<long double>::min(),
                            std::numeric_limits<long double>::max(), 1.0L / 3.0L}) {
    images.push_back(StoredBytes(value));
  }
  for (const Word128& image : images) {
    const Word128 expected_bits = BitsOfFloat80Reference(FromStoredBytes(image));
    ASSERT_EQ(BitsOfFloat80(FromStoredBytes(image)), expected_bits)
        << std::hex << image.hi << ":" << image.lo;
    ASSERT_EQ(StoredBytes(Float80FromBits(image)),
              StoredBytes(Float80FromBitsReference(image)))
        << std::hex << image.hi << ":" << image.lo;
  }
}

TEST(BitsTest, Float80FractionFlipIsSmallLoss) {
  const Word128 expected = BitsOfFloat80(1.5L);
  Word128 actual = expected;
  actual.FlipBit(20);  // deep in the fraction
  const double loss = RelativePrecisionLoss(DataType::kFloat80, expected, actual);
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 1e-10);
}

TEST(BitsTest, PrecisionLossIntVsFloat) {
  // Flipping bit 10 of a small int is a large relative loss; flipping fraction bit 10 of a
  // float64 is tiny (Observation 7's asymmetry).
  const Word128 int_expected = BitsOfInt32(100);
  Word128 int_actual = int_expected;
  int_actual.FlipBit(10);
  EXPECT_GT(RelativePrecisionLoss(DataType::kInt32, int_expected, int_actual), 1.0);

  const Word128 double_expected = BitsOfDouble(100.0);
  Word128 double_actual = double_expected;
  double_actual.FlipBit(10);
  EXPECT_LT(RelativePrecisionLoss(DataType::kFloat64, double_expected, double_actual), 1e-9);
}

TEST(BitsTest, PrecisionLossZeroExpected) {
  const Word128 zero = BitsOfInt32(0);
  Word128 nonzero = zero;
  nonzero.FlipBit(3);
  EXPECT_TRUE(std::isinf(RelativePrecisionLoss(DataType::kInt32, zero, nonzero)));
  EXPECT_EQ(RelativePrecisionLoss(DataType::kInt32, zero, zero), 0.0);
}

TEST(BitsTest, FractionBitCoordinates) {
  EXPECT_EQ(FractionBits(DataType::kFloat32), 23);
  EXPECT_EQ(FractionBits(DataType::kFloat64), 52);
  EXPECT_EQ(FractionBits(DataType::kFloat80), 63);
  EXPECT_EQ(ExponentBits(DataType::kFloat64), 11);
}

TEST(StatsTest, MeanVarianceStdDev) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(values), 2.5);
  EXPECT_DOUBLE_EQ(Variance(values), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(values), std::sqrt(1.25));
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonDegenerate) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {2, 3, 4}), 0.0);
  EXPECT_EQ(PearsonCorrelation({1}, {2}), 0.0);
}

TEST(StatsTest, LeastSquaresRecoversLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const LinearFit fit = FitLeastSquares(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r, 1.0, 1e-9);
  EXPECT_NEAR(fit.Predict(100.0), 293.0, 1e-6);
}

TEST(StatsTest, QuantileInterpolation) {
  std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
}

TEST(StatsTest, FractionAtOrBelow) {
  const std::vector<double> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(FractionAtOrBelow(values, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(FractionAtOrBelow(values, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(FractionAtOrBelow(values, 10.0), 1.0);
}

TEST(StatsTest, HistogramBinning) {
  Histogram histogram(0.0, 10.0, 10);
  histogram.Add(0.5);
  histogram.Add(9.5);
  histogram.AddN(5.5, 2);
  histogram.Add(-3.0);   // clamps to first bin
  histogram.Add(100.0);  // clamps to last bin
  EXPECT_EQ(histogram.total(), 6u);
  EXPECT_EQ(histogram.count(0), 2u);
  EXPECT_EQ(histogram.count(9), 2u);
  EXPECT_EQ(histogram.count(5), 2u);
  EXPECT_DOUBLE_EQ(histogram.Fraction(5), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(histogram.BinCenter(0), 0.5);
}

TEST(StatsTest, MeanIgnoresNonFiniteEntries) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(Mean({1.0, nan, 3.0, inf, -inf}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({nan, inf}), 0.0);  // nothing finite left
}

TEST(StatsTest, QuantileIgnoresNonFiniteEntries) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(Quantile({nan, 4.0, 1.0, inf, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({nan, -inf}, 0.5), 0.0);
}

TEST(StatsTest, HistogramZeroBinsDropsSamplesSafely) {
  Histogram histogram(0.0, 10.0, 0);
  histogram.Add(5.0);
  histogram.AddN(7.0, 3);
  EXPECT_EQ(histogram.bin_count(), 0u);
  EXPECT_EQ(histogram.total(), 0u);
}

TEST(StatsTest, HistogramDegenerateRangeSplitsAtLo) {
  Histogram histogram(5.0, 5.0, 4);  // lo == hi: width collapses to 0
  EXPECT_DOUBLE_EQ(histogram.width(), 0.0);
  histogram.Add(4.0);  // <= lo: first bin
  histogram.Add(5.0);
  histogram.Add(6.0);  // > lo: last bin
  EXPECT_EQ(histogram.count(0), 2u);
  EXPECT_EQ(histogram.count(3), 1u);
  EXPECT_EQ(histogram.total(), 3u);

  Histogram inverted(10.0, 0.0, 4);  // hi < lo would make the width negative
  EXPECT_DOUBLE_EQ(inverted.width(), 0.0);
  inverted.Add(20.0);
  EXPECT_EQ(inverted.count(3), 1u);
}

TEST(StatsTest, HistogramNonFiniteBoundsCollapse) {
  const double inf = std::numeric_limits<double>::infinity();
  Histogram histogram(0.0, inf, 4);  // infinite width is degenerate, not UB
  EXPECT_DOUBLE_EQ(histogram.width(), 0.0);
  histogram.Add(1.0);
  EXPECT_EQ(histogram.count(3), 1u);
  Histogram nan_bounds(std::nan(""), 1.0, 2);
  EXPECT_DOUBLE_EQ(nan_bounds.width(), 0.0);
  nan_bounds.Add(0.5);
  EXPECT_EQ(nan_bounds.total(), 1u);
}

TEST(StatsTest, HistogramNonFiniteSamplesLandOnEdgeBins) {
  const double inf = std::numeric_limits<double>::infinity();
  Histogram histogram(0.0, 10.0, 10);
  histogram.Add(std::nan(""));
  histogram.Add(-inf);
  histogram.Add(inf);
  EXPECT_EQ(histogram.count(0), 2u);  // NaN and -inf
  EXPECT_EQ(histogram.count(9), 1u);  // +inf
  EXPECT_EQ(histogram.total(), 3u);
}

TEST(StatsTest, HistogramMergeFromRequiresSameShape) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.Add(1.0);
  b.AddN(9.0, 2);
  a.MergeFrom(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.count(4), 2u);
  Histogram mismatched(0.0, 20.0, 5);
  mismatched.Add(1.0);
  a.MergeFrom(mismatched);  // shape mismatch: no-op
  EXPECT_EQ(a.total(), 3u);
}

TEST(ParseTest, ParseInt64AcceptsOnlyCleanIntegers) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_EQ(ParseInt64("+3"), 3);
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64(" 42").has_value());
  EXPECT_FALSE(ParseInt64("42 ").has_value());
  EXPECT_FALSE(ParseInt64("42x").has_value());
  EXPECT_FALSE(ParseInt64("0x10").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999").has_value());  // overflow
}

TEST(ParseTest, ParseIntNarrowsWithRangeCheck) {
  EXPECT_EQ(ParseInt("2147483647"), 2147483647);
  EXPECT_FALSE(ParseInt("2147483648").has_value());
  EXPECT_FALSE(ParseInt("-2147483649").has_value());
}

TEST(ParseTest, ParseUint64RejectsNegativesInsteadOfWrapping) {
  EXPECT_EQ(ParseUint64("100000"), 100000u);
  EXPECT_EQ(ParseUint64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(ParseUint64("-5").has_value());  // strtoull would wrap this
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());
  EXPECT_FALSE(ParseUint64("10x").has_value());
  EXPECT_FALSE(ParseUint64("").has_value());
}

TEST(ParseTest, ParseDoubleRequiresFiniteFullConsumption) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("1.5abc").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1e999").has_value());  // overflows to inf
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPermyriad(3.61e-4), "3.610 permyriad");
  EXPECT_EQ(FormatPercent(0.0488, 1), "4.9%");
}

}  // namespace
}  // namespace sdc
