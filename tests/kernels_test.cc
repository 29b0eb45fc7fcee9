// Behavioural tests for the extended kernel families (FFT, LU, stencil, Monte Carlo,
// sorting, searching, RLE, histogram, bit packing, base64, memcmp, message passing):
// each is clean on a healthy machine and detects a seeded defect on its own ops.

#include <gtest/gtest.h>

#include "src/fault/catalog.h"
#include "src/toolchain/cases.h"
#include "src/toolchain/framework.h"
#include "tests/test_engine.h"

namespace sdc {
namespace {

FaultyMachine SeededMachine(std::vector<OpKind> ops, std::vector<DataType> types,
                            Feature feature, uint64_t seed,
                            double base_log10_rate = -4.0) {
  FaultyProcessorInfo info;
  info.cpu_id = "seeded";
  info.arch = "M2";
  info.age_years = 1.0;
  info.spec = MakeArchSpec("M2");
  Defect defect;
  defect.id = "seeded";
  defect.feature = feature;
  defect.affected_ops = std::move(ops);
  defect.affected_types = std::move(types);
  defect.min_trigger_celsius = 0.0;
  defect.base_log10_rate = base_log10_rate;
  defect.temp_slope = 0.0;
  defect.intensity_ref = 0.0;
  defect.pattern_probability = 0.0;
  info.defects.push_back(std::move(defect));
  return FaultyMachine(info, seed);
}

class KernelsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { suite_ = new TestSuite(TestSuite::BuildFull()); }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
  }

  static RunReport Run(FaultyMachine& machine, const std::string& id, double seconds,
                       bool multithreaded = false) {
    TestFramework framework(suite_);
    EngineContext context(PinnedEngine(1));
    TestRunConfig config;
    config.time_scale = 1e5;
    config.seed = 77;
    config.pcores_under_test = multithreaded ? std::vector<int>{0, 1} : std::vector<int>{0};
    const int index = suite_->IndexOf(id);
    EXPECT_GE(index, 0) << id;
    return framework.RunPlan(machine, {{static_cast<size_t>(index), seconds}}, config, context);
  }

  static TestSuite* suite_;
};

TestSuite* KernelsTest::suite_ = nullptr;

TEST_F(KernelsTest, SuiteStillExactly633WithUniqueIds) {
  EXPECT_EQ(suite_->size(), kFullSuiteSize);
  EXPECT_GE(suite_->IndexOf("app.fft.f64.n128"), 0);
  EXPECT_GE(suite_->IndexOf("app.lu.f64.n16"), 0);
  EXPECT_GE(suite_->IndexOf("app.stencil.heat.n256.s16"), 0);
  EXPECT_GE(suite_->IndexOf("app.montecarlo.pi.n512"), 0);
  EXPECT_GE(suite_->IndexOf("app.sort.insertion.n48"), 0);
  EXPECT_GE(suite_->IndexOf("app.bsearch.n4096.q128"), 0);
  EXPECT_GE(suite_->IndexOf("app.rle.b1024"), 0);
  EXPECT_GE(suite_->IndexOf("app.histogram.n512"), 0);
  EXPECT_GE(suite_->IndexOf("lib.bitpack.n256"), 0);
  EXPECT_GE(suite_->IndexOf("lib.base64.b192"), 0);
  EXPECT_GE(suite_->IndexOf("lib.memcmp.b1024"), 0);
  EXPECT_GE(suite_->IndexOf("mt.coherence.msgpass.w16.r25"), 0);
}

TEST_F(KernelsTest, AllNewKernelsCleanOnHealthyMachine) {
  for (const char* id :
       {"app.fft.f64.n128", "app.lu.f64.n16", "app.stencil.heat.n64.s4",
        "app.montecarlo.pi.n512", "app.sort.insertion.n48", "app.bsearch.n256.q32",
        "app.rle.b1024", "app.histogram.n512", "lib.bitpack.n256", "lib.base64.b192",
        "lib.memcmp.b1024"}) {
    FaultyMachine machine(MakeArchSpec("M2"));
    const RunReport report = Run(machine, id, 1.0);
    EXPECT_EQ(report.total_errors(), 0u) << id;
  }
  FaultyMachine machine(MakeArchSpec("M2"));
  const RunReport report = Run(machine, "mt.coherence.msgpass.w16.r25", 2.0, true);
  EXPECT_EQ(report.total_errors(), 0u);
}

TEST_F(KernelsTest, FftDetectsFmaDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kFpFma}, {DataType::kFloat64}, Feature::kFpu, 3);
  EXPECT_GT(Run(machine, "app.fft.f64.n128", 3.0).total_errors(), 0u);
}

TEST_F(KernelsTest, LuDetectsDivideDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kFpDiv}, {DataType::kFloat64}, Feature::kFpu, 5, -3.0);
  EXPECT_GT(Run(machine, "app.lu.f64.n24", 3.0).total_errors(), 0u);
}

TEST_F(KernelsTest, StencilPropagatesCorruption) {
  FaultyMachine machine =
      SeededMachine({OpKind::kFpFma}, {DataType::kFloat64}, Feature::kFpu, 7, -5.0);
  const RunReport report = Run(machine, "app.stencil.heat.n256.s16", 3.0);
  EXPECT_GT(report.total_errors(), 0u);
}

TEST_F(KernelsTest, MonteCarloDetectsMulDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kFpMul}, {DataType::kFloat64}, Feature::kFpu, 9);
  EXPECT_GT(Run(machine, "app.montecarlo.pi.n2048", 2.0).total_errors(), 0u);
}

TEST_F(KernelsTest, SortDetectsCompareDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kCompare}, {DataType::kInt32}, Feature::kAlu, 11, -3.0);
  EXPECT_GT(Run(machine, "app.sort.insertion.n96", 3.0).total_errors(), 0u);
}

TEST_F(KernelsTest, BinarySearchDetectsCompareDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kCompare}, {DataType::kInt32}, Feature::kAlu, 13, -2.0);
  EXPECT_GT(Run(machine, "app.bsearch.n4096.q128", 3.0).total_errors(), 0u);
}

TEST_F(KernelsTest, HistogramDetectsAddDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kIntAdd}, {DataType::kInt32}, Feature::kAlu, 15, -4.0);
  EXPECT_GT(Run(machine, "app.histogram.n2048", 2.0).total_errors(), 0u);
}

TEST_F(KernelsTest, RleDetectsByteAddDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kIntAdd}, {DataType::kByte}, Feature::kAlu, 17, -4.0);
  EXPECT_GT(Run(machine, "app.rle.b4096", 3.0).total_errors(), 0u);
}

TEST_F(KernelsTest, BitPackDetectsShiftDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kIntShift}, {DataType::kBin32}, Feature::kAlu, 19, -4.0);
  EXPECT_GT(Run(machine, "lib.bitpack.n1024", 2.0).total_errors(), 0u);
}

TEST_F(KernelsTest, Base64DetectsLogicDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kLogicAnd}, {DataType::kByte}, Feature::kAlu, 21, -4.0);
  EXPECT_GT(Run(machine, "lib.base64.b768", 2.0).total_errors(), 0u);
}

TEST_F(KernelsTest, MemcmpDetectsCompareDefect) {
  FaultyMachine machine =
      SeededMachine({OpKind::kCompare}, {DataType::kInt32}, Feature::kAlu, 23, -3.0);
  EXPECT_GT(Run(machine, "lib.memcmp.b4096", 2.0).total_errors(), 0u);
}

TEST_F(KernelsTest, MessagePassingDetectsCoherenceDefect) {
  FaultyMachine machine = SeededMachine({OpKind::kStore}, {}, Feature::kCache, 25, -5.5);
  const RunReport report = Run(machine, "mt.coherence.msgpass.w16.r75", 5.0, true);
  EXPECT_GT(report.total_errors(), 0u);
  for (const SdcRecord& record : report.records) {
    EXPECT_EQ(record.sdc_type, SdcType::kConsistency);
  }
}


TEST_F(KernelsTest, FuzzCasesCleanOnHealthyDetectOnFaulty) {
  FaultyMachine healthy(MakeArchSpec("M2"));
  EXPECT_EQ(Run(healthy, "fuzz.s3.n160", 2.0).total_errors(), 0u);
  FaultyMachine faulty =
      SeededMachine({OpKind::kFpArctan}, {DataType::kFloat64}, Feature::kFpu, 31, -3.0);
  EXPECT_GT(Run(faulty, "fuzz.s3.n160", 3.0).total_errors(), 0u);
}

TEST_F(KernelsTest, FuzzStreamsDiffer) {
  // Different corpus seeds produce different op sequences: their op histograms differ.
  TestFramework framework(suite_);
  EngineContext context(PinnedEngine(1));
  TestRunConfig config;
  config.time_scale = 1e5;
  config.seed = 9;
  config.pcores_under_test = {0};
  FaultyMachine a(MakeArchSpec("M2"));
  FaultyMachine b(MakeArchSpec("M2"));
  const int ia = suite_->IndexOf("fuzz.s1.n160");
  const int ib = suite_->IndexOf("fuzz.s2.n160");
  ASSERT_GE(ia, 0);
  ASSERT_GE(ib, 0);
  const RunReport ra = framework.RunPlan(a, {{(size_t)ia, 1.0}}, config, context);
  const RunReport rb = framework.RunPlan(b, {{(size_t)ib, 1.0}}, config, context);
  EXPECT_NE(ra.results[0].op_histogram, rb.results[0].op_histogram);
}

TEST_F(KernelsTest, ChecksumFamiliesDetectSeededDefects) {
  FaultyMachine adler =
      SeededMachine({OpKind::kIntAdd}, {DataType::kUInt32}, Feature::kAlu, 33, -4.0);
  EXPECT_GT(Run(adler, "lib.adler32.b4096", 3.0).total_errors(), 0u);
  FaultyMachine crc64 =
      SeededMachine({OpKind::kCrc32Step}, {DataType::kBin64}, Feature::kAlu, 35, -4.0);
  EXPECT_GT(Run(crc64, "lib.crc64.b4096", 3.0).total_errors(), 0u);
}


TEST_F(KernelsTest, SeqlockDetectsCoherenceDefect) {
  FaultyMachine healthy(MakeArchSpec("M2"));
  EXPECT_EQ(Run(healthy, "mt.coherence.seqlock.w8.r25", 2.0, true).total_errors(), 0u);
  FaultyMachine faulty = SeededMachine({OpKind::kStore}, {}, Feature::kCache, 37, -5.5);
  const RunReport report = Run(faulty, "mt.coherence.seqlock.w32.r75", 5.0, true);
  EXPECT_GT(report.total_errors(), 0u);
  for (const SdcRecord& record : report.records) {
    EXPECT_EQ(record.sdc_type, SdcType::kConsistency);
  }
}

TEST_F(KernelsTest, DeterministicAcrossRuns) {
  auto run = [] {
    FaultyMachine machine =
        SeededMachine({OpKind::kFpFma}, {DataType::kFloat64}, Feature::kFpu, 27, -5.0);
    return Run(machine, "app.fft.f64.n256", 3.0).total_errors();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sdc
