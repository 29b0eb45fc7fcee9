// Capstone harness: the paper's twelve observations, each re-measured on the simulated
// substrate and stamped with a verdict. This is the one binary to run to see the whole
// reproduction at a glance; the per-figure benches provide the detailed versions.

#include <cmath>
#include <iostream>
#include <set>

#include "bench/bench_util.h"
#include "src/analysis/bitflip.h"
#include "src/analysis/patterns.h"
#include "src/analysis/repro.h"
#include "src/common/context.h"
#include "src/common/table.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/stats.h"
#include "src/fleet/stream.h"
#include "src/tolerance/evaluation.h"

namespace {

using namespace sdc;

struct Verdict {
  std::string id;
  std::string claim;
  std::string measured;
  bool reproduced = false;
};

}  // namespace

int main() {
  using namespace sdc;
  PrintExperimentHeader("Observations 1-12", "the paper's findings, re-measured");
  std::vector<Verdict> verdicts;

  const TestSuite suite = TestSuite::BuildFull();
  TestFramework framework(&suite);
  const auto catalog = StudyCatalog();

  // A mid-size fleet shared by the fleet-level observations.
  EngineContext context;
  PopulationConfig population_config;
  population_config.processor_count = 300000;
  ScreeningPipeline pipeline(&suite);
  StreamingScreen screen(&pipeline, ScreeningConfig());
  FleetShardStream(population_config).Drive({&screen}, context);
  const ScreeningStats stats = screen.TakeStats();

  {  // Obs 1: overall failure rate ~3.61 permyriad.
    const double rate = stats.TotalRate() * 1e4;
    verdicts.push_back({"Obs 1", "3.61 permyriad of CPUs cause SDCs",
                        FormatDouble(rate, 2) + " permyriad", rate > 2.5 && rate < 4.8});
  }
  {  // Obs 2: pre-production ~3.262, regular ~0.348 permyriad.
    const double pre = stats.PreProductionRate() * 1e4;
    const double regular = stats.StageRate(TestStage::kRegular) * 1e4;
    verdicts.push_back({"Obs 2", "pre-production 3.262 / regular 0.348 permyriad",
                        FormatDouble(pre, 2) + " / " + FormatDouble(regular, 2),
                        pre > 2.0 && regular > 0.1 && pre > 5.0 * regular});
  }
  {  // Obs 3: SDCs across all micro-architectures.
    int affected = 0;
    for (int arch = 0; arch < kArchCount; ++arch) {
      affected += stats.detected_by_arch[arch] > 0 ? 1 : 0;
    }
    verdicts.push_back({"Obs 3", "faulty parts in every micro-architecture",
                        std::to_string(affected) + "/9 arches", affected >= 8});
  }
  {  // Obs 4: about half the faulty parts have a single defective core.
    int single = 0;
    for (const auto& info : catalog) {
      single += info.defective_pcore_count() == 1 ? 1 : 0;
    }
    const double share = static_cast<double>(single) / catalog.size();
    verdicts.push_back({"Obs 4", "~half of faulty parts: one defective core",
                        FormatPercent(share, 0) + " single-core",
                        share > 0.3 && share < 0.7});
  }
  {  // Obs 5: five vulnerable features.
    std::set<Feature> features;
    for (const auto& info : catalog) {
      for (const Defect& defect : info.defects) {
        features.insert(defect.feature);
      }
    }
    verdicts.push_back({"Obs 5", "ALU, VecUnit, FPU, Cache, TrxMem all vulnerable",
                        std::to_string(features.size()) + "/5 features",
                        features.size() == 5});
  }
  {  // Obs 6: all datatypes impacted, floats most.
    int f64_count = 0;
    int i32_count = 0;
    std::set<DataType> types;
    for (const auto& info : catalog) {
      bool f64_hit = false;
      bool i32_hit = false;
      for (const Defect& defect : info.defects) {
        for (DataType type : defect.affected_types) {
          types.insert(type);
        }
        f64_hit |= defect.type() == SdcType::kComputation &&
                   !defect.affected_types.empty() && defect.AffectsType(DataType::kFloat64);
        i32_hit |= defect.type() == SdcType::kComputation &&
                   !defect.affected_types.empty() && defect.AffectsType(DataType::kInt32);
      }
      f64_count += f64_hit ? 1 : 0;
      i32_count += i32_hit ? 1 : 0;
    }
    verdicts.push_back({"Obs 6", "all datatypes impacted; floating point most",
                        std::to_string(types.size()) + " types, f64 " +
                            std::to_string(f64_count) + " vs i32 " +
                            std::to_string(i32_count) + " parts",
                        types.size() >= 9 && f64_count >= i32_count});
  }
  {  // Obs 7: float flips in the fraction part; tiny losses.
    FaultyMachine machine(FindInCatalog("FPU1"), 7);
    const auto records =
        CollectRecords(suite, machine, "lib.math.fp_arctan.f64.n256", 1, 55.0, 600.0);
    const BitflipStats flips = AnalyzeBitflips(records, DataType::kFloat64);
    const auto losses = PrecisionLosses(records, DataType::kFloat64);
    const double small = FractionAtOrBelow(losses, 2e-4);
    verdicts.push_back({"Obs 7", "fraction-part flips; 99.9% of f64 losses < 0.02%",
                        FormatPercent(flips.FractionPartShare(), 1) + " in fraction, " +
                            FormatPercent(small, 1) + " small losses",
                        flips.FractionPartShare() > 0.95 && small > 0.98});
  }
  {  // Obs 8: fixed bitflip patterns per setting.
    FaultyMachine machine(FindInCatalog("SIMD1"), 8);
    const auto records =
        CollectRecords(suite, machine, "vec.vec_fma_f32.f32.l8.n128", 5, 58.0, 300.0);
    const PatternAnalysis analysis = MinePatterns(records, 0.05);
    verdicts.push_back({"Obs 8", "bitflips recur at fixed positions (patterns)",
                        FormatPercent(analysis.patterned_record_fraction, 1) +
                            " patterned on SIMD1",
                        analysis.patterned_record_fraction > 0.5});
  }
  {  // Obs 9: ~51% of settings reproduce more than once per minute.
    const auto points = CollectTriggerPoints(catalog);
    int reproducible = 0;
    for (const auto& point : points) {
      reproducible += point.frequency_per_minute > 1.0 ? 1 : 0;
    }
    const double share = static_cast<double>(reproducible) / points.size();
    verdicts.push_back({"Obs 9", "51.2% of settings > 1 error/min",
                        FormatPercent(share, 1), share > 0.35 && share < 0.75});
  }
  {  // Obs 10: exponential temperature dependence (and trigger thresholds).
    FaultyMachine machine(FindInCatalog("FPU2"), 10);
    const int index = suite.IndexOf("lib.math.fp_arctan.f64.n256");
    std::vector<TemperaturePoint> points;
    for (double temperature : {49.0, 51.0, 53.0, 55.0, 57.0}) {
      TemperaturePoint point;
      point.temperature_celsius = temperature;
      point.frequency_per_minute = MeasureOccurrenceFrequency(
          machine, framework, context, static_cast<size_t>(index), 0, temperature, 3600.0,
          11, 1e6);
      points.push_back(point);
    }
    const LinearFit fit = FitLogFrequencyVsTemperature(points);
    const double below_trigger = MeasureOccurrenceFrequency(
        machine, framework, context, static_cast<size_t>(index), 0, 47.0, 3600.0, 11, 1e6);
    verdicts.push_back({"Obs 10", "frequency exponential in temperature, with thresholds",
                        "r = " + FormatDouble(fit.r, 3) + ", zero below trigger: " +
                            (below_trigger == 0.0 ? "yes" : "no"),
                        fit.r > 0.75 && below_trigger == 0.0});
  }
  {  // Obs 11: most testcases never detect anything.
    PopulationConfig small_config;
    small_config.processor_count = 30000;
    small_config.seed = 123;
    EffectivenessAccumulator accumulator(&suite, ScreeningConfig().stages[3]);
    FleetShardStream(small_config).Drive({&accumulator}, context);
    const TestcaseEffectiveness effectiveness = accumulator.TakeResult();
    verdicts.push_back({"Obs 11", "560/633 testcases never detect a fault",
                        std::to_string(effectiveness.ineffective_testcases()) + "/633 idle",
                        effectiveness.ineffective_testcases() > 633 / 2});
  }
  {  // Obs 12: existing tolerance diminished (checksum-after-compute misses everything).
    FaultyProcessorInfo threat = FindInCatalog("FPU1");
    FaultyMachine machine(threat, 12);
    const int lcore =
        threat.defects.front().affected_pcores.front() * threat.spec.threads_per_core;
    const TechniqueEvaluation checksum =
        EvaluateChecksumAfterCompute(machine, lcore, 5000, 13);
    FaultyMachine machine2(threat, 14);
    const TechniqueEvaluation range =
        EvaluateRangeDetector(machine2, lcore, DataType::kFloat64, 5000, 15);
    verdicts.push_back({"Obs 12", "checksums/prediction miss CPU SDCs",
                        "checksum " + FormatPercent(checksum.DetectionRate(), 0) +
                            ", f64 range " + FormatPercent(range.DetectionRate(), 0) +
                            " detected",
                        checksum.detected == 0 && range.DetectionRate() < 0.2});
  }

  TextTable table({"", "paper claim", "measured", "verdict"});
  int reproduced = 0;
  for (const Verdict& verdict : verdicts) {
    table.AddRow({verdict.id, verdict.claim, verdict.measured,
                  verdict.reproduced ? "REPRODUCED" : "DIVERGES"});
    reproduced += verdict.reproduced ? 1 : 0;
  }
  table.Print(std::cout);
  std::cout << "\n" << reproduced << " / " << verdicts.size() << " observations reproduced\n";
  return reproduced == static_cast<int>(verdicts.size()) ? 0 : 1;
}
