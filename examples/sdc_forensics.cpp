// SDC forensics: the debugging story of Sections 2.2 / 4.1 / 5, replayed end to end.
//
//   $ ./sdc_forensics
//
// A storage service keeps reporting checksum mismatches on one machine. This example walks
// the investigation: (1) reproduce the symptom at application level, (2) run the detection
// toolchain, (3) narrow down the suspect instruction with the statistical op-usage study,
// (4) mine bitflip patterns, and (5) map the temperature response to classify the defect as
// apparent or tricky.

#include <iostream>
#include <vector>

#include "src/common/context.h"
#include "src/analysis/bitflip.h"
#include "src/analysis/patterns.h"
#include "src/analysis/repro.h"
#include "src/common/table.h"
#include "src/fault/catalog.h"
#include "src/integrity/crc32.h"

int main() {
  using namespace sdc;
  const TestSuite suite = TestSuite::BuildFull();

  // The suspect machine: MIX1 (we of course pretend not to know that).
  FaultyMachine machine(FindInCatalog("MIX1"), 99);
  machine.cpu().SetTimeScale(1e6);
  machine.SetAllCoreUtilization(0.9);
  machine.cpu().thermal().SettleToSteadyState(
      std::vector<double>(machine.cpu().spec().physical_cores, 0.9));

  // --- 1. The symptom: the write path's checksum disagrees with the reader's. ---
  std::cout << "[symptom] storage write path, 2000 blocks:\n";
  Rng rng(5);
  int mismatches = 0;
  std::vector<uint8_t> block(4096);
  for (int i = 0; i < 2000; ++i) {
    for (auto& byte : block) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    const uint32_t stored = Crc32VectorOnProcessor(machine.cpu(), 0, block);
    if (stored != Crc32(block)) {
      ++mismatches;
    }
    machine.cpu().AdvanceSeconds(0.05);
  }
  std::cout << "  " << mismatches
            << " invalid-data reports -- the data was fine; the checksum unit was not\n\n";

  // --- 2. Run the detection toolchain on the suspect. ---
  std::cout << "[toolchain] full-suite run...\n";
  TestFramework framework(&suite);
  EngineContext context;
  TestRunConfig config;
  config.time_scale = 1e6;
  config.seed = 31;
  const RunReport report =
      framework.RunPlan(machine, framework.EqualPlan(20.0), config, context);
  std::cout << "  " << report.failed_testcase_ids().size() << " of " << suite.size()
            << " testcases failed, " << report.total_errors() << " errors\n\n";

  // --- 3. Narrow the suspect instructions (the Pin-style statistical study). ---
  std::cout << "[suspects] op kinds ranked by exclusive association with failures:\n";
  const std::vector<SuspectScore> suspects = RankSuspectOps(report);
  TextTable suspect_table({"op", "score", "used by failed", "used by passed"});
  for (size_t i = 0; i < std::min<size_t>(5, suspects.size()); ++i) {
    suspect_table.AddRow({OpKindName(suspects[i].op), FormatDouble(suspects[i].score, 3),
                          FormatPercent(suspects[i].failed_usage, 1),
                          FormatPercent(suspects[i].passed_usage, 1)});
  }
  suspect_table.Print(std::cout);

  // --- 4. Bitflip structure of the corrupted values. ---
  const BitflipStats stats = AnalyzeBitflips(report.records, DataType::kUInt32);
  const PatternAnalysis patterns = MinePatterns(report.records, 0.05);
  std::cout << "\n[bitflips] ui32 records: " << stats.record_count << ", zero->one share "
            << FormatPercent(stats.ZeroToOneFraction(), 1) << ", "
            << patterns.patterns.size() << " recurring mask(s) covering "
            << FormatPercent(patterns.patterned_record_fraction, 1) << " of records\n";

  // --- 5. Temperature response of the nastiest setting (testcase "C" behaviour). ---
  std::cout << "\n[temperature] vector-CRC setting vs pinned core temperature:\n";
  FaultyMachine probe(FindInCatalog("MIX1"), 100);
  const int index = suite.IndexOf("lib.crc32.vector.b4096");
  TextTable sweep_table({"temperature (C)", "errors/min"});
  std::vector<TemperaturePoint> points;
  for (double temperature : {55.0, 59.5, 64.0, 68.0, 72.0, 76.0}) {
    const double frequency = MeasureOccurrenceFrequency(
        probe, framework, context, static_cast<size_t>(index), 0, temperature, 50000.0, 17,
        /*time_scale=*/1e7);
    sweep_table.AddRow({FormatDouble(temperature, 1), FormatDouble(frequency, 4)});
    points.push_back({temperature, frequency});
  }
  sweep_table.Print(std::cout);
  const LinearFit fit = FitLogFrequencyVsTemperature(points);
  std::cout << "log-linear fit slope " << FormatDouble(fit.slope, 3) << " decades/C (r="
            << FormatDouble(fit.r, 3) << ")\n";
  std::cout << "\nverdict: tricky, temperature-gated defect in the vector-CRC path -- a\n"
               "candidate for Farron's temperature control rather than test-only coverage.\n";
  return 0;
}
