#include "src/fleet/stats.h"

#include <array>
#include <cmath>

namespace sdc {
namespace {

bool TestcaseMatchesDefect(const TestcaseInfo& info, const Defect& defect) {
  bool op_match = false;
  for (OpKind op : info.ops) {
    if (defect.AffectsOp(op)) {
      op_match = true;
      break;
    }
  }
  if (!op_match) {
    return false;
  }
  if (defect.type() == SdcType::kComputation) {
    for (DataType type : info.types) {
      if (defect.AffectsType(type)) {
        return true;
      }
    }
    return false;
  }
  return true;
}

// Whether one run of `info` at the stage settings reaches the half-expected-error
// detection threshold against `defect`.
bool TestcaseDetectsDefect(const TestcaseInfo& info, const Defect& defect,
                           const StageParams& stage, int pcores) {
  if (!TestcaseMatchesDefect(info, defect)) {
    return false;
  }
  double expected = 0.0;
  const double minutes_per_core =
      stage.per_case_seconds / static_cast<double>(pcores) / 60.0;
  for (int pcore = 0; pcore < pcores; ++pcore) {
    expected += defect.OccurrenceFrequencyPerMinute(stage.temperature_celsius,
                                                    defect.intensity_ref, pcore) *
                minutes_per_core;
  }
  return 1.0 - std::exp(-expected) >= 0.5;
}

}  // namespace

EffectivenessAccumulator::EffectivenessAccumulator(const TestSuite* suite,
                                                   const StageParams& stage)
    : suite_(suite), stage_(stage) {}

void EffectivenessAccumulator::BeginStreamWithContext(EngineContext* /*context*/,
                                                      const PopulationConfig& /*config*/,
                                                      uint64_t shard_count) {
  shard_effective_.assign(shard_count, {});
  result_ = TestcaseEffectiveness{};
}

void EffectivenessAccumulator::ConsumeShard(const FleetShard& shard) {
  std::array<int, kArchCount> pcores_by_arch;
  for (int arch = 0; arch < kArchCount; ++arch) {
    pcores_by_arch[static_cast<size_t>(arch)] = MakeArchSpec(arch).physical_cores;
  }
  std::vector<uint8_t>* effective = nullptr;  // allocated on the first detectable part
  for (size_t ordinal = 0; ordinal < shard.faulty_serials.size(); ++ordinal) {
    const uint64_t serial = shard.faulty_serials[ordinal];
    if (!shard.toolchain_detectable(serial)) {
      continue;
    }
    if (effective == nullptr) {
      effective = &shard_effective_[shard.shard];
      effective->assign(suite_->size(), 0);
    }
    const int pcores =
        pcores_by_arch[static_cast<size_t>(shard.arch_index(serial))];
    const std::span<const Defect> defects = shard.FaultyDefects(ordinal);
    for (size_t i = 0; i < suite_->size(); ++i) {
      if ((*effective)[i] != 0) {
        continue;  // this shard already proved the testcase effective
      }
      const TestcaseInfo& info = suite_->info(i);
      for (const Defect& defect : defects) {
        if (TestcaseDetectsDefect(info, defect, stage_, pcores)) {
          (*effective)[i] = 1;
          break;
        }
      }
    }
  }
}

void EffectivenessAccumulator::EndStream() {
  result_.total_testcases = suite_->size();
  std::vector<uint8_t> merged(suite_->size(), 0);
  for (const std::vector<uint8_t>& shard_mask : shard_effective_) {
    for (size_t i = 0; i < shard_mask.size(); ++i) {
      merged[i] |= shard_mask[i];
    }
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i] != 0) {
      ++result_.effective_testcases;
      result_.effective_ids.push_back(suite_->info(i).id);
    }
  }
  shard_effective_.clear();
  shard_effective_.shrink_to_fit();
}

}  // namespace sdc
