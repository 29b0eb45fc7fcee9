// Fleet-level testcase effectiveness (Observation 11): with detailed logs for the faulty
// parts, count how many of the suite's 633 testcases ever detect an error.

#ifndef SDC_SRC_FLEET_STATS_H_
#define SDC_SRC_FLEET_STATS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"

namespace sdc {

struct TestcaseEffectiveness {
  size_t total_testcases = 0;
  size_t effective_testcases = 0;        // detected at least one fault
  std::vector<std::string> effective_ids;

  size_t ineffective_testcases() const { return total_testcases - effective_testcases; }
};

// Evaluates which testcases would detect any of `fleet`'s detectable faulty parts under the
// given stage settings (expected-error threshold of one half error per run counts as a
// detection opportunity).
TestcaseEffectiveness ComputeTestcaseEffectiveness(const TestSuite& suite,
                                                   const FleetPopulation& fleet,
                                                   const StageParams& stage);

// Streaming counterpart of ComputeTestcaseEffectiveness: a ShardConsumer that inspects
// each shard's defect spans while they are alive and records, per shard, which testcases
// detect something. "Effective" is an existential property (any part, any defect), so
// OR-folding the per-shard bitmasks in shard order yields exactly the materialized result
// -- effective_ids in suite order included (tests/stream_test.cc).
class EffectivenessAccumulator : public ShardConsumer {
 public:
  // `suite` must outlive the stream pass.
  EffectivenessAccumulator(const TestSuite* suite, const StageParams& stage);

  void BeginStreamWithContext(EngineContext* context, const PopulationConfig& config,
                              uint64_t shard_count) override;
  void ConsumeShard(const FleetShard& shard) override;
  void EndStream() override;

  // The merged result; valid once after EndStream.
  TestcaseEffectiveness TakeResult() { return std::move(result_); }

 private:
  const TestSuite* suite_;
  StageParams stage_;
  // One bitmask (byte per testcase) per shard; empty for shards without detectable
  // faulty parts.
  std::vector<std::vector<uint8_t>> shard_effective_;
  TestcaseEffectiveness result_;
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_STATS_H_
