#include "src/fleet/population.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/fleet/stream.h"
#include "src/telemetry/metrics.h"

namespace sdc {

void FleetShardBuffer::Clear() {
  arch_bytes.clear();
  flag_bytes.clear();
  faulty_serials.clear();
  faulty_ranges.clear();
  defects.clear();
  tally = FleetShardTally{};
}

std::span<const Defect> FleetShard::DefectsOf(uint64_t serial) const {
  const auto it =
      std::lower_bound(faulty_serials.begin(), faulty_serials.end(), serial);
  if (it == faulty_serials.end() || *it != serial) {
    return {};
  }
  return FaultyDefects(static_cast<size_t>(it - faulty_serials.begin()));
}

uint64_t FleetShardBuffer::CapacityBytes() const {
  return arch_bytes.capacity() * sizeof(uint8_t) +
         flag_bytes.capacity() * sizeof(uint8_t) +
         faulty_serials.capacity() * sizeof(uint64_t) +
         faulty_ranges.capacity() * sizeof(DefectRange) +
         defects.capacity() * sizeof(Defect);
}

FleetShard FleetShardBuffer::View() const {
  return {.shard = shard,
          .begin = begin,
          .end = end,
          .tally = &tally,
          .arch_bytes = arch_bytes,
          .flag_bytes = flag_bytes,
          .faulty_serials = faulty_serials,
          .faulty_ranges = faulty_ranges,
          .defects = defects};
}

namespace {

// Processors per bulk uniform fill of the blocked generator. Two draws per processor, so
// one block is 8 KiB of uniforms -- L1-resident alongside the shard columns. Sizing: a
// bigger block amortizes the fill/classify entry cost better, but every faulty hit
// discards the rest of its block and replays from the snapshot, and at the paper's
// prevalence (~5e-4 faulty) a 512-wide block keeps that waste under ~1 ns/processor.
constexpr size_t kGenerationBlock = 512;

// by_arch[v] += number of bytes in [data, data + size) equal to v. Four interleaved
// sub-histograms keep the increments out of each other's store-to-load dependency chains
// (~4x over a naive scan).
void CountArchBytes(const uint8_t* data, size_t size,
                    std::array<uint64_t, kArchCount>& by_arch) {
  uint64_t hist[4][256] = {};
  size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    ++hist[0][data[i]];
    ++hist[1][data[i + 1]];
    ++hist[2][data[i + 2]];
    ++hist[3][data[i + 3]];
  }
  for (; i < size; ++i) {
    ++hist[0][data[i]];
  }
  for (int v = 0; v < kArchCount; ++v) {
    by_arch[static_cast<size_t>(v)] += hist[0][v] + hist[1][v] + hist[2][v] + hist[3][v];
  }
}

// Draws and records one faulty processor at `at` (shard-relative), with its arch byte
// already in place: exactly the draw sequence the reference loop makes after its
// prevalence Bernoulli came up true -- GenerateRandomDefects straight into the shard
// arena, then the undetectable-share Bernoulli.
void EmitFaultyProcessor(const PopulationConfig& config, const GenerationPlan& plan,
                         Rng& rng, uint64_t begin, size_t at, FleetShardBuffer& buffer) {
  FleetShardTally& tally = buffer.tally;
  const int arch_index = buffer.arch_bytes[at];
  const uint64_t defect_start = buffer.defects.size();
  const size_t defect_count = GenerateRandomDefects(
      rng, arch_index, plan.pcores_by_arch[static_cast<size_t>(arch_index)],
      buffer.defects);
  const bool detectable = !rng.NextBernoulli(config.undetectable_share);
  buffer.flag_bytes[at] = detectable ? (kFaultyFlag | kDetectableFlag) : kFaultyFlag;
  ++tally.faulty;
  tally.defects += defect_count;
  tally.defects_by_arch[static_cast<size_t>(arch_index)] += defect_count;
  if (!detectable) {
    ++tally.undetectable;
  }
  buffer.faulty_serials.push_back(begin + at);
  buffer.faulty_ranges.push_back({defect_start, static_cast<uint32_t>(defect_count)});
}

// The blocked kernel (docs/performance.md): snapshot the (copyable) Rng, bulk-fill a
// block of raw uniforms, and classify the (arch, prevalence) draw pairs branchlessly
// against the plan's u53 tables -- byte-identical to the reference loop because the
// tables were derived from the reference arithmetic itself (WeightedCdf /
// BernoulliThresholdU53, src/common/rng.h). On the rare faulty hit the stream re-syncs
// from the snapshot to just past that processor's two clean-path draws and takes the
// scalar tail, so defect draws land at exactly the reference positions; everything after
// the hit is re-blocked. flag_bytes arrive pre-filled with kDetectableFlag, and the
// per-arch tally is one histogram over the finished column instead of a per-processor
// increment.
void GenerateShardBlocked(const PopulationConfig& config, const GenerationPlan& plan,
                          Rng rng, uint64_t begin, uint64_t end,
                          FleetShardBuffer& buffer) {
  const size_t n = static_cast<size_t>(end - begin);
  uint64_t draws[2 * kGenerationBlock];
  uint64_t faulty_bits[kGenerationBlock / 64];
  size_t index = 0;
  while (index < n) {
    const size_t block = std::min(kGenerationBlock, n - index);
    const Rng snapshot = rng;  // includes any cached Box-Muller partner
    rng.FillBlock(std::span<uint64_t>(draws, 2 * block));
    const size_t hits = ClassifyDrawPairs(draws, block, plan.tables,
                                          buffer.arch_bytes.data() + index, faulty_bits,
                                          plan.simd);
    if (hits == 0) {
      index += block;
      continue;
    }
    size_t word = 0;
    while (faulty_bits[word] == 0) {
      ++word;
    }
    const size_t f = word * 64 + static_cast<size_t>(std::countr_zero(faulty_bits[word]));
    // Processors [index, index + f) are clean and keep their bulk-classified arch bytes;
    // processor index + f consumed its two draws in the fill, so replay the snapshot to
    // that position and continue scalar. Draws already filled past the hit are simply
    // regenerated by the next block.
    rng = snapshot;
    rng.Skip(2 * (f + 1));
    EmitFaultyProcessor(config, plan, rng, begin, index + f, buffer);
    index += f + 1;
  }
  CountArchBytes(buffer.arch_bytes.data(), n, buffer.tally.by_arch);
}

}  // namespace

GenerationPlan GenerationPlan::Build(const PopulationConfig& config,
                                     const EngineContext& context) {
  GenerationPlan plan;
  plan.simd = context.simd();
  plan.shares.assign(config.arch_share.begin(), config.arch_share.end());
  for (int arch = 0; arch < kArchCount; ++arch) {
    plan.pcores_by_arch[static_cast<size_t>(arch)] = MakeArchSpec(arch).physical_cores;
  }
  plan.arch_cdf = WeightedCdf(std::span<const double>(config.arch_share));
  bool blocked = plan.arch_cdf.exact() && plan.arch_cdf.draws();
  plan.tables.class_count = kArchCount;
  const std::span<const uint64_t> bounds = plan.arch_cdf.bounds_u53();
  for (int i = 0; i < kMaxClassifyClasses - 1; ++i) {
    plan.tables.cdf_bounds_u53[i] = blocked && i < kArchCount - 1
                                        ? bounds[static_cast<size_t>(i)]
                                        : kClassifyNever;
  }
  for (int arch = 0; arch < kMaxClassifyClasses; ++arch) {
    uint64_t threshold = 0;
    if (arch < kArchCount) {
      const double prevalence = config.detected_rate[static_cast<size_t>(arch)] /
                                config.detectability;
      // The blocked path needs NextBernoulli(prevalence) to consume exactly one draw,
      // which it only does outside the p <= 0 / p >= 1 short-circuits. (A NaN prevalence
      // passes both tests, draws, and never fires -- threshold 0 reproduces that.)
      if (prevalence <= 0.0 || prevalence >= 1.0) {
        blocked = false;
      }
      threshold = BernoulliThresholdU53(prevalence);
    }
    plan.tables.fault_thresholds_u53[arch] = threshold;
  }
  plan.blocked = blocked;
  return plan;
}

void GenerateFleetShard(const PopulationConfig& config, const GenerationPlan& plan,
                        const Rng& base, uint64_t shard, uint64_t begin, uint64_t end,
                        FleetShardBuffer& buffer) {
  buffer.Clear();
  buffer.shard = shard;
  buffer.begin = begin;
  buffer.end = end;
  buffer.arch_bytes.resize(end - begin);
  if (plan.blocked) {
    buffer.flag_bytes.assign(end - begin, kDetectableFlag);
    GenerateShardBlocked(config, plan, base.Fork(shard), begin, end, buffer);
    return;
  }
  // Reference path: the original per-processor loop, with the per-shard share copy and
  // pcore-table rebuild hoisted into the plan and defects appended straight into the
  // shard arena (same draws, same bytes, no per-faulty vector churn).
  buffer.flag_bytes.resize(end - begin);
  FleetShardTally& tally = buffer.tally;
  Rng rng = base.Fork(shard);
  for (uint64_t serial = begin; serial < end; ++serial) {
    const int arch_index = static_cast<int>(rng.NextWeighted(plan.shares));
    buffer.arch_bytes[serial - begin] = static_cast<uint8_t>(arch_index);
    const double prevalence = config.detected_rate[arch_index] / config.detectability;
    uint8_t flags = kDetectableFlag;
    if (rng.NextBernoulli(prevalence)) {
      EmitFaultyProcessor(config, plan, rng, begin, serial - begin, buffer);
      flags = buffer.flag_bytes[serial - begin];
    }
    buffer.flag_bytes[serial - begin] = flags;
    ++tally.by_arch[static_cast<size_t>(arch_index)];
  }
}

namespace {

// Generate's one consumer: copies each shard view into the shard's slot. Shards own
// disjoint slots, so nothing is left to fold after the pass.
class ShardCollector : public ShardConsumer {
 public:
  explicit ShardCollector(std::vector<FleetShardBuffer>& shards) : shards_(shards) {}

  void ConsumeShard(const FleetShard& shard) override {
    FleetShardBuffer& slot = shards_[shard.shard];
    slot.shard = shard.shard;
    slot.begin = shard.begin;
    slot.end = shard.end;
    slot.arch_bytes.assign(shard.arch_bytes.begin(), shard.arch_bytes.end());
    slot.flag_bytes.assign(shard.flag_bytes.begin(), shard.flag_bytes.end());
    slot.faulty_serials.assign(shard.faulty_serials.begin(), shard.faulty_serials.end());
    slot.faulty_ranges.assign(shard.faulty_ranges.begin(), shard.faulty_ranges.end());
    slot.defects.assign(shard.defects.begin(), shard.defects.end());
    slot.tally = *shard.tally;
  }

 private:
  std::vector<FleetShardBuffer>& shards_;
};

}  // namespace

FleetPopulation::FleetPopulation(PopulationConfig config,
                                 std::vector<FleetShardBuffer> shards)
    : config_(std::move(config)), shards_(std::move(shards)) {
  for (const FleetShardBuffer& shard : shards_) {
    faulty_count_ += shard.tally.faulty;
    for (size_t arch = 0; arch < counts_by_arch_.size(); ++arch) {
      counts_by_arch_[arch] += shard.tally.by_arch[arch];
    }
  }
}

FleetPopulation FleetPopulation::Generate(const PopulationConfig& config,
                                          EngineContext& context) {
  // Materialization is one consumer of the shard stream: the stream generates each
  // shard, and the collector keeps a copy of it.
  MetricsRegistry::ScopedTimer generate_timer(context.metrics(), "fleet.generate.wall");
  const FleetShardStream stream(config);
  std::vector<FleetShardBuffer> shards(stream.shard_count());
  ShardCollector collector(shards);
  stream.Drive({&collector}, context);
  return FleetPopulation(config, std::move(shards));
}

}  // namespace sdc
