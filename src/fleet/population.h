// Synthetic production fleet (Section 2.4): >1M processors across the nine
// micro-architectures, with per-architecture latent defect prevalence calibrated so the
// *detected* failure rates land on Table 2 (and their weighted mean on Table 1's 3.61
// permyriad total). Faulty parts carry concrete Defect models drawn from the same
// distributions as the study catalog; a small share is undetectable by the toolchain
// (Section 2.3 observes such escapes).
//
// Storage layout (docs/performance.md): the fleet is its kFleetShardGrain-wide shards,
// each one FleetShardBuffer written by the one generation kernel. A shard holds one
// packed byte column (`arch_bytes`, the classifier's output), so the 99.96%-clean fleet
// costs 1 byte per processor, plus one ascending list of FaultyPart records whose
// {offset, count} slices address the shard's own defect arena. A part absent from that
// list is clean (and detectable: nothing to detect, nothing escapes). Every shard draws
// from its own Rng::Fork stream, so the layout -- like the fleet content itself -- is a
// pure function of (config, seed) at any thread count. Consumers read a shard through
// its FleetShard view: the stream hands them the view of a lane's scratch buffer, the
// materialized FleetPopulation the view of a kept one.

#ifndef SDC_SRC_FLEET_POPULATION_H_
#define SDC_SRC_FLEET_POPULATION_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/simd.h"
#include "src/fault/catalog.h"

namespace sdc {

class EngineContext;
class Rng;

// Fixed shard width of fleet generation and of the streaming pipeline built on top of it
// (FleetShardStream, src/fleet/stream.h): shard s covers serials
// [s * kFleetShardGrain, (s+1) * kFleetShardGrain) and draws every random value from
// Rng::Fork(s). Part of the determinism format (docs/parallelism.md) -- changing it
// re-partitions the RNG streams and is a behavior change.
inline constexpr uint64_t kFleetShardGrain = 8192;

// One faulty part of a shard: its global serial, its slice of the shard's defect arena,
// and whether any testcase can expose it.
struct FaultyPart {
  uint64_t serial = 0;
  uint64_t defect_offset = 0;  // into the shard's `defects`
  uint32_t defect_count = 0;
  bool detectable = true;  // false: fails only under conditions no testcase covers
};

struct PopulationConfig {
  uint64_t processor_count = 1'000'000;
  // Fleet share per architecture; sums to 1.
  std::array<double, kArchCount> arch_share = {0.10, 0.10, 0.12, 0.06, 0.08,
                                               0.14, 0.10, 0.16, 0.14};
  // Detected failure-rate targets per architecture (Table 2), as fractions.
  std::array<double, kArchCount> detected_rate = {4.619e-4, 0.352e-4, 2.649e-4,
                                                  0.082e-4, 0.759e-4, 3.251e-4,
                                                  1.599e-4, 9.290e-4, 4.646e-4};
  // Overall share of faulty parts the pipeline eventually detects; true prevalence is
  // detected_rate / detectability. Calibrated against the screening pipeline: tricky
  // defects (high trigger temperature) routinely escape every stage.
  double detectability = 0.74;
  // Share of faulty parts no testcase can expose (complex multi-thread scenarios).
  double undetectable_share = 0.04;
  uint64_t seed = 20210101;
};

// Per-shard generation tallies, written once by the generator: the fleet's one count of
// parts per arch. Shard consumers read them instead of rescanning the columns (the
// screen's tested counts, capacity), and they fold them in shard order, keeping every
// derived count thread-count invariant.
struct FleetShardTally {
  uint64_t faulty = 0;
  uint64_t defects = 0;
  uint64_t undetectable = 0;
  std::array<uint64_t, kArchCount> by_arch{};
  std::array<uint64_t, kArchCount> defects_by_arch{};
};

// Borrowed view of one generated shard: what every shard consumer reads. Valid only while
// the FleetShardBuffer it was built from is alive and unchanged -- for a stream pass, the
// duration of ShardConsumer::ConsumeShard. `arch_bytes` is indexed serial - begin; the
// faulty list is the only per-part record of anything else.
struct FleetShard {
  uint64_t shard = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  const FleetShardTally* tally = nullptr;  // the generator's tally; never null
  std::span<const uint8_t> arch_bytes;     // indexed by serial - begin
  std::span<const FaultyPart> faulty;      // ascending by serial, all in [begin, end)
  std::span<const Defect> defects;         // shard-local arena

  uint64_t size() const { return end - begin; }
  int arch_index(uint64_t serial) const { return arch_bytes[serial - begin]; }
  std::span<const Defect> Defects(const FaultyPart& part) const {
    return defects.subspan(part.defect_offset, part.defect_count);
  }
  // The faulty record of an in-shard serial; nullptr for a clean part.
  const FaultyPart* FindFaulty(uint64_t serial) const;
};

// Shard-local storage filled by GenerateFleetShard. Streaming drivers keep one buffer per
// worker lane and refill it for every shard that lane claims, so a whole
// generate->screen->aggregate pass peaks at O(lanes * shard) bytes regardless of fleet
// size (docs/streaming.md); the materialized FleetPopulation keeps one per shard.
struct FleetShardBuffer {
  // The shard this buffer holds: serials [begin, end) of shard `shard`.
  uint64_t shard = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  // Packed per-processor arch column, indexed by serial - begin.
  std::vector<uint8_t> arch_bytes;
  // The shard's faulty parts, ascending by serial, whose arena slices point into
  // `defects` below (shard-local, starting at 0).
  std::vector<FaultyPart> faulty;
  std::vector<Defect> defects;
  FleetShardTally tally;

  // Empties the containers without releasing capacity (the point of lane reuse).
  void Clear();
  // Bytes of owned container capacity (Defect payloads counted at sizeof(Defect)) -- the
  // quantity the streaming smoke test budgets against the shard budget.
  uint64_t CapacityBytes() const;
  // The FleetShard view of this buffer: the one place such views are built.
  FleetShard View() const;
};

// Shard-independent precomputed state of the generation kernel, built once per
// stream/batch (FleetShardStream::Drive does it before the first shard) and shared
// read-only by every shard -- per-shard work that is a pure function of the config
// (weight re-summing, MakeArchSpec lookups, CDF boundaries, Bernoulli thresholds) lives
// here instead of in the per-processor loop. `blocked` reports whether the bulk kernel
// is usable: it needs an exact, drawing arch CDF and a per-arch prevalence that consumes
// exactly one draw per processor (0 < rate/detectability < 1); any degenerate config
// falls back to the per-processor loop, which handles every input. Both paths generate
// identical bytes (docs/performance.md); the GenerateFleetReference test oracle
// (tests/oracles/oracles.h) clears `blocked` to check exactly that.
struct GenerationPlan {
  std::vector<double> shares;                  // hoisted copy of config.arch_share
  std::array<int, kArchCount> pcores_by_arch{};  // hoisted MakeArchSpec(...).physical_cores
  WeightedCdf arch_cdf;                        // exact replica of NextWeighted(shares)
  DrawClassifyTables tables;                   // arch CDF + prevalence thresholds, u53 space
  SimdLevel simd = SimdLevel::kScalar;         // the context's level, for ClassifyDrawPairs
  bool blocked = false;

  // Takes the vector level the context resolved when it was built; no environment read
  // (src/common/context.h).
  static GenerationPlan Build(const PopulationConfig& config, const EngineContext& context);
};

// Generates serials [begin, end) of the fleet described by `config` into `buffer`
// (cleared first, then labelled with shard, begin and end), drawing every random value
// from base.Fork(shard) where `base` is Rng(config.seed). This is the single generation
// kernel: FleetShardStream calls it and FleetPopulation::Generate keeps what the stream
// generated, so the materialized and streaming fleets are identical bytes by
// construction. `begin` must equal shard * kFleetShardGrain; `plan` is built
// once per pass and shared by every shard.
void GenerateFleetShard(const PopulationConfig& config, const GenerationPlan& plan,
                        const Rng& base, uint64_t shard, uint64_t begin, uint64_t end,
                        FleetShardBuffer& buffer);

// The materialized fleet: one FleetShardBuffer per shard, the same storage and FleetShard
// views a stream pass hands its consumers, kept for the whole fleet. Production passes
// stream instead (FleetShardStream, src/fleet/stream.h); this class stays only for
// perfbench's digest gate and the tests that compare the stream against it.
class FleetPopulation {
 public:
  // `shards[s]` holds shard s of `config`'s fleet as GenerateFleetShard wrote it; the
  // fleet-wide counts are summed from the shard tallies.
  FleetPopulation(PopulationConfig config, std::vector<FleetShardBuffer> shards);

  // Generates on `context` through one FleetShardStream pass, copying every shard into
  // its slot: its pool supplies the lanes, its vector level drives the blocked kernel,
  // and its sinks receive "fleet.generate.*" metrics and series and generate-track trace
  // spans -- no mutable process-global state is read after the context was built
  // (src/common/context.h). Output is bit-identical for a given seed at any lane count
  // and vector level (docs/parallelism.md).
  static FleetPopulation Generate(const PopulationConfig& config, EngineContext& context);

  uint64_t size() const { return config_.processor_count; }
  const PopulationConfig& config() const { return config_; }

  // Shard s covers serials [s * kFleetShardGrain, (s+1) * kFleetShardGrain); its view is
  // the one a stream pass over the same config hands its consumers.
  uint64_t shard_count() const { return shards_.size(); }
  FleetShard shard(uint64_t s) const { return shards_[s].View(); }

  // O(1): summed from the shard tallies, not recomputed by scanning.
  uint64_t faulty_count() const { return faulty_count_; }
  uint64_t CountByArch(int arch_index) const {
    return counts_by_arch_[static_cast<size_t>(arch_index)];
  }

 private:
  PopulationConfig config_;
  std::vector<FleetShardBuffer> shards_;
  uint64_t faulty_count_ = 0;
  std::array<uint64_t, kArchCount> counts_by_arch_{};
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_POPULATION_H_
