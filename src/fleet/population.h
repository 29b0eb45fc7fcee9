// Synthetic production fleet (Section 2.4): >1M processors across the nine
// micro-architectures, with per-architecture latent defect prevalence calibrated so the
// *detected* failure rates land on Table 2 (and their weighted mean on Table 1's 3.61
// permyriad total). Faulty parts carry concrete Defect models drawn from the same
// distributions as the study catalog; a small share is undetectable by the toolchain
// (Section 2.3 observes such escapes).
//
// Storage layout (docs/performance.md): the fleet is structure-of-arrays. The hot
// screening fields live in packed parallel byte arrays (`arch_bytes`, `flag_bytes`) so
// the 99.96%-clean fleet scan streams sequentially through 2 bytes per processor, and
// all Defect objects live in one shared per-fleet arena (`defect_arena`) addressed by
// {offset, count} ranges held only for the faulty parts. Ranges and the arena are built
// deterministically in shard order during Generate, so the layout -- like the fleet
// content itself -- is a pure function of (config, seed) at any thread count.

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

// Slice of the defect arena owned by one faulty processor.
struct DefectRange {
  uint64_t offset = 0;
  uint32_t count = 0;
};

// Borrowed view of one fleet processor, assembled from the column arrays. Cheap to copy;
// valid only while the owning FleetPopulation (or, in tests, the backing defect vector)
// is alive.
struct FleetProcessorView {
  uint64_t serial = 0;
  int arch_index = 0;
  bool faulty = false;
  bool toolchain_detectable = true;  // false: fails only under conditions no testcase covers
  std::span<const Defect> defects;   // non-empty only for faulty parts
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

// Per-shard generation tallies. Cheap integer counters that shard consumers and the
// materialized fleet both fold in shard order, keeping every derived count thread-count
// invariant.
struct FleetShardTally {
  uint64_t faulty = 0;
  uint64_t defects = 0;
  uint64_t undetectable = 0;
  std::array<uint64_t, kArchCount> by_arch{};
  std::array<uint64_t, kArchCount> defects_by_arch{};
};

// Reusable shard-local storage filled by GenerateFleetShard. Streaming drivers keep one
// buffer per worker lane and refill it for every shard that lane claims, so a whole
// generate->screen->aggregate pass peaks at O(lanes * shard) bytes regardless of fleet
// size (docs/streaming.md).
struct FleetShardBuffer {
  // Packed per-processor columns, indexed by serial - shard_begin.
  std::vector<uint8_t> arch_bytes;
  std::vector<uint8_t> flag_bytes;
  // Sparse faulty index for the shard: global serials (ascending) and arena slices whose
  // offsets point into `defects` below (shard-local, starting at 0).
  std::vector<uint64_t> faulty_serials;
  std::vector<DefectRange> faulty_ranges;
  std::vector<Defect> defects;
  FleetShardTally tally;

  // Empties the containers without releasing capacity (the point of lane reuse).
  void Clear();
  // Bytes of owned container capacity (Defect payloads counted at sizeof(Defect)) -- the
  // quantity the streaming smoke test budgets against the shard budget.
  uint64_t CapacityBytes() const;
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
  SimdLevel simd = SimdLevel::kScalar;         // the context's level, for classify + tally
  bool blocked = false;

  // Takes the vector level the context resolved when it was built; no environment read
  // (src/common/context.h).
  static GenerationPlan Build(const PopulationConfig& config, const EngineContext& context);
};

// Generates serials [begin, end) of the fleet described by `config` into `buffer`
// (cleared first), drawing every random value from base.Fork(shard) where `base` is
// Rng(config.seed). This is the single generation kernel: FleetPopulation::Generate and
// FleetShardStream both call it, so the materialized and streaming fleets are identical
// bytes by construction. `begin` must equal shard * kFleetShardGrain; `plan` is built
// once per pass and shared by every shard.
void GenerateFleetShard(const PopulationConfig& config, const GenerationPlan& plan,
                        const Rng& base, uint64_t shard, uint64_t begin, uint64_t end,
                        FleetShardBuffer& buffer);

class FleetPopulation {
 public:
  // Flag bits of flag_bytes() entries.
  static constexpr uint8_t kFaultyFlag = 1;
  static constexpr uint8_t kDetectableFlag = 2;

  // Generates on `context`: its pool supplies the lanes, its vector level drives the
  // blocked kernel, and its sinks ("fleet.generate.*" metrics and series, generate-track
  // trace spans) are pinned once at pass start -- no mutable process-global state is read
  // after the context was built (src/common/context.h). Output is bit-identical for a
  // given seed at any lane count and vector level (docs/parallelism.md).
  static FleetPopulation Generate(const PopulationConfig& config, EngineContext& context);

  uint64_t size() const { return arch_.size(); }
  const PopulationConfig& config() const { return config_; }

  // Per-processor hot fields. Serial numbers equal fleet indices by construction.
  int arch_index(uint64_t serial) const { return arch_[serial]; }
  bool faulty(uint64_t serial) const { return (flags_[serial] & kFaultyFlag) != 0; }
  bool toolchain_detectable(uint64_t serial) const {
    return (flags_[serial] & kDetectableFlag) != 0;
  }

  // Raw column arrays for streaming consumers (one byte per processor each). flag_bytes
  // entries are combinations of kFaultyFlag / kDetectableFlag; clean processors carry
  // kDetectableFlag alone (nothing to detect, but nothing escapes either).
  const std::vector<uint8_t>& arch_bytes() const { return arch_; }
  const std::vector<uint8_t>& flag_bytes() const { return flags_; }

  // Serials of the faulty parts, ascending; the screening fast path iterates this list
  // instead of testing every processor's flag byte.
  const std::vector<uint64_t>& faulty_serials() const { return faulty_serials_; }

  // Arena slice per faulty part, parallel to faulty_serials(). Exposed so column-view
  // consumers (ScreeningShardView) can address the arena without per-part calls.
  const std::vector<DefectRange>& faulty_ranges() const { return faulty_ranges_; }

  // Defects of the faulty part at `ordinal` within faulty_serials().
  std::span<const Defect> FaultyDefects(size_t ordinal) const {
    const DefectRange& range = faulty_ranges_[ordinal];
    return {defect_arena_.data() + range.offset, range.count};
  }

  // Defects of an arbitrary processor (empty for clean parts). O(log faulty_count).
  std::span<const Defect> DefectsOf(uint64_t serial) const;

  // Assembled per-processor view for callers that want all fields together.
  FleetProcessorView processor(uint64_t serial) const {
    return {serial, arch_index(serial), faulty(serial), toolchain_detectable(serial),
            DefectsOf(serial)};
  }

  // Every defect in the fleet, grouped by owning processor in serial order.
  const std::vector<Defect>& defect_arena() const { return defect_arena_; }

  // O(1): counted per shard during Generate and merged, not recomputed by scanning.
  uint64_t faulty_count() const { return faulty_serials_.size(); }
  uint64_t CountByArch(int arch_index) const {
    return counts_by_arch_[static_cast<size_t>(arch_index)];
  }

 private:
  // Rebuilds this fleet from a FleetShardStream pass (src/fleet/stream.h); Generate is
  // implemented as exactly that consumer, which is what keeps the materialized and
  // streaming modes byte-identical by construction.
  friend class FleetMaterializer;

  PopulationConfig config_;
  // Structure-of-arrays processor columns, indexed by serial.
  std::vector<uint8_t> arch_;
  std::vector<uint8_t> flags_;
  // Sparse faulty-part index: sorted serials plus each part's arena slice.
  std::vector<uint64_t> faulty_serials_;
  std::vector<DefectRange> faulty_ranges_;
  std::vector<Defect> defect_arena_;
  std::array<uint64_t, kArchCount> counts_by_arch_{};
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_POPULATION_H_
