// Streaming shard pipeline over the synthetic fleet (docs/streaming.md).
//
// FleetPopulation::Generate materializes every column and defect before anything can look
// at them, which bounds fleet size by RAM and pays a full write + re-read of the columns.
// FleetShardStream inverts that: it generates the fleet one kFleetShardGrain-wide shard at
// a time into per-lane scratch buffers and hands each shard -- as a FleetShard view of
// packed byte columns plus defect spans over the shard-local arena -- to a set of
// ShardConsumers while the data is hot in cache. A fused generate -> screen -> aggregate
// pass therefore peaks at O(lanes * shard) bytes, so a 100M-processor fleet is a flag,
// not an OOM.
//
// Determinism: the stream uses the same fixed shard layout and per-shard Rng::Fork
// streams as the materialized path (the two share one generation kernel,
// GenerateFleetShard), consumers store per-shard partial results indexed by shard, and
// EndStream merges them in shard order -- the same contract as docs/parallelism.md, so
// every streaming result is byte-identical to its materialized counterpart at any thread
// count (tests/stream_test.cc pins this at 1/2/8 threads).

#ifndef SDC_SRC_FLEET_STREAM_H_
#define SDC_SRC_FLEET_STREAM_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/fleet/population.h"

namespace sdc {

class EngineContext;
class TraceRecorder;

// Borrowed view of one generated shard, valid only for the duration of
// ShardConsumer::ConsumeShard. Serial-indexed accessors take global serials in
// [begin, end); the packed columns are indexed serial - begin.
struct FleetShard {
  uint64_t shard = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  const FleetShardTally* tally = nullptr;
  std::span<const uint8_t> arch_bytes;        // indexed by serial - begin
  std::span<const uint8_t> flag_bytes;        // indexed by serial - begin
  std::span<const uint64_t> faulty_serials;   // global serials, ascending
  std::span<const DefectRange> faulty_ranges; // offsets into `defects`
  std::span<const Defect> defects;            // shard-local arena

  uint64_t size() const { return end - begin; }
  int arch_index(uint64_t serial) const { return arch_bytes[serial - begin]; }
  bool faulty(uint64_t serial) const {
    return (flag_bytes[serial - begin] & FleetPopulation::kFaultyFlag) != 0;
  }
  bool toolchain_detectable(uint64_t serial) const {
    return (flag_bytes[serial - begin] & FleetPopulation::kDetectableFlag) != 0;
  }

  // Defects of the faulty part at `ordinal` within faulty_serials.
  std::span<const Defect> FaultyDefects(size_t ordinal) const {
    const DefectRange& range = faulty_ranges[ordinal];
    return {defects.data() + range.offset, range.count};
  }

  // Defects of an arbitrary in-shard processor (empty for clean parts).
  std::span<const Defect> DefectsOf(uint64_t serial) const;

  // Assembled per-processor view, mirroring FleetPopulation::processor.
  FleetProcessorView processor(uint64_t serial) const {
    return {serial, arch_index(serial), faulty(serial), toolchain_detectable(serial),
            DefectsOf(serial)};
  }
};

// Consumer of a streaming fleet pass. ConsumeShard is called once per shard, concurrently
// from the pool's lanes and in schedule-dependent order; the shard's storage is only
// valid during the call, so a consumer keeps per-shard partial results (indexed by
// shard.shard) and folds them in ascending shard order in EndStream -- that ordered merge
// is what makes its output thread-count invariant.
class ShardConsumer {
 public:
  virtual ~ShardConsumer();

  // Called once before any shard, on the driving thread. Drive always passes the context
  // it runs on (never null), so consumers can resolve telemetry sinks and the vector
  // level from it -- and PIN them for the whole pass (src/common/context.h). Does
  // nothing by default.
  virtual void BeginStreamWithContext(EngineContext* context,
                                      const PopulationConfig& config,
                                      uint64_t shard_count);
  // Called once per shard; thread-safe against itself on distinct shards.
  virtual void ConsumeShard(const FleetShard& shard) = 0;
  // Called once after every shard completed, on the driving thread.
  virtual void EndStream();
};

// What one Drive pass did: shard/lane geometry plus the peak scratch footprint (sum over
// lanes of each lane's high-water buffer capacity) -- the number the memory-bound tests
// assert stays O(lanes * shard).
struct StreamReport {
  uint64_t shards = 0;
  int lanes = 1;
  uint64_t peak_scratch_bytes = 0;
};

// Drives a fused streaming pass over the fleet described by `config`: for every shard of
// kFleetShardGrain processors, generate into the claiming lane's scratch buffer, then
// hand the FleetShard view to every consumer in turn.
class FleetShardStream {
 public:
  explicit FleetShardStream(const PopulationConfig& config) : config_(config) {}

  const PopulationConfig& config() const { return config_; }
  uint64_t shard_count() const;

  // Runs the pass on `context`; consumers are invoked in the given order on every shard.
  // Blocks until every shard has been consumed and EndStream ran on every consumer. The
  // context's pool supplies the lanes and its sinks are pinned once at pass start
  // (src/common/context.h): per-shard "fleet.generate.*" metric deltas, "generate.shard"
  // sim spans (serial-space clock) and "fleet.generate.*" series points are merged in
  // shard order after the pass, so each is byte-identical at any lane count.
  StreamReport Drive(std::span<ShardConsumer* const> consumers,
                     EngineContext& context) const;
  StreamReport Drive(std::initializer_list<ShardConsumer*> consumers,
                     EngineContext& context) const;

 private:
  PopulationConfig config_;
};

// Consumer that rebuilds the random-access FleetPopulation from the stream.
// FleetPopulation::Generate is implemented as exactly this consumer, so the materialized
// fleet is the streaming fleet by construction.
class FleetMaterializer : public ShardConsumer {
 public:
  explicit FleetMaterializer(FleetPopulation* fleet) : fleet_(fleet) {}

  // Pins the context's trace sink (for the stitch span) as of pass start.
  void BeginStreamWithContext(EngineContext* context, const PopulationConfig& config,
                              uint64_t shard_count) override;
  void ConsumeShard(const FleetShard& shard) override;
  void EndStream() override;

 private:
  // Variable-length shard pieces held until EndStream stitches them in shard order into
  // the sorted faulty index and the contiguous defect arena.
  struct ShardPiece {
    std::vector<uint64_t> faulty_serials;
    std::vector<DefectRange> faulty_ranges;  // shard-local offsets
    std::vector<Defect> defects;
    std::array<uint64_t, kArchCount> by_arch{};
  };

  FleetPopulation* fleet_;
  std::vector<ShardPiece> pieces_;
  TraceRecorder* trace_ = nullptr;  // pinned at pass start
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_STREAM_H_
