// Streaming shard pipeline over the synthetic fleet (docs/streaming.md): the one
// production fleet path.
//
// FleetShardStream generates the fleet one kFleetShardGrain-wide shard at a time into
// per-lane scratch buffers and hands each shard -- as the FleetShard view of its buffer
// (src/fleet/population.h) -- to a set of ShardConsumers while
// the data is hot in cache. A fused generate -> screen -> aggregate pass therefore peaks
// at O(lanes * shard) bytes, so a 100M-processor fleet is a flag, not an OOM.
//
// Determinism: every shard draws from its own Rng::Fork stream through the one
// generation kernel (GenerateFleetShard), consumers store per-shard partial results
// indexed by shard, and EndStream merges them in shard order -- the contract of
// docs/parallelism.md, so every result is byte-identical at any thread count, and to
// the materialized fleet FleetPopulation::Generate keeps from the same stream
// (tests/stream_test.cc pins this at 1/2/8 threads).

#ifndef SDC_SRC_FLEET_STREAM_H_
#define SDC_SRC_FLEET_STREAM_H_

#include <cstdint>
#include <initializer_list>
#include <span>

#include "src/fleet/population.h"

namespace sdc {

class EngineContext;

// Consumer of a streaming fleet pass. ConsumeShard is called once per shard, concurrently
// from the pool's lanes and in schedule-dependent order; the shard's storage is only
// valid during the call, so a consumer keeps per-shard partial results (indexed by
// shard.shard) and folds them in ascending shard order in EndStream -- that ordered merge
// is what makes its output thread-count invariant.
class ShardConsumer {
 public:
  virtual ~ShardConsumer();

  // Called once before any shard, on the driving thread. Drive always passes the context
  // it runs on (never null), so consumers can take its telemetry sinks
  // (src/common/context.h). Does nothing by default.
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
  // context's pool supplies the lanes and its sinks (src/common/context.h) receive the
  // pass's telemetry: per-shard "fleet.generate.*" metric deltas, "generate.shard"
  // sim spans (serial-space clock) and "fleet.generate.*" series points are merged in
  // shard order after the pass, so each is byte-identical at any lane count.
  StreamReport Drive(std::span<ShardConsumer* const> consumers,
                     EngineContext& context) const;
  StreamReport Drive(std::initializer_list<ShardConsumer*> consumers,
                     EngineContext& context) const;

 private:
  PopulationConfig config_;
};

}  // namespace sdc

#endif  // SDC_SRC_FLEET_STREAM_H_
