// Live time-series for the screening machinery: named fixed-capacity ring buffers of
// (x, value) points, sampled at shard/epoch boundaries so a long campaign can be watched
// while it runs (sdcd `stats`, `sdcctl top`) instead of only post-hoc through
// MetricsSnapshot. Production screening fleets (Meta's SDC program, SiliFuzz) are
// operated, not just launched -- throughput, coverage, and straggler detection all need
// the trajectory, not the final totals.
//
// Determinism contract (the split MetricsSnapshot::timers already imposes): every series
// carries a clock domain. kSim series advance on simulation progress (processor serials
// screened, scrub months elapsed) and are appended only from serial code -- the shard-
// ordered fold after a parallel pass, or the scrubber's serial epoch loop -- so their
// points, their order, and even their ring evictions are bit-identical at any thread
// count. kHost series (rates, queue depth, lane occupancy) advance on wall clock and are
// segregated into their own snapshot section so byte-compares can exclude them.
//
// Thread safety: one mutex serializes every entry point. The design stays lock-light
// because appends happen at shard/epoch boundaries (hundreds per pass, not per
// processor); the hot kernels never touch the recorder.

#ifndef SDC_SRC_TELEMETRY_SERIES_H_
#define SDC_SRC_TELEMETRY_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sdc {

enum class SeriesClock {
  kSim,   // x is simulation progress: deterministic, byte-comparable
  kHost,  // x is host time: nondeterministic by contract, segregated
};

struct SeriesPoint {
  double x = 0.0;      // sim: serial/month; host: seconds since an epoch the writer picks
  double value = 0.0;

  friend bool operator==(const SeriesPoint& a, const SeriesPoint& b) {
    return a.x == b.x && a.value == b.value;
  }
};

// One series' retained window, oldest first. total_points == points.size() + dropped at
// all times, so a consumer can always tell a complete trajectory from a truncated one.
struct SeriesData {
  SeriesClock clock = SeriesClock::kSim;
  std::vector<SeriesPoint> points;
  uint64_t dropped = 0;
  uint64_t total_points = 0;
};

// Point-in-time copy of a recorder, clock domains segregated. Maps are name-sorted, so
// rendering a snapshot is itself deterministic.
struct SeriesSnapshot {
  std::map<std::string, SeriesData, std::less<>> sim;
  std::map<std::string, SeriesData, std::less<>> host;

  bool empty() const { return sim.empty() && host.empty(); }
};

// Shared, mutex-guarded series sink. Engine paths accept an optional SeriesRecorder*
// (the EngineContext's series sink) and stay silent when it is null.
class SeriesRecorder {
 public:
  // `capacity` bounds every ring; once full, the oldest point is evicted and counted in
  // SeriesData::dropped. Eviction depends only on append order, so bounded kSim rings
  // stay deterministic too.
  explicit SeriesRecorder(size_t capacity = 512);
  SeriesRecorder(const SeriesRecorder&) = delete;
  SeriesRecorder& operator=(const SeriesRecorder&) = delete;

  // Appends one point. The clock domain is fixed by the first append of `series`; later
  // appends reuse it (same pinning idiom as MetricsDelta::Observe's histogram bounds).
  void Append(std::string_view series, SeriesClock clock, double x, double value);

  SeriesSnapshot Snapshot() const;
  void Clear();

  size_t capacity() const { return capacity_; }

 private:
  struct Ring {
    SeriesClock clock = SeriesClock::kSim;
    std::vector<SeriesPoint> points;  // circular once full; `start` is the oldest slot
    size_t start = 0;
    uint64_t total_points = 0;
  };

  mutable std::mutex mutex_;
  const size_t capacity_;
  std::map<std::string, Ring, std::less<>> rings_;
};

}  // namespace sdc

#endif  // SDC_SRC_TELEMETRY_SERIES_H_
