// Deterministic trace/span layer for the screening machinery (docs/observability.md).
//
// Metrics (src/telemetry/metrics.h) answer "how much"; this layer answers "when and
// which": a per-event timeline of the pipeline -- which generation shard produced which
// serials, which screening sub-shard (and therefore which global RNG stream) screened
// them, which plan entry the toolchain was running, when the protection loop throttled --
// exported as Chrome/Perfetto trace-event JSON (WriteTraceJson, src/report/exporters.h)
// so a production-scale run can be root-caused span by span, the audit trail the paper's
// Section 5-6 workflow and Meta's fleetscanner program both presuppose.
//
// Two clock domains, mirroring the TimerStat split:
//  * kSim -- the deterministic domain. Timestamps are workload units: processor serials
//    for fleet passes (a shard covering serials [begin, end) is a span at ts=begin,
//    dur=end-begin) and simulated microseconds for the toolchain and protection loops.
//    Sim events obey the determinism contract of docs/parallelism.md: parallel stages
//    accumulate into per-shard TraceDelta buffers that the caller merges in shard order,
//    so the sim section of a trace is byte-identical at any thread count.
//  * kHost -- wall-clock spans (drive/run/aggregate/clone costs), recorded from any
//    thread under the recorder's mutex and segregated exactly like wall-clock timers:
//    flagged nondeterministic, excluded by WriteTraceJson(..., include_host = false),
//    which is what the determinism tests compare.
//
// Recording is zero-cost when no recorder is attached: every hot path takes an optional
// TraceRecorder* (defaulting to null) and guards each emission site with one pointer
// test; perfbench's trace.overhead reports the traced/untraced wall ratio per workload.

#ifndef SDC_SRC_TELEMETRY_TRACE_H_
#define SDC_SRC_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace sdc {

// Which clock a trace event's timestamp belongs to. Sim events are deterministic; host
// events measure the machine running the simulation and are excluded from byte-identity.
enum class TraceDomain {
  kSim = 0,
  kHost = 1,
};

// Logical tracks ("tid" in the trace-event output) -- one per instrumented stage, so the
// Perfetto timeline renders the pipeline as parallel swimlanes.
inline constexpr int kTraceTrackGenerate = 1;    // fleet generation shards
inline constexpr int kTraceTrackScreen = 2;      // screening sub-shards
inline constexpr int kTraceTrackDetection = 3;   // per-detection provenance instants
inline constexpr int kTraceTrackAggregate = 4;   // shard-order merges / stitches
inline constexpr int kTraceTrackToolchain = 5;   // toolchain plan entries
inline constexpr int kTraceTrackProtection = 6;  // Farron protection loop
inline constexpr int kTraceTrackScrub = 7;       // fleet scrubber epochs and detections

// Process ids in the trace-event output: one synthetic process per clock domain.
inline constexpr int kTracePidSim = 1;
inline constexpr int kTracePidHost = 2;

// One trace event. phase follows the Chrome trace-event vocabulary: 'X' is a complete
// span (timestamp + duration), 'i' an instant. Arguments are split by value type so the
// JSON exporter can emit numbers as numbers.
struct TraceEvent {
  char phase = 'X';
  std::string name;
  std::string category;
  int track = kTraceTrackGenerate;
  double timestamp = 0.0;  // domain units (serials / simulated us for kSim, us for kHost)
  double duration = 0.0;   // spans only
  std::vector<std::pair<std::string, std::string>> str_args;
  std::vector<std::pair<std::string, double>> num_args;
};

TraceEvent MakeTraceSpan(std::string name, std::string category, int track,
                         double timestamp, double duration);
TraceEvent MakeTraceInstant(std::string name, std::string category, int track,
                            double timestamp);

// Single-threaded accumulator for one shard (or one serial stage) of sim-domain events.
// Shards fill private deltas; the caller merges them into the recorder in shard order,
// which is what makes the sim section thread-count invariant -- the same contract
// MetricsDelta follows.
class TraceDelta {
 public:
  void Add(TraceEvent event) { events_.push_back(std::move(event)); }
  // Appends `other`'s events after this delta's own.
  void MergeFrom(TraceDelta&& other);

  bool empty() const { return events_.empty(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  // Consumes the delta, releasing its event buffer without copying.
  std::vector<TraceEvent> TakeEvents() && { return std::move(events_); }

 private:
  std::vector<TraceEvent> events_;
};

// Point-in-time copy of a recorder: the deterministic sim timeline (merge order
// preserved) plus the nondeterministic host spans (recording order, schedule-dependent).
struct TraceSnapshot {
  std::vector<TraceEvent> sim;
  std::vector<TraceEvent> host;
};

// Shared, mutex-guarded trace sink. Hot paths accept an optional TraceRecorder* and stay
// silent when it is null; sim deltas are merged on the calling thread in shard order
// while host spans may be recorded concurrently from workers.
class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Appends one shard's sim events. Call in ascending shard order; the sim timeline's
  // byte-identity at any thread count depends on it (docs/parallelism.md).
  void MergeDelta(TraceDelta&& delta);

  // Host wall-clock span, timed from the recorder's construction epoch. Nondeterministic
  // by contract; safe from any thread.
  void RecordHostSpan(std::string name, std::string category, int track,
                      double start_seconds, double duration_seconds);

  // Seconds since the recorder was constructed (host steady clock).
  double HostNowSeconds() const;

  // RAII host span; records into `recorder` (nothing when null) on destruction.
  class ScopedHostSpan {
   public:
    ScopedHostSpan(TraceRecorder* recorder, std::string name, std::string category,
                   int track)
        : recorder_(recorder),
          name_(std::move(name)),
          category_(std::move(category)),
          track_(track),
          start_seconds_(recorder != nullptr ? recorder->HostNowSeconds() : 0.0) {}
    ~ScopedHostSpan();
    ScopedHostSpan(const ScopedHostSpan&) = delete;
    ScopedHostSpan& operator=(const ScopedHostSpan&) = delete;

   private:
    TraceRecorder* recorder_;
    std::string name_;
    std::string category_;
    int track_;
    double start_seconds_;
  };

  TraceSnapshot Snapshot() const;
  void Clear();

 private:
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> sim_events_;
  std::vector<TraceEvent> host_events_;
};

// Per-category rollup of one snapshot, the data behind `sdcctl trace`.
struct TraceCategorySummary {
  std::string category;
  uint64_t spans = 0;
  uint64_t instants = 0;
  double sim_duration_total = 0.0;  // domain units, spans only
};

struct TraceSummary {
  std::vector<TraceCategorySummary> categories;  // sorted by category name
  uint64_t sim_events = 0;
  uint64_t host_spans = 0;
  std::vector<TraceEvent> slowest_host;  // top-N host spans, descending duration

  // Per-stage span counts, sim-time attribution, and the slowest host spans as text.
  void DumpText(std::ostream& out) const;
};

TraceSummary SummarizeTrace(const TraceSnapshot& snapshot, size_t top_n = 5);

}  // namespace sdc

#endif  // SDC_SRC_TELEMETRY_TRACE_H_
