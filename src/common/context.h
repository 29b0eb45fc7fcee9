// Explicit execution context for the SDC engine (the "exorcise ambient state" refactor).
//
// Before this layer existed, every pipeline entry point rebuilt its execution environment
// from mutable process-wide state on each call: ThreadPool construction re-read
// SDC_THREADS, screening re-read SDC_SIMD, and metric/trace sinks were wired through
// attach-style globals. That is harmless for a one-shot CLI and a latent bug class for a
// long-lived service -- the moment two campaigns share a process, a setenv or an
// AttachMetrics aimed at one campaign silently bleeds into the other.
//
// EngineContext is the fix. It captures everything the engine needs to execute --
// worker lanes (an owned ThreadPool), the vector level of the generation kernel
// (ClassifyDrawPairs), and the optional telemetry sinks (MetricsRegistry, TraceRecorder,
// SeriesRecorder, EventLog) -- and the environment (SDC_THREADS, SDC_SIMD) is consulted
// exactly once, inside the constructor. For the fleet engine and the session layer the
// context is the only authority: FleetShardStream::Drive (the one production fleet
// path), FleetScrubber::Run, TestFramework::RunPlan and Farron -- and
// FleetPopulation::Generate / ScreeningPipeline::RunBatch, the materialized pair (the
// stream's shards kept, then replayed) that perfbench's digest gate and the tests use --
// each exist only in a form that takes one, and their configs describe the experiment
// alone -- no lanes, vector level or sinks. After construction, no engine path reads an
// environment variable or any other mutable process-global -- the invariant the sdcd
// campaign daemon (docs/daemon.md) and the concurrent-campaign tests
// (tests/context_test.cc) are built on.
//
// Sink lifecycle: Attach*/Detach may be called at any time, from any thread, but engine
// passes PIN the attached sinks once when the pass starts and keep merging per-shard
// deltas into the pinned sink until the pass ends. Detaching between shards therefore
// never drops or double-merges a delta: the in-flight pass completes against the sink it
// started with, and only the NEXT pass observes the new attachment
// (tests/context_test.cc pins this by detaching mid-stream).
//
// Concurrency: one context serves one campaign at a time. Accessors and Attach* are
// thread-safe, but the pool must not be used by two concurrent passes -- campaigns that
// run concurrently each get their own context, which is exactly how sdcd isolates them.

#ifndef SDC_SRC_COMMON_CONTEXT_H_
#define SDC_SRC_COMMON_CONTEXT_H_

#include <mutex>

#include "src/common/parallel.h"
#include "src/common/simd.h"

namespace sdc {

class EventLog;
class MetricsRegistry;
class SeriesRecorder;
class TraceRecorder;

struct EngineOptions {
  // Worker lanes: 0 = hardware concurrency, 1 = serial on the calling thread.
  int threads = 0;
  // Vector level of the fleet generator's ClassifyDrawPairs (src/common/simd.h), read by
  // GenerationPlan; kAuto picks the best the host supports.
  SimdLevel simd = SimdLevel::kAuto;
  // Consult SDC_THREADS / SDC_SIMD (once, at construction). The sdcd daemon sets this
  // false so per-campaign lane budgets cannot be overridden by the daemon's environment.
  bool env_overrides = true;
  // Initial sink attachments; all optional (null = disabled) and re-attachable later.
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  EventLog* event_log = nullptr;
  SeriesRecorder* series = nullptr;
};

class EngineContext {
 public:
  explicit EngineContext(const EngineOptions& options = {});

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  // Resolved at construction; immutable for the context's lifetime.
  int threads() const { return threads_; }
  SimdLevel simd() const { return simd_; }
  ThreadPool& pool() { return pool_; }

  // Currently attached sinks (null = disabled). Engine passes call these once at pass
  // start and pin the result; see the header comment for the lifecycle contract.
  MetricsRegistry* metrics() const;
  TraceRecorder* trace() const;
  EventLog* event_log() const;
  SeriesRecorder* series() const;

  // Attach a sink (nullptr detaches); returns the previously attached sink. Thread-safe;
  // in-flight passes keep their pinned sink, the next pass observes the change.
  MetricsRegistry* AttachMetrics(MetricsRegistry* metrics);
  TraceRecorder* AttachTrace(TraceRecorder* trace);
  EventLog* AttachEventLog(EventLog* event_log);
  SeriesRecorder* AttachSeries(SeriesRecorder* series);

 private:
  int threads_;
  SimdLevel simd_;
  ThreadPool pool_;
  mutable std::mutex mutex_;
  MetricsRegistry* metrics_;
  TraceRecorder* trace_;
  EventLog* event_log_;
  SeriesRecorder* series_;
};

}  // namespace sdc

#endif  // SDC_SRC_COMMON_CONTEXT_H_
