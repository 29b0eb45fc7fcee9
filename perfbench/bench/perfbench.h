// Shared pieces of the perfbench program (perfbench/README.md): run options, the record a
// run prints, the in-memory span log of traced runs, and small statistics helpers.
//
// Every timing here is taken from the benchmark's own files around calls into the
// engine's public API (ShardConsumer, ScrubConfig::epoch_tick, the sdcd line protocol);
// nothing inside src/ is instrumented for the benchmark.

#ifndef PERFBENCH_BENCH_PERFBENCH_H_
#define PERFBENCH_BENCH_PERFBENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/integrity/hash.h"

namespace perfbench {

// Lanes of every workload: the hardware threads of the 4-core host the ROADMAP measures on.
inline constexpr int kLanes = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;       // measured time per run
  bool trace = false;          // traced run: per-layer metrics instead of end-to-end
  bool tiny = false;           // self-test sizes: same code paths on small inputs
  bool corrupt_digest = false; // self-test: perturb one measured digest
  std::string out_dir = ".";   // traces and the daemon socket go here
  std::string sdcd;            // sdcd binary for the daemon workload
};

// Host steady clock in seconds since the first call.
double Now();

// One run's output: named metrics with units, the correctness ledger, and (traced runs)
// per-span-name self time plus the Chrome trace file it wrote.
class Record {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // One unit of checked work (a pass, a scrub run, a campaign, a daemon lifecycle):
  // counts toward `attempted`, and toward `failed` with `why` when !ok.
  void Attempt(bool ok, const std::string& why);
  void Sample(const std::string& name, uint64_t count) { samples_[name] = count; }
  // Raw per-unit timings behind a metric (pass walls, run walls), in run order.
  void Series(const std::string& name, std::vector<double> values) {
    series_[name] = std::move(values);
  }
  void Note(const std::string& key, const std::string& value) { notes_[key] = value; }
  void SetSelfTimes(std::map<std::string, double> self_s) { self_s_ = std::move(self_s); }

  uint64_t failed() const { return failed_; }

  // One-line JSON document: workload, seed, fingerprint, metrics, ledger.
  std::string ToJson(const Options& options) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, uint64_t> samples_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, double> self_s_;
};

// Spans of a traced run, kept in memory and written once at the end. A span has a name,
// start and end (Now() seconds), the id of the span that caused it (0 = root), a group id
// shared by every span of one pass or campaign, and a display lane.
class SpanLog {
 public:
  uint64_t NewGroup() { return ++last_group_; }
  uint64_t Add(std::string name, uint64_t parent, uint64_t group, int lane, double start,
               double end);

  // Per span name: total duration minus the part of each span's interval that its
  // children cover (children on parallel lanes may overlap; their union is what counts).
  std::map<std::string, double> SelfSeconds() const;

  // Chrome/Perfetto trace-event JSON in the repository's host-span layout
  // (sdc::WriteTraceJson with host events included); span ids ride in args.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t group = 0;
    int lane = 0;
    double start = 0.0;
    double end = 0.0;
    std::string name;
  };
  std::vector<Span> spans_;
  uint64_t last_group_ = 0;
};

// Writes `spans` as <out_dir>/<workload>-seed<N>.trace.json and puts their per-name self
// time into `record` (the write is one checked unit of work).
void WriteTrace(const Options& options, const SpanLog& spans, Record& record);

// Linear-interpolated percentile (q in [0, 1]) of unsorted samples; 0 for none.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
double Sum(const std::vector<double>& values);
// Arithmetic mean; 0 for none.
double Mean(const std::vector<double>& values);

// FNV-1a 64 of rendered bytes: the digest the correctness gates compare.
inline uint64_t Digest(std::string_view bytes) {
  return sdc::Fnv1a64({reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()});
}

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// The set-up metric: `batches` times, an untimed `teardown` and then `per_batch` timed
// calls build(0) .. build(per_batch - 1), which the caller keeps alive until the next
// teardown; a sample is the batch's wall over `per_batch`, and the result is the median
// sample (the samples go into `record`). A sub-millisecond build timed in batches and over
// many batches reads the same from run to run where a single build does not. The last
// batch's builds are the ones the run keeps.
double SetupSeconds(int batches, int per_batch, const std::function<void()>& teardown,
                    const std::function<void(int)>& build, Record& record);

// Set-up of the in-process workloads: engines (suite, pipeline, lanes) built in batches.
inline constexpr int kSetupBatches = 15;
inline constexpr int kSetupPerBatch = 8;

// Builds Engine(kLanes) through SetupSeconds, stores the set-up metric in `setup_s`, and
// returns one engine of the last batch for the run to use.
template <typename Engine>
std::unique_ptr<Engine> BuildEngineTimed(Record& record, double& setup_s) {
  std::vector<std::unique_ptr<Engine>> engines(kSetupPerBatch);
  setup_s = SetupSeconds(
      kSetupBatches, kSetupPerBatch,
      [&] {
        for (std::unique_ptr<Engine>& engine : engines) {
          engine.reset();
        }
      },
      [&](int i) { engines[i] = std::make_unique<Engine>(kLanes); }, record);
  return std::move(engines.front());
}

// Workload entry points; each fills `record` with the end-to-end metrics (untraced) or
// the per-layer metrics (traced) and one Attempt per unit of checked work.
void RunScreenWorkload(const Options& options, Record& record);  // screen_100m, sweep_k8_10m
void RunScrubWorkload(const Options& options, Record& record);   // scrub_100k
void RunDaemonWorkload(const Options& options, Record& record);  // daemon_1m

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_PERFBENCH_H_
