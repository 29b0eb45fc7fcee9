// Fleet-wide budgeted scrubber (ROADMAP item 4; the deployment story of Section 7).
//
// Farron tests and protects one processor; production needs the fleet shape that "Silent
// Data Corruptions at Scale" (Dixit et al.) runs: a background scrubber that spends a
// bounded slice of fleet cycles -- e.g. 1% -- continuously re-testing live machines, and
// the interesting output is the tradeoff those cycles buy: time-to-detect distributions
// and coverage as a function of budget ("SDC by 10x Test Escapes").
//
// Pipeline. A screening pass over the synthetic fleet decides which faulty parts escape
// the pre-production stages (factory, datacenter, re-install); the scrubber then owns one
// ProtectionSession per escape -- a real FaultyMachine plus Farron -- and replaces the
// screen's modeled regular cadence with budgeted, prioritized in-production test rounds.
// Discovery is a ScrubDiscoveryObserver on the fused generate->screen pass: candidates
// and their defects are copied out while each shard is alive, so the fleet is never
// materialized.
//
// Scheduler. Each sim-epoch dispenses a global budget of processor-seconds
// (budget_fraction * fleet_size * epoch_seconds) by score
// (ScrubSchedulerParams: arch weight x temperature factor x starvation-free aging).
// The scheduler cannot know who is faulty, so it ranks the whole fleet: tracked sessions
// compete individually, and the clean population is accounted as per-(arch, last-funded)
// buckets of interchangeable parts whose funded rounds consume budget without simulation.
// Funding is strict -- a grant never overdraws the remaining budget -- so total spend
// never exceeds the configured budget (docs/scrubbing.md).
//
// Determinism. Epoch planning is serial over deterministic state; funded sessions then
// execute concurrently on the context's ThreadPool (each session owns its machine, Farron
// and RNG stream, forked per-serial from the scrub seed; the TestSuite is built once and
// shared read-only) and their results fold back in funding order. The report is therefore
// byte-identical at any thread count (tests/scrub_test.cc pins 1/2/8 threads).

#ifndef SDC_SRC_SCRUB_SCRUBBER_H_
#define SDC_SRC_SCRUB_SCRUBBER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/farron/farron.h"
#include "src/farron/priorities.h"
#include "src/farron/protection.h"
#include "src/fault/defect.h"
#include "src/fleet/capacity.h"
#include "src/fleet/pipeline.h"
#include "src/fleet/population.h"
#include "src/fleet/stream.h"
#include "src/toolchain/registry.h"

namespace sdc {

class EngineContext;

// One faulty fleet part and its screening outcome -- the scrubber's working set. The
// defect list is copied out of the shard arena during discovery, so candidates outlive
// the stream pass.
struct ScrubCandidate {
  uint64_t serial = 0;
  int arch_index = 0;
  bool toolchain_detectable = true;
  bool pre_production_detected = false;  // caught at factory/datacenter/re-install
  // Month the screen's own regular cadence would have caught it; < 0 = never. Kept as
  // the comparison baseline for the scrubber's time-to-detect.
  double screen_regular_month = -1.0;
  std::vector<Defect> defects;
};

struct ScrubConfig {
  // The fleet and the pre-production screen that decides who escapes into production.
  PopulationConfig population;
  ScreeningConfig screening;

  // Per-session Farron template; each session replaces its `seed` with one mixed from
  // the part's machine seed. Sessions run sink-free on one-lane contexts of their own;
  // the scrubber aggregates and emits its own scrub.* delta.
  FarronConfig farron;
  WorkloadSpec workload;
  ScrubSchedulerParams scheduler;

  // Share of total fleet cycles the scrubber may spend on testing: each epoch dispenses
  // budget_fraction * fleet_size * epoch_seconds processor-seconds.
  double budget_fraction = 1e-5;
  double horizon_months = 12.0;
  double epoch_months = 1.0;  // horizon_months / epoch_months <= kMaxScrubEpochs
  // Funded rounds run this many plan entries as a rotating ripple window over the
  // prioritized plan (SessionOptions::max_cases_per_round); 0 = full plans.
  size_t max_cases_per_round = 48;
  // Simulated workload run per session at deployment: establishes the scheduler's
  // per-part peak-temperature signal and measures pre-detection SDC exposure. 0 skips
  // sampling (temperature factor stays neutral).
  double workload_sample_hours = 0.05;
  // Namespace for all per-session randomness: session serial S draws its workload stream
  // from Rng(seed).Fork(S) and its machine/test seeds from the same fork family.
  uint64_t seed = 4242;

  // Progress and cancellation hook: called once after discovery (epochs_done = 0) and
  // again after every completed epoch. Returning false cancels the run at that epoch
  // boundary -- the scrubber throws ScrubCancelledError and no further budget is spent.
  // The sdcd scrub campaign uses this for its shards_done ledger and Cancel verb.
  std::function<bool(uint64_t epochs_done, uint64_t epochs_total)> epoch_tick;
};

// Thrown when ScrubConfig::epoch_tick vetoes continuing; the partial work is abandoned
// (campaign semantics: a cancelled run publishes no report).
struct ScrubCancelledError {};

// Scheduler provenance of one scrubber detection: which decision bought it (Layer 3 of
// the scrub story -- every detection is attributable without re-running the fleet).
struct ScrubProvenance {
  uint64_t epoch = 0;       // epoch whose grant funded the detecting round
  uint32_t rank = 0;        // position in that epoch's funding order (0 = first funded)
  double score = 0.0;       // scheduler score at grant time
  double granted_seconds = 0.0;
  double consumed_seconds = 0.0;  // what the funded round chunk actually ran
};

struct ScrubDetection {
  uint64_t serial = 0;
  int arch_index = 0;
  double month = 0.0;            // epoch-end month of the detecting round
  uint64_t rounds = 0;           // completed rounds up to and including detection
  double scheduled_seconds = 0.0;  // session budget consumed up to detection
  double screen_regular_month = -1.0;  // the screen cadence's detection month (baseline)
  bool deprecated = false;       // targeted analysis deprecated the whole part
  int masked_cores = 0;          // cores masked by fine-grained decommission
  ScrubProvenance provenance;
};

// One epoch of the budget ledger.
struct ScrubEpochPoint {
  uint64_t epoch = 0;
  double month = 0.0;
  double budget_seconds = 0.0;   // dispensed this epoch
  double session_seconds = 0.0;  // consumed by simulated session rounds
  double sweep_seconds = 0.0;    // consumed by the accounted clean-fleet sweep
  uint64_t sessions_funded = 0;
  uint64_t parts_swept = 0;      // clean parts whose round was funded (accounted only)
  uint64_t detections = 0;

  double spent_seconds() const { return session_seconds + sweep_seconds; }
};

struct ScrubReport {
  // Fleet and discovery.
  uint64_t fleet_processors = 0;
  uint64_t fleet_cores = 0;
  uint64_t faulty = 0;
  uint64_t pre_production_detections = 0;
  uint64_t sessions = 0;               // escapes tracked by the scrubber
  uint64_t undetectable_sessions = 0;  // escapes no testcase can expose (coverage ceiling)

  // Budget ledger.
  double budget_fraction = 0.0;
  double horizon_months = 0.0;
  double epoch_months = 0.0;
  double nominal_round_seconds = 0.0;  // accounted cost of one clean-part round
  double total_budget_seconds = 0.0;
  double session_seconds = 0.0;
  double sweep_seconds = 0.0;
  double diagnosis_seconds = 0.0;  // targeted analysis after failing rounds (not budgeted)
  std::vector<ScrubEpochPoint> timeline;

  // Outcomes.
  std::vector<ScrubDetection> detections;  // ascending by (epoch, funding rank)
  uint64_t workload_sdc_events = 0;        // SDCs reaching sampled workloads pre-detection
  CapacityReport capacity;                 // decommission replay of the detections

  double total_spent_seconds() const { return session_seconds + sweep_seconds; }
  double utilization() const {
    return total_budget_seconds > 0.0 ? total_spent_seconds() / total_budget_seconds : 0.0;
  }
  // Share of tracked escapes detected within the horizon.
  double coverage() const {
    return sessions > 0 ? static_cast<double>(detections.size()) /
                              static_cast<double>(sessions)
                        : 0.0;
  }
  double MeanTimeToDetectMonths() const;
};

// Streaming discovery hook: a ShardOutcomeObserver that walks each shard's faulty index
// against the shard's screening outcomes (both ascending by serial) and copies out one
// ScrubCandidate per faulty part while the defect spans are alive. Per-shard partials
// fold in shard order, so TakeCandidates() is byte-identical at any thread count and to
// the same walk over a materialized fleet and its Run (tests/scrub_test.cc).
class ScrubDiscoveryObserver : public ShardOutcomeObserver {
 public:
  void BeginStream(const PopulationConfig& population, const ScreeningConfig& screening,
                   uint64_t shard_count) override;
  void ObserveShard(const FleetShard& shard, const ScreeningStats& shard_stats) override;
  void EndStream() override;

  // Candidates ascending by serial; valid once after EndStream.
  std::vector<ScrubCandidate> TakeCandidates() { return std::move(candidates_); }

 private:
  std::vector<std::vector<ScrubCandidate>> partials_;  // per shard
  std::vector<ScrubCandidate> candidates_;
};

// Step limit of the epoch loop: each epoch plans and runs a round of test sessions, so a
// tiny epoch_months would schedule an enormous epoch count. Run rejects a config whose
// horizon_months / epoch_months exceeds it; the spec parsers and `sdcctl scrub --hours`
// reject it as a usage error first (docs/daemon.md). A constant, not an option: the
// longest config in the tree is a 1200-epoch scrub.
inline constexpr double kMaxScrubEpochs = 2400;

class FleetScrubber {
 public:
  // `suite` is shared read-only by every session (built once per scrub run, never per
  // processor) and must outlive the scrubber.
  explicit FleetScrubber(const TestSuite* suite);

  // Runs discovery plus the budgeted epoch loop on `context`: its pool supplies the lanes
  // and its sinks are pinned once at run start (src/common/context.h). Discovery's
  // generate and screen passes record into them like any other fleet pass; the epoch
  // loop adds "scrub.*" metrics, scrub-track trace events, and cumulative
  // "scrub.budget" / "scrub.spent" / "scrub.detections" / "scrub.sessions_funded"
  // series, one point per epoch (x = the epoch's end month). The epoch loop is serial,
  // so every one of them is byte-identical at any thread count. Throws
  // std::invalid_argument, before any work, when the config exceeds kMaxScrubEpochs.
  ScrubReport Run(const ScrubConfig& config, EngineContext& context) const;

 private:
  const TestSuite* suite_;
};

}  // namespace sdc

#endif  // SDC_SRC_SCRUB_SCRUBBER_H_
