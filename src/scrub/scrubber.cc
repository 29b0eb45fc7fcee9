#include "src/scrub/scrubber.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/farron/session.h"
#include "src/fault/catalog.h"
#include "src/fault/machine.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/series.h"
#include "src/telemetry/trace.h"

namespace sdc {

namespace {

constexpr double kSecondsPerMonth = 30.44 * 24.0 * 3600.0;  // as Farron::TestOverhead

// Walks one shard's faulty list against its screening outcomes (both ascending by
// serial) and appends one candidate per faulty part.
void AppendCandidates(const FleetShard& shard, std::span<const ProcessorOutcome> detections,
                      std::vector<ScrubCandidate>& out) {
  size_t cursor = 0;
  for (const FaultyPart& part : shard.faulty) {
    const uint64_t serial = part.serial;
    ScrubCandidate candidate;
    candidate.serial = serial;
    candidate.arch_index = shard.arch_index(serial);
    candidate.toolchain_detectable = part.detectable;
    const std::span<const Defect> defects = shard.Defects(part);
    candidate.defects.assign(defects.begin(), defects.end());
    while (cursor < detections.size() && detections[cursor].serial < serial) {
      ++cursor;
    }
    if (cursor < detections.size() && detections[cursor].serial == serial &&
        detections[cursor].detected) {
      if (detections[cursor].stage == TestStage::kRegular) {
        candidate.screen_regular_month = detections[cursor].month;
      } else {
        candidate.pre_production_detected = true;
      }
    }
    out.push_back(std::move(candidate));
  }
}

// One tracked escape: the session plus its scheduler state. Sessions are only built for
// toolchain-detectable escapes; undetectable ones are scheduled and accounted (they
// consume budget like any other part) but never simulated -- the fleet model already
// states no testcase can expose them, so a simulated round finding errors would
// contradict the screen (docs/scrubbing.md).
struct SessionSlot {
  uint64_t serial = 0;
  int arch_index = 0;
  bool detectable = true;
  double screen_regular_month = -1.0;
  std::unique_ptr<FaultyMachine> machine;
  // Sink-free and one lane: the session runs on whichever scrub lane funds it.
  std::unique_ptr<EngineContext> context;
  std::unique_ptr<Farron> farron;
  std::unique_ptr<ProtectionSession> session;
  uint64_t last_funded_epoch = 0;
  bool detected = false;
};

// A scheduler item: one session, or one bucket of interchangeable clean parts sharing
// (arch, last_funded_epoch).
struct ScheduleItem {
  double score = 0.0;
  bool is_bucket = false;
  size_t slot = 0;       // session index, or bucket index
  int arch_index = 0;    // tie-break
  uint64_t tie = 0;      // serial (sessions) / last_funded_epoch (buckets)
};

struct CleanBucket {
  int arch_index = 0;
  uint64_t last_funded_epoch = 0;
  uint64_t count = 0;
};

// A grant issued during epoch planning, executed afterwards.
struct Grant {
  size_t slot = 0;
  uint32_t rank = 0;
  double score = 0.0;
  double granted_seconds = 0.0;
  uint64_t rounds_before = 0;
};

}  // namespace

double ScrubReport::MeanTimeToDetectMonths() const {
  if (detections.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const ScrubDetection& detection : detections) {
    sum += detection.month;
  }
  return sum / static_cast<double>(detections.size());
}

void ScrubDiscoveryObserver::BeginStream(const ScreeningConfig& /*screening*/,
                                         uint64_t shard_count) {
  partials_.assign(shard_count, {});
  candidates_.clear();
}

void ScrubDiscoveryObserver::ObserveShard(const FleetShard& shard,
                                          const ScreeningStats& shard_stats) {
  AppendCandidates(shard, shard_stats.detections, partials_[shard.shard]);
}

void ScrubDiscoveryObserver::EndStream() {
  size_t total = 0;
  for (const std::vector<ScrubCandidate>& partial : partials_) {
    total += partial.size();
  }
  candidates_.reserve(total);
  for (std::vector<ScrubCandidate>& partial : partials_) {
    for (ScrubCandidate& candidate : partial) {
      candidates_.push_back(std::move(candidate));
    }
  }
  partials_.clear();
  partials_.shrink_to_fit();
}

FleetScrubber::FleetScrubber(const TestSuite* suite) : suite_(suite) {}

ScrubReport FleetScrubber::Run(const ScrubConfig& config, EngineContext& context) const {
  // Bounds the epoch loop below.
  if (std::string error; !CheckStepCount(config.horizon_months, config.epoch_months,
                                         kMaxScrubEpochs, "epoch_months", error)) {
    throw std::invalid_argument(error);
  }
  // The context's sinks, which the discovery passes record into too.
  MetricsRegistry* metrics = context.metrics();
  TraceRecorder* trace = context.trace();
  SeriesRecorder* series = context.series();
  ScrubReport report;
  report.fleet_processors = config.population.processor_count;
  report.budget_fraction = config.budget_fraction;
  report.horizon_months = config.horizon_months;
  report.epoch_months = config.epoch_months;

  // --- Discovery: who escaped pre-production screening. ---
  ScreeningPipeline pipeline(suite_);
  StreamingScreen screen(&pipeline, config.screening);
  ScrubDiscoveryObserver discovery;
  screen.AddObserver(&discovery);
  FleetShardStream(config.population).Drive({&screen}, context);
  std::vector<ScrubCandidate> candidates = discovery.TakeCandidates();
  // The screen's fleet-wide arch histogram (its fold of the generator tallies) sizes the
  // clean sweep buckets.
  const std::array<uint64_t, kArchCount> arch_totals = screen.TakeStats().tested_by_arch;
  report.faulty = candidates.size();

  std::array<int, kArchCount> arch_cores{};
  for (int arch = 0; arch < kArchCount; ++arch) {
    arch_cores[arch] = MakeArchSpec(arch).physical_cores;
    report.fleet_cores +=
        arch_totals[arch] * static_cast<uint64_t>(arch_cores[arch]);
  }

  // --- Sessions: one per escape. The suite is shared read-only; every slot owns its
  // machine, Farron, and per-serial forked RNG streams, so funded rounds can execute on
  // any lane in any order without perturbing a bit of output. ---
  const Rng scrub_base(config.seed);
  std::vector<SessionSlot> slots;
  std::array<uint64_t, kArchCount> faulty_by_arch{};
  for (ScrubCandidate& candidate : candidates) {
    faulty_by_arch[static_cast<size_t>(candidate.arch_index)] += 1;
    if (candidate.pre_production_detected) {
      report.pre_production_detections += 1;  // returned to the vendor; not deployed
      continue;
    }
    SessionSlot slot;
    slot.serial = candidate.serial;
    slot.arch_index = candidate.arch_index;
    slot.detectable = candidate.toolchain_detectable;
    slot.screen_regular_month = candidate.screen_regular_month;
    if (slot.detectable) {
      FaultyProcessorInfo info;
      info.cpu_id = "scrub-" + std::to_string(candidate.serial);
      info.arch = ArchName(candidate.arch_index);
      info.spec = MakeArchSpec(candidate.arch_index);
      info.defects = std::move(candidate.defects);
      const uint64_t machine_seed = Mix64(Mix64(config.seed) ^ Mix64(candidate.serial));
      slot.machine = std::make_unique<FaultyMachine>(info, machine_seed);
      slot.context = std::make_unique<EngineContext>(
          EngineOptions{.threads = 1, .env_overrides = false});
      FarronConfig farron_config = config.farron;
      farron_config.seed = Mix64(machine_seed ^ 0x5ec5c5e55c3a11edULL);
      slot.farron = std::make_unique<Farron>(suite_, slot.machine.get(), farron_config,
                                             *slot.context);
      SessionOptions session_options;
      session_options.protect = true;
      session_options.reseed_workload_each_run = false;  // one forked stream per part
      session_options.max_cases_per_round = config.max_cases_per_round;
      slot.session = std::make_unique<ProtectionSession>(
          slot.farron.get(), slot.machine.get(), suite_, config.workload,
          scrub_base.Fork(candidate.serial), session_options);
    } else {
      report.undetectable_sessions += 1;
    }
    slots.push_back(std::move(slot));
  }
  report.sessions = slots.size();

  ThreadPool& pool = context.pool();

  // Deployment workload sample: establishes each part's peak-temperature signal for the
  // scheduler and measures the SDCs that reach the application before anything detects
  // them. Slot-isolated, so it parallelizes with no fold beyond reading slot state.
  if (config.workload_sample_hours > 0.0 && !slots.empty()) {
    pool.ParallelFor(0, slots.size(), 1, [&](uint64_t, uint64_t begin, uint64_t end) {
      for (uint64_t i = begin; i < end; ++i) {
        SessionSlot& slot = slots[i];
        if (slot.session == nullptr) {
          continue;
        }
        if (slot.machine->injector() != nullptr) {
          slot.machine->injector()->set_age_months(0.0);
        }
        slot.session->BeginWorkload(config.workload_sample_hours);
        while (!slot.session->workload_done()) {
          slot.session->Step(3600.0);
        }
        slot.session->FinishWorkload();
      }
    });
    for (const SessionSlot& slot : slots) {
      if (slot.session != nullptr) {
        report.workload_sdc_events += slot.session->workload_sdc_events();
      }
    }
  }

  // The accounted cost of one funded round on a part we do not simulate: the ripple
  // window swept in best-effort slices.
  const size_t window = config.max_cases_per_round > 0
                            ? std::min(config.max_cases_per_round, suite_->size())
                            : suite_->size();
  report.nominal_round_seconds =
      static_cast<double>(window) * config.farron.plan_params.basic_seconds;
  const double nominal = std::max(report.nominal_round_seconds, 1e-9);

  // Clean parts are interchangeable within (arch, last_funded_epoch): track counts, not
  // identities. Pre-production detections never deploy, so the sweep pool is the clean
  // fleet exactly.
  std::vector<CleanBucket> buckets;
  for (int arch = 0; arch < kArchCount; ++arch) {
    const uint64_t clean = arch_totals[arch] - faulty_by_arch[arch];
    if (clean > 0) {
      buckets.push_back({arch, 0, clean});
    }
  }

  const ScrubSchedulerParams& sched = config.scheduler;
  auto temperature_factor = [&](const SessionSlot& slot) {
    const double peak =
        slot.session != nullptr ? slot.session->last_workload_max_temperature() : 0.0;
    return 1.0 + sched.temperature_weight_per_degree *
                     std::max(0.0, peak - sched.temperature_reference_celsius);
  };

  TraceDelta trace_delta;
  const uint64_t epochs = config.epoch_months > 0.0
                              ? static_cast<uint64_t>(std::ceil(
                                    config.horizon_months / config.epoch_months - 1e-9))
                              : 0;
  if (config.epoch_tick && !config.epoch_tick(0, epochs)) {
    throw ScrubCancelledError{};
  }
  uint64_t sessions_funded_total = 0;  // running total for the series sink

  // --- The epoch loop: serial planning, parallel execution, serial fold. ---
  for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
    const double month_begin = static_cast<double>(epoch) * config.epoch_months;
    const double month_end =
        std::min(month_begin + config.epoch_months, config.horizon_months);
    const double budget_seconds = config.budget_fraction *
                                  static_cast<double>(report.fleet_processors) *
                                  (month_end - month_begin) * kSecondsPerMonth;

    // Plan: score every live session and every clean bucket, fund best-first.
    std::vector<ScheduleItem> items;
    items.reserve(slots.size() + buckets.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      const SessionSlot& slot = slots[i];
      if (slot.detected) {
        continue;
      }
      const double aging = 1.0 + sched.aging_weight_per_epoch *
                                     static_cast<double>(epoch - slot.last_funded_epoch);
      const double score = sched.arch_weight[static_cast<size_t>(slot.arch_index)] *
                           temperature_factor(slot) * aging;
      items.push_back({score, false, i, slot.arch_index, slot.serial});
    }
    for (size_t b = 0; b < buckets.size(); ++b) {
      const CleanBucket& bucket = buckets[b];
      const double aging =
          1.0 + sched.aging_weight_per_epoch *
                    static_cast<double>(epoch - bucket.last_funded_epoch);
      const double score =
          sched.arch_weight[static_cast<size_t>(bucket.arch_index)] * aging;
      items.push_back({score, true, b, bucket.arch_index, bucket.last_funded_epoch});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const ScheduleItem& a, const ScheduleItem& b) {
                       if (a.score != b.score) {
                         return a.score > b.score;
                       }
                       if (a.is_bucket != b.is_bucket) {
                         return !a.is_bucket;  // sessions win ties: they carry signal
                       }
                       if (a.arch_index != b.arch_index) {
                         return a.arch_index < b.arch_index;
                       }
                       return a.tie < b.tie;
                     });

    ScrubEpochPoint point;
    point.epoch = epoch;
    point.month = month_end;
    point.budget_seconds = budget_seconds;
    double remaining = budget_seconds;
    std::vector<Grant> grants;
    std::vector<CleanBucket> refunded;  // buckets funded this epoch re-enter at epoch
    for (size_t rank = 0; rank < items.size(); ++rank) {
      const ScheduleItem& item = items[rank];
      if (remaining <= 0.0) {
        break;
      }
      if (!item.is_bucket) {
        SessionSlot& slot = slots[item.slot];
        const double price = slot.session != nullptr
                                 ? slot.session->NextRoundPlanSeconds()
                                 : nominal;
        const double granted = std::min(price, remaining);
        if (granted <= 0.0) {
          continue;
        }
        Grant grant;
        grant.slot = item.slot;
        grant.rank = static_cast<uint32_t>(rank);
        grant.score = item.score;
        grant.granted_seconds = granted;
        grant.rounds_before =
            slot.session != nullptr ? slot.session->completed_rounds() : 0;
        grants.push_back(grant);
        // Reserve the grant now; the funded round may consume less (no overdraft), and
        // the shortfall becomes slack rather than retroactively re-ranking the epoch.
        remaining -= granted;
        slot.last_funded_epoch = epoch;
      } else {
        CleanBucket& bucket = buckets[item.slot];
        const uint64_t fundable = static_cast<uint64_t>(remaining / nominal);
        const uint64_t funded = std::min(bucket.count, fundable);
        if (funded == 0) {
          continue;
        }
        bucket.count -= funded;
        refunded.push_back({bucket.arch_index, epoch, funded});
        remaining -= static_cast<double>(funded) * nominal;
        point.sweep_seconds += static_cast<double>(funded) * nominal;
        point.parts_swept += funded;
      }
    }
    // Compact the bucket list: drop emptied buckets, merge the re-funded cohorts.
    buckets.erase(std::remove_if(buckets.begin(), buckets.end(),
                                 [](const CleanBucket& b) { return b.count == 0; }),
                  buckets.end());
    for (const CleanBucket& cohort : refunded) {
      bool merged = false;
      for (CleanBucket& bucket : buckets) {
        if (bucket.arch_index == cohort.arch_index &&
            bucket.last_funded_epoch == cohort.last_funded_epoch) {
          bucket.count += cohort.count;
          merged = true;
          break;
        }
      }
      if (!merged) {
        buckets.push_back(cohort);
      }
    }

    // Execute: funded session rounds run concurrently; each touches only its own slot.
    std::vector<double> consumed(grants.size(), 0.0);
    pool.ParallelFor(0, grants.size(), 1, [&](uint64_t, uint64_t begin, uint64_t end) {
      for (uint64_t g = begin; g < end; ++g) {
        SessionSlot& slot = slots[grants[g].slot];
        if (slot.session == nullptr) {
          consumed[g] = grants[g].granted_seconds;  // accounted, not simulated
          continue;
        }
        if (slot.machine->injector() != nullptr) {
          slot.machine->injector()->set_age_months(month_end);
        }
        consumed[g] = slot.session->RunTestRound(grants[g].granted_seconds);
      }
    });

    // Fold in funding order: budget ledger, detections, provenance.
    for (size_t g = 0; g < grants.size(); ++g) {
      const Grant& grant = grants[g];
      SessionSlot& slot = slots[grant.slot];
      point.sessions_funded += 1;
      point.session_seconds += consumed[g];
      if (slot.session == nullptr) {
        continue;
      }
      const bool completed_round =
          slot.session->completed_rounds() > grant.rounds_before;
      if (!completed_round || !slot.session->last_round_summary()->report.any_error()) {
        continue;
      }
      slot.detected = true;
      ScrubDetection detection;
      detection.serial = slot.serial;
      detection.arch_index = slot.arch_index;
      detection.month = month_end;
      detection.rounds = slot.session->completed_rounds();
      detection.scheduled_seconds = slot.session->scheduled_seconds();
      detection.screen_regular_month = slot.screen_regular_month;
      detection.deprecated = slot.session->last_round_summary()->processor_deprecated;
      detection.masked_cores = slot.farron->pool().masked_count();
      detection.provenance = {epoch, grant.rank, grant.score, grant.granted_seconds,
                              consumed[g]};
      if (trace != nullptr) {
        TraceEvent instant =
            MakeTraceInstant("scrub.detection", "scrub", kTraceTrackScrub,
                             month_end * kSecondsPerMonth * 1e6);
        instant.num_args.emplace_back("serial", static_cast<double>(slot.serial));
        instant.num_args.emplace_back("epoch", static_cast<double>(epoch));
        instant.num_args.emplace_back("rank", static_cast<double>(grant.rank));
        instant.num_args.emplace_back("score", grant.score);
        trace_delta.Add(std::move(instant));
      }
      report.detections.push_back(std::move(detection));
      point.detections += 1;
    }

    report.total_budget_seconds += budget_seconds;
    report.session_seconds += point.session_seconds;
    report.sweep_seconds += point.sweep_seconds;
    if (trace != nullptr) {
      TraceEvent span =
          MakeTraceSpan("scrub.epoch", "scrub", kTraceTrackScrub,
                        month_begin * kSecondsPerMonth * 1e6,
                        (month_end - month_begin) * kSecondsPerMonth * 1e6);
      span.num_args.emplace_back("budget_seconds", point.budget_seconds);
      span.num_args.emplace_back("spent_seconds", point.spent_seconds());
      span.num_args.emplace_back("sessions_funded",
                                 static_cast<double>(point.sessions_funded));
      span.num_args.emplace_back("detections", static_cast<double>(point.detections));
      trace_delta.Add(std::move(span));
    }
    report.timeline.push_back(point);
    if (series != nullptr) {
      // Serial epoch loop: cumulative budget-ledger trajectory, one point per epoch,
      // deterministic at any thread count by construction.
      sessions_funded_total += point.sessions_funded;
      series->Append("scrub.budget", SeriesClock::kSim, point.month,
                     report.total_budget_seconds);
      series->Append("scrub.spent", SeriesClock::kSim, point.month,
                     report.total_spent_seconds());
      series->Append("scrub.detections", SeriesClock::kSim, point.month,
                     static_cast<double>(report.detections.size()));
      series->Append("scrub.sessions_funded", SeriesClock::kSim, point.month,
                     static_cast<double>(sessions_funded_total));
    }
    if (config.epoch_tick && !config.epoch_tick(epoch + 1, epochs)) {
      throw ScrubCancelledError{};
    }
  }

  for (const SessionSlot& slot : slots) {
    if (slot.session != nullptr) {
      report.diagnosis_seconds += slot.session->diagnosis_seconds();
    }
  }

  // Decommission replay of the scrubber's detections (src/fleet/capacity policies): the
  // baseline deprecates every detected part; fine-grained decommission keeps the cores
  // the targeted analysis did not mask.
  report.capacity.fleet_cores = report.fleet_cores;
  report.capacity.production_detections = report.detections.size();
  for (const ScrubDetection& detection : report.detections) {
    const uint64_t cores =
        static_cast<uint64_t>(arch_cores[static_cast<size_t>(detection.arch_index)]);
    report.capacity.baseline_cores_lost += cores;
    if (detection.deprecated) {
      report.capacity.fine_grained_cores_lost += cores;
      report.capacity.parts_deprecated_fine += 1;
    } else {
      report.capacity.fine_grained_cores_lost +=
          static_cast<uint64_t>(detection.masked_cores);
    }
  }
  for (const ScrubEpochPoint& point : report.timeline) {
    CapacityPoint capacity_point;
    capacity_point.month = point.month;
    report.capacity.timeline.push_back(capacity_point);
  }
  {
    size_t cursor = 0;
    uint64_t baseline = 0;
    uint64_t fine = 0;
    for (CapacityPoint& capacity_point : report.capacity.timeline) {
      while (cursor < report.detections.size() &&
             report.detections[cursor].month <= capacity_point.month + 1e-9) {
        const ScrubDetection& detection = report.detections[cursor];
        const uint64_t cores =
            static_cast<uint64_t>(arch_cores[static_cast<size_t>(detection.arch_index)]);
        baseline += cores;
        fine += detection.deprecated ? cores
                                     : static_cast<uint64_t>(detection.masked_cores);
        ++cursor;
      }
      capacity_point.baseline_cores_lost = baseline;
      capacity_point.fine_grained_cores_lost = fine;
    }
  }

  if (metrics != nullptr) {
    MetricsDelta delta;
    delta.Add("scrub.runs");
    delta.Add("scrub.sessions", report.sessions);
    delta.Add("scrub.undetectable_sessions", report.undetectable_sessions);
    delta.Add("scrub.detections", report.detections.size());
    delta.Add("scrub.epochs", report.timeline.size());
    delta.Add("scrub.workload_sdc_events", report.workload_sdc_events);
    delta.Set("scrub.budget_seconds", report.total_budget_seconds);
    delta.Set("scrub.spent_seconds", report.total_spent_seconds());
    delta.Set("scrub.utilization", report.utilization());
    delta.Set("scrub.coverage", report.coverage());
    delta.Set("scrub.mean_time_to_detect_months", report.MeanTimeToDetectMonths());
    delta.Set("scrub.diagnosis_seconds", report.diagnosis_seconds);
    metrics->MergeDelta(delta);
  }
  if (trace != nullptr) {
    trace->MergeDelta(std::move(trace_delta));
  }
  return report;
}

}  // namespace sdc
