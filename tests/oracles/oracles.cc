#include "tests/oracles/oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/common/context.h"
#include "src/common/rng.h"
#include "src/fleet/stream.h"
#include "src/telemetry/event_log.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/toolchain/testcase.h"

namespace sdc {
namespace {

// The provenance reduction, written out independently of the screening kernel's: first
// defect id, minimum onset, minimum trigger temperature across the part's defects.
DetectionProvenance ProvenanceOf(uint64_t serial, int arch_index,
                                 std::span<const Defect> defects,
                                 const ScreeningConfig& config, TestStage stage,
                                 double month) {
  DetectionProvenance record;
  record.serial = serial;
  record.arch_index = arch_index;
  record.stage = stage;
  record.month = month;
  record.stage_temperature_celsius =
      config.stages[static_cast<size_t>(stage)].temperature_celsius;
  record.defect_count = static_cast<uint32_t>(defects.size());
  if (!defects.empty()) {
    record.defect_id = defects.front().id;
    record.onset_months = defects.front().onset_months;
    record.min_trigger_celsius = defects.front().min_trigger_celsius;
    for (const Defect& defect : defects.subspan(1)) {
      record.onset_months = std::min(record.onset_months, defect.onset_months);
      record.min_trigger_celsius =
          std::min(record.min_trigger_celsius, defect.min_trigger_celsius);
    }
  }
  return record;
}

// Screens one processor (clean parts included), recomputing MatchingTestcases /
// ExpectedErrors at every probe.
void ScreenProcessor(const ScreeningPipeline& pipeline, const FleetProcessorView& processor,
                     const ScreeningConfig& config, Rng& rng, ScreeningStats& stats) {
  ++stats.tested;
  ++stats.tested_by_arch[processor.arch_index];
  if (!processor.faulty) {
    return;
  }
  ++stats.faulty;
  if (!processor.toolchain_detectable) {
    return;  // escapes every stage (Section 2.3's false negatives)
  }
  const int pcores = MakeArchSpec(processor.arch_index).physical_cores;

  // Per-stage detection probabilities recomputed from scratch at every probe (a part is
  // detected when any defect reproduces).
  auto stage_probability = [&](const StageParams& stage, double age_months) {
    double survive = 1.0;
    for (const Defect& defect : processor.defects) {
      if (defect.onset_months > age_months) {
        continue;  // not yet developed
      }
      const double expected = pipeline.ExpectedErrors(defect, stage, pcores);
      survive *= 1.0 - stage.catch_factor * (1.0 - std::exp(-expected));
    }
    return 1.0 - survive;
  };

  bool detected = false;
  TestStage detected_stage = TestStage::kFactory;
  double detected_month = 0.0;
  const TestStage pre_production[] = {TestStage::kFactory, TestStage::kDatacenter,
                                      TestStage::kReinstall};
  for (TestStage stage : pre_production) {
    if (rng.NextBernoulli(
            stage_probability(config.stages[static_cast<int>(stage)], 0.0))) {
      detected = true;
      detected_stage = stage;
      break;
    }
  }
  if (!detected) {
    for (int cycle = 1;; ++cycle) {
      const double month = RegularRoundMonth(processor.serial, cycle, config);
      if (month > config.horizon_months) {
        break;
      }
      if (rng.NextBernoulli(stage_probability(
              config.stages[static_cast<int>(TestStage::kRegular)], month))) {
        detected = true;
        detected_stage = TestStage::kRegular;
        detected_month = month;
        break;
      }
    }
  }
  if (detected) {
    ++stats.detected_by_stage[static_cast<int>(detected_stage)];
    ++stats.detected_by_arch[processor.arch_index];
    stats.detections.push_back({processor.serial, processor.arch_index, true,
                                detected_stage, detected_month});
    stats.provenance.push_back(ProvenanceOf(processor.serial, processor.arch_index,
                                            processor.defects, config, detected_stage,
                                            detected_month));
  }
}

}  // namespace

FleetPopulation GenerateFleetReference(const PopulationConfig& config) {
  // One lane, scalar, no sinks: the plan's vector level is irrelevant once the blocked
  // kernel is off, and the environment is not consulted.
  EngineContext context(
      EngineOptions{.threads = 1, .simd = SimdLevel::kScalar, .env_overrides = false});
  GenerationPlan plan = GenerationPlan::Build(config, context);
  plan.blocked = false;

  std::vector<FleetShardBuffer> shards(FleetShardStream(config).shard_count());
  const Rng base(config.seed);
  for (uint64_t shard = 0; shard < shards.size(); ++shard) {
    const uint64_t begin = shard * kFleetShardGrain;
    const uint64_t end = std::min(begin + kFleetShardGrain, config.processor_count);
    GenerateFleetShard(config, plan, base, shard, begin, end, shards[shard]);
  }
  return FleetPopulation(config, std::move(shards));
}

ScreeningStats ReferenceScreen(const ScreeningPipeline& pipeline, const FleetPopulation& fleet,
                               const ScreeningConfig& config) {
  ScreeningStats stats;
  const Rng base(config.seed);
  for (uint64_t shard = 0; shard * kScreeningShardGrain < fleet.size(); ++shard) {
    const uint64_t begin = shard * kScreeningShardGrain;
    const uint64_t end = std::min(begin + kScreeningShardGrain, fleet.size());
    Rng rng = base.Fork(shard);
    const size_t first_detection = stats.provenance.size();
    for (uint64_t serial = begin; serial < end; ++serial) {
      ScreenProcessor(pipeline, fleet.processor(serial), config, rng, stats);
    }
    for (size_t i = first_detection; i < stats.provenance.size(); ++i) {
      stats.provenance[i].sub_shard = shard;
      stats.provenance[i].rng_stream = shard;
    }
  }
  return stats;
}

ProtectionReport SimulateProtectedWorkloadReference(Farron& farron, FaultyMachine& machine,
                                                    const TestSuite& suite,
                                                    const WorkloadSpec& spec, double hours,
                                                    bool protect) {
  ProtectionReport report;
  report.simulated_hours = hours;
  Processor& cpu = machine.cpu();
  Testcase& kernel = suite.at(spec.kernel_case_index);
  // Batch granularity ~0.5 s of represented execution keeps the control loop fine enough to
  // clip short excursions while staying cheap to simulate.
  cpu.SetTimeScale(2e5);

  std::vector<int> usable = farron.pool().UsableCores();
  if (usable.empty()) {
    // Deprecated processor: the workload would run elsewhere; nothing to simulate.
    return report;
  }
  const int smt = cpu.spec().threads_per_core;
  int app_pcore = usable.front();
  for (int pcore : usable) {
    if (pcore == spec.preferred_pcore) {
      app_pcore = pcore;
    }
  }
  Rng rng(spec.seed);
  std::vector<SdcRecord> records;
  TestContext context;
  context.machine = &machine;
  context.rng = &rng;
  context.records = &records;
  context.max_records = 4096;
  context.cpu_id = machine.info().cpu_id;
  context.lcores = {app_pcore * smt};
  if (kernel.info().multithreaded) {
    int partner = (app_pcore + 1) % cpu.spec().physical_cores;
    for (int pcore : usable) {
      if (pcore != app_pcore) {
        partner = pcore;
        break;
      }
    }
    context.lcores.push_back(partner * smt);
  }

  auto set_utilization = [&](double utilization) {
    machine.SetAllCoreUtilization(0.0);
    for (int pcore : usable) {
      cpu.SetCoreUtilization(pcore, utilization);
    }
  };
  set_utilization(spec.base_utilization);
  cpu.thermal().SettleToSteadyState(
      std::vector<double>(static_cast<size_t>(cpu.spec().physical_cores), 0.0));

  // Sim-domain trace of the serial control loop, accumulated locally and merged once at
  // the end: one span for the whole run on the simulated clock (microseconds), plus one
  // instant per backoff transition. The loop is serial, so the delta is trivially in
  // order; the simulated clock makes it deterministic.
  TraceRecorder* trace = farron.context().trace();
  TraceDelta trace_delta;
  const double run_start_seconds = cpu.now_seconds();

  const double end_seconds = cpu.now_seconds() + hours * 3600.0;
  double burst_until = -1.0;
  bool throttled = false;
  while (cpu.now_seconds() < end_seconds) {
    // Workload phase: steady load with occasional sustained bursts.
    if (cpu.now_seconds() > burst_until && rng.NextBernoulli(spec.burst_probability)) {
      burst_until = cpu.now_seconds() + spec.burst_seconds;
    }
    const bool bursting = cpu.now_seconds() <= burst_until;
    double base = spec.base_utilization;
    if (spec.diurnal_amplitude > 0.0) {
      base += spec.diurnal_amplitude *
              std::sin(2.0 * M_PI * cpu.now_seconds() / spec.diurnal_period_seconds);
      base = std::clamp(base, 0.0, 1.0);
    }
    double utilization = bursting ? spec.burst_utilization : base;
    if (throttled) {
      utilization = std::min(utilization, farron.backoff_utilization());
    }
    set_utilization(utilization);

    kernel.RunBatch(context);
    double busy = 0.0;
    for (int lcore : context.lcores) {
      busy = std::max(busy, cpu.ConsumeBusySeconds(cpu.pcore_of(lcore)));
    }
    busy = std::max(busy, 1e-8);
    // Throttled or lightly loaded execution stretches the same work over more wall time.
    const double dt = busy * cpu.time_scale() / std::max(utilization, 0.05);
    cpu.AdvanceSeconds(dt);
    if (throttled) {
      report.backoff_seconds += dt;
    }

    double hottest = 0.0;
    for (int pcore : usable) {
      hottest = std::max(hottest, cpu.core_temperature(pcore));
    }
    report.max_temperature = std::max(report.max_temperature, hottest);
    if (protect) {
      const Farron::ControlAction action = farron.ControlStep(hottest);
      const bool should_throttle = action == Farron::ControlAction::kWorkloadBackoff;
      if (action == Farron::ControlAction::kCoolingBoosted) {
        ++report.cooling_boosts;
      }
      if (should_throttle != throttled && farron.event_log() != nullptr) {
        farron.event_log()->Record(
            should_throttle ? EventKind::kBackoffEngaged : EventKind::kBackoffReleased,
            cpu.now_seconds(), machine.info().cpu_id, -1, hottest);
      }
      if (should_throttle != throttled && trace != nullptr) {
        TraceEvent instant = MakeTraceInstant(
            should_throttle ? "backoff.engaged" : "backoff.released", "protection",
            kTraceTrackProtection, cpu.now_seconds() * 1e6);
        instant.num_args.emplace_back("temperature_celsius", hottest);
        trace_delta.Add(std::move(instant));
      }
      if (should_throttle && !throttled) {
        ++report.backoff_engagements;
      }
      throttled = should_throttle;
    }
  }
  report.sdc_events = context.errors_found;
  report.final_boundary = farron.boundary().boundary_celsius();
  report.final_cooling_boost = cpu.thermal().cooling_boost();
  set_utilization(spec.base_utilization);
  // One delta per simulated run: the loop above is serial, so a single end-of-run summary
  // keeps the registry cheap and the values a pure function of (machine, spec, hours).
  // Per-event counters ("events.*") flow separately through EventLog::AttachMetrics.
  if (MetricsRegistry* metrics = farron.context().metrics(); metrics != nullptr) {
    MetricsDelta delta;
    delta.Add("protection.runs");
    delta.Add("protection.sdc_events", report.sdc_events);
    delta.Add("protection.backoff_engagements", report.backoff_engagements);
    delta.Add("protection.cooling_boosts", report.cooling_boosts);
    delta.Set("protection.max_temperature_celsius", report.max_temperature);
    delta.Set("protection.final_boundary_celsius", report.final_boundary);
    delta.Set("protection.backoff_seconds_per_hour",
              hours > 0.0 ? report.backoff_seconds / hours : 0.0);
    metrics->MergeDelta(delta);
  }
  if (trace != nullptr) {
    TraceEvent span = MakeTraceSpan("protection.run", "protection",
                                    kTraceTrackProtection, run_start_seconds * 1e6,
                                    (cpu.now_seconds() - run_start_seconds) * 1e6);
    span.num_args.emplace_back("sdc_events", static_cast<double>(report.sdc_events));
    span.num_args.emplace_back("backoff_engagements",
                               static_cast<double>(report.backoff_engagements));
    span.num_args.emplace_back("final_boundary_celsius", report.final_boundary);
    TraceDelta run_delta;
    run_delta.Add(std::move(span));
    run_delta.MergeFrom(std::move(trace_delta));  // span first, then the transitions
    trace->MergeDelta(std::move(run_delta));
  }
  return report;
}

Word128 BitsOfFloat80Reference(long double value) {
  constexpr int kBias = 16383;
  Word128 out;
  const bool negative = std::signbit(value);
  long double magnitude = negative ? -value : value;
  uint16_t high16 = negative ? 0x8000u : 0u;
  if (magnitude == 0.0L) {
    out.hi = high16;
    return out;
  }
  if (std::isinf(magnitude) || std::isnan(magnitude)) {
    high16 = static_cast<uint16_t>(high16 | 0x7fffu);
    out.hi = high16;
    out.lo = std::isnan(magnitude) ? 0xc000000000000000ull : 0x8000000000000000ull;
    return out;
  }
  int exponent = 0;
  long double mantissa = std::frexp(magnitude, &exponent);
  mantissa *= 2.0L;
  exponent -= 1;
  const int biased = exponent + kBias;
  if (biased <= 0) {
    out.hi = high16;
    return out;
  }
  if (biased >= 0x7fff) {
    out.hi = static_cast<uint64_t>(high16 | 0x7fffu);
    out.lo = 0x8000000000000000ull;
    return out;
  }
  out.lo = static_cast<uint64_t>(std::floor(mantissa * 0x1.0p63L));
  out.hi = static_cast<uint64_t>(high16 | static_cast<uint16_t>(biased));
  return out;
}

long double Float80FromBitsReference(const Word128& bits) {
  constexpr int kBias = 16383;
  constexpr int kFractionBits = 63;
  const auto high16 = static_cast<uint16_t>(bits.hi & 0xffffu);
  const bool negative = (high16 & 0x8000u) != 0;
  const int biased = high16 & 0x7fffu;
  const uint64_t mantissa = bits.lo;
  long double magnitude = 0.0L;
  if (biased == 0x7fff) {
    magnitude = (mantissa << 1) == 0 ? std::numeric_limits<long double>::infinity()
                                     : std::numeric_limits<long double>::quiet_NaN();
  } else if (biased == 0 && mantissa == 0) {
    magnitude = 0.0L;
  } else {
    magnitude =
        std::ldexp(static_cast<long double>(mantissa), biased - kBias - kFractionBits);
  }
  return negative ? -magnitude : magnitude;
}

uint32_t Adler32Reference(std::span<const uint8_t> data) {
  constexpr uint32_t kModulus = 65521;
  uint32_t a = 1;
  uint32_t b = 0;
  for (uint8_t byte : data) {
    a = (a + byte) % kModulus;
    b = (b + a) % kModulus;
  }
  return (b << 16) | a;
}

uint32_t Adler32OnProcessorReference(Processor& cpu, int lcore,
                                     std::span<const uint8_t> data) {
  constexpr uint32_t kModulus = 65521;
  uint32_t a = 1;
  uint32_t b = 0;
  size_t in_block = 0;
  for (uint8_t byte : data) {
    a = (a + byte) % kModulus;
    b = (b + a) % kModulus;
    if (++in_block == 16) {
      const uint32_t routed = cpu.ExecuteU32(lcore, OpKind::kIntAdd, (b << 16) | a);
      a = routed & 0xffffu;
      b = routed >> 16;
      in_block = 0;
    }
  }
  return (b << 16) | a;
}

void EagerIntensityReference::Advance(double dt_seconds, double time_scale) {
  if (dt_seconds <= 0.0) {
    return;
  }
  constexpr double kBlend = 0.5;
  for (auto& core : cells_) {
    for (Cell& cell : core) {
      const double fresh =
          static_cast<double>(cell.ops_since_advance) * time_scale / dt_seconds;
      cell.intensity = (1.0 - kBlend) * cell.intensity + kBlend * fresh;
      cell.ops_since_advance = 0;
    }
  }
}

}  // namespace sdc
