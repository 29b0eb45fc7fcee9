#include "src/sim/processor.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

namespace sdc {
namespace {

// The EMA's blend factor: a memory of a few advance periods, matching how quickly usage
// stress builds in practice.
constexpr double kBlend = 0.5;

// `x` after `skipped` advances that ran no op of its cell, each the blend
// (1 - kBlend) * x + kBlend * 0, which is an exact halving while the result stays normal.
// Below DBL_MIN the blend rounds, so those steps take the expression itself: at most 53
// of them reach zero.
double DecayIdle(double x, uint64_t skipped) {
  static_assert(kBlend == 0.5, "the ldexp shortcut is exact for halvings only");
  if (x == 0.0 || skipped == 0) {
    return x;
  }
  if (x >= DBL_MIN) {
    const uint64_t exact = static_cast<uint64_t>(std::ilogb(x) - std::ilogb(DBL_MIN));
    const uint64_t halvings = std::min(skipped, exact);
    x = std::ldexp(x, -static_cast<int>(halvings));
    skipped -= halvings;
  }
  for (; skipped > 0 && x != 0.0; --skipped) {
    x = (1.0 - kBlend) * x + kBlend * 0.0;
  }
  return x;
}

}  // namespace

Processor::Processor(ProcessorSpec spec)
    : spec_(std::move(spec)),
      thermal_(spec_.physical_cores, spec_.thermal),
      cores_(static_cast<size_t>(spec_.physical_cores)),
      utilization_(static_cast<size_t>(spec_.physical_cores), 0.0) {}

OpContext Processor::CountOps(int lcore, OpKind op, DataType type, uint64_t count) {
  CountCleanOps(lcore, op, count);
  const int pcore = pcore_of(lcore);
  OpContext context;
  context.pcore = pcore;
  context.lcore = lcore;
  context.op = op;
  context.type = type;
  context.temperature = thermal_.core_temperature(pcore);
  context.utilization = utilization_[pcore];
  CoreState& core = cores_[pcore];
  const int kind = static_cast<int>(op);
  core.op_intensity[kind] =
      DecayIdle(core.op_intensity[kind], advances_ - core.intensity_stamp[kind]);
  core.intensity_stamp[kind] = advances_;
  context.op_intensity = core.op_intensity[kind];
  context.weight = time_scale_;
  return context;
}

void Processor::ExecuteBatch(int lcore, OpKind op, DataType type, std::span<Word128> values) {
  if (!MayCorrupt(op)) {
    CountCleanOps(lcore, op, values.size());
    return;
  }
  const OpContext context = CountOps(lcore, op, type, values.size());
  if (!values.empty()) {
    hook_->OnExecuteBatch(context, values);
  }
}

OpContext Processor::MakeContext(int lcore, OpKind op, DataType type) {
  return CountOps(lcore, op, type, 1);
}

void Processor::SetCoreUtilization(int pcore, double utilization) {
  utilization_[pcore] = std::clamp(utilization, 0.0, 1.0);
}

void Processor::AdvanceSeconds(double dt_seconds) {
  if (dt_seconds <= 0.0) {
    return;
  }
  now_seconds_ += dt_seconds;
  thermal_.Advance(dt_seconds, utilization_);
  // Blend fresh rates into the touched cells' estimates, after the advances they skipped;
  // every other cell owes this advance's halving until it is next touched or read.
  ++advances_;
  for (const int cell : touched_) {
    CoreState& core = cores_[static_cast<size_t>(cell / kOpKindCount)];
    const int kind = cell % kOpKindCount;
    const double fresh =
        static_cast<double>(core.ops_since_advance[kind]) * time_scale_ / dt_seconds;
    const double idle = DecayIdle(core.op_intensity[kind],
                                  advances_ - 1 - core.intensity_stamp[kind]);
    core.op_intensity[kind] = (1.0 - kBlend) * idle + kBlend * fresh;
    core.intensity_stamp[kind] = advances_;
    core.ops_since_advance[kind] = 0;
  }
  touched_.clear();
}

double Processor::ConsumeBusySeconds(int pcore) {
  CoreState& core = cores_[pcore];
  const double seconds = BusySeconds(core.busy_cycles_unconsumed);
  core.busy_cycles_unconsumed = 0;
  return seconds;
}

uint64_t Processor::op_count(int pcore, OpKind op) const {
  return cores_[pcore].op_counts[static_cast<int>(op)];
}

uint64_t Processor::total_op_count(OpKind op) const {
  uint64_t total = 0;
  for (const CoreState& core : cores_) {
    total += core.op_counts[static_cast<int>(op)];
  }
  return total;
}

}  // namespace sdc
